"""Tests for phase schedules, the beamspace transform, noise calibration, and
ground-truth sparsity extraction."""

import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest

from risce.channel import generate_channels
from risce.config import ArrayGeometry, SystemConfig
from risce.estimators import EstimatorInput
from risce.harness import trial_rng
from risce.sensing import (
    GroundTruth,
    StructureViolation,
    extract_ground_truth,
    generate_phase_schedule,
    make_sensing_setup,
    roll_map,
    shift_indices,
    simulate_measurements,
)
from reference import beamspace_cascaded, cascade_spatial, dense_channels, dft_matrix
from util import build_trial, hand_draw, known_shift_scenario, per_user_measurements


def independent_beamspace(spatial: np.ndarray) -> np.ndarray:
    """Beamspace transform computed with numpy's FFT instead of explicit DFTs."""
    m = spatial.conj().T
    return np.fft.ifft(np.fft.fft(m, axis=0, norm="ortho"), axis=1, norm="ortho")


class TestPhaseSchedule:
    def test_unit_modulus(self):
        phases = generate_phase_schedule(128, 32, np.random.default_rng(0))
        assert phases.shape == (128, 32)
        npt.assert_allclose(np.abs(phases), 1.0, atol=1e-14)

    def test_determinism(self):
        a = generate_phase_schedule(16, 8, np.random.default_rng(5))
        b = generate_phase_schedule(16, 8, np.random.default_rng(5))
        npt.assert_array_equal(a, b)


class TestSensingSetup:
    def test_sensing_matrix_definition(self):
        # A = phases^H @ f_ris^H, with the Kronecker DFT for planar arrays
        cases = [
            (ArrayGeometry.ula(16), dft_matrix(16)),
            (ArrayGeometry.upa(4, 8), np.kron(dft_matrix(4), dft_matrix(8))),
        ]
        for seed, (geometry, f_ris) in enumerate(cases, start=1):
            setup = make_sensing_setup(8, geometry, 4, np.random.default_rng(seed))
            assert setup.sensing_matrix.shape == (4, geometry.n_elements)
            expected = setup.phases.conj().T @ f_ris.conj().T
            npt.assert_allclose(setup.sensing_matrix, expected, rtol=0, atol=1e-12)

    def test_column_norm_concentration(self):
        # random phases keep every sensing column within a factor 2 of sqrt(T)
        for seed in range(20):
            setup = make_sensing_setup(8, ArrayGeometry.ula(128), 64, np.random.default_rng(seed))
            norms = np.linalg.norm(setup.sensing_matrix, axis=0)
            assert np.all(norms >= 0.5 * np.sqrt(64))
            assert np.all(norms <= 2.0 * np.sqrt(64))


class TestBeamspaceCascaded:
    def test_all_dc_single_entry(self):
        real = hand_draw(ArrayGeometry.ula(16), 8, [(1.0, 0, 0)], [[(1.0, 0)]])
        G, h = dense_channels(real)
        H = beamspace_cascaded(G, h[0], real.geometry)
        assert abs(H[0, 0] - 1.0 / np.sqrt(16)) < 1e-12
        H[0, 0] = 0.0
        assert np.max(np.abs(H)) < 1e-12

    def test_matches_fft_oracle(self):
        cfg = dataclasses.replace(SystemConfig(), n_users=2)
        G, h = dense_channels(generate_channels(cfg, np.random.default_rng(3)))
        for k in range(2):
            got = beamspace_cascaded(G, h[k], cfg.geometry)
            expected = independent_beamspace(cascade_spatial(G, h[k]))
            assert np.linalg.norm(got - expected) < 1e-10

    def test_transform_round_trip(self):
        cfg = SystemConfig()
        G, h = dense_channels(generate_channels(cfg, np.random.default_rng(9)))
        H = beamspace_cascaded(G, h[0], cfg.geometry)
        back = dft_matrix(cfg.geometry.n_elements).conj().T @ H @ dft_matrix(cfg.n_bs)
        spatial = cascade_spatial(G, h[0])
        assert np.linalg.norm(back - spatial.conj().T) < 1e-9

    def test_user_grid_shift_moves_row_support(self):
        # moving the user path from grid qa to qb shifts the rows by qa - qb
        geometry = ArrayGeometry.ula(32)
        g_paths = [(0.8 - 0.1j, 2, 4), (1.1 + 0.5j, 9, 21)]
        qa, qb = 5, 18
        rows = {}
        for q in (qa, qb):
            G, h = dense_channels(hand_draw(geometry, 16, g_paths, [[(1.0, q)]]))
            H = beamspace_cascaded(G, h[0], geometry)
            rows[q] = np.flatnonzero(np.max(np.abs(H), axis=1) > 1e-9)
        expected = np.sort((rows[qa] + (qa - qb)) % 32)
        npt.assert_array_equal(rows[qb], expected)

    def test_occupied_columns_and_rows_count(self):
        cfg = SystemConfig()
        real = generate_channels(cfg, np.random.default_rng(12))
        G, h = dense_channels(real)
        for k in range(cfg.n_users):
            H = beamspace_cascaded(G, h[k], cfg.geometry)
            occupied_cols = np.flatnonzero(np.max(np.abs(H), axis=0) > 1e-9)
            assert occupied_cols.size == cfg.bs_paths
            for c in occupied_cols:
                assert np.flatnonzero(np.abs(H[:, c]) > 1e-9).size == len(real.h_paths[k])


class TestShiftIndices:
    def test_flat_wraparound(self):
        geometry = ArrayGeometry.ula(8)
        npt.assert_array_equal(shift_indices(np.array([6, 1]), 3, geometry), [1, 4])

    def test_negative_shift(self):
        geometry = ArrayGeometry.ula(8)
        npt.assert_array_equal(shift_indices(np.array([0, 2]), -3, geometry), [5, 7])

    def test_planar_per_axis_wrap(self):
        geometry = ArrayGeometry.upa(4, 8)
        # element (3, 7) shifted by (2, 3) wraps to (1, 2) -> flat 1*8+2
        npt.assert_array_equal(shift_indices(np.array([3 * 8 + 7]), (2, 3), geometry), [10])

    @pytest.mark.parametrize(
        "geometry, index",
        [
            (ArrayGeometry.ula(128), 128),
            (ArrayGeometry.ula(128), -1),
            (ArrayGeometry.upa(16, 16), 256),
        ],
    )
    def test_out_of_range_index_rejected(self, geometry, index):
        n = geometry.n_elements
        with pytest.raises(ValueError, match=rf"\[0, {n}\)"):
            shift_indices(np.array([0, index]), 0, geometry)

    @pytest.mark.parametrize(
        "geometry, offsets",
        [
            (ArrayGeometry.ula(8), [0, 3, -3, 11]),
            (ArrayGeometry.upa(4, 8), [(0, 0), (2, 3), (-1, -5), (5, 9)]),
        ],
        ids=["ula-8", "upa-4x8"],
    )
    def test_roll_map_row_c_moves_every_element_by_offset_c(self, geometry, offsets):
        n1, n2 = geometry.n1, geometry.n2
        expected = []
        for offset in offsets:
            d1, d2 = offset if geometry.is_planar else (offset, 0)
            expected.append(
                [((p // n2 + d1) % n1) * n2 + (p % n2 + d2) % n2 for p in range(n1 * n2)]
            )
        roll = roll_map(offsets, geometry)
        assert roll.dtype == np.int_ and roll.tobytes() == np.array(expected).tobytes()
        # every row is a permutation of the grid, so distinct anchors roll to distinct rows
        for row in roll:
            npt.assert_array_equal(np.sort(row), np.arange(n1 * n2))
        idx = np.array([5, 0, 17, 3]) % geometry.n_elements
        for row, offset in zip(roll, offsets):
            npt.assert_array_equal(np.sort(row[idx]), shift_indices(idx, offset, geometry))


class TestExtractGroundTruth:
    def test_known_shift_scenario(self):
        real, expected_offsets, expected_rows = known_shift_scenario()
        setup = make_sensing_setup(64, real.geometry, 8, np.random.default_rng(0))
        truth = extract_ground_truth(real, setup)
        npt.assert_array_equal(truth.col_support, [5, 12, 40])
        assert truth.offsets == expected_offsets
        npt.assert_array_equal(truth.row_patterns[0], expected_rows[0])
        for j, c in enumerate(truth.col_support):
            rows = np.flatnonzero(np.abs(truth.H[0][:, c]) > 1e-9)
            npt.assert_array_equal(rows, expected_rows[j])

    def test_single_column_offsets(self):
        cfg = dataclasses.replace(SystemConfig(), bs_paths=1, n_users=3)
        real = generate_channels(cfg, np.random.default_rng(8))
        setup = make_sensing_setup(cfg.n_bs, cfg.geometry, 8, np.random.default_rng(8))
        truth = extract_ground_truth(real, setup)
        assert truth.offsets == [0]

    def test_offsets_match_brute_force_and_all_users(self):
        cfg = SystemConfig()
        real = generate_channels(cfg, np.random.default_rng(15))
        setup = make_sensing_setup(cfg.n_bs, cfg.geometry, 8, np.random.default_rng(15))
        truth = extract_ground_truth(real, setup)
        n = cfg.geometry.n_elements
        for k in range(cfg.n_users):
            pattern = set(
                np.flatnonzero(np.abs(truth.H[k][:, truth.col_support[0]]) > 1e-9).tolist()
            )
            for j, c in enumerate(truth.col_support):
                rows = set(np.flatnonzero(np.abs(truth.H[k][:, c]) > 1e-9).tolist())
                matches = [
                    d for d in range(n) if {(p + d) % n for p in pattern} == rows
                ]
                assert truth.offsets[j] % n in matches

    def test_planar_extraction(self):
        cfg = dataclasses.replace(
            SystemConfig(), geometry=ArrayGeometry.upa(8, 16), n_users=4
        )
        real = generate_channels(cfg, np.random.default_rng(2))
        setup = make_sensing_setup(cfg.n_bs, cfg.geometry, 8, np.random.default_rng(2))
        truth = extract_ground_truth(real, setup)
        assert len(truth.offsets) == cfg.bs_paths
        assert truth.offsets[0] == (0, 0)
        for off in truth.offsets:
            d1, d2 = off
            assert -4 <= d1 < 4 and -8 <= d2 < 8
            assert type(d1) is int and type(d2) is int
        # a linear array's offsets stay plain ints
        linear = dataclasses.replace(cfg, geometry=ArrayGeometry.ula(128))
        real = generate_channels(linear, np.random.default_rng(2))
        setup = make_sensing_setup(cfg.n_bs, linear.geometry, 8, np.random.default_rng(2))
        truth = extract_ground_truth(real, setup)
        assert truth.offsets[0] == 0
        assert all(type(d) is int and -64 <= d < 64 for d in truth.offsets)

    def test_structural_break_is_detected(self):
        # two reflector-to-BS paths landing on one BS beam merge two columns
        geometry = ArrayGeometry.ula(32)
        real = hand_draw(geometry, 16, [(1.0, 5, 2), (1.0, 5, 9)], [[(1.0, 0)]])
        setup = make_sensing_setup(16, geometry, 4, np.random.default_rng(0))
        message = "^two reflector-to-BS paths share one BS beam$"
        with pytest.raises(StructureViolation, match=message):
            extract_ground_truth(real, setup)

    @pytest.mark.parametrize(
        "g_paths, h_paths, message",
        [
            # two paths of one user on one reflector index merge two rows
            (
                [(1.0, 5, 2), (1.0, 7, 9)],
                [[(1.0, 3)], [(1.0, 4), (0.5j, 4)]],
                "user 1: two paths share one reflector index",
            ),
            # a zero user-path gain leaves its entries empty
            (
                [(1.0, 5, 2)],
                [[(1.0, 3), (0j, 8)]],
                "user 0: a zero path gain leaves an entry empty",
            ),
            # a zero reflector-to-BS gain empties a whole column
            (
                [(0j, 5, 2), (1.0, 7, 9)],
                [[(1.0, 3)]],
                "user 0: a zero path gain leaves an entry empty",
            ),
            # no reflector-to-BS path leaves every column empty
            ([], [[(1.0, 3)]], "no reflector-to-BS path: every column is empty"),
        ],
        ids=["repeated-user-index", "zero-user-gain", "zero-bs-gain", "empty-g-paths"],
    )
    def test_malformed_path_lists_are_rejected(self, g_paths, h_paths, message):
        geometry = ArrayGeometry.ula(32)
        real = hand_draw(geometry, 16, g_paths, h_paths)
        setup = make_sensing_setup(16, geometry, 4, np.random.default_rng(0))
        with pytest.raises(StructureViolation, match=f"^{message}$"):
            extract_ground_truth(real, setup)

    @pytest.mark.parametrize(
        "geometry, h_paths, message",
        [
            # user 2 repeats an index; user 3 also has a zero gain, but comes later
            (
                ArrayGeometry.ula(32),
                [[(1.0, 3)], [(1.0, 4), (0.5j, 6)], [(1.0, 7), (1.0, 7)], [(0j, 1)]],
                "user 2: two paths share one reflector index",
            ),
            # user 1's zero gain comes before user 3's repeated index
            (
                ArrayGeometry.ula(32),
                [[(1.0, 3)], [(0j, 4), (1.0, 6)], [(1.0, 7)], [(1.0, 9), (2.0, 9)]],
                "user 1: a zero path gain leaves an entry empty",
            ),
            # user 3 has both faults; the repeated index is named first.  Flat
            # indices on the 4 x 8 grid: (0, 1) is 1, (2, 3) 19, (1, 1) 9, (3, 5) 29
            (
                ArrayGeometry.upa(4, 8),
                [[(1.0, 1)], [(1.0, 19)], [(1.0, 9)], [(0j, 29), (1.0, 29)]],
                "user 3: two paths share one reflector index",
            ),
        ],
        ids=["repeated-index-user-2", "zero-gain-user-1", "planar-both-user-3"],
    )
    def test_violation_names_the_first_offending_user(self, geometry, h_paths, message):
        ris = [2, 13] if geometry.is_planar else [2, 9]  # (0, 2) and (1, 5) on the 4 x 8 grid
        real = hand_draw(geometry, 16, [(1.0, 5, ris[0]), (1.0, 7, ris[1])], h_paths)
        setup = make_sensing_setup(16, geometry, 4, np.random.default_rng(0))
        with pytest.raises(StructureViolation, match=f"^{message}$"):
            extract_ground_truth(real, setup)

    @pytest.mark.parametrize(
        "geometry, g_paths, h_paths, message",
        [
            # index 130 on 128 elements would wrap to row 126
            (
                ArrayGeometry.ula(128),
                [(1.0, 5, 130)],
                [[(1.0, 4)]],
                "reflector-to-BS link: reflector index 130 outside [0, 128)",
            ),
            # -3 would land on row 3
            (
                ArrayGeometry.ula(128),
                [(1.0, 5, 0)],
                [[(1.0, 4)], [(1.0, 7), (1.0, -3)]],
                "user 1: reflector index -3 outside [0, 128)",
            ),
            # beam 70 of 64 would fail only later, indexing the measurements
            (
                ArrayGeometry.ula(128),
                [(1.0, 70, 0)],
                [[(1.0, 4)]],
                "reflector-to-BS link: BS beam 70 outside [0, 64)",
            ),
            # checked before the shared beam and the zero gain, on the flat planar grid
            (
                ArrayGeometry.upa(8, 16),
                [(0j, 5, 2), (1.0, 5, 9)],
                [[(1.0, 4)], [(1.0, 128)]],
                "user 1: reflector index 128 outside [0, 128)",
            ),
        ],
        ids=["ris-130-of-128", "user-ris-minus-3", "beam-70-of-64", "planar-before-structure"],
    )
    def test_off_grid_index_is_rejected(self, geometry, g_paths, h_paths, message):
        real = hand_draw(geometry, 64, g_paths, h_paths)
        setup = make_sensing_setup(64, geometry, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            extract_ground_truth(real, setup)

    @pytest.mark.parametrize(
        "drawn_on, built_on",
        [
            (ArrayGeometry.ula(128), ArrayGeometry.ula(64)),
            (ArrayGeometry.ula(64), ArrayGeometry.ula(128)),
            (ArrayGeometry.upa(16, 8), ArrayGeometry.upa(8, 16)),
        ],
        ids=["ula128-on-ula64", "ula64-on-ula128", "upa16x8-on-upa8x16"],
    )
    def test_realization_on_another_grid_is_rejected(self, drawn_on, built_on):
        # indices drawn on one grid read as valid, but wrong, entries of another
        cfg = SystemConfig(geometry=drawn_on, n_users=2, bs_paths=2, ue_paths=(1, 2))
        for seed in range(20):
            rng = trial_rng(seed, 0, 0)
            real = generate_channels(cfg, rng)
            setup = make_sensing_setup(cfg.n_bs, built_on, 4, rng)
            with pytest.raises(ValueError) as info:
                extract_ground_truth(real, setup)
            assert repr(drawn_on) in str(info.value) and repr(built_on) in str(info.value)

    @pytest.mark.parametrize(
        "geometry",
        [ArrayGeometry.ula(128), ArrayGeometry.upa(16, 16), ArrayGeometry.upa(8, 16)],
        ids=["ula128", "upa16x16", "upa8x16"],
    )
    def test_matches_dense_beamspace_transform(self, geometry):
        # the closed-form truth against the model's dense definition, on 100 draws
        cfg = SystemConfig(geometry=geometry)
        worst = 0.0
        for trial in range(100):
            rng = trial_rng(41, 0, trial)
            real = generate_channels(cfg, rng)
            setup = make_sensing_setup(cfg.n_bs, geometry, 4, rng)
            truth = extract_ground_truth(real, setup)
            G, h = dense_channels(real)
            dense = beamspace_cascaded(G, h, geometry)
            worst = max(worst, float(np.max(np.abs(truth.H - dense))))
            # nonzero entries: each user's pattern rolled by each column's offset
            patterns = np.concatenate(truth.row_patterns)
            users = np.repeat(np.arange(cfg.n_users), list(map(len, truth.row_patterns)))
            rows = roll_map(truth.offsets, geometry)[:, patterns]  # C x (all users' paths)
            expected = np.zeros(truth.H.shape, dtype=bool)
            expected[users, rows, truth.col_support[:, None]] = True
            npt.assert_array_equal(truth.H != 0, expected)
        assert worst <= 1e-12

    def test_many_draws_satisfy_structure(self):
        cfg = SystemConfig()
        for seed in range(30):
            real, setup, truth, _, _ = build_trial(
                dataclasses.replace(cfg, base_seed=seed), trial_index=0
            )
            assert truth.col_support.size == cfg.bs_paths
            for k in range(cfg.n_users):
                assert truth.row_patterns[k].size == len(real.h_paths[k])


class TestSimulateMeasurements:
    def test_noiseless_is_exact(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None)
        _, setup, truth, meas, _ = build_trial(cfg)
        assert meas.noise_variance == 0.0
        for k in range(cfg.n_users):
            npt.assert_array_equal(meas.Y[k], setup.sensing_matrix @ truth.H[k])

    def test_one_stacked_array_shared_by_the_input(self):
        cfg = SystemConfig(n_pilots=48)
        _, setup, truth, meas, _ = build_trial(cfg)
        assert meas.Y.shape == (cfg.n_users, cfg.n_pilots, cfg.n_bs)
        assert meas.Y.flags.c_contiguous
        inp = EstimatorInput(
            Y=meas.Y,
            sensing_matrix=setup.sensing_matrix,
            n_columns=cfg.bs_paths,
            row_counts=[pattern.size for pattern in truth.row_patterns],
            geometry=cfg.geometry,
        )
        assert inp.Y is meas.Y and np.shares_memory(inp.Y, meas.Y)

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(),
            SystemConfig(geometry=ArrayGeometry.upa(16, 16), n_pilots=64),
            SystemConfig(snr_db=None),
            SystemConfig(n_users=1, snr_db=-5.0),
        ],
        ids=["ula128", "upa16x16", "noiseless", "one-user"],
    )
    def test_each_user_matches_the_per_user_synthesis(self, cfg):
        for trial in range(3):
            rng = trial_rng(cfg.base_seed, 0, trial)
            real = generate_channels(cfg, rng)
            setup = make_sensing_setup(cfg.n_bs, cfg.geometry, cfg.n_pilots, rng)
            truth = extract_ground_truth(real, setup)
            state = rng.bit_generator.state
            meas = simulate_measurements(truth, setup, cfg.snr_db, rng)
            rng.bit_generator.state = state
            expected = per_user_measurements(truth, setup, cfg.snr_db, rng)
            assert len(meas.Y) == len(expected) == cfg.n_users
            for Y_k, reference in zip(meas.Y, expected):
                assert Y_k.tobytes() == reference.tobytes()

    def test_infinite_snr_is_noiseless(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=float("inf"))
        meas = build_trial(cfg)[3]
        assert meas.noise_variance == 0.0

    def test_zero_channels_edge_case(self):
        geometry = ArrayGeometry.ula(16)
        setup = make_sensing_setup(8, geometry, 4, np.random.default_rng(0))
        no_cols = np.zeros(0, dtype=int)
        truth = GroundTruth(
            values=np.zeros((1, 16, 0), dtype=complex),
            col_support=no_cols,
            row_patterns=[np.zeros(0, dtype=int)],
            offsets=[0],
            n_bs=8,
        )
        meas = simulate_measurements(truth, setup, 0.0, np.random.default_rng(1))
        assert meas.noise_variance == 0.0
        npt.assert_array_equal(meas.Y[0], np.zeros((4, 8)))

    def test_snr_calibration_within_half_db(self):
        cfg = SystemConfig()
        signal_power = 0.0
        noise_power = 0.0
        for trial in range(100):
            rng = trial_rng(0, 0, trial)
            real = generate_channels(cfg, rng)
            setup = make_sensing_setup(cfg.n_bs, cfg.geometry, cfg.n_pilots, rng)
            truth = extract_ground_truth(real, setup)
            meas = simulate_measurements(truth, setup, cfg.snr_db, rng)
            for k in range(cfg.n_users):
                clean = setup.sensing_matrix @ truth.H[k]
                signal_power += float(np.sum(np.abs(clean) ** 2))
                noise_power += float(np.sum(np.abs(meas.Y[k] - clean) ** 2))
        empirical_db = 10.0 * np.log10(signal_power / noise_power)
        assert abs(empirical_db - 0.0) < 0.5

    @pytest.mark.parametrize(
        "snr_db",
        [float("nan"), float("-inf"), 4000.0, -4000.0, -3200.0],
        ids=["nan", "-inf", "4000", "-4000", "-3200"],
    )
    def test_non_finite_snr_rejected_before_any_noise_draw(self, snr_db):
        _, setup, truth, _, _ = build_trial(SystemConfig())
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="snr_db"):
            simulate_measurements(truth, setup, snr_db, rng)
        assert rng.bit_generator.state == state

    def test_overflowing_noise_variance_rejected_before_any_noise_draw(self):
        # -1500 dB is a valid SNR, but against this signal power the variance overflows
        _, setup, truth, _, _ = build_trial(SystemConfig())
        loud = dataclasses.replace(truth, values=1e150 * truth.values)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="not finite"):
            simulate_measurements(loud, setup, -1500.0, rng)
        assert rng.bit_generator.state == state

    def test_noise_variance_scales_with_snr(self):
        cfg = SystemConfig()
        _, _, truth, meas0, _ = build_trial(cfg)
        cfg10 = dataclasses.replace(cfg, snr_db=10.0)
        _, _, _, meas10, _ = build_trial(cfg10)
        npt.assert_allclose(meas0.noise_variance / meas10.noise_variance, 10.0, rtol=1e-12)
