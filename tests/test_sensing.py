"""Tests for phase schedules, the beamspace transform, noise calibration, and
ground-truth sparsity extraction."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from risce.channel import (
    ChannelRealization,
    RisBsPath,
    UeRisPath,
    cascade_spatial,
    dense_channels,
    generate_channels,
)
from risce.config import ArrayGeometry, SystemConfig
from risce.harness import trial_rng
from risce.numerics import dft_matrix
from risce.sensing import (
    GroundTruth,
    StructureViolation,
    beamspace_cascaded,
    extract_ground_truth,
    generate_phase_schedule,
    make_sensing_setup,
    shift_indices,
    simulate_measurements,
)
from util import build_trial, known_shift_scenario


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
        real = ChannelRealization(
            ArrayGeometry.ula(16),
            8,
            [RisBsPath(gain=1.0 + 0.0j, bs_index=0, ris_index=0)],
            [[UeRisPath(gain=1.0 + 0.0j, ris_index=0)]],
        )
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
        g_paths = [
            RisBsPath(gain=0.8 - 0.1j, bs_index=2, ris_index=4),
            RisBsPath(gain=1.1 + 0.5j, bs_index=9, ris_index=21),
        ]
        qa, qb = 5, 18
        rows = {}
        for q in (qa, qb):
            G, h = dense_channels(
                ChannelRealization(geometry, 16, g_paths, [[UeRisPath(gain=1.0 + 0.0j, ris_index=q)]])
            )
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
        g_paths = [
            RisBsPath(gain=1.0 + 0.0j, bs_index=5, ris_index=2),
            RisBsPath(gain=1.0 + 0.0j, bs_index=5, ris_index=9),
        ]
        h_paths = [[UeRisPath(gain=1.0 + 0.0j, ris_index=0)]]
        real = ChannelRealization(geometry, 16, g_paths, h_paths)
        setup = make_sensing_setup(16, geometry, 4, np.random.default_rng(0))
        with pytest.raises(StructureViolation):
            extract_ground_truth(real, setup)

    @pytest.mark.parametrize(
        "g_paths, h_paths",
        [
            # two paths of one user on one reflector index merge two rows
            (
                [RisBsPath(1.0 + 0.0j, 5, 2), RisBsPath(1.0 + 0.0j, 7, 9)],
                [[UeRisPath(1.0 + 0.0j, 3)], [UeRisPath(1.0 + 0.0j, 4), UeRisPath(0.5j, 4)]],
            ),
            # a zero user-path gain leaves its entries empty
            (
                [RisBsPath(1.0 + 0.0j, 5, 2)],
                [[UeRisPath(1.0 + 0.0j, 3), UeRisPath(0j, 8)]],
            ),
            # a zero reflector-to-BS gain empties a whole column
            (
                [RisBsPath(0j, 5, 2), RisBsPath(1.0 + 0.0j, 7, 9)],
                [[UeRisPath(1.0 + 0.0j, 3)]],
            ),
            # no reflector-to-BS path leaves every column empty
            ([], [[UeRisPath(1.0 + 0.0j, 3)]]),
        ],
        ids=["repeated-user-index", "zero-user-gain", "zero-bs-gain", "empty-g-paths"],
    )
    def test_malformed_path_lists_are_rejected(self, g_paths, h_paths):
        geometry = ArrayGeometry.ula(32)
        real = ChannelRealization(geometry, 16, g_paths, h_paths)
        setup = make_sensing_setup(16, geometry, 4, np.random.default_rng(0))
        with pytest.raises(StructureViolation):
            extract_ground_truth(real, setup)

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
            for k in range(cfg.n_users):
                dense = beamspace_cascaded(G, h[k], geometry)
                worst = max(worst, float(np.max(np.abs(truth.H[k] - dense))))
                expected = {
                    (row, c)
                    for j, c in enumerate(truth.col_support)
                    for row in shift_indices(truth.row_patterns[k], truth.offsets[j], geometry)
                }
                assert set(zip(*np.nonzero(truth.H[k]))) == expected
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

    def test_infinite_snr_is_noiseless(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=float("inf"))
        meas = build_trial(cfg)[3]
        assert meas.noise_variance == 0.0

    def test_zero_channels_edge_case(self):
        geometry = ArrayGeometry.ula(16)
        setup = make_sensing_setup(8, geometry, 4, np.random.default_rng(0))
        truth = GroundTruth(
            H=[np.zeros((16, 8), dtype=complex)],
            col_support=np.zeros(0, dtype=int),
            row_patterns=[np.zeros(0, dtype=int)],
            offsets=[0],
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
        # -3000 dB is a valid SNR, but against this signal power the variance overflows
        _, setup, truth, _, _ = build_trial(SystemConfig())
        loud = dataclasses.replace(truth, H=[1e150 * H_k for H_k in truth.H])
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="not finite"):
            simulate_measurements(loud, setup, -3000.0, rng)
        assert rng.bit_generator.state == state

    def test_noise_variance_scales_with_snr(self):
        cfg = SystemConfig()
        _, _, truth, meas0, _ = build_trial(cfg)
        cfg10 = dataclasses.replace(cfg, snr_db=10.0)
        _, _, _, meas10, _ = build_trial(cfg10)
        npt.assert_allclose(meas0.noise_variance / meas10.noise_variance, 10.0, rtol=1e-12)
