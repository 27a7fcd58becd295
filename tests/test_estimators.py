"""Tests for the structured estimator stages, the baselines, and the oracle."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from risce.config import ArrayGeometry, SystemConfig
from risce.estimators import (
    EstimatorInput,
    OffsetUndetermined,
    _batched_lstsq,
    _pursue,
    coarse_omp,
    estimate_common_offsets,
    estimate_conventional_omp,
    estimate_oracle_ls,
    estimate_row_structured,
    estimate_triple_structured,
    joint_column_support,
    offset_structured_somp,
    residual_stop_threshold,
)
from risce.harness import nmse_linear
from risce.sensing import make_sensing_setup
from util import build_trial, check_report, known_shift_scenario, per_user_nmse_db


def unit_column_dictionary(rng, t, n):
    a = rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
    return a / np.linalg.norm(a, axis=0, keepdims=True)


class TestEstimatorInput:
    def test_rejects_empty_measurements(self):
        with pytest.raises(ValueError):
            EstimatorInput(
                Y=[],
                sensing_matrix=np.ones((4, 8)),
                n_columns=1,
                row_counts=[],
                geometry=ArrayGeometry.ula(8),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            EstimatorInput(
                Y=[np.ones((4, 3)), np.ones((4, 2))],
                sensing_matrix=np.ones((4, 8)),
                n_columns=1,
                row_counts=[1, 1],
                geometry=ArrayGeometry.ula(8),
            )

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            EstimatorInput(
                Y=[np.ones((4, 3))],
                sensing_matrix=np.ones((4, 8)),
                n_columns=4,
                row_counts=[1],
                geometry=ArrayGeometry.ula(8),
            )

    def test_warns_when_budget_exceeds_pilots(self):
        with pytest.warns(RuntimeWarning):
            EstimatorInput(
                Y=[np.ones((4, 6))],
                sensing_matrix=np.ones((4, 8)),
                n_columns=3,
                row_counts=[2],
                geometry=ArrayGeometry.ula(8),
            )


class TestJointColumnSupport:
    def test_noiseless_two_columns(self):
        rng = np.random.default_rng(0)
        Y = np.zeros((8, 24), dtype=complex)
        Y[:, 3] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        Y[:, 17] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        npt.assert_array_equal(joint_column_support([Y], 2), [3, 17])

    def test_noiseless_matches_ground_truth(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None)
        _, _, truth, meas, _ = build_trial(cfg)
        npt.assert_array_equal(joint_column_support(meas.Y, cfg.bs_paths), truth.col_support)

    def test_noisy_recovery_rate(self):
        # measured rates at 0 dB: 98/100 with 32 pilots, 100/100 with 64
        for pilots, floor in ((32, 95), (64, 99)):
            cfg = dataclasses.replace(SystemConfig(), n_pilots=pilots)
            hits = 0
            for trial in range(100):
                _, _, truth, meas, _ = build_trial(cfg, trial_index=trial)
                detected = joint_column_support(meas.Y, cfg.bs_paths)
                if np.array_equal(detected, truth.col_support):
                    hits += 1
            assert hits >= floor, f"{hits}/100 at {pilots} pilots"

    def test_rejects_oversized_request(self):
        with pytest.raises(ValueError):
            joint_column_support([np.ones((4, 3))], 4)


class TestCoarseOmp:
    def test_single_atom(self):
        rng = np.random.default_rng(1)
        a = unit_column_dictionary(rng, 16, 32)
        x = coarse_omp(3.0 * a[:, 5], a, 1)
        assert np.flatnonzero(x).tolist() == [5]
        assert abs(x[5] - 3.0) < 1e-10

    def test_zero_input(self):
        rng = np.random.default_rng(2)
        a = unit_column_dictionary(rng, 16, 32)
        x = coarse_omp(np.zeros(16, dtype=complex), a, 4)
        npt.assert_array_equal(x, np.zeros(32))

    def test_noiseless_exact_recovery_rate(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((32, 128)) + 1j * rng.standard_normal((32, 128))
            support = np.sort(rng.choice(128, size=3, replace=False))
            x0 = np.zeros(128, dtype=complex)
            x0[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x = coarse_omp(a @ x0, a, 3)
            if np.array_equal(np.flatnonzero(x), support) and np.allclose(x, x0, atol=1e-8):
                hits += 1
        assert hits >= 99

    def test_stops_early_once_residual_is_exactly_zero(self):
        # canonical-basis dictionary keeps the arithmetic exact, so the
        # residual hits 0.0 after three picks and the slack budget is unused
        a = np.eye(64, dtype=complex)
        y = np.zeros(64, dtype=complex)
        y[[4, 20, 41]] = [1.0 + 0.5j, -0.25, 2.0j]
        x = coarse_omp(y, a, 10)
        npt.assert_array_equal(np.flatnonzero(x), [4, 20, 41])
        npt.assert_array_equal(x, y)

    def test_slack_budget_keeps_reconstruction_exact(self):
        # a generic dictionary leaves a ~1e-15 residual, so extra atoms are
        # spent, but they must not disturb the recovered coefficients
        rng = np.random.default_rng(3)
        a = rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
        support = np.array([4, 20, 41])
        x0 = np.zeros(64, dtype=complex)
        x0[support] = [1.0 + 0.5j, -2.0, 0.75j]
        x = coarse_omp(a @ x0, a, 10)
        assert set(support.tolist()) <= set(np.flatnonzero(x).tolist())
        npt.assert_allclose(x[support], x0[support], atol=1e-8)
        assert np.linalg.norm(a @ (x - x0)) < 1e-8

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            coarse_omp(np.ones(4), np.ones((5, 8)), 1)
        with pytest.raises(ValueError):
            coarse_omp(np.ones(4), np.ones((4, 8)), -1)


class TestResidualStopThreshold:
    def test_known_value(self):
        assert residual_stop_threshold(2.0, 16) == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            residual_stop_threshold(-1.0, 16)
        with pytest.raises(ValueError):
            residual_stop_threshold(1.0, 0)

    def test_noiseless_threshold_stops_at_true_sparsity(self):
        # the same slack-budget problem as above, but a noise-floor threshold
        # ends iteration before any spurious atom is spent
        rng = np.random.default_rng(3)
        a = rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))
        x0 = np.zeros(64, dtype=complex)
        x0[[4, 20, 41]] = [1.0 + 0.5j, -2.0, 0.75j]
        x = coarse_omp(a @ x0, a, 10, stop_threshold=1e-9)
        npt.assert_array_equal(np.flatnonzero(x), [4, 20, 41])
        npt.assert_allclose(x[[4, 20, 41]], x0[[4, 20, 41]], atol=1e-8)

    def test_noisy_stop_near_noise_floor(self):
        # budget equals the pilot count, so without the threshold OMP would
        # spend all 32 atoms; with it the support stays near the true size
        sizes = []
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((32, 128)) + 1j * rng.standard_normal((32, 128))
            a /= np.sqrt(2 * 32)
            support = np.sort(rng.choice(128, size=3, replace=False))
            x0 = np.zeros(128, dtype=complex)
            x0[support] = 4.0 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            sigma2 = 0.01
            noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
            x = coarse_omp(a @ x0 + noise, a, 32,
                           stop_threshold=residual_stop_threshold(sigma2, 32))
            nz = np.flatnonzero(x)
            sizes.append(nz.size)
            hits += set(support.tolist()) <= set(nz.tolist())
        assert max(sizes) <= 4
        assert hits >= 45

    def test_somp_threshold_recovers_exact_anchor_count(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None, n_pilots=64)
        _, setup, truth, meas, inp = build_trial(cfg)
        fit = offset_structured_somp(
            meas.Y[0][:, truth.col_support],
            setup.sensing_matrix,
            truth.offsets,
            inp.row_counts[0] + 5,
            cfg.geometry,
            stop_threshold=1e-9,
        )
        npt.assert_array_equal(fit["anchors"], truth.row_patterns[0])


class TestCommonOffsets:
    def test_known_scenario_from_true_columns(self):
        real, expected_offsets, _ = known_shift_scenario()
        setup = make_sensing_setup(64, real.geometry, 8, np.random.default_rng(0))
        from risce.sensing import extract_ground_truth

        truth = extract_ground_truth(real, setup)
        coarse = [truth.H[k][:, truth.col_support] for k in range(2)]
        assert estimate_common_offsets(coarse, real.geometry) == expected_offsets

    def test_single_user_identical_columns(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        for geometry in (ArrayGeometry.ula(32), ArrayGeometry.upa(4, 8)):
            zero = geometry.to_public((0, 0))
            # one retained column is the reference alone: its offset is zero by definition
            for n_cols in (1, 2):
                coarse = [np.column_stack([col] * n_cols)]
                assert estimate_common_offsets(coarse, geometry) == [zero] * n_cols

    def test_planar_known_shift(self):
        # the flat grids 1x16 and 16x1 pin the axis order of the offset pair
        for shape, shift in (((8, 16), (3, -6)), ((1, 16), (0, -6)), ((16, 1), (3, 0))):
            geometry = ArrayGeometry.upa(*shape)
            ref = np.zeros(shape, dtype=complex)
            entries = {(1, 2): 1.0 + 0.3j, (5, 7): -0.4 + 1.0j, (2, 11): 0.9 - 0.2j}
            for (i1, i2), value in entries.items():
                ref[i1 % shape[0], i2 % shape[1]] = value
            shifted = np.roll(ref, shift, axis=(0, 1))
            coarse = [np.column_stack([ref.ravel(), shifted.ravel()])]
            assert estimate_common_offsets(coarse, geometry) == [(0, 0), shift]

    def test_dead_column_raises_with_fallback(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        coarse = [np.column_stack([col, np.zeros(16), np.roll(col, 2)])]
        with pytest.raises(OffsetUndetermined) as info:
            estimate_common_offsets(coarse, ArrayGeometry.ula(16))
        assert info.value.failed == [1]
        assert info.value.offsets == [0, 0, 2]


class TestOffsetStructuredSomp:
    def test_single_column_reduces_to_plain_omp(self):
        # with one column and zero offset the joint recovery must match
        # per-column greedy recovery bit for bit
        cfg = dataclasses.replace(SystemConfig(), bs_paths=1)
        _, setup, truth, meas, inp = build_trial(cfg)
        c = truth.col_support[0]
        for k in range(3):
            y = meas.Y[k][:, c]
            dense = coarse_omp(y, setup.sensing_matrix, inp.row_counts[k])
            fit = offset_structured_somp(
                y[:, None], setup.sensing_matrix, [0], inp.row_counts[k], cfg.geometry
            )
            rows, coef = fit["columns"][0]
            npt.assert_array_equal(rows, np.flatnonzero(dense))
            npt.assert_array_equal(coef, dense[rows])

    def test_noiseless_exact_recovery_with_true_offsets(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None, n_pilots=64)
        _, setup, truth, meas, inp = build_trial(cfg)
        for k in range(2):
            fit = offset_structured_somp(
                meas.Y[k][:, truth.col_support],
                setup.sensing_matrix,
                truth.offsets,
                inp.row_counts[k],
                cfg.geometry,
            )
            npt.assert_array_equal(fit["anchors"], truth.row_patterns[k])
            for j, c in enumerate(truth.col_support):
                rows, coef = fit["columns"][j]
                expected = truth.H[k][rows, c]
                npt.assert_allclose(coef, expected, atol=1e-9)

    def test_residual_history_is_monotone(self):
        cfg = SystemConfig()
        _, setup, truth, meas, inp = build_trial(cfg)
        fit = offset_structured_somp(
            meas.Y[0][:, truth.col_support],
            setup.sensing_matrix,
            truth.offsets,
            inp.row_counts[0],
            cfg.geometry,
        )
        history = fit["residual_history"]
        assert history.shape[1] == truth.col_support.size
        diffs = np.diff(history, axis=0)
        assert np.all(diffs <= 1e-9)

    def test_oversized_budget_keeps_recovery_exact(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None, n_pilots=64)
        _, setup, truth, meas, inp = build_trial(cfg)
        fit = offset_structured_somp(
            meas.Y[0][:, truth.col_support],
            setup.sensing_matrix,
            truth.offsets,
            inp.row_counts[0] + 5,
            cfg.geometry,
        )
        anchors = set(fit["anchors"].tolist())
        assert set(truth.row_patterns[0].tolist()) <= anchors
        for j, c in enumerate(truth.col_support):
            rows, coef = fit["columns"][j]
            dense = np.zeros(cfg.geometry.n_elements, dtype=complex)
            dense[rows] = coef
            npt.assert_allclose(dense, truth.H[0][:, c], atol=1e-8)
        assert not fit["group_collision"]

    def test_offset_count_mismatch(self):
        with pytest.raises(ValueError):
            offset_structured_somp(
                np.ones((8, 2), dtype=complex),
                np.ones((8, 16), dtype=complex),
                [0],
                2,
                ArrayGeometry.ula(16),
            )


class TestPursuitKernel:
    """Edge cases of the lockstep kernel, each inside one batch of problems."""

    @staticmethod
    def support(fit, column=0):
        return fit["columns"][column][0].tolist()

    def test_duplicate_atoms_tie_to_smallest_index(self):
        # atoms 4 and 5 duplicate atoms 1 and 2 exactly, so every score ties
        a = np.eye(4, 6, dtype=complex)
        a[:, 4], a[:, 5] = a[:, 1], a[:, 2]
        Y = np.zeros((4, 3, 1), dtype=complex)
        Y[[1, 3], 0, 0] = [2.0, 1.0]
        Y[2, 1, 0] = 1.0j
        Y[[1, 2], 2, 0] = [1.0, 1.0]
        fits = _pursue(a, Y, [2, 2, 2])
        assert [self.support(fit) for fit in fits] == [[1, 3], [2], [1, 2]]
        for b, fit in enumerate(fits):
            assert self.support(fit) == np.flatnonzero(coarse_omp(Y[:, b, 0], a, 2)).tolist()

    def test_rank_deficient_support_falls_back_to_minimum_norm(self):
        # column 1 is shifted by one row, so anchors {0, 2} select its rows
        # {1, 3}, and atom 3 duplicates atom 1: that column's system is singular
        a = np.eye(4, dtype=complex)
        a[:, 3] = a[:, 1]
        Y = np.zeros((4, 3, 2), dtype=complex)
        Y[[0, 2], 0, 0], Y[1, 0, 1] = [4.0, 2.0], 1.0
        Y[[1, 2], 1, 0] = [2.0, 3.0]  # anchors {1, 2}: rows {2, 3}, full rank
        rolls = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        fits = _pursue(a, Y, [2, 2, 2], rolls)
        deficient = fits[0]
        assert deficient["anchors"].tolist() == [0, 2]
        assert deficient["rank_deficient"]
        rows, coef = deficient["columns"][1]
        assert rows.tolist() == [1, 3]
        npt.assert_array_equal(coef, np.linalg.lstsq(a[:, rows], Y[:, 0, 1], rcond=None)[0])
        assert fits[1]["anchors"].tolist() == [1, 2]
        assert not fits[1]["rank_deficient"]
        assert not fits[2]["rank_deficient"] and fits[2]["anchors"].size == 0

    def test_zero_input_next_to_live_problems(self):
        rng = np.random.default_rng(7)
        a = unit_column_dictionary(rng, 16, 32)
        Y = np.zeros((16, 3, 1), dtype=complex)
        Y[:, 0, 0] = a[:, 3] - 2.0 * a[:, 17]
        Y[:, 2, 0] = 0.5j * a[:, 9]
        fits = _pursue(a, Y, [4, 4, 4])
        assert fits[1]["anchors"].size == 0
        assert fits[1]["columns"][0][0].size == 0
        assert fits[1]["residual_history"].shape == (0, 1)
        assert set(self.support(fits[0])) >= {3, 17}
        assert set(self.support(fits[2])) >= {9}

    def test_each_problem_stops_at_its_own_budget(self):
        rng = np.random.default_rng(8)
        a = unit_column_dictionary(rng, 32, 64)
        budgets = [4, 5, 6, 7, 8]
        Y = rng.standard_normal((32, 5, 1)) + 1j * rng.standard_normal((32, 5, 1))
        fits = _pursue(a, Y, budgets)
        for b, (fit, budget) in enumerate(zip(fits, budgets)):
            assert fit["anchors"].size == budget
            assert fit["residual_history"].shape == (budget, 1)
            single = coarse_omp(Y[:, b, 0], a, budget)
            rows, coef = fit["columns"][0]
            npt.assert_array_equal(rows, np.flatnonzero(single))
            npt.assert_allclose(coef, single[rows], rtol=0, atol=1e-12)

    def test_stop_threshold_ends_each_pursuit_at_the_noise_floor(self):
        rng = np.random.default_rng(9)
        t, n, n_prob, sigma2 = 32, 128, 10, 0.01
        a = (rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))) / np.sqrt(2 * t)
        Y = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((t, n_prob, 1)) + 1j * rng.standard_normal((t, n_prob, 1))
        )
        supports = []
        for b in range(n_prob):
            support = np.sort(rng.choice(n, size=3, replace=False))
            gains = 4.0 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            Y[:, b, 0] += a[:, support] @ gains
            supports.append(set(support.tolist()))
        threshold = residual_stop_threshold(sigma2, t)
        fits = _pursue(a, Y, [t] * n_prob, stop_threshold=threshold)
        assert max(fit["anchors"].size for fit in fits) <= 4
        assert sum(truth <= set(self.support(fit)) for truth, fit in zip(supports, fits)) >= 9
        for b, fit in enumerate(fits):
            single = coarse_omp(Y[:, b, 0], a, t, stop_threshold=threshold)
            assert self.support(fit) == np.flatnonzero(single).tolist()

    def test_batched_lstsq_matches_lstsq_and_flags_singular_systems(self):
        rng = np.random.default_rng(10)
        subs = rng.standard_normal((3, 6, 2)) + 1j * rng.standard_normal((3, 6, 2))
        subs[1, :, 1] = subs[1, :, 0]
        ys = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        coef, deficient = _batched_lstsq(subs, ys)
        assert deficient.tolist() == [False, True, False]
        for i in range(3):
            expected = np.linalg.lstsq(subs[i], ys[i], rcond=None)[0]
            npt.assert_allclose(coef[i], expected, rtol=0, atol=1e-12)
        npt.assert_array_equal(coef[1], np.linalg.lstsq(subs[1], ys[1], rcond=None)[0])
        # more unknowns than rows is rank deficient whatever the values
        wide = subs[:, :2, :].repeat(2, axis=2)[:, :, :3]
        coef, deficient = _batched_lstsq(wide, ys[:, :2])
        assert deficient.all()
        for i in range(3):
            npt.assert_array_equal(coef[i], np.linalg.lstsq(wide[i], ys[i, :2], rcond=None)[0])


class TestTripleStructured:
    def test_noiseless_exact_recovery(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None, n_pilots=64)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_triple_structured(inp)
        npt.assert_array_equal(report.col_support, truth.col_support)
        assert report.offsets == truth.offsets
        for k in range(cfg.n_users):
            npt.assert_array_equal(report.row_patterns[k], truth.row_patterns[k])
        assert all(db < -100.0 for db in per_user_nmse_db(report.H_hat, truth.H))

    def test_noisy_output_invariants(self):
        cfg = SystemConfig()
        for trial in range(3):
            _, _, truth, _, inp = build_trial(cfg, trial_index=trial)
            report = estimate_triple_structured(inp)
            check_report(report, inp)
            assert report.diagnostics["offset_fallback"] == []
            assert report.diagnostics["residual_history"][0].shape[1] == cfg.bs_paths

    def test_single_column_skips_offset_stage(self):
        cfg = dataclasses.replace(SystemConfig(), bs_paths=1)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_triple_structured(inp)
        assert report.offsets == [0]
        check_report(report, inp)

    def test_single_user_still_valid(self):
        cfg = dataclasses.replace(SystemConfig(), n_users=1)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_triple_structured(inp)
        check_report(report, inp)


class TestRowStructuredBaseline:
    def test_noiseless_recovery(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None, n_pilots=64)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_row_structured(inp)
        npt.assert_array_equal(report.col_support, truth.col_support)
        assert report.offsets is None and report.row_patterns is None
        assert all(db < -100.0 for db in per_user_nmse_db(report.H_hat, truth.H))

    def test_noisy_output_invariants(self):
        _, _, _, _, inp = build_trial(SystemConfig())
        check_report(estimate_row_structured(inp), inp)


class TestConventionalOmpBaseline:
    def test_noiseless_recovery(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None, n_pilots=64)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_conventional_omp(inp)
        npt.assert_array_equal(report.col_support, truth.col_support)
        assert all(db < -100.0 for db in per_user_nmse_db(report.H_hat, truth.H))

    def test_per_user_supports_reported(self):
        cfg = SystemConfig()
        _, _, _, _, inp = build_trial(cfg)
        report = estimate_conventional_omp(inp)
        check_report(report, inp)
        supports = report.diagnostics["per_user_col_support"]
        assert len(supports) == cfg.n_users
        assert all(s.size == cfg.bs_paths for s in supports)


class TestOracleLs:
    def test_noiseless_machine_precision(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_oracle_ls(inp, truth)
        assert nmse_linear(report.H_hat, truth.H) < 1e-20

    def test_error_scales_linearly_with_noise_power(self):
        # same seeds at 0 dB and 10 dB share every random draw, so the
        # linear-domain error ratio must equal the noise-variance ratio exactly
        ratios = []
        for trial in range(20):
            cfg0 = SystemConfig()
            cfg10 = dataclasses.replace(cfg0, snr_db=10.0)
            _, _, truth0, _, inp0 = build_trial(cfg0, trial_index=trial)
            _, _, truth10, _, inp10 = build_trial(cfg10, trial_index=trial)
            err0 = nmse_linear(estimate_oracle_ls(inp0, truth0).H_hat, truth0.H)
            err10 = nmse_linear(estimate_oracle_ls(inp10, truth10).H_hat, truth10.H)
            ratios.append(err0 / err10)
        npt.assert_allclose(ratios, 10.0, rtol=1e-9)

    def test_rank_deficient_systems_are_flagged(self):
        # two pilots cannot resolve four or more rows: every system is singular
        cfg = dataclasses.replace(SystemConfig(), n_pilots=2)
        with pytest.warns(RuntimeWarning):
            _, setup, truth, meas, inp = build_trial(cfg)
        report = estimate_oracle_ls(inp, truth)
        assert report.diagnostics["rank_deficient"]
        c = truth.col_support[0]
        rows = truth.row_patterns[0]
        expected = np.linalg.lstsq(setup.sensing_matrix[:, rows], meas.Y[0][:, c], rcond=None)[0]
        npt.assert_array_equal(report.H_hat[0][rows, c], expected)

    def test_structure_fields_copy_truth(self):
        _, _, truth, _, inp = build_trial(SystemConfig())
        report = estimate_oracle_ls(inp, truth)
        npt.assert_array_equal(report.col_support, truth.col_support)
        assert report.offsets == truth.offsets
        check_report(report, inp)


class TestDegenerateEquivalences:
    def test_single_column_triple_equals_row_baseline_bitwise(self):
        cfg = dataclasses.replace(SystemConfig(), bs_paths=1)
        for trial in range(5):
            _, _, _, _, inp = build_trial(cfg, trial_index=trial)
            triple = estimate_triple_structured(inp)
            row = estimate_row_structured(inp)
            for a, b in zip(triple.H_hat, row.H_hat):
                npt.assert_array_equal(a, b)

    def test_flat_planar_matches_linear_pipeline(self):
        ula = SystemConfig()
        upa = dataclasses.replace(ula, geometry=ArrayGeometry.upa(128, 1))
        for trial in range(2):
            _, _, truth_u, _, inp_u = build_trial(ula, trial_index=trial)
            _, _, truth_p, _, inp_p = build_trial(upa, trial_index=trial)
            npt.assert_allclose(truth_p.H[0], truth_u.H[0], atol=1e-12)
            rep_u = estimate_triple_structured(inp_u)
            rep_p = estimate_triple_structured(inp_p)
            for a, b in zip(rep_u.H_hat, rep_p.H_hat):
                npt.assert_allclose(a, b, atol=1e-12)
            assert [d for d, _ in rep_p.offsets] == list(rep_u.offsets)
