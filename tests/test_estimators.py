"""Tests for the structured estimator stages, the baselines, and the oracle."""

import contextlib
import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

import risce.estimators as estimators
from risce.config import ArrayGeometry, SystemConfig
from risce.estimators import (
    EstimatorInput,
    _Atoms,
    _batched_lstsq,
    _gram_lstsq,
    _problem,
    _pursue,
    coarse_omp,
    estimate_common_offsets,
    estimate_conventional_omp,
    estimate_oracle_ls,
    estimate_row_structured,
    estimate_triple_structured,
    joint_column_support,
    offset_structured_somp,
)
from risce.harness import ESTIMATORS, _one_blas_thread, nmse_linear, run_trial
from risce.numerics import ls_solve, top_l_indices
from risce.sensing import make_sensing_setup, shift_indices
from util import build_trial, check_report, dense, known_shift_scenario, per_user_nmse_db


def unit_column_dictionary(rng, t, n):
    a = rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
    return a / np.linalg.norm(a, axis=0, keepdims=True)


# a budget or matrix of the wrong type, named by the field its ValueError starts with
NOT_INTEGER = {
    "sparsity-float": ("sparsity", lambda y, a, build: coarse_omp(y[:, 0], a, 2.7)),
    "sparsity-bool": ("sparsity", lambda y, a, build: coarse_omp(y[:, 0], a, True)),
    "n-rows-float": (
        "n_rows",
        lambda y, a, build: offset_structured_somp(y, a, [0, 1], 2.7, ArrayGeometry.ula(32)),
    ),
    "row-count-bool": ("row_counts", lambda y, a, build: build(row_counts=[True, 2])),
    "row-count-float": ("row_counts", lambda y, a, build: build(row_counts=[2.5, 2])),
    "n-columns-bool": ("n_columns", lambda y, a, build: build(n_columns=True)),
    "n-columns-float": ("n_columns", lambda y, a, build: build(n_columns=1.5)),
    "matrix-list": ("sensing_matrix", lambda y, a, build: build(sensing_matrix=a.tolist())),
}


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

    @pytest.mark.parametrize(
        "Y",
        [
            [np.ones((4, 3)), np.ones((4, 3))],
            [np.ones((4, 3)), np.ones((4, 2))],
            np.ones((4, 3)),
            np.ones((2, 4, 3, 1)),
        ],
        ids=["list", "ragged-list", "2-d", "4-d"],
    )
    def test_rejects_anything_but_one_users_stack(self, Y):
        message = r"^measurements must be one users x n_pilots x n_bs array, users >= 1$"
        with pytest.raises(ValueError, match=message):
            EstimatorInput(
                Y=Y,
                sensing_matrix=np.ones((4, 8)),
                n_columns=1,
                row_counts=[1, 1],
                geometry=ArrayGeometry.ula(8),
            )

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError):
            EstimatorInput(
                Y=np.ones((1, 4, 3)),
                sensing_matrix=np.ones((4, 8)),
                n_columns=4,
                row_counts=[1],
                geometry=ArrayGeometry.ula(8),
            )

    @pytest.mark.parametrize("field, call", NOT_INTEGER.values(), ids=NOT_INTEGER)
    def test_rejects_budgets_that_are_not_integers(self, field, call):
        rng = np.random.default_rng(3)
        a = unit_column_dictionary(rng, 16, 32)
        y = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        fields = dict(
            Y=np.stack([y, y]),
            sensing_matrix=a,
            n_columns=2,
            row_counts=[2, 2],
            geometry=ArrayGeometry.ula(32),
        )
        EstimatorInput(**fields)  # the unchanged fields are accepted

        def build(**changes):
            return EstimatorInput(**{**fields, **changes})

        with pytest.raises(ValueError, match=f"^{field}"):
            call(y, a, build)

    @pytest.mark.parametrize(
        "field, value",
        [("row_counts", 5), ("row_counts", {2, 3}), ("geometry", None), ("geometry", 8)],
        ids=["row-counts-int", "row-counts-set", "geometry-none", "geometry-int"],
    )
    def test_rejects_malformed_fields_by_name(self, field, value):
        fields = dict(
            Y=np.ones((2, 4, 3)),
            sensing_matrix=np.ones((4, 8)),
            n_columns=1,
            row_counts=[1, 1],
            geometry=ArrayGeometry.ula(8),
        )
        with pytest.raises(ValueError, match=f"^{field} must be"):
            EstimatorInput(**{**fields, field: value})

    def test_fields_cannot_be_reassigned(self):
        # the cached per-input operands are computed from the fields and would go stale
        inp = EstimatorInput(
            Y=np.ones((2, 4, 3)),
            sensing_matrix=np.ones((4, 8)),
            n_columns=1,
            row_counts=[1, 1],
            geometry=ArrayGeometry.ula(8),
        )
        power = inp._power
        for field, value in (("Y", np.zeros((2, 4, 3))), ("row_counts", [2, 2])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inp, field, value)
        assert inp._power is power and inp.row_counts == [1, 1]

    def test_warns_when_budget_exceeds_pilots(self):
        with pytest.warns(RuntimeWarning) as record:
            EstimatorInput(
                Y=np.ones((1, 4, 6)),
                sensing_matrix=np.ones((4, 8)),
                n_columns=3,
                row_counts=[2],
                geometry=ArrayGeometry.ula(8),
            )
        # the warning names the code that built the input, not the generated __init__
        assert [w.filename for w in record] == [__file__]


class TestJointColumnSupport:
    def test_noiseless_two_columns(self):
        rng = np.random.default_rng(0)
        Y = np.zeros((8, 24), dtype=complex)
        Y[:, 3] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        Y[:, 17] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        npt.assert_array_equal(joint_column_support([Y], 2), [3, 17])

    def test_noiseless_matches_ground_truth(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf)
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


class TestCommonOffsets:
    def test_known_scenario_from_true_columns(self):
        real, expected_offsets, _ = known_shift_scenario()
        setup = make_sensing_setup(64, real.geometry, 8, np.random.default_rng(0))
        from risce.sensing import extract_ground_truth

        truth = extract_ground_truth(real, setup)
        coarse = [truth.H[k][:, truth.col_support] for k in range(2)]
        assert estimate_common_offsets(coarse, real.geometry) == (expected_offsets, [])

    def test_single_user_identical_columns(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        for geometry in (ArrayGeometry.ula(32), ArrayGeometry.upa(4, 8)):
            zero = geometry.to_public((0, 0))
            # one retained column is the reference alone: its offset is zero by definition
            for n_cols in (1, 2):
                coarse = [np.column_stack([col] * n_cols)]
                assert estimate_common_offsets(coarse, geometry) == ([zero] * n_cols, [])

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
            assert estimate_common_offsets(coarse, geometry) == ([(0, 0), shift], [])

    def test_dead_column_returns_its_fallback(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        coarse = [np.column_stack([col, np.zeros(16), np.roll(col, 2)])]
        assert estimate_common_offsets(coarse, ArrayGeometry.ula(16)) == ([0, 0, 2], [1])


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
        cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf, n_pilots=64)
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
        cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf, n_pilots=64)
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

    def test_offset_count_mismatch(self):
        with pytest.raises(ValueError):
            offset_structured_somp(
                np.ones((8, 2), dtype=complex),
                np.ones((8, 16), dtype=complex),
                [0],
                2,
                ArrayGeometry.ula(16),
            )

    @pytest.mark.parametrize(
        "geometry, offsets",
        [(ArrayGeometry.ula(16), [3, 0]), (ArrayGeometry.upa(4, 4), [(0, 1), (0, 0)])],
        ids=["linear", "planar"],
    )
    def test_rejects_a_nonzero_reference_offset(self, geometry, offsets):
        y_cols, a = np.ones((8, 2), dtype=complex), np.ones((8, 16), dtype=complex)
        with pytest.raises(ValueError, match=r"offsets\[0\] must be zero"):
            offset_structured_somp(y_cols, a, offsets, 2, geometry)

    def test_rejects_a_negative_row_budget(self):
        # as coarse_omp rejects a negative sparsity; a zero budget is an empty fit
        y_cols, a = np.ones((8, 2), dtype=complex), np.ones((8, 16), dtype=complex)
        with pytest.raises(ValueError, match="non-negative"):
            offset_structured_somp(y_cols, a, [0, 3], -1, ArrayGeometry.ula(16))
        fit = offset_structured_somp(y_cols, a, [0, 3], 0, ArrayGeometry.ula(16))
        assert fit["anchors"].size == 0


class TestPursuitKernel:
    """Edge cases of the lockstep kernel, each inside one batch of problems."""

    @staticmethod
    def support(fit, column=0):
        return fit["columns"][column][0].tolist()

    @staticmethod
    def pursue(a, Y, budgets, rolls=None):
        """One _pursue batch, as one offset_structured_somp result per problem."""
        fit = _pursue(_Atoms(a), Y, budgets, rolls)
        return [_problem(fit, b) for b in range(len(budgets))]

    def test_duplicate_atoms_tie_to_smallest_index(self):
        # atoms 4 and 5 duplicate atoms 1 and 2 exactly, so every score ties
        a = np.eye(4, 6, dtype=complex)
        a[:, 4], a[:, 5] = a[:, 1], a[:, 2]
        Y = np.zeros((3, 1, 4), dtype=complex)
        Y[0, 0, [1, 3]] = [2.0, 1.0]
        Y[1, 0, 2] = 1.0j
        Y[2, 0, [1, 2]] = [1.0, 1.0]
        fits = self.pursue(a, Y, [2, 2, 2])
        assert [self.support(fit) for fit in fits] == [[1, 3], [2], [1, 2]]
        for b, fit in enumerate(fits):
            assert self.support(fit) == np.flatnonzero(coarse_omp(Y[b, 0], a, 2)).tolist()

    def test_rank_deficient_support_falls_back_to_minimum_norm(self):
        # column 1 is shifted by one row, so anchors {0, 2} select its rows
        # {1, 3}, and atom 3 duplicates atom 1: that column's system is singular
        a = np.eye(4, dtype=complex)
        a[:, 3] = a[:, 1]
        Y = np.zeros((3, 2, 4), dtype=complex)
        Y[0, 0, [0, 2]], Y[0, 1, 1] = [4.0, 2.0], 1.0
        Y[1, 0, [1, 2]] = [2.0, 3.0]  # anchors {1, 2}: rows {2, 3}, full rank
        rolls = np.array([[0, 1, 2, 3], [1, 2, 3, 0]])
        fits = self.pursue(a, Y, [2, 2, 2], rolls)
        deficient = fits[0]
        assert deficient["anchors"].tolist() == [0, 2]
        assert deficient["rank_deficient"]
        rows, coef = deficient["columns"][1]
        assert rows.tolist() == [1, 3]
        npt.assert_array_equal(coef, np.linalg.lstsq(a[:, rows], Y[0, 1], rcond=None)[0])
        assert fits[1]["anchors"].tolist() == [1, 2]
        assert not fits[1]["rank_deficient"]
        assert not fits[2]["rank_deficient"] and fits[2]["anchors"].size == 0

    def test_zero_input_next_to_live_problems(self):
        rng = np.random.default_rng(7)
        a = unit_column_dictionary(rng, 16, 32)
        Y = np.zeros((3, 1, 16), dtype=complex)
        Y[0, 0] = a[:, 3] - 2.0 * a[:, 17]
        Y[2, 0] = 0.5j * a[:, 9]
        fits = self.pursue(a, Y, [4, 4, 4])
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
        Y = np.moveaxis(Y, 0, -1)  # B x C x T, the draws of the T x B x C layout
        fits = self.pursue(a, Y, budgets)
        for b, (fit, budget) in enumerate(zip(fits, budgets)):
            assert fit["anchors"].size == budget
            assert fit["residual_history"].shape == (budget, 1)
            single = coarse_omp(Y[b, 0], a, budget)
            rows, coef = fit["columns"][0]
            npt.assert_array_equal(rows, np.flatnonzero(single))
            npt.assert_allclose(coef, single[rows], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_cols", [1, 4], ids=["one-column", "rolled-4-columns"])
    def test_batch_does_not_change_a_problems_result(self, n_cols):
        # entries of +-1 +-1j keep the one-atom fit of problem 10 exact: its Gram
        # and right-hand side are both 2T, so its residual is 0.0 after one pick.
        # The wide dictionary runs the kernel's T-domain step, the tall one its
        # Gram-table step, where the history is accurate to about sqrt(eps)·‖y‖.
        for t, tol in ((16, 1e-12), (40, 1e-7)):
            rng = np.random.default_rng(12)
            a = rng.choice([1.0, -1.0], (t, 32)) + 1j * rng.choice([1.0, -1.0], (t, 32))
            atoms = _Atoms(a)
            shifts = [0, 3, -5, 11][:n_cols]
            rolls = np.stack([(np.arange(32) + s) % 32 for s in shifts]) if n_cols > 1 else None
            table = np.arange(32)[:, None] if rolls is None else rolls.T
            budgets = [3, 0, 8, 5, 1, 7, 4, 2, 6, 4, 6]  # 0 to 8, then the zero and the exact one
            Y = rng.standard_normal((11, n_cols, t)) + 1j * rng.standard_normal((11, n_cols, t))
            Y[9] = 0.0
            Y[10] = a[:, table[13]].T
            for batch in (np.arange(11), np.flatnonzero(np.array(budgets) > 0)):
                fit = _pursue(atoms, Y[batch], np.array(budgets)[batch], rolls)
                expected = [min(budgets[b], {9: 0, 10: 1}.get(b, 8)) for b in batch]
                assert fit.count.tolist() == expected
                for i, b in enumerate(batch):
                    alone = _pursue(atoms, Y[b : b + 1], budgets[b : b + 1], rolls)
                    m = alone.count[0]
                    assert fit.count[i] == m
                    anchors = _problem(fit, i)["anchors"]  # column 0's rows, as a view
                    assert anchors.base is fit.rows
                    assert anchors.tobytes() == fit.rows[i, 0, :m].tobytes()
                    assert fit.rows[i, :, :m].tobytes() == alone.rows[0, :, :m].tobytes()
                    assert fit.coef[i, :, :m].tobytes() == alone.coef[0, :, :m].tobytes()
                    assert fit.history[i, :m].tobytes() == alone.history[0, :m].tobytes()
                    assert fit.deficient[i] == alone.deficient[0]
                    for c in range(n_cols if m else 0):
                        rows, coef = fit.rows[i, c, :m], fit.coef[i, c, :m]
                        residual = np.linalg.norm(Y[b, c] - a[:, rows] @ coef)
                        scale = np.linalg.norm(Y[b, c])
                        npt.assert_allclose(fit.history[i, m - 1, c], residual, atol=tol * scale)
            assert fit.history[-1, 0].tolist() == [0.0] * n_cols

    @pytest.mark.parametrize("t", [40, 32], ids=["tall-40x32", "square-32x32"])
    def test_gram_table_pursuit_matches_a_lstsq_omp(self, t):
        # at T >= N every step reads the Gram table; the reference below refits
        # each column with np.linalg.lstsq and keeps its T-long residual
        rng = np.random.default_rng(30 + t)
        a = rng.standard_normal((t, 32)) + 1j * rng.standard_normal((t, 32))
        for n_cols, shifts in ((1, [0]), (3, [0, 5, -9])):
            rolls = np.stack([(np.arange(32) + s) % 32 for s in shifts])
            budgets = [1, 3, 6, 8, 8, 5]
            Y = rng.standard_normal((6, n_cols, t)) + 1j * rng.standard_normal((6, n_cols, t))
            fit = _pursue(_Atoms(a), Y, budgets, rolls)
            assert fit.count.tolist() == budgets
            for b, budget in enumerate(budgets):
                rows, coef = lstsq_pursuit(a, Y[b], budget, rolls)
                npt.assert_array_equal(fit.rows[b, :, :budget], rows)
                for c in range(n_cols):
                    got = fit.coef[b, c, :budget]
                    assert np.linalg.norm(got - coef[c]) <= 1e-12 * np.linalg.norm(coef[c])
                    residual = np.linalg.norm(Y[b, c] - a[:, rows[c]] @ got)
                    scale = np.linalg.norm(Y[b, c])
                    assert abs(fit.history[b, budget - 1, c] - residual) <= 1e-7 * scale

    def test_zero_columns_leave_the_reference_column_unchanged(self):
        # two all-zero columns under nonzero rolls add exactly 0.0 to every score,
        # so column 0 follows the one-column pursuit bitwise; problem 3 is zero
        rng = np.random.default_rng(13)
        a = unit_column_dictionary(rng, 16, 32)
        budgets = [3, 8, 5, 4, 1, 6]
        Y = np.zeros((6, 3, 16), dtype=complex)
        Y[:, 0] = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        Y[3, 0] = 0.0
        rolls = np.stack([(np.arange(32) + s) % 32 for s in (0, 7, -3)])
        one = _pursue(_Atoms(a), Y[:, :1], budgets)
        many = _pursue(_Atoms(a), Y, budgets, rolls)
        assert many.count.tolist() == one.count.tolist() == [3, 8, 5, 0, 1, 6]
        assert many.rows[:, 0].tobytes() == one.rows[:, 0].tobytes()
        assert many.coef[:, 0].tobytes() == one.coef[:, 0].tobytes()
        assert many.history[..., 0].tobytes() == one.history[..., 0].tobytes()

    def test_batched_lstsq_matches_lstsq_and_flags_singular_systems(self):
        rng = np.random.default_rng(10)
        subs = rng.standard_normal((3, 6, 2)) + 1j * rng.standard_normal((3, 6, 2))
        subs[1, :, 1] = subs[1, :, 0]
        ys = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        coef, deficient = _batched_lstsq(as_rows(subs), ys)
        assert deficient.tolist() == [False, True, False]
        for i in range(3):
            expected = np.linalg.lstsq(subs[i], ys[i], rcond=None)[0]
            npt.assert_allclose(coef[i], expected, rtol=0, atol=1e-12)
        npt.assert_array_equal(coef[1], np.linalg.lstsq(subs[1], ys[1], rcond=None)[0])
        # more unknowns than rows is rank deficient whatever the values
        wide = subs[:, :2, :].repeat(2, axis=2)[:, :, :3]
        coef, deficient = _batched_lstsq(as_rows(wide), ys[:, :2])
        assert deficient.all()
        for i in range(3):
            npt.assert_array_equal(coef[i], np.linalg.lstsq(wide[i], ys[i, :2], rcond=None)[0])


def lstsq_pursuit(a, y_cols, budget, rolls):
    """One problem's offset-coupled OMP, each column refit by np.linalg.lstsq: (rows, coef).

    y_cols is C x T; rows and coef are C x budget, each column's rows ascending.
    """
    anchors, resid = [], y_cols.copy()
    for _ in range(budget):
        power = np.abs(a.conj().T @ resid.T) ** 2  # n x C
        score = sum(power[roll, c] for c, roll in enumerate(rolls))
        score[anchors] = -np.inf
        anchors.append(int(np.argmax(score)))
        rows = np.sort(rolls[:, anchors], axis=1)
        coef = np.stack([np.linalg.lstsq(a[:, r], y, rcond=None)[0] for r, y in zip(rows, y_cols)])
        resid = y_cols - np.stack([a[:, r] @ x for r, x in zip(rows, coef)])
    return rows, coef


def as_rows(subs):
    """A stack of T x k systems in _batched_lstsq's layout: each system's atoms as rows."""
    return np.ascontiguousarray(np.swapaxes(subs, -1, -2))


def conditioned_systems(rng, t, k, conds, spread):
    """Stack of T x k systems with the given condition numbers, and a right-hand side each.

    Singular values run geometrically from 1 down to 1/cond.  With spread the
    right singular vectors are random, so the small singular value is shared
    by every column; without it the columns are orthogonal and the smallest
    Cholesky pivot of SᴴS is exactly 1/cond of the largest.
    """
    subs = []
    for cond in conds:
        u = np.linalg.qr(rng.standard_normal((t, k)) + 1j * rng.standard_normal((t, k)))[0]
        v = np.eye(k)
        if spread:
            v = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
        subs.append((u * np.geomspace(1.0, 1.0 / cond, k)) @ v.conj().T)
    ys = rng.standard_normal((len(conds), t)) + 1j * rng.standard_normal((len(conds), t))
    return np.stack(subs), ys


def pivot_ratio(sub):
    pivots = np.abs(np.diagonal(np.linalg.cholesky(sub.conj().T @ sub)))
    return pivots.min() / pivots.max()


class TestGramRefit:
    """_batched_lstsq solves the normal equations and hands low-pivot systems to ls_solve."""

    @staticmethod
    def record_ls_solve(monkeypatch):
        solved = []  # right-hand sides of the systems ls_solve received

        def recording(a_sub, y):
            solved.append(y.tobytes())
            return ls_solve(a_sub, y)

        monkeypatch.setattr(estimators, "ls_solve", recording)
        return solved

    @pytest.mark.parametrize("t, k", [(32, 8), (128, 8), (8, 4), (16, 2)])
    def test_pivot_cut_splits_gram_path_from_ls_solve(self, t, k, monkeypatch):
        # condition numbers from a third to three times 1/cut straddle the cut;
        # each system is refit from its gathered atoms and, as _pursue does at
        # T >= N, from the Gram table of a dictionary holding every system's atoms
        cut = estimators._PIVOT_RATIO_CUT
        rng = np.random.default_rng(20 + t + k)
        conds = np.geomspace(1.0 / (3 * cut), 3.0 / cut, 12)
        parts = [conditioned_systems(rng, t, k, conds, spread) for spread in (False, True)]
        subs, ys = np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
        on_gram = np.array([pivot_ratio(sub) > cut for sub in subs])
        assert 0 < on_gram.sum() < len(subs)
        atoms = _Atoms(np.concatenate(subs, axis=1))  # system i's atoms are i*k to i*k + k - 1
        rows = np.arange(len(subs) * k).reshape(len(subs), k)
        rhs = np.take_along_axis(atoms.correlate(ys), rows, axis=1)
        refits = (
            lambda: _batched_lstsq(as_rows(subs), ys),
            lambda: _gram_lstsq(atoms, rows, rhs, ys.__getitem__),
        )
        for refit in refits:
            solved = self.record_ls_solve(monkeypatch)
            coef, deficient = refit()
            assert solved == [y.tobytes() for y in ys[~on_gram]]
            assert not deficient.any()
            for i in np.flatnonzero(on_gram):
                expected = np.linalg.lstsq(subs[i], ys[i], rcond=None)[0]
                assert np.linalg.norm(coef[i] - expected) <= 1e-10 * np.linalg.norm(expected)
            for i in np.flatnonzero(~on_gram):
                npt.assert_array_equal(coef[i], ls_solve(subs[i], ys[i])[0])

    def test_result_does_not_depend_on_the_batch(self):
        rng = np.random.default_rng(21)
        a = unit_column_dictionary(rng, 32, 128)
        rows = np.sort(np.stack([rng.choice(128, 8, replace=False) for _ in range(64)]), axis=1)
        subs = np.swapaxes(np.ascontiguousarray(a.T)[rows], -1, -2)
        ys = rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32))
        probe = 17
        alone = _batched_lstsq(as_rows(subs[probe : probe + 1]), ys[probe : probe + 1])
        in_batch = _batched_lstsq(as_rows(subs), ys)
        # a zero atom makes the neighbour's Gram singular, so the stacked Cholesky
        # raises and every system is factored on its own
        singular = subs[probe - 1 : probe + 1].copy()
        singular[0, :, 3] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular[0].conj().T @ singular[0])
        beside = _batched_lstsq(as_rows(singular), ys[probe - 1 : probe + 1])
        assert beside[1].tolist() == [True, False]
        npt.assert_array_equal(
            beside[0][0], np.linalg.lstsq(singular[0], ys[probe - 1], rcond=None)[0]
        )
        for coef, deficient, at in [(*alone, 0), (*in_batch, probe), (*beside, 1)]:
            assert coef[at].tobytes() == alone[0][0].tobytes()
            assert not deficient[at]

    def test_greedy_fit_on_the_true_support_is_the_oracle_fit(self):
        # 64 pilots refit from gathered atoms, 128 (T = N) from the Gram table
        for t, trial in itertools.product((64, 128), range(3)):
            cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf, n_pilots=t)
            _, _, truth, _, inp = build_trial(cfg, trial_index=trial)
            oracle = estimate_oracle_ls(inp, truth)
            matched = 0
            for name, estimate in GREEDY.items():
                report = estimate(inp)
                if np.array_equal(report.cols, oracle.cols) and np.array_equal(
                    report.values != 0, oracle.values != 0
                ):
                    matched += 1
                    assert_bitwise_equal(report.values, oracle.values)
                else:
                    assert name != "triple_structured"
            assert matched >= 1


class TestTripleStructured:
    def test_noiseless_exact_recovery(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf, n_pilots=64)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_triple_structured(inp)
        npt.assert_array_equal(report.col_support, truth.col_support)
        assert report.offsets == truth.offsets
        for k in range(cfg.n_users):
            npt.assert_array_equal(report.row_patterns[k], truth.row_patterns[k])
        H_hat = dense(report.cols, report.values, truth.n_bs)
        assert all(db < -100.0 for db in per_user_nmse_db(H_hat, truth.H))

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
        cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf, n_pilots=64)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_row_structured(inp)
        npt.assert_array_equal(report.col_support, truth.col_support)
        assert report.offsets is None and report.row_patterns is None
        H_hat = dense(report.cols, report.values, truth.n_bs)
        assert all(db < -100.0 for db in per_user_nmse_db(H_hat, truth.H))

    def test_noisy_output_invariants(self):
        _, _, _, _, inp = build_trial(SystemConfig())
        check_report(estimate_row_structured(inp), inp)

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(),
            dataclasses.replace(SystemConfig(), snr_db=math.inf),
            SystemConfig(geometry=ArrayGeometry.upa(8, 16), n_users=8, snr_db=math.inf),
        ],
        ids=["canonical", "canonical-noiseless", "planar-8x16-noiseless"],
    )
    def test_batched_columns_equal_lone_coarse_omp(self, cfg):
        # the batched fit table gives each column what a lone coarse_omp call gives, bitwise
        with _one_blas_thread():
            for trial in range(3):
                _, setup, _, meas, inp = build_trial(cfg, trial_index=trial)
                report = estimate_row_structured(inp)
                for k, Y_k in enumerate(meas.Y):
                    for j, c in enumerate(report.cols[k]):
                        lone = coarse_omp(Y_k[:, c], setup.sensing_matrix, inp.row_counts[k])
                        assert lone.tobytes() == report.values[k, :, j].tobytes()


class TestConventionalOmpBaseline:
    def test_noiseless_recovery(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf, n_pilots=64)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_conventional_omp(inp)
        npt.assert_array_equal(report.col_support, truth.col_support)
        H_hat = dense(report.cols, report.values, truth.n_bs)
        assert all(db < -100.0 for db in per_user_nmse_db(H_hat, truth.H))

    def test_per_user_supports_reported(self):
        cfg = SystemConfig()
        _, _, _, _, inp = build_trial(cfg)
        report = estimate_conventional_omp(inp)
        check_report(report, inp)
        assert report.cols.shape == (cfg.n_users, cfg.bs_paths)


class TestOracleLs:
    def test_noiseless_machine_precision(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=math.inf)
        _, _, truth, _, inp = build_trial(cfg)
        report = estimate_oracle_ls(inp, truth)
        assert nmse_linear(dense(report.cols, report.values, truth.n_bs), truth.H) < 1e-20

    def test_error_scales_linearly_with_noise_power(self):
        # same seeds at 0 dB and 10 dB share every random draw, so the
        # linear-domain error ratio must equal the noise-variance ratio exactly
        ratios = []
        for trial in range(20):
            cfg0 = SystemConfig()
            cfg10 = dataclasses.replace(cfg0, snr_db=10.0)
            _, _, truth0, _, inp0 = build_trial(cfg0, trial_index=trial)
            _, _, truth10, _, inp10 = build_trial(cfg10, trial_index=trial)
            rep0, rep10 = estimate_oracle_ls(inp0, truth0), estimate_oracle_ls(inp10, truth10)
            err0 = nmse_linear(dense(rep0.cols, rep0.values, truth0.n_bs), truth0.H)
            err10 = nmse_linear(dense(rep10.cols, rep10.values, truth10.n_bs), truth10.H)
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
        npt.assert_array_equal(report.values[0][rows, 0], expected)

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(),
            SystemConfig(n_pilots=128),
            SystemConfig(geometry=ArrayGeometry.upa(16, 16), n_pilots=64),
            SystemConfig(n_pilots=2),
        ],
        ids=["ula-t32", "ula-t128", "upa-16x16", "rank-deficient-t2"],
    )
    def test_matches_one_refit_per_system(self, cfg):
        # each (user, column) system refit alone, in a batch of one
        budget_warning = (
            pytest.warns(RuntimeWarning, match="atom budget")
            if cfg.n_pilots < cfg.bs_paths * cfg.ue_paths[1]
            else contextlib.nullcontext()
        )
        for trial in range(2):
            with budget_warning:
                _, setup, truth, _, inp = build_trial(cfg, trial_index=trial)
            a = setup.sensing_matrix
            atoms = _Atoms(a)
            report = estimate_oracle_ls(inp, truth)
            for k, pattern in enumerate(truth.row_patterns):
                expected = np.zeros_like(report.values[k])
                for j, (c, offset) in enumerate(zip(truth.col_support, truth.offsets)):
                    rows = shift_indices(pattern, offset, cfg.geometry)
                    y = inp.Y[k][:, c][None]
                    if atoms.gram_domain:  # T >= N: the Gram-table refit
                        rhs = np.take_along_axis(atoms.correlate(y), rows[None], axis=1)
                        coef, _ = _gram_lstsq(atoms, rows[None], rhs, y.__getitem__)
                    else:
                        coef, _ = _batched_lstsq(a.T[rows][None], y)
                    expected[rows, j] = coef[0]
                assert report.values[k].tobytes() == expected.tobytes()

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
            npt.assert_array_equal(triple.cols, row.cols)
            npt.assert_array_equal(triple.values, row.values)

    def test_flat_planar_matches_linear_pipeline(self):
        ula = SystemConfig()
        upa = dataclasses.replace(ula, geometry=ArrayGeometry.upa(128, 1))
        for trial in range(2):
            _, _, truth_u, _, inp_u = build_trial(ula, trial_index=trial)
            _, _, truth_p, _, inp_p = build_trial(upa, trial_index=trial)
            npt.assert_allclose(truth_p.H[0], truth_u.H[0], atol=1e-12)
            rep_u = estimate_triple_structured(inp_u)
            rep_p = estimate_triple_structured(inp_p)
            npt.assert_array_equal(rep_p.cols, rep_u.cols)
            npt.assert_allclose(rep_p.values, rep_u.values, atol=1e-12)
            assert [d for d, _ in rep_p.offsets] == list(rep_u.offsets)


GREEDY = {
    "triple_structured": estimate_triple_structured,
    "row_structured": estimate_row_structured,
    "conventional_omp": estimate_conventional_omp,
}


def assert_bitwise_equal(a, b):
    """Same nesting, types and array bytes, recursing into dicts, lists and tuples."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_bitwise_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_bitwise_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    else:
        assert type(a) is type(b) and a == b


def assert_order_independent(cfg, trial_index):
    """Every order of the greedy estimators on one input matches each run on a fresh input."""
    fresh = {name: estimate(build_trial(cfg, trial_index)[4]) for name, estimate in GREEDY.items()}
    for order in itertools.permutations(GREEDY):
        inp = build_trial(cfg, trial_index)[4]
        for name in order:
            report = GREEDY[name](inp)
            for part in ("cols", "values", "col_support", "offsets", "row_patterns", "diagnostics"):
                assert_bitwise_equal(getattr(report, part), getattr(fresh[name], part))


class TestSharedColumnFits:
    """The greedy estimators fit each (user, column) pair of an input once and share the fit."""

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(n_pilots=32),
            SystemConfig(n_pilots=128),
            SystemConfig(geometry=ArrayGeometry.upa(16, 16), n_pilots=64),
            SystemConfig(bs_paths=1),
        ],
        ids=["ula-t32", "ula-t128", "upa-16x16", "ula-one-column"],
    )
    def test_any_order_matches_fresh_inputs(self, cfg):
        for trial in range(3):
            assert_order_independent(cfg, trial)

    def test_each_pair_is_pursued_once(self, monkeypatch):
        cfg = SystemConfig()
        calls = []  # (problems, columns per problem) of every _pursue batch

        def counting(a, Y, *args, **kwargs):
            calls.append(Y.shape[:2])
            return _pursue(a, Y, *args, **kwargs)

        monkeypatch.setattr(estimators, "_pursue", counting)
        extra_total = 0
        # per-user pruning keeps 0, 4, 15 and 1 columns outside the joint support
        for trial in (0, 5, 9, 10):
            _, _, _, _, inp = build_trial(cfg, trial_index=trial)
            joint = set(estimate_triple_structured(inp).col_support.tolist())
            own = estimate_conventional_omp(inp).cols
            extra = sum(len(set(cols.tolist()) - joint) for cols in own)
            # one batch of every pair either detector picks, then the offset-coupled pass
            batch = (cfg.n_users * cfg.bs_paths + extra, 1)
            assert calls == [batch, (cfg.n_users, cfg.bs_paths)]
            calls.clear()
            estimate_row_structured(inp)
            estimate_conventional_omp(inp)
            assert calls == []
            # the batch holds each picked pair once, user-major
            _, slot, _ = inp._column_fits
            users, cols = np.nonzero(slot >= 0)
            pairs = {(k, c) for k, cols_k in enumerate(own) for c in joint | set(cols_k.tolist())}
            assert set(zip(users.tolist(), cols.tolist())) == pairs
            assert slot[users, cols].tolist() == list(range(batch[0]))
            extra_total += extra
        assert extra_total > 0, "no trial exercised a column outside the joint support"

    @pytest.mark.parametrize(
        "cfg",
        [
            SystemConfig(),
            SystemConfig(geometry=ArrayGeometry.upa(16, 16), n_pilots=64),
            SystemConfig(n_pilots=128),
        ],
        ids=["ula-t32", "upa-16x16", "ula-t128"],
    )
    def test_each_per_input_operand_is_computed_once(self, cfg, monkeypatch):
        calls = []  # names of the per-input computations, one entry per call

        def counting(name, original):
            def count(*args, **kwargs):
                # a _pursue call with a roll table is the structured estimator's joint pass
                if name != "_pursue" or len(args) == 3:
                    calls.append(name)
                return original(*args, **kwargs)

            return count

        # Aᴴy of the measurements, made only where the pursuits refit from the Gram table
        monkeypatch.setattr(_Atoms, "correlate", counting("correlate", _Atoms.correlate))
        for name in ("_column_power", "_Atoms", "_pursue"):
            monkeypatch.setattr(estimators, name, counting(name, getattr(estimators, name)))
        gram_domain = cfg.n_pilots >= cfg.geometry.n_elements
        # trials 5 and 9 prune columns per user outside the joint support
        for trial in (0, 5, 9):
            _, _, truth, _, inp = build_trial(cfg, trial_index=trial)
            fresh = build_trial(cfg, trial_index=trial)[4]
            expected = joint_column_support(fresh.Y, fresh.n_columns)
            per_user = top_l_indices(np.sum(np.abs(fresh.Y) ** 2, axis=1), fresh.n_columns)
            fresh_oracle = estimate_oracle_ls(fresh, truth)
            calls.clear()
            for i, greedy in enumerate(itertools.permutations(GREEDY)):
                order = [*greedy[: i % 4], "oracle_ls", *greedy[i % 4 :]]  # each place in turn
                inp = build_trial(cfg, trial_index=trial)[4]
                reports = {name: ESTIMATORS[name](inp, truth) for name in order}
                oracle = reports["oracle_ls"]
                # one atoms, one column power and one single-column batch per input; at
                # T >= N one Aᴴy for the pursuits, the fit table's, and one for the oracle
                assert sorted(calls) == ["_Atoms", "_column_power", "_pursue"] + [
                    "correlate", "correlate"
                ] * gram_domain
                calls.clear()
                triple, row = reports["triple_structured"], reports["row_structured"]
                conventional = reports["conventional_omp"]
                # both shared-support estimates read the input's one read-only joint support
                assert np.shares_memory(row.cols, triple.cols)
                assert not triple.cols.flags.writeable
                npt.assert_array_equal(triple.col_support, expected)
                # and conventional_omp reports the input's read-only per-user columns
                assert np.shares_memory(conventional.cols, inp._own_columns)
                assert not inp._own_columns.flags.writeable
                assert_bitwise_equal(conventional.cols, per_user)
                assert_bitwise_equal(oracle.values, fresh_oracle.values)

    def test_oracle_only_trial_fits_nothing(self, monkeypatch):
        # an oracle-only trial, as the oracle_snr benchmark runs, computes no column
        # power and builds no fit table
        calls = []

        def forbidden(name):
            def record(*args):
                calls.append(name)
                raise AssertionError(f"{name} ran")

            return record

        monkeypatch.setattr(estimators, "_pursue", forbidden("_pursue"))
        power = estimators._column_power
        monkeypatch.setattr(estimators, "_column_power", forbidden("_column_power"))
        monkeypatch.setattr(EstimatorInput, "_column_fits", property(forbidden("_column_fits")))
        correlate = _Atoms.correlate
        monkeypatch.setattr(
            _Atoms, "correlate", lambda *args: calls.append("correlate") or correlate(*args)
        )
        for t, trial in itertools.product((32, 128), range(3)):
            result = run_trial(SystemConfig(n_pilots=t, estimators=("oracle_ls",)), trial)
            assert result.errors == {} and sorted(result.nmse_lin) == ["oracle_ls"]
        # at T >= N the oracle makes one Aᴴy of its own per trial, below it none
        assert calls == ["correlate"] * 3
        calls.clear()
        monkeypatch.setattr(estimators, "_column_power", power)
        # a greedy estimator in the same trial does read the table
        result = run_trial(SystemConfig(estimators=("oracle_ls", "row_structured")), 0)
        assert sorted(result.nmse_lin) == ["oracle_ls"] and calls == ["_column_fits"]

    def test_one_column_joint_pass_equals_the_memo_fit(self):
        cfg = SystemConfig(bs_paths=1)
        for trial in range(3):
            _, _, _, _, inp = build_trial(cfg, trial_index=trial)
            col = joint_column_support(inp.Y, 1)[0]
            rolls = np.arange(inp.geometry.n_elements)[None, :]
            Y = np.swapaxes(inp.Y[:, :, [col]], 1, 2)  # users x 1 x pilots
            fit = _pursue(_Atoms(inp.sensing_matrix), Y, inp.row_counts, rolls)
            joint = [_problem(fit, k) for k in range(len(Y))]
            triple = estimate_triple_structured(inp)
            # the report's arrays are copies: changing them leaves the input's fit table intact
            histories = triple.diagnostics["residual_history"]
            for pattern, history in zip(triple.row_patterns, histories):
                pattern[:] = -1
                history[:] = np.nan
            row = estimate_row_structured(inp)
            again = estimate_triple_structured(inp)
            fresh = estimate_triple_structured(build_trial(cfg, trial_index=trial)[4])
            assert_bitwise_equal(row.values, fresh.values)
            for part in ("cols", "values", "row_patterns", "diagnostics"):
                assert_bitwise_equal(getattr(again, part), getattr(fresh, part))
            assert_bitwise_equal(fresh.row_patterns, [fit["anchors"] for fit in joint])
            assert_bitwise_equal(
                fresh.diagnostics["residual_history"], [fit["residual_history"] for fit in joint]
            )
            deficient = any(fit["rank_deficient"] for fit in joint)
            assert fresh.diagnostics["rank_deficient"] == deficient
            for k, fit in enumerate(joint):
                rows, coef = fit["columns"][0]
                assert fresh.values[k][rows, 0].tobytes() == coef.tobytes()


class TestEdgeConfigurations:
    """Small and degenerate scenarios run end to end to finite NMSE through the shared fits."""

    @pytest.mark.parametrize(
        "cfg, over_budget",
        [
            (SystemConfig(n_users=1), False),
            (SystemConfig(geometry=ArrayGeometry.upa(1, 16)), False),
            (SystemConfig(n_bs=8, bs_paths=8, n_pilots=64), False),
            (SystemConfig(n_pilots=1), True),
            (SystemConfig(n_pilots=8), True),
        ],
        ids=["one-user", "upa-1x16", "bs-paths-equal-n-bs", "one-pilot", "pilots-below-budget"],
    )
    def test_finite_and_order_independent(self, cfg, over_budget):
        budget_warning = (
            pytest.warns(RuntimeWarning, match="atom budget")
            if over_budget
            else contextlib.nullcontext()
        )
        with budget_warning:
            result = run_trial(cfg, 0)
            assert_order_independent(cfg, 0)
        assert result.errors == {}
        assert sorted(result.nmse_lin) == sorted(cfg.estimators)
        assert all(np.isfinite(value) for value in result.nmse_lin.values())
