"""Tests for NMSE accounting, seeded trials, axis sweeps, and CSV round trips."""

import contextlib
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import risce
import risce.harness as harness
from risce.channel import generate_channels
from risce.config import MIN_SNR_DB, ArrayGeometry, SystemConfig
from risce.estimators import EstimateReport
from risce.harness import (
    CSV_HEADER,
    NMSE_FLOOR_DB,
    SweepResult,
    _aligned,
    emit_results,
    load_results,
    nmse,
    nmse_linear,
    run_sweep,
    run_trial,
    trial_rng,
)
from risce.sensing import GroundTruth


def small_config(**overrides):
    base = SystemConfig(
        n_bs=16,
        geometry=ArrayGeometry.ula(32),
        n_users=3,
        bs_paths=2,
        ue_paths=(2, 3),
        n_pilots=16,
        snr_db=0.0,
        trials=6,
        base_seed=7,
    )
    return dataclasses.replace(base, **overrides)


def _boom(inp, truth):
    raise RuntimeError("kaboom")


def fail_draw_on_trial(monkeypatch, trials, failing_trial):
    """Make harness.generate_channels raise on one trial index of every axis point.

    run_sweep runs trials 0..trials-1 in order at each point, so the call count
    gives the trial index.
    """
    calls = []

    def draw(config, rng):
        calls.append(None)
        if (len(calls) - 1) % trials == failing_trial:
            raise RuntimeError("bad draw")
        return generate_channels(config, rng)

    monkeypatch.setattr(harness, "generate_channels", draw)
    return calls


class TestNmse:
    def test_known_value(self):
        truth = [np.ones((2, 2), dtype=complex)]
        est = [np.ones((2, 2), dtype=complex)]
        est[0][0, 0] += 0.2
        # error 0.04 over energy 4 is 0.01, i.e. -20 dB
        npt.assert_allclose(nmse_linear(est, truth), 0.01, rtol=1e-12)
        npt.assert_allclose(nmse(est, truth), -20.0, rtol=1e-12)

    def test_exact_recovery_hits_floor(self):
        truth = [np.ones((3, 4), dtype=complex)]
        assert nmse_linear(truth, truth) == 0.0
        assert nmse(truth, truth) == NMSE_FLOOR_DB

    def test_zero_estimate_is_zero_db(self):
        truth = [np.ones((3, 4), dtype=complex)]
        assert nmse([np.zeros((3, 4), dtype=complex)], truth) == 0.0

    def test_pools_error_and_energy_over_users(self):
        truth = [np.ones((1, 1), dtype=complex), 3.0 * np.ones((1, 1), dtype=complex)]
        est = [2.0 * np.ones((1, 1), dtype=complex), 3.0 * np.ones((1, 1), dtype=complex)]
        npt.assert_allclose(nmse_linear(est, truth), 1.0 / 10.0, rtol=1e-12)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            nmse_linear([np.zeros((2, 2))], [np.zeros((2, 2))])

    def test_user_count_mismatch(self):
        with pytest.raises(ValueError):
            nmse_linear([np.ones((2, 2))], [np.ones((2, 2))] * 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse_linear([np.ones((2, 2))], [np.ones((2, 3))])

    def test_users_axis_arrays(self):
        truth = np.ones((2, 3, 2), dtype=complex)
        est = truth.copy()
        est[1, 2, 0] += 0.5j
        # error 0.25 over energy 12, pooled over both users
        assert nmse_linear(est, truth) == 0.25 / 12.0

    def test_ragged_users_rejected(self):
        ragged = [np.ones((2, 2)), np.ones((2, 3))]
        with pytest.raises(ValueError):
            nmse_linear(ragged, ragged)

    @pytest.mark.parametrize(
        "cols",
        [[[1, 3, 4], [0, 1, 3]], [[1, 3], [2, 4]], [[1, 3, 4], [1, 3, 4]]],
        ids=["one-user-on-other-columns", "other-column-count", "every-user-on-the-truth"],
    )
    def test_aligned_scores_the_dense_channels(self, cols):
        # exact binary fractions, so any summation order gives the same NMSE
        truth = GroundTruth(
            values=np.arange(1.0, 13.0).reshape(2, 2, 3) / 4, col_support=np.array([1, 3, 4]),
            row_patterns=[], offsets=[], n_bs=6,
        )
        cols = np.array(cols)
        values = np.arange(2.0, 2.0 + cols.size * 2).reshape(2, 2, -1) / 8
        report = EstimateReport(cols, values, None, None)
        H_hat = np.zeros_like(truth.H)
        for k in range(2):
            H_hat[k][:, cols[k]] = values[k]
        assert nmse_linear(*_aligned(report, truth)) == nmse_linear(H_hat, truth.H)


class TestTrialRng:
    def test_reproducible(self):
        a = trial_rng(0, 1, 2).standard_normal(8)
        b = trial_rng(0, 1, 2).standard_normal(8)
        npt.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        draws = [
            trial_rng(0, 0, 0).standard_normal(8),
            trial_rng(0, 0, 1).standard_normal(8),
            trial_rng(0, 1, 0).standard_normal(8),
            trial_rng(1, 0, 0).standard_normal(8),
        ]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_config()
        r1 = run_trial(cfg, trial_index=3)
        r2 = run_trial(cfg, trial_index=3)
        assert r1.nmse_lin == r2.nmse_lin  # exact float equality
        assert r1.errors == {} and r2.errors == {}

    def test_trials_differ(self):
        cfg = small_config()
        r0 = run_trial(cfg, trial_index=0)
        r1 = run_trial(cfg, trial_index=1)
        assert r0.nmse_lin["oracle_ls"] != r1.nmse_lin["oracle_ls"]

    def test_reports_returned_per_estimator(self):
        cfg = small_config()
        result = run_trial(cfg, trial_index=0)
        assert set(result.nmse_lin) == set(cfg.estimators)

    def test_unknown_estimator_rejected(self):
        cfg = small_config(estimators=("oracle_ls", "nope"))
        with pytest.raises(ValueError, match="nope"):
            run_trial(cfg, trial_index=0)

    def test_failing_estimator_is_recorded(self, monkeypatch):
        monkeypatch.setitem(harness.ESTIMATORS, "boom", _boom)
        cfg = small_config(estimators=("oracle_ls", "boom"))
        result = run_trial(cfg, trial_index=0)
        assert result.errors == {"boom": "RuntimeError: kaboom"}
        assert "oracle_ls" in result.nmse_lin

    @pytest.mark.parametrize(
        "stage",
        [
            "generate_channels",
            "make_sensing_setup",
            "extract_ground_truth",
            "simulate_measurements",
        ],
    )
    def test_failed_draw_fails_every_estimator(self, stage, monkeypatch):
        def broken(*args):
            raise RuntimeError(f"{stage} broke")

        monkeypatch.setattr(harness, stage, broken)
        cfg = small_config()
        result = run_trial(cfg, trial_index=0)
        assert result.nmse_lin == {}
        assert result.errors == {name: f"RuntimeError: {stage} broke" for name in cfg.estimators}

    def test_oracle_dominates_every_draw(self):
        cfg = SystemConfig(trials=1)
        for trial in range(20):
            result = run_trial(cfg, trial_index=trial)
            floor = result.nmse_lin["oracle_ls"]
            others = (n for n in cfg.estimators if n != "oracle_ls")
            assert all(result.nmse_lin[n] >= floor for n in others)

    def test_noiseless_long_pilots_all_estimators_precise(self):
        cfg = dataclasses.replace(SystemConfig(), snr_db=None, n_pilots=128)
        result = run_trial(cfg, trial_index=0)
        assert all(lin < 1e-6 for lin in result.nmse_lin.values())  # below -60 dB


class TestDrawTrial:
    @pytest.mark.parametrize(
        "config, trial_index, axis_index",
        [
            (SystemConfig(n_pilots=32), 3, 1),
            (SystemConfig(geometry=ArrayGeometry.upa(16, 16), n_pilots=64), 2, 0),
        ],
        ids=["ula128-t32", "upa16x16-t64"],
    )
    def test_run_trial_scores_the_drawn_trial(self, config, trial_index, axis_index):
        _, _, truth, _, inp = harness.draw_trial(config, trial_index, axis_index)
        expected = {
            name: nmse_linear(*_aligned(harness.ESTIMATORS[name](inp, truth), truth)).hex()
            for name in config.estimators
        }
        result = run_trial(config, trial_index, axis_index=axis_index)
        assert result.errors == {}
        assert {name: ratio.hex() for name, ratio in result.nmse_lin.items()} == expected

    def test_channels_come_first_from_the_trial_stream(self):
        cfg = small_config()
        realization, *_ = harness.draw_trial(cfg, trial_index=4, axis_index=2)
        assert realization == generate_channels(cfg, trial_rng(cfg.base_seed, 2, 4))
        assert harness.draw_trial(cfg)[0] == generate_channels(cfg, trial_rng(cfg.base_seed, 0, 0))

    def test_tests_draw_with_the_harness(self):
        import util

        assert util.build_trial is harness.draw_trial


class TestRunSweep:
    def test_matches_manual_trials(self):
        cfg = small_config(trials=5)
        result = run_sweep(cfg, "pilot_length", [16, 24])
        for axis_index, pilots in enumerate([16, 24]):
            point = dataclasses.replace(cfg, n_pilots=pilots)
            ratios = {name: [] for name in cfg.estimators}
            for trial in range(cfg.trials):
                out = run_trial(point, trial, axis_index=axis_index)
                for name in cfg.estimators:
                    ratios[name].append(out.nmse_lin[name])
            for name in cfg.estimators:
                expected = harness._aggregate(ratios[name], Counter())
                assert result.cells[(pilots, name)] == expected

    def test_value_order_and_duplicates_are_irrelevant(self):
        cfg = small_config(trials=3)
        a = run_sweep(cfg, "pilot_length", [24, 16])
        b = run_sweep(cfg, "pilot_length", [16, 24, 16])
        assert a == b
        assert a.values == [16, 24]

    def test_snr_axis(self):
        cfg = small_config(trials=4)
        result = run_sweep(cfg, "snr", [5.0, -5.0])
        assert result.values == [-5.0, 5.0]
        for value in result.values:
            for name in cfg.estimators:
                assert result.cells[(value, name)].n_trials == cfg.trials

    def test_none_on_the_snr_axis_is_the_noiseless_inf_point(self, tmp_path):
        cfg = small_config(trials=2)
        result = run_sweep(cfg, "snr", [None, 0.0])
        assert result.values == [0.0, math.inf]
        assert result == run_sweep(cfg, "snr", [0.0, math.inf])
        assert run_sweep(cfg, "snr", [None, math.inf]).values == [math.inf]
        path = tmp_path / "snr.csv"
        emit_results(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        axis = [line.split(",")[0] for line in lines]
        assert axis == ["0.0"] * len(cfg.estimators) + ["inf"] * len(cfg.estimators)
        assert [row["axis"] for row in load_results(path)] == [float(text) for text in axis]

    def test_negative_zero_snr_is_the_zero_point_in_either_order(self, tmp_path):
        cfg = small_config(trials=2)
        texts = []
        for order in ([-0.0, 0.0], [0.0, -0.0], [-0.0]):
            path = tmp_path / "snr.csv"
            emit_results(run_sweep(cfg, "snr", order), path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]
        axis = {line.split(b",")[0] for line in texts[0].splitlines()[1:]}
        assert axis == {b"0.0"}

    def test_error_drops_with_pilot_length(self):
        cfg = small_config(trials=10)
        result = run_sweep(cfg, "pilot_length", [8, 32])
        for name in ("oracle_ls", "triple_structured"):
            assert result.cells[(32, name)].mean_db < result.cells[(8, name)].mean_db

    def test_error_drops_with_snr(self):
        cfg = small_config(trials=10)
        result = run_sweep(cfg, "snr", [-10.0, 10.0])
        assert result.cells[(10.0, "oracle_ls")].mean_db < result.cells[(-10.0, "oracle_ls")].mean_db

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_bad_snr_rejected_before_any_trial(self, bad, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        with pytest.raises(ValueError, match="snr_db"):
            run_sweep(small_config(), "snr", [0.0, bad])

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            ("pilot_length", [32.7, True], "n_pilots must be a positive integer, got 32.7"),
            ("pilot_length", [16, True], "n_pilots must be a positive integer, got True"),
            ("pilot_length", [16.0], "n_pilots must be a positive integer, got 16.0"),
            ("snr", [0.0, "5"], "snr_db must be a number, +inf or None, got '5'"),
        ],
    )
    def test_axis_values_checked_as_given(self, axis, values, message, monkeypatch):
        # int() and float() would turn these into 32, 1, 16 and 5.0 and label the rows so
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        with pytest.raises(ValueError) as info:
            run_sweep(small_config(), axis, values)
        assert str(info.value) == message

    def test_lowest_accepted_snr_gives_finite_cells(self):
        # 8 pilots gave the largest NMSE per unit noise of the scenarios measured
        # (the oracle's refits are worst conditioned there); an overflow warning
        # is not the matched one, so it is re-raised and fails the suite
        cfg = SystemConfig(n_pilots=8, trials=100)
        with pytest.warns(RuntimeWarning, match="atom budget"):
            result = run_sweep(cfg, "snr", [MIN_SNR_DB])
        for name in cfg.estimators:
            cell = result.cells[(MIN_SNR_DB, name)]
            assert cell.n_trials == 100
            assert np.isfinite(cell.mean_db) and np.isfinite(cell.stderr_db)

    def test_failed_draw_is_one_failure_per_cell(self, monkeypatch):
        cfg = small_config(trials=4)
        intact = run_sweep(cfg, "pilot_length", [16, 24])
        calls = fail_draw_on_trial(monkeypatch, cfg.trials, failing_trial=2)
        result = run_sweep(cfg, "pilot_length", [16, 24])
        assert len(calls) == 2 * cfg.trials
        for value in result.values:
            for name in cfg.estimators:
                cell = result.cells[(value, name)]
                assert (cell.n_trials, cell.n_failed) == (cfg.trials - 1, 1)
                assert intact.cells[(value, name)].n_failed == 0

    def test_failure_messages_are_counted_per_cell(self, monkeypatch):
        cfg = small_config(trials=4)
        intact = run_sweep(cfg, "pilot_length", [16])
        assert all(cell.failure_reasons == {} for cell in intact.cells.values())
        fail_draw_on_trial(monkeypatch, cfg.trials, failing_trial=2)
        result = run_sweep(cfg, "pilot_length", [16, 24])
        for value in result.values:
            for name in cfg.estimators:
                cell = result.cells[(value, name)]
                assert cell.failure_reasons == {"RuntimeError: bad draw": 1}
                assert cell.n_failed == 1

    def test_config_errors_still_raise_before_any_draw(self, monkeypatch):
        calls = fail_draw_on_trial(monkeypatch, 1, failing_trial=0)
        with pytest.raises(ValueError, match="nope"):
            run_sweep(small_config(estimators=("oracle_ls", "nope")), "pilot_length", [16])
        with pytest.raises(ValueError, match="snr_db"):
            run_sweep(small_config(), "snr", [0.0, 4000.0])
        assert calls == []

    def test_bad_axis_and_empty_values(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            run_sweep(cfg, "bandwidth", [1])
        with pytest.raises(ValueError):
            run_sweep(cfg, "snr", [])


EDGE_FIELDS = ("geometry", "n_bs", "n_users", "bs_paths", "ue_paths", "n_pilots", "snr_db")
EDGE_GRID = [
    dict(zip(EDGE_FIELDS, values), trials=1)
    for values in itertools.product(
        (
            ArrayGeometry.ula(1),
            ArrayGeometry.ula(8),
            ArrayGeometry.upa(1, 8),
            ArrayGeometry.upa(8, 1),
            ArrayGeometry.upa(4, 4),
        ),
        (1, 4),
        (1, 3),
        (1, 4),
        ((1, 1), (1, 8), (8, 8)),
        (1, 8),
        (0.0, None),
    )
]


class TestEdgeGrid:
    """Every small configuration is rejected by name or sweeps to finite, repeatable cells."""

    @staticmethod
    def sweep(cfg):
        # pytest turns warnings into errors, which would fail every trial's draw;
        # the one warning an edge may give is that its atom budget exceeds T
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_sweep(cfg, "pilot_length", [cfg.n_pilots])
        for warning in caught:
            assert warning.category is RuntimeWarning and "atom budget" in str(warning.message)
        return result

    def test_rejected_with_the_field_named_or_finite(self, tmp_path):
        for i, fields in enumerate(EDGE_GRID):
            n = fields["geometry"].n_elements
            bad = ["bs_paths"] * (fields["bs_paths"] > min(fields["n_bs"], n))
            bad += ["ue_paths"] * (fields["ue_paths"][1] > n)
            if bad:
                with pytest.raises(ValueError, match=bad[0]):
                    SystemConfig(**fields)
                continue
            cfg = SystemConfig(**fields)
            result = self.sweep(cfg)
            for cell in result.cells.values():
                assert (cell.n_trials, cell.n_failed) == (1, 0), (fields, cell)
                assert math.isfinite(cell.mean_db) and math.isfinite(cell.stderr_db), fields
            if i % 16 == 0:  # a fixed subset re-runs to the same bytes
                first, again = tmp_path / "first.csv", tmp_path / "again.csv"
                emit_results(result, first)
                emit_results(self.sweep(cfg), again)
                assert first.read_bytes() == again.read_bytes(), fields


class TestCsvRoundTrip:
    def test_round_trip_preserves_values_exactly(self, tmp_path):
        cfg = small_config(trials=3)
        result = run_sweep(cfg, "pilot_length", [16, 24])
        out = tmp_path / "sweep.csv"
        emit_results(result, out)
        rows = load_results(out)
        assert len(rows) == 2 * len(cfg.estimators)
        for row in rows:
            cell = result.cells[(int(row["axis"]), row["estimator"])]
            assert row["nmse_db"] == cell.mean_db  # repr round trip is lossless
            assert row["stderr_db"] == cell.stderr_db
            assert row["trials"] == cell.n_trials

    def test_axis_types_survive_round_trip(self, tmp_path):
        cfg = small_config(trials=2, estimators=("oracle_ls",))
        pilots, snrs = tmp_path / "pilots.csv", tmp_path / "snr.csv"
        emit_results(run_sweep(cfg, "pilot_length", [16]), pilots)
        emit_results(run_sweep(cfg, "snr", [-5.0, 10.0]), snrs)
        assert [(type(r["axis"]), r["axis"]) for r in load_results(pilots)] == [(int, 16)]
        assert [(type(r["axis"]), r["axis"]) for r in load_results(snrs)] == [
            (float, -5.0),
            (float, 10.0),
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config(trials=3)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_results(run_sweep(cfg, "snr", [-5.0, 0.0]), p1)
        emit_results(run_sweep(cfg, "snr", [-5.0, 0.0]), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_error_cells_are_marked(self, tmp_path, monkeypatch):
        monkeypatch.setitem(harness.ESTIMATORS, "always_fails", _boom)
        cfg = small_config(trials=2, estimators=("oracle_ls", "always_fails"))
        result = run_sweep(cfg, "pilot_length", [16])
        out = tmp_path / "partial.csv"
        emit_results(result, out)
        text = out.read_text(encoding="utf-8")
        assert "16,always_fails,error,error,0" in text
        rows = load_results(out)
        failed = [r for r in rows if r["estimator"] == "always_fails"]
        assert failed[0]["nmse_db"] is None and failed[0]["trials"] == 0
        good = [r for r in rows if r["estimator"] == "oracle_ls"]
        assert good[0]["nmse_db"] is not None and good[0]["trials"] == 2

    def test_header_and_layout(self, tmp_path):
        cfg = small_config(trials=2, estimators=("oracle_ls",))
        out = tmp_path / "layout.csv"
        emit_results(run_sweep(cfg, "pilot_length", [16]), out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("16,oracle_ls,")

    def test_unwritable_path(self):
        cfg = small_config(trials=2, estimators=("oracle_ls",))
        result = run_sweep(cfg, "pilot_length", [16])
        with pytest.raises(OSError, match="no-such-dir"):
            emit_results(result, "/no-such-dir/out.csv")

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_results(bad)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs save CSV with a UTF-8 byte-order mark in front
        committed = Path(__file__).resolve().parents[1] / "results" / "canonical_seed0.csv"
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + committed.read_bytes())
        assert load_results(marked) == load_results(committed)

    @pytest.mark.parametrize("row", ["24,oracle_ls,-21.0", "24,oracle_ls,loud,0.1,3"])
    def test_malformed_row_named_with_its_line(self, tmp_path, row):
        bad = tmp_path / "bad_row.csv"
        # the bad row is line 4: a blank line still counts
        bad.write_text(f"{CSV_HEADER}\n16,oracle_ls,-20.0,0.1,3\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_results(bad)
        message = str(info.value)
        assert f"{bad}:4:" in message and CSV_HEADER in message and row in message

    def test_no_estimators_writes_header_only(self, tmp_path):
        empty = SweepResult(axis="pilot_length", values=[16], estimators=(), cells={})
        out = tmp_path / "empty.csv"
        emit_results(empty, out)
        assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n"


def _blas_threads():
    """The loaded OpenBLAS's thread-count getter, or skip the test without one."""
    calls = harness._openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS with a thread-count API is loaded")
    return calls[0]


def _counting_run_trial(monkeypatch, get_threads):
    """Wrap harness.run_trial to record the OpenBLAS thread count at every call."""
    seen = []
    original = harness.run_trial

    def run_trial_counted(*args, **kwargs):
        seen.append(get_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", run_trial_counted)
    return seen


class TestBlasThreads:
    """run_sweep runs its trials at one OpenBLAS thread and restores the caller's count.

    No test here sets more threads than the process had when it started.
    """

    def test_trials_run_at_one_thread_and_count_is_restored(self, monkeypatch):
        get_threads = _blas_threads()
        before = get_threads()
        seen = _counting_run_trial(monkeypatch, get_threads)
        run_sweep(small_config(trials=2), "pilot_length", [16, 24])
        assert seen == [1] * 4
        assert get_threads() == before

    def test_count_is_restored_when_the_loop_raises(self, monkeypatch):
        get_threads = _blas_threads()
        before = get_threads()
        seen = _counting_run_trial(monkeypatch, get_threads)
        with pytest.raises(ValueError, match="nope"):
            run_sweep(small_config(estimators=("oracle_ls", "nope")), "pilot_length", [16])
        assert seen == [1]
        assert get_threads() == before

    def test_no_openblas_leaves_the_count_alone(self, monkeypatch):
        get_threads = _blas_threads()
        before = get_threads()
        monkeypatch.setattr(harness, "_openblas_thread_calls", lambda: None)
        seen = _counting_run_trial(monkeypatch, get_threads)
        result = run_sweep(small_config(trials=2), "pilot_length", [16])
        assert seen == [before] * 2
        assert get_threads() == before
        assert all(cell.n_failed == 0 for cell in result.cells.values())

    @pytest.mark.parametrize(
        "geometry, axis, values",
        [
            (ArrayGeometry.ula(128), "pilot_length", [32, 128]),
            (ArrayGeometry.upa(16, 16), "pilot_length", [64]),
            (ArrayGeometry.ula(128), "snr", [-10.0, 10.0]),
        ],
        ids=["ula128", "upa16x16", "snr"],
    )
    def test_csv_is_byte_identical_without_the_pin(
        self, geometry, axis, values, tmp_path, monkeypatch
    ):
        # scenario sizes of the benchmark's sweeps, whose products OpenBLAS
        # splits over threads; the unpinned run uses the process's own count
        cfg = SystemConfig(geometry=geometry, n_pilots=64, trials=2)
        pinned, unpinned = tmp_path / "pinned.csv", tmp_path / "unpinned.csv"
        emit_results(run_sweep(cfg, axis, values), pinned)
        monkeypatch.setattr(harness, "_one_blas_thread", contextlib.nullcontext)
        emit_results(run_sweep(cfg, axis, values), unpinned)
        assert pinned.read_bytes() == unpinned.read_bytes()


_IMPORT_PROBE = """
import ctypes, json, os
import numpy


def blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({l.split()[-1] for l in maps if "openblas" in l.lower() and "/" in l})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            get = getattr(lib, name, None)
            if get is not None:
                return get()
    return None


def state():
    env = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {"blas_threads": blas_threads(), "thread_env": env}


before = state()
import risce, risce.channel, risce.cli, risce.config, risce.estimators, risce.harness
import risce.numerics, risce.sensing
print(json.dumps({"before": before, "after": state()}))
"""


def test_import_sets_no_thread_state():
    """Importing risce changes neither the OpenBLAS thread count nor a *_NUM_THREADS variable.

    The probe starts without the thread variables: this process has imported
    risce already, so its own environment cannot show what the import did.
    """
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert probe.returncode == 0, probe.stderr
    states = json.loads(probe.stdout.strip().splitlines()[-1])
    assert states["after"] == states["before"]


def test_public_surface():
    """The names the package exports: no more and no fewer than the documented set."""
    exported = {
        name for name, value in vars(risce).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {
        "ArrayGeometry", "ChannelRealization", "DEFAULT_ESTIMATORS", "ESTIMATORS",
        "EstimateReport", "EstimatorInput", "GroundTruth", "MeasurementSet", "NMSE_FLOOR_DB",
        "RisBsPath", "SensingSetup", "StructureViolation", "SweepResult", "SystemConfig",
        "TrialResult", "UeRisPath", "circ_xcorr_1d", "circ_xcorr_2d", "coarse_omp",
        "emit_results", "estimate_common_offsets", "estimate_conventional_omp",
        "estimate_oracle_ls", "estimate_row_structured", "estimate_triple_structured",
        "extract_ground_truth", "generate_channels", "generate_phase_schedule",
        "joint_column_support", "load_results", "ls_solve", "make_sensing_setup", "nmse",
        "nmse_linear", "offset_structured_somp", "run_sweep", "run_trial", "shift_indices",
        "signed_shift", "simulate_measurements", "top_l_indices",
    }
