"""Tests for NMSE accounting, seeded trials, axis sweeps, and CSV round trips."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import risce.harness as harness
from risce.config import ArrayGeometry, SystemConfig
from risce.harness import (
    CSV_HEADER,
    NMSE_FLOOR_DB,
    SweepResult,
    emit_results,
    load_results,
    nmse,
    nmse_linear,
    run_sweep,
    run_trial,
    trial_rng,
)


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
                expected = harness._aggregate(ratios[name], 0)
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

    def test_bad_axis_and_empty_values(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            run_sweep(cfg, "bandwidth", [1])
        with pytest.raises(ValueError):
            run_sweep(cfg, "snr", [])


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

    def test_no_estimators_writes_header_only(self, tmp_path):
        empty = SweepResult(axis="pilot_length", values=[16], estimators=(), cells={})
        out = tmp_path / "empty.csv"
        emit_results(empty, out)
        assert out.read_text(encoding="utf-8") == CSV_HEADER + "\n"
