"""End-to-end tests for the benchmark command line."""

import pytest

import risce.harness as harness
from risce.cli import main
from risce.harness import CSV_HEADER, load_results

SMALL = [
    "--n-bs", "16",
    "--n-ris", "32",
    "--users", "3",
    "--bs-paths", "2",
    "--ue-paths", "2", "3",
    "--trials", "3",
    "--seed", "7",
]


def _boom(inp, truth):
    raise RuntimeError("kaboom")


class TestSingle:
    def test_writes_csv_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "single.csv"
        code = main(["single", *SMALL, "--pilots", "16", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4  # default estimator set
        assert all(line.startswith("16,") for line in lines[1:])
        assert f"wrote {out}" in capsys.readouterr().out

    def test_summary_printed_without_out(self, capsys):
        code = main(["single", *SMALL, "--pilots", "16"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "axis=16" in stdout
        assert "oracle_ls" in stdout and "triple_structured" in stdout

    def test_noiseless_oracle_recovers_to_machine_precision(self, tmp_path):
        out = tmp_path / "clean.csv"
        code = main(
            ["single", *SMALL, "--pilots", "16", "--noiseless",
             "--estimators", "oracle_ls", "--out", str(out)]
        )
        assert code == 0
        rows = load_results(out)
        assert rows[0]["estimator"] == "oracle_ls"
        assert rows[0]["nmse_db"] < -250.0  # least-squares rounding only

    def test_estimator_subset(self, tmp_path):
        out = tmp_path / "subset.csv"
        code = main(
            ["single", *SMALL, "--pilots", "16",
             "--estimators", "oracle_ls,row_structured", "--out", str(out)]
        )
        assert code == 0
        rows = load_results(out)
        assert [r["estimator"] for r in rows] == ["oracle_ls", "row_structured"]


class TestSweeps:
    def test_sweep_t_values(self, tmp_path):
        out = tmp_path / "sweep_t.csv"
        code = main(
            ["sweep-t", "--values", "24,16", *SMALL,
             "--estimators", "oracle_ls", "--out", str(out)]
        )
        assert code == 0
        rows = load_results(out)
        assert [r["axis"] for r in rows] == [16.0, 24.0]

    def test_sweep_snr_negative_values_equals_form(self, tmp_path):
        # argparse cannot split '--values -5,0'; the attached form works
        out = tmp_path / "sweep_snr.csv"
        code = main(
            ["sweep-snr", "--values=-5,0", *SMALL, "--pilots", "16",
             "--estimators", "oracle_ls", "--out", str(out)]
        )
        assert code == 0
        rows = load_results(out)
        assert [r["axis"] for r in rows] == [-5.0, 0.0]

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["sweep-t", "--values", "16,24", *SMALL, "--estimators", "oracle_ls"]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        assert main([*args, "--out", str(p1)]) == 0
        assert main([*args, "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# tiny scenario\n"
            "n_bs = 16\n"
            "n_ris = 32\n"
            "users = 3\n"
            "bs_paths = 2\n"
            "ue_paths = 2,3\n"
            "pilots = 16\n"
            "snr_db = 0\n"
            "trials = 3\n"
            "seed = 7\n"
            "estimators = oracle_ls\n",
            encoding="utf-8",
        )
        out = tmp_path / "from_file.csv"
        code = main(["single", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = load_results(out)
        assert rows[0]["axis"] == 16.0 and rows[0]["estimator"] == "oracle_ls"

    def test_cli_overrides_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("pilots = 16\nn_bs = 16\nn_ris = 32\nusers = 3\n"
                       "bs_paths = 2\nue_paths = 2,3\ntrials = 3\n", encoding="utf-8")
        out = tmp_path / "override.csv"
        code = main(
            ["single", "--config", str(cfg), "--pilots", "8",
             "--estimators", "oracle_ls", "--out", str(out)]
        )
        assert code == 0
        assert load_results(out)[0]["axis"] == 8.0

    def test_upa_spelling(self, tmp_path):
        for spelling in ("8x4", "8,4"):
            cfg = tmp_path / "upa.cfg"
            cfg.write_text(f"upa = {spelling}\nn_bs = 16\nusers = 2\nbs_paths = 2\n"
                           "ue_paths = 2,3\npilots = 16\ntrials = 2\n", encoding="utf-8")
            code = main(["single", "--config", str(cfg), "--estimators", "oracle_ls"])
            assert code == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("antennas = 64\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_ue_paths_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ue_paths = 4\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg)]) == 1

    def test_conflicting_layout_keys_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_ris = 64\nupa = 8x8\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg)]) == 1

    def test_missing_file_rejected(self):
        assert main(["single", "--config", "/no/such/file.cfg"]) == 1


class TestErrors:
    def test_unknown_estimator(self, capsys):
        assert main(["single", *SMALL, "--estimators", "magic"]) == 1
        assert "magic" in capsys.readouterr().err

    def test_layout_flag_conflict(self):
        assert main(["single", *SMALL, "--upa", "8", "4"]) == 1  # SMALL already has --n-ris

    def test_invalid_config_values(self):
        assert main(["single", "--n-bs", "0"]) == 1
        assert main(["single", "--ue-paths", "5", "2"]) == 1

    def test_non_finite_snr_rejected(self, capsys):
        assert main(["single", *SMALL, "--snr-db", "nan"]) == 1
        assert "snr_db" in capsys.readouterr().err
        assert main(["single", *SMALL, "--snr-db=-inf"]) == 1
        assert main(["sweep-snr", *SMALL, "--values", "0,nan"]) == 1
        capsys.readouterr()
        # finite, but 10**(snr_db/10) overflows or underflows
        for flag in ("--snr-db=4000", "--snr-db=-4000"):
            assert main(["single", *SMALL, "--trials", "1", flag]) == 1
            err = capsys.readouterr().err
            assert "snr_db" in err and "Traceback" not in err

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep-t", "--pilots", "notanint"])
        assert info.value.code == 1
        with pytest.raises(SystemExit) as info:
            main([])  # a subcommand is required
        assert info.value.code == 1

    def test_unwritable_out(self):
        assert main(["single", *SMALL, "--pilots", "16",
                     "--estimators", "oracle_ls", "--out", "/no-such-dir/x.csv"]) == 1

    def test_all_cells_failing_exits_two(self, capsys, monkeypatch):
        monkeypatch.setitem(harness.ESTIMATORS, "always_fails", _boom)
        code = main(["single", *SMALL, "--pilots", "16", "--estimators", "always_fails"])
        assert code == 2
        assert "every cell failed" in capsys.readouterr().err
