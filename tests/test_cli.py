"""End-to-end tests for the benchmark command line."""

import math

import pytest

import risce.cli as cli
import risce.harness as harness
from risce.cli import main
from risce.config import ArrayGeometry, SystemConfig
from risce.harness import CSV_HEADER, emit_results, load_results, run_sweep

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
            ["single", *SMALL, "--pilots", "16", "--snr-db", "inf",
             "--estimators", "oracle_ls", "--out", str(out)]
        )
        assert code == 0
        rows = load_results(out)
        assert rows[0]["estimator"] == "oracle_ls"
        assert rows[0]["nmse_db"] < -250.0  # least-squares rounding only

    def test_floored_cell_reports_zero_stderr(self, tmp_path):
        # README's noiseless example: the oracle's mean is floored at -300 dB, so the
        # delta-method spread of the round-off NMSEs beneath it (0.303 dB) is not its spread
        out = tmp_path / "floored.csv"
        command = ["single", "--upa", "8", "16", "--users", "8", "--snr-db", "inf"]
        assert main([*command, "--trials", "10", "--out", str(out)]) == 0
        assert "32,oracle_ls,-300.0,0.0,10" in out.read_text(encoding="utf-8").splitlines()

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

    def test_repeated_key_rejected_with_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("pilots = 16\n# a comment\nusers = 4\npilots = 8\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.rstrip() == f"error: {cfg}:4: duplicate key 'pilots' (first at line 1)"

    def test_malformed_ue_paths_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ue_paths = 4\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg)]) == 1

    def test_conflicting_layout_keys_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_ris = 64\nupa = 8x8\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg)]) == 1

    # one bad value per value type: integer, integer pair, float
    @pytest.mark.parametrize(
        "key, value, culprit",
        [("pilots", "3x", "'3x'"), ("upa", "16x", "''"), ("snr_db", "loud", "'loud'")],
    )
    def test_bad_value_names_file_and_key(self, tmp_path, capsys, key, value, culprit):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main(["single", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {key}: ") and err.rstrip().endswith(culprit)

    def test_missing_file_rejected(self):
        assert main(["single", "--config", "/no/such/file.cfg"]) == 1

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        text = "pilots = 16\nn_bs = 16\nn_ris = 32\nusers = 3\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        parser = cli.build_parser()
        configs = [
            cli._resolve_config(parser.parse_args(["single", "--config", str(path)]))
            for path in (plain, marked)
        ]
        assert configs[0] == configs[1]
        assert configs[1].n_pilots == 16 and configs[1].n_bs == 16


class TestNoiseless:
    """`--snr-db inf` (in a file, `snr_db = inf`) is the one way to ask for a run without noise."""

    def test_every_spelling_writes_the_same_csv(self, tmp_path):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text("snr_db = inf\n", encoding="utf-8")
        flag, from_file, library = (tmp_path / f"{name}.csv" for name in ("flag", "file", "lib"))
        args = ["single", *SMALL, "--pilots", "16"]
        assert main([*args, "--snr-db", "inf", "--out", str(flag)]) == 0
        assert main([*args, "--config", str(cfg), "--out", str(from_file)]) == 0
        config = SystemConfig(n_bs=16, geometry=ArrayGeometry.ula(32), n_users=3, bs_paths=2,
                              ue_paths=(2, 3), n_pilots=16, snr_db=None, trials=3, base_seed=7)
        emit_results(run_sweep(config, "pilot_length", [16]), library)
        assert flag.read_bytes() == from_file.read_bytes() == library.read_bytes()

    def test_noiseless_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["single", *SMALL, "--pilots", "16", "--estimators", "oracle_ls", "--noiseless"])
        assert info.value.code == 1
        assert "unrecognized arguments: --noiseless" in capsys.readouterr().err

    def test_noiseless_key_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("pilots = 16\nnoiseless = true\n", encoding="utf-8")
        args = ["single", *SMALL, "--estimators", "oracle_ls", "--config", str(cfg)]
        assert main(args) == 1
        assert capsys.readouterr().err.rstrip() == f"error: {cfg}:2: unknown key 'noiseless'"


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
        # finite, but outside the accepted range
        for flag in ("--snr-db=4000", "--snr-db=-4000", "--snr-db=-3076"):
            assert main(["single", *SMALL, "--trials", "1", flag]) == 1
            err = capsys.readouterr().err
            assert "snr_db" in err and "Traceback" not in err

    def test_empty_values_exit_one(self, capsys):
        for command in ("sweep-t", "sweep-snr"):
            assert main([command, *SMALL, "--values=,"]) == 1
            assert capsys.readouterr().err == "error: at least one axis value is required\n"

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


def test_calls_in_one_process_parse_independently(monkeypatch):
    seen = []  # (config, axis, values) of each call that reached the sweep

    def recording(config, axis, values):
        seen.append((config, axis, list(values)))
        raise ValueError("stop before any trial")

    monkeypatch.setattr(cli, "run_sweep", recording)
    assert main(["sweep-snr", "--values=-5,5", "--pilots", "16", "--users", "2"]) == 1
    assert main(["sweep-t", "--trials", "3"]) == 1
    assert main(["single", "--snr-db", "inf", "--upa", "4", "8"]) == 1
    assert main(["sweep-t"]) == 1
    assert cli.build_parser() is cli.build_parser()
    assert seen == [
        (SystemConfig(n_pilots=16, n_users=2), "snr", [-5.0, 5.0]),
        (SystemConfig(trials=3), "pilot_length", [16, 32, 64, 128]),
        (SystemConfig(snr_db=math.inf, geometry=ArrayGeometry.upa(4, 8)), "pilot_length", [32]),
        (SystemConfig(), "pilot_length", [16, 32, 64, 128]),
    ]
