"""Smoke test of the benchmark itself: every workload at a tiny trial count,
traced and untraced, plus the correctness check passing and failing as it should.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from run import WORKLOADS, Tally  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "1", "--seconds", "0", "--min-trials", "1"]


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", trace, *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]


def test_reference_check_accepts_round_off_and_rejects_differences():
    reference = check.read_cells(BENCH / "reference" / "canonical.csv")
    assert check.reference_problems(reference, reference) == []

    axis, name, nmse_db, stderr_db, trials = reference[0]
    round_off = (axis, name, repr(float(nmse_db) * (1 + 1e-13)), stderr_db, trials)
    assert check.reference_problems([round_off] + reference[1:], reference) == []

    for changed in (
        (axis, name, repr(float(nmse_db) + 1e-3), stderr_db, trials),
        (axis, name, nmse_db, repr(float(stderr_db) * 1.01), trials),
        (axis, name, nmse_db, stderr_db, trials - 1),
        (axis, name, "error", "error", 0),
        (axis, "other", nmse_db, stderr_db, trials),
    ):
        assert check.reference_problems([changed] + reference[1:], reference), changed
    assert check.reference_problems(reference[1:], reference)


def test_finite_check_and_failed_cell_count(tmp_path):
    csv_path = tmp_path / "run.csv"
    csv_path.write_text(
        "axis,estimator,nmse_db,stderr_db,trials\n"
        "32,oracle_ls,-18.0,0.1,4\n"
        "32,triple_structured,-17.0,0.1,3\n"
    )
    tally = Tally()
    tally.add(csv_path, 4)
    assert (tally.attempted, tally.failed, tally.problems) == (8, 1, [])

    csv_path.write_text(
        "axis,estimator,nmse_db,stderr_db,trials\n"
        "32,oracle_ls,nan,0.1,4\n"
        "32,triple_structured,error,error,0\n"
    )
    tally = Tally()
    tally.add(csv_path, 4)
    assert (tally.attempted, tally.failed, len(tally.problems)) == (8, 8, 2)


def _copy_bench(dest: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_a_wrong_reference_fails_the_run(tmp_path):
    _copy_bench(tmp_path, with_source=True)
    reference = tmp_path / "perfbench" / "reference" / "oracle_snr.csv"
    lines = reference.read_text().splitlines()
    axis, name, nmse_db, rest = lines[1].split(",", 3)
    lines[1] = ",".join([axis, name, repr(float(nmse_db) + 0.5), rest])
    reference.write_text("\n".join(lines) + "\n")

    proc = _run(tmp_path, "--workload", "oracle_snr", "--trace", "0", *TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == WORKLOADS["oracle_snr"].reference_trials * 5
    assert result["metrics"]["cells_ok_frac"]["value"] < 1.0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    _copy_bench(tmp_path, with_source=False)
    proc = _run(tmp_path, "--workload", "canonical", "--trace", "0", *TINY)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_references_are_reproduced_by_the_program(tmp_path):
    _copy_bench(tmp_path, with_source=True)
    proc = _run(tmp_path, "--write-reference")
    assert proc.returncode == 0, proc.stderr
    for name in WORKLOADS:
        written = check.read_cells(tmp_path / "perfbench" / "reference" / f"{name}.csv")
        committed = check.read_cells(BENCH / "reference" / f"{name}.csv")
        assert check.reference_problems(written, committed) == [], name
