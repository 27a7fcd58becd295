"""Golden regression: the canonical trials must recover the same structure.

tests/golden_canonical.json was written once, by the per-column `lstsq`
greedy pursuits that preceded the batched kernel, on the 200 canonical trials
(base seed 0, pilot lengths 32 and 128, trials 0-99 of each).  Per trial and
estimator it stores a SHA-256 over the integer results (column support,
offsets, row patterns and each user's nonzero index set) and the linear NMSE.
Integer results must match exactly and NMSE to 1e-9 relative.  The file is a
fixed record of that earlier code: never regenerate it from the current one.
The digests come from util.structure_digest; the trials run once per session,
in the canonical_trials fixture of conftest.py, which the acceptance checks
share.
"""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from risce.config import DEFAULT_ESTIMATORS
from risce.harness import SweepResult, _aggregate, emit_results

GOLDEN = Path(__file__).with_name("golden_canonical.json")
CANONICAL_CSV = Path(__file__).resolve().parents[1] / "results" / "canonical_seed0.csv"
NMSE_REL_TOL = 1e-9


@pytest.fixture(scope="module")
def current(canonical_trials):
    """{pilots: {estimator: [(digest, linear NMSE) per trial]}}, keyed like the golden file."""
    return {str(pilots): cells for pilots, cells in canonical_trials.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("pilots", ["32", "128"])
def test_integer_results_match_exactly(current, golden, pilots):
    for name, expected in golden[pilots].items():
        got = [digest for digest, _ in current[pilots][name]]
        want = [digest for digest, _ in expected]
        changed = [trial for trial, (g, w) in enumerate(zip(got, want)) if g != w]
        assert len(got) == len(want) and not changed, f"{name}: trials {changed} changed"


@pytest.mark.parametrize("pilots", ["32", "128"])
def test_nmse_matches_to_round_off(current, golden, pilots):
    for name, expected in golden[pilots].items():
        for trial, ((_, got), (_, want)) in enumerate(zip(current[pilots][name], expected)):
            assert math.isclose(got, want, rel_tol=NMSE_REL_TOL), (
                f"{name} trial {trial}: NMSE {got!r}, golden {want!r}"
            )


def test_committed_canonical_csv_is_these_trials(canonical_trials, tmp_path):
    # the fixture's trials are those of results/canonical_seed0.csv's command, so
    # the harness's own cell and CSV code must write that file byte for byte
    cells = {
        (pilots, name): _aggregate([record[1] for record in records if record], Counter())
        for pilots, by_name in canonical_trials.items()
        for name, records in by_name.items()
    }
    sweep = SweepResult("pilot_length", list(canonical_trials), DEFAULT_ESTIMATORS, cells)
    out = tmp_path / "canonical_seed0.csv"
    emit_results(sweep, out)
    assert out.read_bytes() == CANONICAL_CSV.read_bytes()
