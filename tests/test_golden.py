"""Golden regression: the canonical trials must recover the same structure.

tests/golden_canonical.json was written once, by the per-column `lstsq`
greedy pursuits that preceded the batched kernel, on the 200 canonical trials
(base seed 0, pilot lengths 32 and 128, trials 0-99 of each).  Per trial and
estimator it stores a SHA-256 over the integer results (column support,
offsets, row patterns and each user's nonzero index set) and the linear NMSE.
Integer results must match exactly and NMSE to 1e-9 relative.  The file is a
fixed record of that earlier code: never regenerate it from the current one.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from risce.config import SystemConfig
from risce.harness import ESTIMATORS, nmse_linear
from util import build_trial

GOLDEN = Path(__file__).with_name("golden_canonical.json")
NMSE_REL_TOL = 1e-9


def structure_digest(report) -> str:
    """SHA-256 of an estimate's integer results, independent of its coefficients."""

    def ints(values):
        return None if values is None else [int(v) for v in np.asarray(values).ravel()]

    record = {
        "col_support": ints(report.col_support),
        "offsets": None if report.offsets is None else [ints(d) for d in report.offsets],
        "row_patterns": (
            None if report.row_patterns is None else [ints(p) for p in report.row_patterns]
        ),
        "nonzero": [ints(np.flatnonzero(H_k)) for H_k in report.H_hat],
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def canonical_records() -> dict:
    """{pilots: {estimator: [[digest, linear NMSE] per trial]}} over the canonical sweep."""
    out: dict = {}
    for axis_index, pilots in enumerate((32, 128)):
        config = dataclasses.replace(SystemConfig(), n_pilots=pilots)
        cells: dict = {name: [] for name in ESTIMATORS}
        for trial in range(config.trials):
            _, _, truth, _, inp = build_trial(config, trial, axis_index=axis_index)
            for name, estimate in ESTIMATORS.items():
                report = estimate(inp, truth)
                cells[name].append([structure_digest(report), nmse_linear(report.H_hat, truth.H)])
        out[str(pilots)] = cells
    return out


@pytest.fixture(scope="module")
def current():
    return canonical_records()


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
