"""Correctness checks on the results CSV the program writes.

The CSV is parsed here rather than with the program's own loader, so a defect
in the loader cannot hide a defect in the results.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

HEADER = ["axis", "estimator", "nmse_db", "stderr_db", "trials"]

# NMSE must equal the reference to round-off: the same relative tolerance the
# project uses for NMSE in its regression rules.
REL_TOL = 1e-9


def read_cells(path: Path) -> list[tuple[str, str, str, str, int]]:
    """Rows of (axis, estimator, nmse_db, stderr_db, trials), numbers kept as text."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != HEADER:
        raise ValueError(f"{path}: unexpected header {rows[:1]}")
    cells = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(HEADER):
            raise ValueError(f"{path}:{lineno}: expected {len(HEADER)} fields, got {len(row)}")
        axis, estimator, nmse_db, stderr_db, trials = row
        cells.append((axis, estimator, nmse_db, stderr_db, int(trials)))
    return cells


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def finite_problems(cells) -> list[str]:
    """Cells whose NMSE or standard error is missing or not finite."""
    return [
        f"axis {axis} {estimator}: nmse_db={nmse_db} stderr_db={stderr_db}"
        for axis, estimator, nmse_db, stderr_db, _ in cells
        if not (_finite(nmse_db) and _finite(stderr_db))
    ]


def reference_problems(cells, reference) -> list[str]:
    """Differences from the reference: cell order, trial counts exactly, numbers to round-off."""
    keys, reference_keys = [c[:2] for c in cells], [r[:2] for r in reference]
    if keys != reference_keys:
        return [f"cells {keys} differ from reference {reference_keys}"]
    problems = finite_problems(cells)
    for cell, ref in zip(cells, reference):
        label = f"axis {cell[0]} {cell[1]}"
        if cell[4] != ref[4]:
            problems.append(f"{label}: {cell[4]} trials, reference {ref[4]}")
        for field, got, want in (("nmse_db", cell[2], ref[2]), ("stderr_db", cell[3], ref[3])):
            if not (_finite(got) and _finite(want)):
                continue
            if not math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=REL_TOL):
                problems.append(f"{label}: {field} {got}, reference {want}")
    return problems


def failed_cells(cells, requested_trials: int) -> int:
    """(trial, estimator) cells that did not produce an NMSE: requested minus completed trials."""
    return sum(requested_trials - trials for *_, trials in cells)
