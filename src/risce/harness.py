"""Monte Carlo benchmark driver: seeded trials, axis sweeps, and CSV output.

Per-trial NMSE is aggregated in the linear domain and converted to dB once per
cell; the reported standard error is the linear-domain standard error of the
mean propagated to dB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import generate_channels
from .config import SystemConfig
from .estimators import (
    EstimatorInput,
    estimate_conventional_omp,
    estimate_oracle_ls,
    estimate_row_structured,
    estimate_triple_structured,
)
from .sensing import extract_ground_truth, make_sensing_setup, simulate_measurements

NMSE_FLOOR_DB = -300.0

CSV_HEADER = "axis,estimator,nmse_db,stderr_db,trials"

ESTIMATORS = {
    "oracle_ls": lambda inp, truth: estimate_oracle_ls(inp, truth),
    "triple_structured": lambda inp, truth: estimate_triple_structured(inp),
    "row_structured": lambda inp, truth: estimate_row_structured(inp),
    "conventional_omp": lambda inp, truth: estimate_conventional_omp(inp),
}


def nmse_linear(H_hat: list[np.ndarray], H_true: list[np.ndarray]) -> float:
    """Total squared error over total true energy, summed over users."""
    if len(H_hat) != len(H_true):
        raise ValueError("estimate and truth must cover the same users")
    err = 0.0
    energy = 0.0
    for est, true in zip(H_hat, H_true):
        if est.shape != true.shape:
            raise ValueError(f"shape mismatch {est.shape} vs {true.shape}")
        err += float(np.sum(np.abs(est - true) ** 2))
        energy += float(np.sum(np.abs(true) ** 2))
    if energy == 0.0:
        raise ValueError("true channels are identically zero; NMSE is undefined")
    return err / energy


def _to_db(mean_linear: float) -> float:
    if mean_linear <= 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * math.log10(mean_linear), NMSE_FLOOR_DB)


def nmse(H_hat: list[np.ndarray], H_true: list[np.ndarray]) -> float:
    """NMSE in dB, floored at NMSE_FLOOR_DB so exact recovery stays finite."""
    return _to_db(nmse_linear(H_hat, H_true))


@dataclass
class TrialResult:
    """Per-estimator linear NMSE (or an error message) for one seeded trial."""

    nmse_lin: dict[str, float]
    errors: dict[str, str]


def trial_rng(base_seed: int, axis_index: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream per (seed, axis point, trial) triple."""
    seq = np.random.SeedSequence(base_seed, spawn_key=(axis_index, trial_index))
    return np.random.default_rng(seq)


def run_trial(config: SystemConfig, trial_index: int, axis_index: int = 0) -> TrialResult:
    """Draw one scenario and run every configured estimator on identical data."""
    for name in config.estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; known: {sorted(ESTIMATORS)}")
    rng = trial_rng(config.base_seed, axis_index, trial_index)
    realization = generate_channels(config, rng)
    setup = make_sensing_setup(config.n_bs, config.geometry, config.n_pilots, rng)
    truth = extract_ground_truth(realization, setup)
    measurements = simulate_measurements(truth, setup, config.snr_db, rng)
    inp = EstimatorInput(
        Y=measurements.Y,
        sensing_matrix=setup.sensing_matrix,
        n_columns=config.bs_paths,
        row_counts=[len(paths) for paths in realization.h_paths],
        geometry=config.geometry,
    )
    ratios: dict[str, float] = {}
    errors: dict[str, str] = {}
    for name in config.estimators:
        try:
            report = ESTIMATORS[name](inp, truth)
            ratios[name] = nmse_linear(report.H_hat, truth.H)
        except Exception as exc:  # keep the trial alive; the cell records the failure
            errors[name] = f"{type(exc).__name__}: {exc}"
    return TrialResult(nmse_lin=ratios, errors=errors)


@dataclass
class CellStats:
    """Aggregate for one (axis value, estimator) cell."""

    mean_db: float | None
    stderr_db: float | None
    n_trials: int
    n_failed: int


@dataclass
class SweepResult:
    """All cells of one sweep, addressable as cells[(axis_value, estimator_name)]."""

    axis: str
    values: list
    estimators: tuple[str, ...]
    cells: dict


def _aggregate(ratios: list[float], n_failed: int) -> CellStats:
    n = len(ratios)
    if n == 0:
        return CellStats(mean_db=None, stderr_db=None, n_trials=0, n_failed=n_failed)
    mean_lin = float(np.mean(ratios))
    if n >= 2 and mean_lin > 0.0:
        se_lin = float(np.std(ratios, ddof=1)) / math.sqrt(n)
        stderr_db = 10.0 / math.log(10.0) * se_lin / mean_lin
    else:
        stderr_db = 0.0
    return CellStats(mean_db=_to_db(mean_lin), stderr_db=stderr_db, n_trials=n, n_failed=n_failed)


def run_sweep(config: SystemConfig, axis: str, values: list) -> SweepResult:
    """Sweep pilot length or SNR, holding everything else fixed.

    Axis values are sorted ascending and deduplicated; each (axis point,
    trial) pair gets its own seed stream, so results do not depend on the
    order values are given in.  Every point's configuration is built, and so
    checked, before the first trial runs.
    """
    if axis == "pilot_length":
        sorted_values = sorted({int(v) for v in values})
        point_configs = [replace(config, n_pilots=v) for v in sorted_values]
    elif axis == "snr":
        sorted_values = sorted({float(v) for v in values})
        point_configs = [replace(config, snr_db=v) for v in sorted_values]
    else:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'pilot_length' or 'snr'")
    if not sorted_values:
        raise ValueError("at least one axis value is required")
    cells: dict = {}
    for axis_index, (value, point_config) in enumerate(zip(sorted_values, point_configs)):
        ratios: dict[str, list[float]] = {name: [] for name in config.estimators}
        failures: dict[str, int] = {name: 0 for name in config.estimators}
        for trial_index in range(config.trials):
            result = run_trial(point_config, trial_index, axis_index=axis_index)
            for name in config.estimators:
                if name in result.nmse_lin:
                    ratios[name].append(result.nmse_lin[name])
                else:
                    failures[name] += 1
        for name in config.estimators:
            cells[(value, name)] = _aggregate(ratios[name], failures[name])
    return SweepResult(axis=axis, values=sorted_values, estimators=config.estimators, cells=cells)


def _format_axis(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def emit_results(result: SweepResult, path) -> None:
    """Write one sweep as CSV with deterministic formatting and row order.

    Rows are ordered by axis value ascending, then by the configured estimator
    order.  Failed cells carry the marker 'error' instead of numbers.
    """
    lines = [CSV_HEADER]
    for value in result.values:
        for name in result.estimators:
            cell = result.cells[(value, name)]
            if cell.mean_db is None:
                nmse_field, stderr_field = "error", "error"
            else:
                nmse_field, stderr_field = repr(cell.mean_db), repr(cell.stderr_db)
            lines.append(
                f"{_format_axis(value)},{name},{nmse_field},{stderr_field},{cell.n_trials}"
            )
    text = "\n".join(lines) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def _parse_axis(text: str) -> int | float:
    """Inverse of _format_axis: integer literals (pilot lengths) as int, the rest as float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_results(path) -> list[dict]:
    """Parse a results CSV back into typed rows (None where a cell errored)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized results header in {path}")
    rows = []
    for line in lines[1:]:
        axis_value, estimator, nmse_field, stderr_field, trials = line.split(",")
        rows.append(
            {
                "axis": _parse_axis(axis_value),
                "estimator": estimator,
                "nmse_db": None if nmse_field == "error" else float(nmse_field),
                "stderr_db": None if stderr_field == "error" else float(stderr_field),
                "trials": int(trials),
            }
        )
    return rows
