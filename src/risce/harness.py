"""Monte Carlo benchmark driver: seeded trials, axis sweeps, and CSV output.

Per-trial NMSE is aggregated in the linear domain and converted to dB once per
cell; the reported standard error is the linear-domain standard error of the
mean propagated to dB, and 0.0 for a mean floored at NMSE_FLOOR_DB.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel import generate_channels
from .config import SystemConfig
from .estimators import (
    EstimateReport,
    EstimatorInput,
    estimate_conventional_omp,
    estimate_oracle_ls,
    estimate_row_structured,
    estimate_triple_structured,
)
from .sensing import (
    GroundTruth,
    extract_ground_truth,
    make_sensing_setup,
    simulate_measurements,
)

NMSE_FLOOR_DB = -300.0

CSV_HEADER = "axis,estimator,nmse_db,stderr_db,trials"

ESTIMATORS = {
    "oracle_ls": lambda inp, truth: estimate_oracle_ls(inp, truth),
    "triple_structured": lambda inp, truth: estimate_triple_structured(inp),
    "row_structured": lambda inp, truth: estimate_row_structured(inp),
    "conventional_omp": lambda inp, truth: estimate_conventional_omp(inp),
}


def _energy(H: np.ndarray) -> float:
    """Squared norm of a complex array, summed in an order set by its shape alone.

    Not by BLAS: OpenBLAS splits a dot product of over 10,000 elements across
    its threads, and the score would then follow the thread count.
    """
    flat = H.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


def nmse_linear(H_hat: np.ndarray, H_true: np.ndarray) -> float:
    """Total squared error over total true energy, pooled over users.

    Both are users-axis arrays of one shape; a list of equal-shape per-user
    arrays is read as their stack, and a ragged one raises ValueError.
    """
    H_hat, H_true = np.asarray(H_hat, dtype=complex), np.asarray(H_true, dtype=complex)
    if len(H_hat) != len(H_true):
        raise ValueError("estimate and truth must cover the same users")
    if H_hat.shape != H_true.shape:
        raise ValueError(f"shape mismatch {H_hat.shape} vs {H_true.shape}")
    energy = _energy(H_true)
    if energy == 0.0:
        raise ValueError("true channels are identically zero; NMSE is undefined")
    return _energy(H_hat - H_true) / energy


def _aligned(report: EstimateReport, truth: GroundTruth) -> tuple[np.ndarray, np.ndarray]:
    """Estimate and truth as two equal-shape users-axis arrays, for nmse_linear.

    When every user's columns are the truth's, these are the values as they
    are.  Otherwise both are widened once: slot i holds the truth's column i,
    and the slots after them each user's own other columns, zero-padded to the
    user with the most.  A column outside a user's own and the truth's is zero
    in both, so the NMSE is that of the dense channels.
    """
    cols, support = report.cols, truth.col_support
    if cols.shape[1] == support.size and (cols == support).all():
        return report.values, truth.values
    match = cols[:, :, None] == support  # users x C x len(support)
    other = ~match.any(axis=2)
    slot = np.where(other, support.size + np.cumsum(other, axis=1) - 1, match.argmax(axis=2))
    H_hat = np.zeros((*report.values.shape[:2], support.size + other.sum(axis=1).max()), complex)
    H_hat[np.arange(len(cols))[:, None], :, slot] = report.values.transpose(0, 2, 1)
    H_true = np.zeros_like(H_hat)
    H_true[:, :, : support.size] = truth.values
    return H_hat, H_true


def _to_db(mean_linear: float) -> float:
    if mean_linear <= 0.0:
        return NMSE_FLOOR_DB
    return max(10.0 * math.log10(mean_linear), NMSE_FLOOR_DB)


@dataclass
class TrialResult:
    """Per-estimator linear NMSE (or an error message) for one seeded trial."""

    nmse_lin: dict[str, float]
    errors: dict[str, str]


def trial_rng(base_seed: int, axis_index: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream per (seed, axis point, trial) triple."""
    seq = np.random.SeedSequence(base_seed, spawn_key=(axis_index, trial_index))
    return np.random.default_rng(seq)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def draw_trial(config: SystemConfig, trial_index: int = 0, axis_index: int = 0):
    """One seeded trial's inputs: (realization, setup, truth, measurements, inp).

    The one place a trial is drawn.  From the stream trial_rng(base_seed,
    axis_index, trial_index) come the channels, then the reflector schedule,
    then the noise, in that order; the ground truth and the estimator input
    are read from them.
    """
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
    return realization, setup, truth, measurements, inp


def run_trial(config: SystemConfig, trial_index: int, axis_index: int = 0) -> TrialResult:
    """Draw one scenario (draw_trial) and run every configured estimator on identical data.

    An unknown estimator name raises before anything is drawn.  An exception
    while drawing the scenario fails every estimator of the trial, and one
    raised by an estimator fails that estimator only; either way the message
    goes to TrialResult.errors and the trial returns normally.
    """
    for name in config.estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; known: {sorted(ESTIMATORS)}")
    try:
        _, _, truth, _, inp = draw_trial(config, trial_index, axis_index)
    except Exception as exc:  # a failed draw fails every estimator of this trial
        reason = _failure(exc)
        return TrialResult(nmse_lin={}, errors={name: reason for name in config.estimators})
    ratios: dict[str, float] = {}
    errors: dict[str, str] = {}
    for name in config.estimators:
        try:
            report = ESTIMATORS[name](inp, truth)
            ratios[name] = nmse_linear(*_aligned(report, truth))
        except Exception as exc:  # keep the trial alive; the cell records the failure
            errors[name] = _failure(exc)
    return TrialResult(nmse_lin=ratios, errors=errors)


@functools.cache
def _openblas_thread_calls():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None if there are none.

    The library is found among the shared objects mapped into this process, and
    the functions under the symbol names of the scipy-openblas ILP64 build, of
    a plain ILP64 build and of a plain build, in that order.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
            )
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS at one thread, then restore the caller's count.

    A trial's BLAS calls are small (at most a few hundred rows), and a second
    OpenBLAS thread woken by one of them spins between calls: in
    BENCH_11.json it doubled the CPU time of a trial for no gain in wall time
    on the canonical sweep.  The count is per process, not per Python thread.
    Without OpenBLAS this does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


@dataclass
class CellStats:
    """Aggregate for one (axis value, estimator) cell."""

    mean_db: float | None
    stderr_db: float | None
    n_trials: int
    n_failed: int
    failure_reasons: dict[str, int] = field(default_factory=dict)  # message -> failed trials


@dataclass
class SweepResult:
    """All cells of one sweep, addressable as cells[(axis_value, estimator_name)]."""

    axis: str
    values: list
    estimators: tuple[str, ...]
    cells: dict


def _aggregate(ratios: list[float], failures: Counter) -> CellStats:
    """A cell from its trials' linear NMSEs and its failed trials counted by message.

    A mean floored at NMSE_FLOOR_DB has a standard error of 0.0: the spread of
    the round-off NMSEs beneath the floor does not describe the floored mean.
    """
    n = len(ratios)
    mean_db = stderr_db = None
    if n > 0:
        mean_lin = float(np.mean(ratios))
        mean_db, stderr_db = _to_db(mean_lin), 0.0
        if n >= 2 and mean_db > NMSE_FLOOR_DB:
            se_lin = float(np.std(ratios, ddof=1)) / math.sqrt(n)
            stderr_db = 10.0 / math.log(10.0) * se_lin / mean_lin
    return CellStats(mean_db, stderr_db, n, failures.total(), dict(failures))


def run_sweep(config: SystemConfig, axis: str, values: list) -> SweepResult:
    """Sweep pilot length or SNR, holding everything else fixed.

    Every value is checked as given (32.7 or True pilots, or an SNR of "5",
    raise ValueError), then the values are sorted and deduplicated.  On the
    SNR axis None is the noiseless point, the same as +inf, kept as inf, and
    -0.0 is kept as 0.0.  Each (axis point, trial) pair gets its own seed
    stream, so results do not depend on the order values are given in, and
    every point is checked before the first trial runs.  A cell counts its
    failed trials by message in CellStats.failure_reasons.  The trials run
    with OpenBLAS at one thread (see _one_blas_thread); the caller's thread
    count is restored after.
    """
    if axis == "pilot_length":
        field, kind = "n_pilots", int
    elif axis == "snr":
        # + 0.0 turns -0.0 into 0.0: the set below keeps whichever of the two comes first
        field, kind = "snr_db", lambda value: math.inf if value is None else float(value) + 0.0
    else:
        raise ValueError(f"unknown sweep axis {axis!r}; expected 'pilot_length' or 'snr'")
    for value in values:
        replace(config, **{field: value})
    sorted_values = sorted({kind(value) for value in values})
    if not sorted_values:
        raise ValueError("at least one axis value is required")
    point_configs = [replace(config, **{field: value}) for value in sorted_values]
    cells: dict = {}
    with _one_blas_thread():
        for axis_index, (value, point_config) in enumerate(zip(sorted_values, point_configs)):
            ratios: dict[str, list[float]] = {name: [] for name in config.estimators}
            failures: dict[str, Counter] = {name: Counter() for name in config.estimators}
            for trial_index in range(config.trials):
                result = run_trial(point_config, trial_index, axis_index=axis_index)
                for name in config.estimators:
                    if name in result.nmse_lin:
                        ratios[name].append(result.nmse_lin[name])
                    else:
                        failures[name][result.errors[name]] += 1
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
    text = Path(path).read_text(encoding="utf-8-sig")  # a spreadsheet may save a byte-order mark
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1) if line]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"unrecognized results header in {path}")
    rows = []
    for lineno, line in lines[1:]:
        try:
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
        except ValueError as exc:
            message = f"{path}:{lineno}: expected a row of {CSV_HEADER!r}, got {line!r}"
            raise ValueError(message) from exc
    return rows
