"""Cascaded-channel estimators operating on beamspace pilot measurements.

The flagship estimator exploits three structural facts about the per-user
beamspace channels: all users share one set of occupied columns, within a user
every occupied column's row support is a circular shift of one per-user
pattern, and the shifts are identical across users.  Baselines drop one or
both of the cross-column/cross-user couplings, and an oracle solves least
squares on the true supports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import ArrayGeometry
from .numerics import circ_xcorr_2d, ls_solve, peak_shift_2d, top_l_indices
from .sensing import GroundTruth, Offset, roll_map

# the benchmark tracer wraps this name on this module, so it stays imported here
from .numerics import circ_xcorr_1d  # noqa: F401

__all__ = [
    "EstimatorInput",
    "EstimateReport",
    "OffsetUndetermined",
    "joint_column_support",
    "coarse_omp",
    "estimate_common_offsets",
    "offset_structured_somp",
    "estimate_triple_structured",
    "estimate_row_structured",
    "estimate_conventional_omp",
    "estimate_oracle_ls",
    "residual_stop_threshold",
]


def residual_stop_threshold(noise_variance: float, n_pilots: int) -> float:
    """Residual-norm level sigma*sqrt(2T) for greedy recovery without a known sparsity.

    Pass the result as stop_threshold to coarse_omp or offset_structured_somp
    together with a generous atom cap; iteration then stops once the residual
    is at the noise floor instead of after a fixed atom count.
    """
    if noise_variance < 0.0:
        raise ValueError("noise_variance must be non-negative")
    if n_pilots < 1:
        raise ValueError("n_pilots must be positive")
    return math.sqrt(2.0 * n_pilots * noise_variance)


@dataclass
class EstimatorInput:
    """Everything an estimator may use: measurements, sensing matrix, and sparsity budgets."""

    Y: list[np.ndarray]  # per-user n_pilots x n_bs measurements
    sensing_matrix: np.ndarray  # n_pilots x n_elements
    n_columns: int  # shared occupied-column count
    row_counts: list[int]  # per-user nonzero rows per occupied column
    geometry: ArrayGeometry

    def __post_init__(self) -> None:
        if not self.Y:
            raise ValueError("at least one user measurement is required")
        shape = self.Y[0].shape
        if len(shape) != 2:
            raise ValueError("measurements must be 2-D arrays")
        for k, Y_k in enumerate(self.Y):
            if Y_k.shape != shape:
                raise ValueError(f"user {k} measurement shape {Y_k.shape} differs from {shape}")
        n_pilots, n_bs = shape
        if self.sensing_matrix.ndim != 2 or self.sensing_matrix.shape[0] != n_pilots:
            raise ValueError("sensing matrix row count must match the pilot length")
        if self.sensing_matrix.shape[1] != self.geometry.n_elements:
            raise ValueError("sensing matrix column count must match the reflector size")
        if not 1 <= self.n_columns <= n_bs:
            raise ValueError(f"n_columns must lie in [1, {n_bs}]")
        if len(self.row_counts) != len(self.Y):
            raise ValueError("row_counts must list one budget per user")
        for k, count in enumerate(self.row_counts):
            if not 1 <= count <= self.geometry.n_elements:
                raise ValueError(f"user {k} row count {count} out of range")
        if self.n_columns * max(self.row_counts) > n_pilots:
            warnings.warn(
                f"total atom budget {self.n_columns * max(self.row_counts)} exceeds the "
                f"pilot length {n_pilots}; recovery may be unreliable",
                RuntimeWarning,
                stacklevel=2,
            )


@dataclass
class EstimateReport:
    """Estimator output: per-user channel estimates plus recovered structure.

    offsets and row_patterns are None for estimators that do not model the
    cross-column coupling.
    """

    H_hat: list[np.ndarray]
    col_support: np.ndarray
    offsets: list[Offset] | None
    row_patterns: list[np.ndarray] | None
    diagnostics: dict = field(default_factory=dict)


class OffsetUndetermined(RuntimeError):
    """Offset estimation found no correlation mass for at least one column.

    Carries the partial result: `offsets` holds zero shifts for the columns
    listed in `failed`, so callers can fall back and continue.
    """

    def __init__(self, offsets: list[Offset], failed: list[int]):
        super().__init__(f"offset undetermined for columns {failed}")
        self.offsets = offsets
        self.failed = failed


def joint_column_support(Y: list[np.ndarray], n_columns: int) -> np.ndarray:
    """Occupied-column detection from the diagonal of sum_k Y_k^H @ Y_k.

    The diagonal equals the per-column measurement power summed over users, so
    the shared support is the top-n_columns entries (ascending index order).
    """
    power = np.zeros(Y[0].shape[1])
    for Y_k in Y:
        power += np.sum(np.abs(Y_k) ** 2, axis=0)
    return top_l_indices(power, n_columns)


def _batched_lstsq(subs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares for a stack of systems subs[i] @ x ~= ys[i]; returns (x, rank_deficient).

    One stacked QR solves every system.  A system with more unknowns than rows,
    or whose smallest |diag R| is at most eps * T * max|diag R|, is re-solved
    by ls_solve, which supplies its rank flag and minimum-norm solution.
    """
    m, t, k = subs.shape
    coef = np.zeros((m, k), dtype=complex)
    deficient = np.full(m, k > t)
    if 0 < k <= t:
        q, r = np.linalg.qr(subs)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        deficient = diag.min(axis=1) <= np.finfo(float).eps * t * diag.max(axis=1)
        r[deficient] = np.eye(k)  # placeholder; those systems are re-solved below
        coef = np.linalg.solve(r, q.conj().transpose(0, 2, 1) @ ys[:, :, None])[:, :, 0]
    for i in np.flatnonzero(deficient):
        coef[i], deficient[i] = ls_solve(subs[i], ys[i])
    return coef, deficient


def _pursue(a: np.ndarray, Y: np.ndarray, budgets, rolls=None, stop_threshold=None) -> list[dict]:
    """Greedy pursuit of B problems in lockstep against one dictionary a (T x N).

    Problem b fits the C columns Y[:, b, :] (Y is T x B x C) with one anchor
    set; column c uses rows rolls[c][anchors] (the anchors themselves when
    rolls is None).  Each step takes one a^H @ R product over the active
    problems, scores every unused anchor by its correlation power summed over
    the columns at its rolled rows, picks the first maximum per problem, then
    refits every column by least squares on its sorted rows.  Problem b stops
    after budgets[b] anchors, when its best score is not positive (a zero
    residual), or once every column residual norm is below stop_threshold.
    Returns one offset_structured_somp result per problem.
    """
    t, n = a.shape
    _, n_prob, n_cols = Y.shape
    if rolls is None:
        rolls = np.broadcast_to(np.arange(n), (n_cols, n))
    budgets = np.asarray(budgets, dtype=int)
    kmax = int(budgets.max(initial=0))
    atoms = np.ascontiguousarray(a.T)
    atoms_h = atoms.conj()
    ys = np.ascontiguousarray(np.moveaxis(Y, 0, -1), dtype=complex)  # B x C x T
    resid = ys.copy()
    rows = np.zeros((n_prob, n_cols, kmax), dtype=int)
    coef = np.zeros((n_prob, n_cols, kmax), dtype=complex)
    anchors, history = np.zeros((n_prob, kmax), dtype=int), np.zeros((n_prob, kmax, n_cols))
    count = np.zeros(n_prob, dtype=int)
    deficient = np.zeros(n_prob, dtype=bool)
    used = np.zeros((n, n_prob), dtype=bool)
    live = np.arange(n_prob)
    for k in range(kmax):
        live = live[budgets[live] > k]
        if stop_threshold is not None:
            below = np.linalg.norm(resid[live], axis=-1) < stop_threshold
            live = live[~np.all(below, axis=1)]
        if live.size == 0:
            break
        power = (np.abs(atoms_h @ resid[live].reshape(-1, t).T) ** 2).reshape(n, -1, n_cols)
        metric = power[rolls[0], :, 0]
        for c in range(1, n_cols):
            metric = metric + power[rolls[c], :, c]
        metric[used[:, live]] = -np.inf
        best = np.argmax(metric, axis=0)
        hit = metric[best, np.arange(live.size)] > 0.0
        live, best = live[hit], best[hit]
        if live.size == 0:
            break
        used[best, live] = True
        picks = np.sort(np.column_stack([anchors[live, :k], best]), axis=1)
        picked = np.sort(np.moveaxis(rolls[:, picks], 0, 1), axis=-1)  # live x C x (k+1)
        subs = np.swapaxes(atoms[picked], -1, -2).reshape(-1, t, k + 1)
        y_live = ys[live].reshape(-1, t)
        x, flags = _batched_lstsq(subs, y_live)
        resid[live] = (y_live - (subs @ x[:, :, None])[:, :, 0]).reshape(-1, n_cols, t)
        del subs
        anchors[live, : k + 1], rows[live, :, : k + 1] = picks, picked
        coef[live, :, : k + 1] = x.reshape(-1, n_cols, k + 1)
        history[live, k] = np.linalg.norm(resid[live], axis=-1)
        count[live] = k + 1
        deficient[live] |= flags.reshape(-1, n_cols).any(axis=1)
    return [
        {
            "anchors": anchors[b, :m].copy(),
            "columns": [(rows[b, c, :m].copy(), coef[b, c, :m].copy()) for c in range(n_cols)],
            "residual_history": history[b, :m].copy(),
            "rank_deficient": bool(deficient[b]),
            "group_collision": bool(np.any(np.diff(rows[b, :, :m], axis=1) == 0)),
        }
        for b, m in enumerate(count)
    ]


def coarse_omp(
    y: np.ndarray, a: np.ndarray, sparsity: int, stop_threshold: float | None = None
) -> np.ndarray:
    """Per-column OMP returning a dense length-n coefficient vector.

    sparsity is the atom budget; an optional stop_threshold (see
    residual_stop_threshold) ends iteration early at the noise floor.
    """
    y = np.asarray(y)
    a = np.asarray(a)
    if a.ndim != 2 or y.ndim != 1 or y.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {y.shape}")
    if sparsity < 0:
        raise ValueError("sparsity must be non-negative")
    fit = _pursue(a, y[:, None, None], [sparsity], stop_threshold=stop_threshold)[0]
    rows, coef = fit["columns"][0]
    out = np.zeros(a.shape[1], dtype=complex)
    out[rows] = coef
    return out


def estimate_common_offsets(
    coarse_cols: list[np.ndarray], geometry: ArrayGeometry
) -> list[Offset]:
    """Shared circular shifts between the first retained column and each other one.

    Each user's coarse columns are laid out on the (n1, n2) element grid (a
    linear array is n2 == 1).  One batched 2-D circular correlation of every
    user's reference column against each of its columns gives a map per
    (user, column); the maps are summed over users, in user order, and each
    column's offset is the per-axis signed lag of its peak.  The first column
    is the reference (zero shift).  Raises OffsetUndetermined, carrying
    zero-shift fallbacks, if some column has no correlation mass at all.
    """
    n_users, n_cols = len(coarse_cols), coarse_cols[0].shape[1]
    maps = np.stack(coarse_cols).transpose(0, 2, 1)
    maps = maps.reshape(n_users, n_cols, geometry.n1, geometry.n2)
    corr = circ_xcorr_2d(np.broadcast_to(maps[:, :1], maps.shape), maps).sum(axis=0)
    zero = geometry.to_public((0, 0))
    failed = [j for j in range(1, n_cols) if not np.any(corr[j] > 0.0)]
    offsets: list[Offset] = [
        zero if j == 0 or j in failed else geometry.to_public(peak_shift_2d(corr[j]))
        for j in range(n_cols)
    ]
    if failed:
        raise OffsetUndetermined(offsets, failed)
    return offsets


def offset_structured_somp(
    y_cols: np.ndarray,
    a: np.ndarray,
    offsets: list[Offset],
    n_rows: int,
    geometry: ArrayGeometry,
    stop_threshold: float | None = None,
) -> dict:
    """Joint greedy row recovery across one user's occupied columns.

    Anchors index rows of the reference column; column j's support is the
    anchor set shifted by offsets[j].  Each iteration scores every unused
    anchor by the squared correlation magnitude summed over columns (each
    column's correlation evaluated at the anchor shifted by that column's
    offset), then refits every column by least squares on its shifted support
    and updates the residuals.  n_rows caps the anchor count; an optional
    stop_threshold ends iteration once every column residual is below it.
    """
    y_cols = np.asarray(y_cols)
    a = np.asarray(a)
    if y_cols.ndim != 2 or y_cols.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {y_cols.shape}")
    if len(offsets) != y_cols.shape[1]:
        raise ValueError("one offset per retained column is required")
    rolls = np.stack([roll_map(offset, geometry) for offset in offsets])
    return _pursue(a, y_cols[:, None, :], [n_rows], rolls, stop_threshold)[0]


def _column_pursuits(inp: EstimatorInput, col_sets: list[np.ndarray]) -> tuple[list, bool]:
    """Per-user estimates from independent single-column pursuits of columns col_sets[k].

    Also returns whether any refit was rank deficient.  The problems run
    user-major in one batch, so every caller lays them out the same way.
    """
    per_user = len(col_sets[0])
    Y = np.stack([Y_k[:, cols] for Y_k, cols in zip(inp.Y, col_sets)], axis=1)
    budgets = np.repeat(inp.row_counts, per_user)
    fits = _pursue(inp.sensing_matrix, Y.reshape(Y.shape[0], -1, 1), budgets)
    columns = [fit["columns"][0] for fit in fits]
    per_user_columns = [columns[k : k + per_user] for k in range(0, len(columns), per_user)]
    return _assemble(inp, col_sets, per_user_columns), any(fit["rank_deficient"] for fit in fits)


def _assemble(inp: EstimatorInput, col_sets, columns) -> list[np.ndarray]:
    """Dense per-user estimates: user k's fit columns[k][j] fills column col_sets[k][j]."""
    H_hat = []
    for cols, fits in zip(col_sets, columns):
        H_k = np.zeros((inp.geometry.n_elements, inp.Y[0].shape[1]), dtype=complex)
        for c, (rows, coef) in zip(cols, fits):
            H_k[rows, c] = coef
        H_hat.append(H_k)
    return H_hat


def estimate_triple_structured(inp: EstimatorInput) -> EstimateReport:
    """Three-stage structured estimator.

    Stage 1 detects the shared column support from summed measurement power.
    Stage 2 runs per-column OMP to obtain coarse columns, from which stage 3
    estimates the shared circular-shift offsets; the final stage re-estimates
    every user with the offset-coupled joint greedy recovery.  With a single
    occupied column the offset is zero by definition and the coarse pass is
    skipped.
    """
    cols = joint_column_support(inp.Y, inp.n_columns)
    col_sets = [cols] * len(inp.Y)
    diagnostics: dict = {"offset_fallback": []}
    if inp.n_columns == 1:
        offsets: list[Offset] = [inp.geometry.to_public((0, 0))]
    else:
        coarse, _ = _column_pursuits(inp, col_sets)
        try:
            offsets = estimate_common_offsets([H_k[:, cols] for H_k in coarse], inp.geometry)
        except OffsetUndetermined as err:
            offsets = err.offsets
            diagnostics["offset_fallback"] = list(err.failed)
    rolls = np.stack([roll_map(offset, inp.geometry) for offset in offsets])
    Y = np.stack([Y_k[:, cols] for Y_k in inp.Y], axis=1)
    fits = _pursue(inp.sensing_matrix, Y, inp.row_counts, rolls)
    diagnostics["rank_deficient"] = any(fit["rank_deficient"] for fit in fits)
    diagnostics["group_collision"] = any(fit["group_collision"] for fit in fits)
    diagnostics["residual_history"] = [fit["residual_history"] for fit in fits]
    return EstimateReport(
        H_hat=_assemble(inp, col_sets, [fit["columns"] for fit in fits]),
        col_support=cols,
        offsets=offsets,
        row_patterns=[fit["anchors"] for fit in fits],
        diagnostics=diagnostics,
    )


def estimate_row_structured(inp: EstimatorInput) -> EstimateReport:
    """Baseline keeping only the cross-user column coupling.

    Columns are detected jointly as in the structured estimator, but each
    user's retained columns are then recovered independently by per-column
    OMP, with no offset coupling between columns.
    """
    cols = joint_column_support(inp.Y, inp.n_columns)
    H_hat, rank_flag = _column_pursuits(inp, [cols] * len(inp.Y))
    return EstimateReport(
        H_hat=H_hat,
        col_support=cols,
        offsets=None,
        row_patterns=None,
        diagnostics={"rank_deficient": rank_flag},
    )


def estimate_conventional_omp(inp: EstimatorInput) -> EstimateReport:
    """Baseline with no sharing at all: per-user column pruning, per-column OMP.

    Each user keeps its own top-power columns (the same count as the shared
    support) and recovers each retained column independently, so the total
    atom budget per user is n_columns * row_count.
    """
    supports = [top_l_indices(np.sum(np.abs(Y_k) ** 2, axis=0), inp.n_columns) for Y_k in inp.Y]
    H_hat, rank_flag = _column_pursuits(inp, supports)
    return EstimateReport(
        H_hat=H_hat,
        col_support=np.unique(np.concatenate(supports)),
        offsets=None,
        row_patterns=None,
        diagnostics={"rank_deficient": rank_flag, "per_user_col_support": supports},
    )


def estimate_oracle_ls(inp: EstimatorInput, truth: GroundTruth) -> EstimateReport:
    """Least squares on the true supports; the performance bound for support-aware recovery."""
    a = inp.sensing_matrix
    n_bs = inp.Y[0].shape[1]
    rolls = [roll_map(offset, inp.geometry) for offset in truth.offsets]
    systems = [
        (k, c, np.sort(roll[pattern]))
        for k, pattern in enumerate(truth.row_patterns)
        for c, roll in zip(truth.col_support, rolls)
    ]
    H_hat = [np.zeros((inp.geometry.n_elements, n_bs), dtype=complex) for _ in inp.Y]
    rank_flag = False
    for size in sorted({rows.size for _, _, rows in systems}):
        group = [system for system in systems if system[2].size == size]
        coef, deficient = _batched_lstsq(
            np.stack([a[:, rows] for _, _, rows in group]),
            np.stack([inp.Y[k][:, c] for k, c, _ in group]),
        )
        rank_flag = rank_flag or bool(deficient.any())
        for (k, c, rows), x in zip(group, coef):
            H_hat[k][rows, c] = x
    return EstimateReport(
        H_hat=H_hat,
        col_support=np.array(truth.col_support, dtype=int, copy=True),
        offsets=list(truth.offsets),
        row_patterns=[np.array(p, dtype=int, copy=True) for p in truth.row_patterns],
        diagnostics={"rank_deficient": rank_flag},
    )
