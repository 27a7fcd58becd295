"""Cascaded-channel estimators operating on beamspace pilot measurements.

The flagship estimator exploits three structural facts about the per-user
beamspace channels: all users share one set of occupied columns, within a user
every occupied column's row support is a circular shift of one per-user
pattern, and the shifts are identical across users.  Baselines drop one or
both of the cross-column/cross-user couplings, and an oracle solves least
squares on the true supports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import ArrayGeometry, _is_int
from .numerics import circ_xcorr_2d, ls_solve, peak_shift_2d, top_l_indices
from .sensing import GroundTruth, Offset, roll_map

# the benchmark tracer wraps this name on this module, so it stays imported here
from .numerics import circ_xcorr_1d  # noqa: F401


class _Atoms:
    """A T x N dictionary's atoms as the rows of one N x T array, and what is read from them.

    The conjugates and the Gram table are computed on first use: the oracle
    below T = N reads only the rows.
    """

    def __init__(self, a: np.ndarray):
        self.rows = np.ascontiguousarray(a.T)
        self.gram_domain = a.shape[0] >= a.shape[1]  # T >= N: pursuits refit from the Gram table

    @cached_property
    def conj(self) -> np.ndarray:
        return self.rows.conj()

    @cached_property
    def gram(self) -> np.ndarray:
        """G = AᴴA by columns, N x N: gram[p] is G[:, p] = Aᴴa_p, so gram[q, p] is G[p, q]."""
        return self.rows @ self.conj.T

    def correlate(self, ys: np.ndarray) -> np.ndarray:
        """Aᴴy for each row y of the m x T array ys, as one m x N product.

        numpy computes a one-row product as a matrix-vector product, whose
        sums round differently, so one row is computed as a two-row product:
        a row's correlations then do not depend on how many rows share the call.
        """
        m = len(ys)
        return ((np.concatenate([ys, ys]) if m == 1 else ys) @ self.conj.T)[:m]


@dataclass(frozen=True)
class EstimatorInput:
    """Everything an estimator may use: measurements, sensing matrix, and sparsity budgets.

    Y must be one users x n_pilots x n_bs ndarray, and is kept as given, with
    no copy; anything else raises ValueError.  The input also computes, once,
    what several estimators read from it alone: the sensing matrix's atoms,
    the per-user column power, both column detectors' picks, and the
    single-column pursuits of every (user, column) pair they pick, with, at
    T >= N, those pairs' Aᴴy, which the joint pass reads too.  The fit of
    user k's column c depends only on (Y[k, :, c], sensing_matrix,
    row_counts[k]), so the pairs are fitted in one batch and every estimator
    given the same input reads that one table.  The input is frozen, so no
    field can be reassigned under those cached operands; Y is not copied, so
    its contents must not be changed either.
    """

    Y: np.ndarray  # users x n_pilots x n_bs measurements; Y[k] is user k's
    sensing_matrix: np.ndarray  # n_pilots x n_elements
    n_columns: int  # shared occupied-column count
    row_counts: list[int]  # per-user nonzero rows per occupied column
    geometry: ArrayGeometry

    def __post_init__(self) -> None:
        if not isinstance(self.Y, np.ndarray) or self.Y.ndim != 3 or len(self.Y) == 0:
            raise ValueError("measurements must be one users x n_pilots x n_bs array, users >= 1")
        _, n_pilots, n_bs = self.Y.shape
        if not isinstance(self.geometry, ArrayGeometry):
            raise ValueError(f"geometry must be an ArrayGeometry, got {self.geometry!r}")
        if not isinstance(self.sensing_matrix, np.ndarray) or self.sensing_matrix.ndim != 2:
            raise ValueError("sensing_matrix must be one n_pilots x n_elements array")
        if self.sensing_matrix.shape[0] != n_pilots:
            raise ValueError("sensing matrix row count must match the pilot length")
        if self.sensing_matrix.shape[1] != self.geometry.n_elements:
            raise ValueError("sensing matrix column count must match the reflector size")
        if not _is_int(self.n_columns) or not 1 <= self.n_columns <= n_bs:
            raise ValueError(f"n_columns must be an integer in [1, {n_bs}], got {self.n_columns!r}")
        counts = self.row_counts
        if not isinstance(counts, list | tuple | np.ndarray) or getattr(counts, "ndim", 1) != 1:
            raise ValueError(f"row_counts must be a per-user sequence of budgets, got {counts!r}")
        if len(counts) != len(self.Y):
            raise ValueError("row_counts must list one budget per user")
        for k, count in enumerate(counts):
            if not _is_int(count) or not 1 <= count <= self.geometry.n_elements:
                raise ValueError(f"row_counts[{k}] must be an integer in [1, N_I], got {count!r}")
        if self.n_columns * max(self.row_counts) > n_pilots:
            warnings.warn(
                f"total atom budget {self.n_columns * max(self.row_counts)} exceeds the "
                f"pilot length {n_pilots}; recovery may be unreliable",
                RuntimeWarning,
                stacklevel=3,  # past the generated __init__, to the code that built the input
            )

    @cached_property
    def _atoms(self) -> _Atoms:
        """The sensing matrix's atoms, read by every pursuit and by the oracle."""
        return _Atoms(self.sensing_matrix)

    @cached_property
    def _power(self) -> np.ndarray:
        """_column_power(Y): users x n_bs, read by both column detectors."""
        return _column_power(self.Y)

    @cached_property
    def _joint_columns(self) -> np.ndarray:
        """joint_column_support(Y, n_columns), from the shared power; read-only: estimates share it."""
        cols = top_l_indices(self._power.sum(axis=0), self.n_columns)
        cols.flags.writeable = False
        return cols

    @cached_property
    def _own_columns(self) -> np.ndarray:
        """Each user's top n_columns columns of the shared power, users x n_columns; read-only."""
        cols = top_l_indices(self._power, self.n_columns)
        cols.flags.writeable = False
        return cols

    @cached_property
    def _column_fits(self) -> tuple[_Pursuit, np.ndarray, np.ndarray | None]:
        """The single-column pursuit of every pair the column detectors pick, as (fit, slot, corr).

        The pairs are the joint support for every user and each user's own
        columns, fitted user-major in one batch; slot[k, c] is the problem
        index of user k's column c, and -1 where no detector picks the pair.
        At T >= N corr is the problems x N correlations Aᴴy the batch starts
        from, one _Atoms.correlate call, which the joint pass of
        estimate_triple_structured reads too; below T = N it is None.
        """
        picked = np.zeros((len(self.Y), self.Y.shape[2]), dtype=bool)
        picked[:, self._joint_columns] = True
        np.put_along_axis(picked, self._own_columns, True, axis=1)
        users, cols = np.nonzero(picked)
        slot = np.full(picked.shape, -1)
        slot[users, cols] = np.arange(users.size)
        ys = self.Y[users, :, cols]  # problem x pilot
        corr = self._atoms.correlate(ys) if self._atoms.gram_domain else None
        fit = _pursue(self._atoms, ys[:, None], np.asarray(self.row_counts)[users], c0=corr)
        return fit, slot, corr


@dataclass
class EstimateReport:
    """Estimator output: every user's channel estimate plus recovered structure.

    User k's estimate occupies the BS beams cols[k] (users x C, each row
    ascending): column j of values[k] (users x n_elements x C) is beam
    cols[k, j], and every other beam is zero.  offsets and row_patterns are
    None for estimators that do not model the cross-column coupling.
    """

    cols: np.ndarray
    values: np.ndarray
    offsets: list[Offset] | None
    row_patterns: list[np.ndarray] | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def col_support(self) -> np.ndarray:
        """Every beam some user's estimate occupies, ascending."""
        return np.unique(self.cols)


def _column_power(Y) -> np.ndarray:
    """users x n_bs measurement power per column, from a users x n_pilots x n_bs stack."""
    return np.sum(np.abs(Y) ** 2, axis=1)


def joint_column_support(Y, n_columns: int) -> np.ndarray:
    """Occupied-column detection from the diagonal of sum_k Y_k^H @ Y_k.

    The diagonal equals the per-column measurement power summed over users, in
    user order, so the shared support is the top-n_columns entries (ascending
    index order).  Y is a users x n_pilots x n_bs stack, as EstimatorInput.Y.
    """
    return top_l_indices(_column_power(Y).sum(axis=0), n_columns)


# A refit whose smallest Cholesky pivot is at most this fraction of its largest
# is re-solved by ls_solve.  Random systems above the cut with condition number
# up to a few hundred agree with lstsq to 1e-10 relative; over 20 trials each,
# the smallest ratio seen was 0.54 in the canonical refits, 0.68 in the 16x16
# planar ones and 0.015 with 8 pilots, so those refits stay on the Gram path.
_PIVOT_RATIO_CUT = 1e-2


def _cholesky_each(gram: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of Hermitian matrices; all zeros where one fails.

    np.linalg.cholesky raises for the whole stack when one matrix is not
    positive definite; the stack is then factored one matrix at a time.
    """
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        chol = np.zeros_like(gram)
        for i, g in enumerate(gram):
            try:
                chol[i] = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                pass
        return chol


def _solve_normal(gram: np.ndarray, rhs: np.ndarray, system) -> tuple[np.ndarray, np.ndarray]:
    """The refit core: solve gram[i] x = rhs[i] for each system; returns (x, rank_deficient).

    gram is m x k x k with k >= 1 (the pivot test reads every Gram's
    diagonal) and is overwritten, rhs is m x k x 1.  One batched Cholesky
    factors the Grams, and one batched solve of the Grams gives x (numpy has
    no batched triangular solve, and one solve of the Gram costs less than
    two with the factor).  A system whose Cholesky fails, or whose smallest
    Cholesky pivot is at most _PIVOT_RATIO_CUT times its largest, is
    re-solved by ls_solve(*system(i)) instead, which supplies its
    minimum-norm solution and rank flag; a system with more unknowns than
    equations has a singular Gram and goes there by this one rule.  A pivot
    computed from the Gram is accurate only to about sqrt(eps) times the
    largest, and the normal equations lose accuracy as cond(S)², so the cut
    sits far above round-off; every system kept on the Gram path is full
    rank.  A system's path and result depend only on that system, not on
    the rest of the stack.
    """
    pivots = np.diagonal(_cholesky_each(gram), axis1=1, axis2=2).real
    deficient = pivots.min(axis=1) <= _PIVOT_RATIO_CUT * pivots.max(axis=1)
    if deficient.any():
        gram[deficient] = np.eye(gram.shape[-1])  # placeholder; those systems are re-solved below
    coef = np.linalg.solve(gram, rhs)[:, :, 0]
    for i in np.flatnonzero(deficient):
        coef[i], deficient[i] = ls_solve(*system(i))
    return coef, deficient


def _batched_lstsq(atoms: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares for a stack of systems S_i x ~= ys[i]; returns (x, rank_deficient).

    atoms is m x k x t with k >= 1 and C-contiguous: atoms[i] holds S_i's k
    columns as rows, the layout a gather of rows of _Atoms.rows gives.
    Stacked products give the k x k Grams SᴴS and the right-hand sides Sᴴy,
    and _solve_normal solves them.  A system with more unknowns than rows
    (k > t) has a singular Gram, so _solve_normal's pivot test sends it to
    ls_solve like any other rank-deficient system.
    """
    atoms_h = atoms.conj()
    gram = atoms_h @ np.swapaxes(atoms, -1, -2)
    return _solve_normal(gram, atoms_h @ ys[:, :, None], lambda i: (atoms[i].T, ys[i]))


def _gram_lstsq(atoms: _Atoms, rows: np.ndarray, rhs: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """_batched_lstsq for the systems S_i = A[:, rows[i]], read from the Gram table.

    rows is m x k, and rhs[i] = S_iᴴy_i, gathered at rows[i] from
    _Atoms.correlate.  Each Gram G[S_i, S_i] is gathered from atoms.gram,
    and _solve_normal solves them; y(i) returns system i's measurement, and
    only a system re-solved by ls_solve reads it or gathers its atoms.
    """
    gram = atoms.gram[rows[:, None, :], rows[:, :, None]]  # [i, a, b] = G[rows[i, a], rows[i, b]]
    return _solve_normal(gram, rhs[:, :, None], lambda i: (atoms.rows[rows[i]].T, y(i)))


class _Pursuit(NamedTuple):
    """_pursue's results for its B problems; problem b's entries past count[b] are zero."""

    rows: np.ndarray  # B x C x kmax: each column's rows, ascending; column 0's are the anchors
    coef: np.ndarray  # B x C x kmax: each column's coefficients on its rows
    count: np.ndarray  # B: anchors picked
    history: np.ndarray  # B x kmax x C: each column's residual norm after each step
    deficient: np.ndarray  # B: some refit went to ls_solve and was rank deficient


def _pursue(atoms: _Atoms, Y: np.ndarray, budgets, rolls=None, c0=None) -> _Pursuit:
    """Greedy pursuit of B problems in lockstep against one dictionary's atoms.

    Problem b fits the C measurement columns Y[b] (Y is B x C x T, the kernel's
    working layout) with one anchor set; column c uses rows rolls[c][anchors].
    rolls is the C x n table roll_map builds, and its row 0 must be the
    identity: column 0 is the reference, whose rows are the anchors.  Each row
    of the table is a permutation of the n atoms, so distinct anchors give
    every column distinct rows.
    rolls=None is the one-column table, the identity alone.  Each step takes
    every column's correlations Aᴴr with the residual, scores every unused
    anchor by its correlation power summed over the columns at its rolled
    rows, and picks the first maximum per problem.  It then refits every
    (problem, column) on its sorted rows, a batched Gram solve with at most
    k + 1 unknowns at step k, so no incremental factorisation is kept between
    steps.  The domain is picked once per call from the dictionary's shape:
    - T < N: the step keeps each column's T-long residual r.  Aᴴr is one
      product over the live problems, and the refit is _batched_lstsq on the
      gathered atoms, whose residual norm is the history.
    - T >= N: the step keeps nothing T long.  Aᴴr = Aᴴy - G[:, S]·x from
      Aᴴy, the cached Gram table G = AᴴA and the last refit's rows S and
      coefficients x; the refit is _gram_lstsq, and the history is
      sqrt(‖y‖² - Re((Aᴴy)[S]ᴴ·x)), which cancellation leaves accurate only
      to about sqrt(eps)·‖y‖.  Aᴴy is c0 when the caller has it (any array
      of the B x C x N values, in that order), else one _Atoms.correlate
      call; c0 is not read below T = N.
    The oracle refits through the same functions, and a refit depends only on
    its own system, so a pursuit that ends on the true rows returns the
    oracle's coefficients bitwise.  Problem b stops after budgets[b] anchors,
    or when its best score is not positive: a zero residual, or at T >= N a
    correlation Aᴴy - G[:, S]·x that is exactly zero.  The results are
    stacked over the problems, in arrays this call made.
    """
    n, t = atoms.rows.shape
    n_prob, n_cols, _ = Y.shape
    if rolls is None:
        rolls = np.arange(n)[None]
    table = rolls.T  # n x C: row p lists the rows anchor p selects, column 0's being p itself
    budgets = np.asarray(budgets, dtype=int)
    kmax = int(budgets.max(initial=0))
    ys = np.ascontiguousarray(Y, dtype=complex)
    if atoms.gram_domain:
        c0 = (atoms.correlate(ys.reshape(-1, t)) if c0 is None else c0).reshape(n_prob, n_cols, n)
        energy = np.einsum("bct,bct->bc", ys.conj(), ys).real
    else:
        resid = ys.copy()
    rows = np.zeros((n_prob, n_cols, kmax), dtype=int)
    coef = np.zeros((n_prob, n_cols, kmax), dtype=complex)
    history = np.zeros((n_prob, kmax, n_cols))
    count = np.zeros(n_prob, dtype=int)
    deficient = np.zeros(n_prob, dtype=bool)
    live = np.arange(n_prob)
    sel = slice(None)  # the live problems: a slice until one drops, then live itself
    for k in range(kmax):
        unspent = budgets[live] > k
        if not unspent.all():
            live = sel = live[unspent]
            if live.size == 0:
                break
        if atoms.gram_domain:  # the last refit's rows and coefficients, k of each
            fitted = (coef[sel, :, None, :k] @ atoms.gram[rows[sel, :, :k]])[:, :, 0]
            power = (np.abs(c0[sel] - fitted) ** 2).transpose(2, 0, 1)
        else:
            power = (np.abs(atoms.conj @ resid[sel].reshape(-1, t).T) ** 2).reshape(n, -1, n_cols)
        metric = power[:, :, 0]  # n x live: the reference column on the anchors' own rows
        for c in range(1, n_cols):
            metric = metric + power[rolls[c], :, c]
        metric[rows[sel, 0, :k], np.arange(live.size)[:, None]] = -np.inf  # each problem's anchors
        best = np.argmax(metric, axis=0)
        hit = metric[best, np.arange(best.size)] > 0.0
        if not hit.all():
            live, best = live[hit], best[hit]
            sel = live
            if live.size == 0:
                break
        rows[sel, 0, k] = best
        picked = table[np.sort(rows[sel, 0, : k + 1], axis=1)]  # live x (k+1) x C
        picked[:, :, 1:].sort(axis=1)  # column 0, the anchors, is sorted already
        picked = picked.swapaxes(1, 2)
        systems = picked.reshape(-1, k + 1)  # (live * C) x (k+1)
        if atoms.gram_domain:
            rhs = np.take_along_axis(c0[sel].reshape(-1, n), systems, axis=1)
            x, flags = _gram_lstsq(atoms, systems, rhs, lambda i: ys[sel].reshape(-1, t)[i])
            explained = np.einsum("mk,mk->m", rhs.conj(), x).real
            norms = np.sqrt(np.maximum(energy[sel].reshape(-1) - explained, 0.0))
        else:
            gathered = atoms.rows[systems]  # (live * C) x (k+1) x T
            y_live = ys[sel].reshape(-1, t)
            x, flags = _batched_lstsq(gathered, y_live)
            r = y_live - (np.swapaxes(gathered, 1, 2) @ x[:, :, None])[:, :, 0]
            resid[sel] = r.reshape(-1, n_cols, t)
            norms = np.linalg.norm(r, axis=-1)
        rows[sel, :, : k + 1] = picked
        coef[sel, :, : k + 1] = x.reshape(-1, n_cols, k + 1)
        history[sel, k] = norms.reshape(-1, n_cols)
        count[sel] = k + 1
        deficient[sel] |= flags.reshape(-1, n_cols).any(axis=1)
    return _Pursuit(rows, coef, count, history, deficient)


def _problem(fit: _Pursuit, b: int) -> dict:
    """Problem b of a pursuit, as offset_structured_somp returns it; its arrays are views."""
    m = fit.count[b]
    return {
        "anchors": fit.rows[b, 0, :m],
        "columns": [(rows[:m], coef[:m]) for rows, coef in zip(fit.rows[b], fit.coef[b])],
        "residual_history": fit.history[b, :m],
        "rank_deficient": bool(fit.deficient[b]),
    }


def coarse_omp(y: np.ndarray, a: np.ndarray, sparsity: int) -> np.ndarray:
    """Per-column OMP with atom budget sparsity, returning a dense length-n coefficient vector."""
    y = np.asarray(y)
    a = np.asarray(a)
    if a.ndim != 2 or y.ndim != 1 or y.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {y.shape}")
    if not _is_int(sparsity) or sparsity < 0:
        raise ValueError(f"sparsity must be a non-negative integer, got {sparsity!r}")
    fit = _pursue(_Atoms(a), y[None, None], [sparsity])
    m = fit.count[0]
    out = np.zeros(a.shape[1], dtype=complex)
    out[fit.rows[0, 0, :m]] = fit.coef[0, 0, :m]
    return out


def estimate_common_offsets(
    coarse_cols: list[np.ndarray] | np.ndarray, geometry: ArrayGeometry
) -> tuple[list[Offset], list[int]]:
    """Shared circular shifts between the first retained column and each other one.

    coarse_cols holds every user's n_elements x C coarse columns, as a list or
    as one users x n_elements x C array.  Each user's columns are laid out on
    the (n1, n2) element grid (a linear array is n2 == 1).  One batched 2-D
    circular correlation of every user's reference column against each of its
    columns gives a map per (user, column); the maps are summed over users, in
    user order, and each column's offset is the per-axis signed lag of its
    peak.  The first column is the reference (zero shift).  Returns
    (offsets, failed): failed lists the columns with no correlation mass at
    all, ascending, and their offsets are zero-shift fallbacks.
    """
    maps = np.asarray(coarse_cols).transpose(0, 2, 1)
    maps = maps.reshape(*maps.shape[:2], geometry.n1, geometry.n2)  # users x C x n1 x n2
    corr = circ_xcorr_2d(maps[:, :1], maps).sum(axis=0)
    zero = geometry.to_public((0, 0))
    failed = [j for j in range(1, len(corr)) if not np.any(corr[j] > 0.0)]
    offsets: list[Offset] = [
        zero if j == 0 or j in failed else geometry.to_public(peak_shift_2d(corr[j]))
        for j in range(len(corr))
    ]
    return offsets, failed


def offset_structured_somp(
    y_cols: np.ndarray,
    a: np.ndarray,
    offsets: list[Offset],
    n_rows: int,
    geometry: ArrayGeometry,
) -> dict:
    """Joint greedy row recovery across one user's occupied columns.

    Anchors index rows of the reference column, column 0, whose offset must
    be zero (ValueError otherwise); column j's support is the anchor set
    shifted by offsets[j].  Each iteration scores every unused anchor by the
    squared correlation magnitude summed over columns (each column's
    correlation evaluated at the anchor shifted by that column's offset),
    then refits every column by least squares on its shifted support and
    updates the residuals.  n_rows caps the anchor count.
    """
    y_cols = np.asarray(y_cols)
    a = np.asarray(a)
    if y_cols.ndim != 2 or y_cols.shape[0] != a.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {y_cols.shape}")
    if len(offsets) != y_cols.shape[1]:
        raise ValueError("one offset per retained column is required")
    if not _is_int(n_rows) or n_rows < 0:
        raise ValueError(f"n_rows must be a non-negative integer, got {n_rows!r}")
    rolls = roll_map(offsets, geometry)
    if not np.array_equal(rolls[:1], np.arange(geometry.n_elements)[None]):
        raise ValueError(f"column 0 is the reference: offsets[0] must be zero, got {offsets!r}")
    return _problem(_pursue(_Atoms(a), y_cols.T[None], [n_rows], rolls), 0)


def _assemble(inp: EstimatorInput, rows, coef, count) -> np.ndarray:
    """The users x N x C estimate values from stacked fits, written in one scatter.

    Column j of user k holds the first count[k, j] entries of rows[k, j] and
    coef[k, j] (rows and coef are users x C x kmax, count broadcasts to
    users x C).
    """
    valid = np.broadcast_to(np.arange(rows.shape[2]) < count[..., None], rows.shape)
    user, col, _ = np.nonzero(valid)
    values = np.zeros((len(rows), inp.geometry.n_elements, rows.shape[1]), dtype=complex)
    values[user, rows[valid], col] = coef[valid]
    return values


def _per_column_report(inp: EstimatorInput, col_sets) -> EstimateReport:
    """Each of user k's columns col_sets[k] recovered alone, by its single-column pursuit.

    The per-column body of both baselines, read from inp's fit table; col_sets
    is users x C, each row ascending, and one of the column detectors' picks.
    """
    fit, slot, _ = inp._column_fits
    b = slot[np.arange(len(col_sets))[:, None], col_sets]  # users x C problem indices
    values = _assemble(inp, fit.rows[b, 0], fit.coef[b, 0], fit.count[b])
    diagnostics = {"rank_deficient": bool(fit.deficient[b].any())}
    return EstimateReport(col_sets, values, None, None, diagnostics)  # no offsets or patterns


def estimate_triple_structured(inp: EstimatorInput) -> EstimateReport:
    """Three-stage structured estimator.

    Stage 1 detects the shared column support from summed measurement power.
    Stage 2 is the row-structured baseline, whose per-column OMP gives the
    coarse columns from which stage 3 estimates the shared circular-shift
    offsets; the final stage re-estimates every user with the offset-coupled
    joint greedy recovery.
    """
    coarse = estimate_row_structured(inp)
    offsets, failed = estimate_common_offsets(coarse.values, inp.geometry)
    _, slot, corr = inp._column_fits  # every joint pair is a fit-table pair: its Aᴴy is there
    c0 = None if corr is None else corr[slot[:, inp._joint_columns]]
    Y = np.swapaxes(inp.Y, 1, 2)[:, inp._joint_columns]
    fit = _pursue(inp._atoms, Y, inp.row_counts, roll_map(offsets, inp.geometry), c0)
    diagnostics = {
        "offset_fallback": failed,
        "rank_deficient": bool(fit.deficient.any()),
        "residual_history": [h[:m] for h, m in zip(fit.history, fit.count)],
    }
    return EstimateReport(
        cols=coarse.cols,
        values=_assemble(inp, fit.rows, fit.coef, fit.count[:, None]),
        offsets=offsets,
        row_patterns=[rows[0, :m] for rows, m in zip(fit.rows, fit.count)],
        diagnostics=diagnostics,
    )


def estimate_row_structured(inp: EstimatorInput) -> EstimateReport:
    """Baseline keeping only the cross-user column coupling.

    Columns are detected jointly as in the structured estimator, but each
    user's retained columns are then recovered independently by per-column
    OMP, with no offset coupling between columns.
    """
    cols = inp._joint_columns
    return _per_column_report(inp, np.broadcast_to(cols, (len(inp.Y), cols.size)))


def estimate_conventional_omp(inp: EstimatorInput) -> EstimateReport:
    """Baseline with no sharing at all: per-user column pruning, per-column OMP.

    Each user keeps its own top-power columns (the same count as the shared
    support) and recovers each retained column independently, so the total
    atom budget per user is n_columns * row_count.  The pruning is one
    top_l_indices call over every user's column powers, ties to the smallest
    index, as in the joint detection.
    """
    return _per_column_report(inp, inp._own_columns)


def estimate_oracle_ls(inp: EstimatorInput, truth: GroundTruth) -> EstimateReport:
    """Least squares on the true supports; the performance bound for support-aware recovery.

    The true rows of user k's column j are the nonzero entries of
    truth.values[k, :, j], ascending: extract_ground_truth rejects a zero
    path gain, so no true row holds a zero.  The refits on those sorted rows
    take the greedy pursuits' path: _batched_lstsq below T = N, and at
    T >= N _gram_lstsq with the right-hand sides gathered from Aᴴy.  The
    true columns' measurements are gathered once, users x C x T, and at
    T >= N their Aᴴy is one _Atoms.correlate call over every user, the
    oracle's own: it reads nothing of the greedy estimators' fit table.
    There is then one refit per row-pattern size, over every (user, column)
    system of the users with that size, user-major, and one scatter of its
    coefficients.
    """
    t, n = inp.sensing_matrix.shape
    atoms = inp._atoms
    cols = np.array(truth.col_support, dtype=int, copy=True)
    sizes = np.array([pattern.size for pattern in truth.row_patterns], dtype=int)
    occupied = np.swapaxes(truth.values, 1, 2) != 0  # users x C x n_elements
    measured = inp.Y[np.arange(sizes.size)[:, None], :, cols]  # users x C x T
    if atoms.gram_domain:  # every user's Aᴴy, users x C x N, read by the refits below
        corr = atoms.correlate(measured.reshape(-1, t)).reshape(occupied.shape)
    values = np.zeros((sizes.size, n, cols.size), dtype=complex)
    block_cols = np.arange(cols.size)[None, :, None]
    rank_flag = False
    for size in np.unique(sizes):
        users = np.flatnonzero(sizes == size)
        rows = np.nonzero(occupied[users])[2].reshape(users.size, cols.size, size)
        systems = rows.reshape(-1, size)
        ys = measured[users].reshape(-1, t)
        if atoms.gram_domain:
            rhs = np.take_along_axis(corr[users].reshape(-1, n), systems, axis=1)
            coef, deficient = _gram_lstsq(atoms, systems, rhs, ys.__getitem__)
        else:
            coef, deficient = _batched_lstsq(atoms.rows[systems], ys)
        rank_flag = rank_flag or bool(deficient.any())
        values[users[:, None, None], rows, block_cols] = coef.reshape(rows.shape)
    return EstimateReport(
        cols=np.broadcast_to(cols, (sizes.size, cols.size)),
        values=values,
        offsets=list(truth.offsets),
        row_patterns=[pattern.copy() for pattern in truth.row_patterns],
        diagnostics={"rank_deficient": rank_flag},
    )
