"""Complex linear-algebra primitives: periodic cross-correlation, least squares,
and top-L selection.

All functions are pure; tie-breaking always favours the smallest index so
results are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np


def grid_axes(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The last two axes of shape longer than 1: the axes an (n1, n2) grid transform visits.

    A length-1 transform is the identity.  Visiting it gave the same bits but cost about 50 us
    (32 pilots) and 150-200 us (128 pilots) per sensing setup and 200 us per canonical offset
    correlation (best of 5 x 200 calls, one OpenBLAS thread, 2-core Xeon).
    """
    return tuple(axis for axis in (-2, -1) if shape[axis] > 1)


def circ_xcorr_1d(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Magnitudes of the periodic cross-correlation of two equal-length vectors.

    Returns c with c[d] = |sum_m conj(u[m]) * v[(m + d) mod n]|.  When v is a
    circular shift of u, v = roll(u, s), the peak of c sits at s mod n: the
    peak lag is the shift that maps u's support onto v's support.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"expected equal-length vectors, got {u.shape} and {v.shape}")
    return circ_xcorr_2d(u[:, None], v[:, None])[:, 0]


def circ_xcorr_2d(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2-D periodic cross-correlation magnitudes, wrapping each axis independently.

    c[d1, d2] = |sum_{m1,m2} conj(u[m1, m2]) * v[(m1 + d1) mod n1, (m2 + d2) mod n2]|
    over the last two axes, which must agree; any leading axes index a batch
    of map pairs and broadcast by shape, so an operand of length 1 along a
    leading axis is transformed once and its spectrum broadcast.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim < 2 or v.ndim < 2 or u.shape[-2:] != v.shape[-2:]:
        raise ValueError(f"expected maps of one 2-D shape, got {u.shape} and {v.shape}")
    np.broadcast_shapes(u.shape[:-2], v.shape[:-2])  # ValueError unless the batch axes broadcast
    if u.size == 0 or v.size == 0:
        raise ValueError("arrays must be non-empty")
    # correlation theorem: the DFT of c is conj(U) * V
    axes = grid_axes(u.shape)
    spectrum = np.conj(np.fft.fftn(u, axes=axes)) * np.fft.fftn(v, axes=axes)
    return np.abs(np.fft.ifftn(spectrum, axes=axes))


def ls_solve(a_sub: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least-squares solve of a_sub @ x ~= y; returns (x, rank_deficient).

    A rank-deficient system falls back to the minimum-norm solution instead of
    failing, since greedy recovery under noise can select nearly collinear
    columns; the flag lets callers surface that in diagnostics.
    """
    a_sub = np.asarray(a_sub)
    y = np.asarray(y)
    if a_sub.ndim != 2 or y.ndim != 1 or y.shape[0] != a_sub.shape[0]:
        raise ValueError(f"incompatible shapes {a_sub.shape} and {y.shape}")
    if a_sub.shape[1] == 0:
        return np.zeros(0, dtype=complex), False
    x, _, rank, _ = np.linalg.lstsq(a_sub, y, rcond=None)
    return x, bool(rank < a_sub.shape[1])


def top_l_indices(values: np.ndarray, l: int) -> np.ndarray:
    """Indices of the l largest entries along the last axis, ties to the smallest index, ascending.

    Any leading axes index a batch of score vectors, each selected on its own.
    """
    values = np.asarray(values)
    if values.ndim == 0 or not 1 <= l <= values.shape[-1]:
        raise ValueError(f"selection size {l} out of range for scores of shape {values.shape}")
    order = np.argsort(-values, axis=-1, kind="stable")
    return np.sort(order[..., :l], axis=-1)


def signed_shift(index: int, period: int) -> int:
    """Map a modular shift in [0, period) to the signed range [-period//2, ceil(period/2))."""
    if period < 1:
        raise ValueError("period must be positive")
    index = int(index) % period
    return index - period if index >= (period + 1) // 2 else index


def peak_shift_2d(corr: np.ndarray) -> tuple[int, int]:
    """Per-axis signed lags of the largest entry of a 2-D correlation map (first wins ties)."""
    corr = np.asarray(corr)
    d1, d2 = np.unravel_index(int(np.argmax(corr)), corr.shape)
    return signed_shift(int(d1), corr.shape[0]), signed_shift(int(d2), corr.shape[1])
