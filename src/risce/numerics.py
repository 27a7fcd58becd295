"""Complex linear-algebra primitives: DFT matrices, periodic cross-correlation,
least squares, and top-L selection.

All functions are pure; tie-breaking always favours the smallest index so
results are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dft_matrix",
    "circ_xcorr_1d",
    "circ_xcorr_2d",
    "ls_solve",
    "top_l_indices",
    "signed_shift",
    "peak_shift_2d",
]


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix with entries exp(-2j*pi*m*k/n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"DFT size must be a positive integer, got {n}")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


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
    if u.size == 0:
        raise ValueError("vectors must be non-empty")
    # correlation theorem: the DFT of c is conj(U) * V
    return np.abs(np.fft.ifft(np.conj(np.fft.fft(u)) * np.fft.fft(v)))


def circ_xcorr_2d(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2-D analogue of :func:`circ_xcorr_1d`, wrapping each axis independently.

    c[d1, d2] = |sum_{m1,m2} conj(u[m1, m2]) * v[(m1 + d1) mod n1, (m2 + d2) mod n2]|
    over the last two axes; any leading axes index a batch of map pairs.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.ndim < 2 or u.shape != v.shape:
        raise ValueError(f"expected equal-shape arrays of 2-D or more, got {u.shape} and {v.shape}")
    if u.size == 0:
        raise ValueError("arrays must be non-empty")
    return np.abs(np.fft.ifft2(np.conj(np.fft.fft2(u)) * np.fft.fft2(v)))


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
    """Indices of the l largest entries, ties to the smallest index, returned ascending."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("expected a vector of scores")
    if not 1 <= l <= values.size:
        raise ValueError(f"selection size {l} out of range for {values.size} values")
    order = np.argsort(-values, kind="stable")
    return np.sort(order[:l])


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
