"""Dense reference form of the on-grid model: steering vectors, DFT matrices,
spatial channels and the beamspace transform.

This is a test module, outside the package, so no trial can call it; a trial
works from the path lists and the closed-form sparse truth.  Tests hold that
trial path to these definitions, so everything here is built from explicit
sums and DFT matrices, never from an FFT.
"""

from __future__ import annotations

import functools

import numpy as np

from risce.channel import ChannelRealization, RisIndex
from risce.config import ArrayGeometry


def grid_sine(n: int, grid_index: int) -> float:
    """Sine of the grid angle for beam `grid_index` of an n-element array.

    Grid sines are spaced by 2/n and wrapped into [-1, 1) so that beam
    `grid_index` of the unitary DFT captures the steering vector exactly.
    """
    if not 0 <= grid_index < n:
        raise ValueError(f"grid index {grid_index} out of range for array size {n}")
    sine = 2.0 * grid_index / n
    return sine - 2.0 if sine >= 1.0 else sine


def steering_ula(n: int, grid_index: int) -> np.ndarray:
    """Unit-norm steering vector of a half-wavelength-spaced linear array."""
    sine = grid_sine(n, grid_index)
    return np.exp(1j * np.pi * np.arange(n) * sine) / np.sqrt(n)


def steering_upa(n1: int, n2: int, grid_az: int, grid_el: int) -> np.ndarray:
    """Steering vector of an n1 x n2 planar array: Kronecker product of the axis vectors.

    Flat element order matches the Kronecker convention: index = az_axis * n2 + el_axis.
    """
    return np.kron(steering_ula(n1, grid_az), steering_ula(n2, grid_el))


def ris_steering(geometry: ArrayGeometry, index: RisIndex) -> np.ndarray:
    """Reflector-side steering vector for a grid index in public form (see ArrayGeometry)."""
    return steering_upa(geometry.n1, geometry.n2, *geometry.to_pair(index))


def dense_channels(realization: ChannelRealization) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense G (n_bs x n_elements) and per-user h as steering-vector sums over the path lists."""
    geometry = realization.geometry
    n_bs = realization.n_bs
    n_i = geometry.n_elements
    G = np.zeros((n_bs, n_i), dtype=complex)
    for path in realization.g_paths:
        a_bs = steering_ula(n_bs, path.bs_index)
        a_ris = ris_steering(geometry, path.ris_index)
        G += path.gain * np.outer(a_bs, np.conj(a_ris))
    h = []
    for user_paths in realization.h_paths:
        h_k = np.zeros(n_i, dtype=complex)
        for path in user_paths:
            h_k += path.gain * ris_steering(geometry, path.ris_index)
        h.append(h_k)
    return G, h


def cascade_spatial(G: np.ndarray, h_k: np.ndarray) -> np.ndarray:
    """Spatial-domain cascaded channel G @ diag(h_k) for one user."""
    G = np.asarray(G)
    h_k = np.asarray(h_k)
    if G.ndim != 2 or h_k.ndim != 1 or G.shape[1] != h_k.shape[0]:
        raise ValueError(f"incompatible shapes {G.shape} and {h_k.shape}")
    return G * h_k[None, :]


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix with entries exp(-2j*pi*m*k/n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"DFT size must be a positive integer, got {n}")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def beamspace_cascaded(G: np.ndarray, h_k: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Beamspace cascaded channel f_ris @ (G @ diag(h_k))^H @ f_bs^H for one user.

    f_bs is the unitary DFT of the BS array and f_ris = kron(dft(n1), dft(n2)).
    """
    spatial = cascade_spatial(G, h_k)
    f_ris, f_bs_h = _beamspace_transforms(G.shape[0], geometry.n1, geometry.n2)
    return f_ris @ spatial.conj().T @ f_bs_h


@functools.cache
def _beamspace_transforms(n_bs: int, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """(f_ris, f_bs^H) of beamspace_cascaded per array shape; read-only, as calls share them."""
    f_ris, f_bs_h = np.kron(dft_matrix(n1), dft_matrix(n2)), dft_matrix(n_bs).conj().T
    f_ris.flags.writeable = f_bs_h.flags.writeable = False
    return f_ris, f_bs_h
