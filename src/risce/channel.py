"""On-grid geometric channel model for the reflector-to-BS and user-to-reflector links.

Angles live on the DFT-aligned sine grid, so every steering vector projects to
exactly one DFT beam and beamspace supports can be reasoned about as integer
grid indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayGeometry, SystemConfig

RisIndex = int | tuple[int, int]


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


@dataclass(frozen=True)
class RisBsPath:
    """One reflector-to-BS path: complex gain plus arrival/departure grid indices."""

    gain: complex
    bs_index: int
    ris_index: RisIndex


@dataclass(frozen=True)
class UeRisPath:
    """One user-to-reflector path: complex gain plus the reflector-side grid index."""

    gain: complex
    ris_index: RisIndex


@dataclass
class ChannelRealization:
    """One draw as path lists; on the grid these determine every channel entry."""

    geometry: ArrayGeometry
    n_bs: int  # BS antenna count
    g_paths: list[RisBsPath]
    h_paths: list[list[UeRisPath]]


def ris_steering(geometry: ArrayGeometry, index: RisIndex) -> np.ndarray:
    """Reflector-side steering vector for a grid index (an int, or an axis pair for planar arrays)."""
    if geometry.is_planar:
        az, el = index
        return steering_upa(geometry.n1, geometry.n2, az, el)
    return steering_ula(geometry.n1, int(index))


def dense_channels(realization: ChannelRealization) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense G (n_bs x n_elements) and per-user h as steering-vector sums over the path lists.

    The model's reference form, for tests: a trial works from the path lists
    alone.
    """
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


def _complex_gains(rng: np.random.Generator, size: int) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def generate_channels(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one random realization: path gains standard complex Gaussian, grid
    indices uniform without replacement (per link), per-user path counts
    uniform over the configured inclusive range.

    Draw order is fixed (reflector-to-BS link first, then users in order) so a
    seeded generator reproduces the realization exactly.
    """
    geometry = config.geometry
    n_i = geometry.n_elements

    bs_indices = rng.choice(config.n_bs, size=config.bs_paths, replace=False)
    ris_flat = rng.choice(n_i, size=config.bs_paths, replace=False)
    g_gains = _complex_gains(rng, config.bs_paths)
    g_paths = []
    for gain, bs_idx, flat in zip(g_gains, bs_indices, ris_flat):
        ris_idx: RisIndex = tuple(divmod(int(flat), geometry.n2)) if geometry.is_planar else int(flat)
        g_paths.append(RisBsPath(gain=complex(gain), bs_index=int(bs_idx), ris_index=ris_idx))

    lo, hi = config.ue_paths
    h_paths: list[list[UeRisPath]] = []
    for _ in range(config.n_users):
        n_paths = int(rng.integers(lo, hi + 1))
        ue_flat = rng.choice(n_i, size=n_paths, replace=False)
        ue_gains = _complex_gains(rng, n_paths)
        user_paths = []
        for gain, flat in zip(ue_gains, ue_flat):
            ris_idx = tuple(divmod(int(flat), geometry.n2)) if geometry.is_planar else int(flat)
            user_paths.append(UeRisPath(gain=complex(gain), ris_index=ris_idx))
        h_paths.append(user_paths)

    return ChannelRealization(geometry=geometry, n_bs=config.n_bs, g_paths=g_paths, h_paths=h_paths)


def cascade_spatial(G: np.ndarray, h_k: np.ndarray) -> np.ndarray:
    """Spatial-domain cascaded channel G @ diag(h_k) for one user."""
    G = np.asarray(G)
    h_k = np.asarray(h_k)
    if G.ndim != 2 or h_k.ndim != 1 or G.shape[1] != h_k.shape[0]:
        raise ValueError(f"incompatible shapes {G.shape} and {h_k.shape}")
    return G * h_k[None, :]
