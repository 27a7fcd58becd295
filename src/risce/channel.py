"""On-grid geometric channel model for the reflector-to-BS and user-to-reflector links.

Angles live on the DFT-aligned sine grid, so every steering vector projects to
exactly one DFT beam and beamspace supports can be reasoned about as integer
grid indices.  A draw is its path lists; the tests' reference model
(tests/reference.py) builds the dense steering-vector form of the same
channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayGeometry, SystemConfig

RisIndex = int | tuple[int, int]


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


def _complex_gains(rng: np.random.Generator, size: int) -> list[complex]:
    return ((rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)).tolist()


def _public_indices(geometry: ArrayGeometry, flat: np.ndarray) -> list[RisIndex]:
    """Flat grid indices in public form: ints on a linear array, (i1, i2) on a planar one."""
    if not geometry.is_planar:
        return flat.tolist()
    return list(zip(*(axis.tolist() for axis in np.divmod(flat, geometry.n2))))


def generate_channels(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one random realization: path gains standard complex Gaussian, grid
    indices uniform without replacement (per link), per-user path counts
    uniform over the configured inclusive range.

    Draw order is fixed (reflector-to-BS link first, then users in order) so a
    seeded generator reproduces the realization exactly.
    """
    geometry = config.geometry
    n_i = geometry.n_elements

    bs_indices = rng.choice(config.n_bs, size=config.bs_paths, replace=False).tolist()
    ris_flat = rng.choice(n_i, size=config.bs_paths, replace=False)
    g_gains = _complex_gains(rng, config.bs_paths)
    g_paths = list(map(RisBsPath, g_gains, bs_indices, _public_indices(geometry, ris_flat)))

    lo, hi = config.ue_paths
    h_paths: list[list[UeRisPath]] = []
    for _ in range(config.n_users):
        n_paths = int(rng.integers(lo, hi + 1))
        ue_flat = rng.choice(n_i, size=n_paths, replace=False)
        ue_gains = _complex_gains(rng, n_paths)
        h_paths.append(list(map(UeRisPath, ue_gains, _public_indices(geometry, ue_flat))))

    return ChannelRealization(geometry=geometry, n_bs=config.n_bs, g_paths=g_paths, h_paths=h_paths)

