"""On-grid geometric channel model for the reflector-to-BS and user-to-reflector links.

Angles live on the DFT-aligned sine grid, so every steering vector projects to
exactly one DFT beam and beamspace supports can be reasoned about as integer
grid indices.  A draw is its path lists; risce.reference builds the dense
steering-vector form of the same channels.
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
        ris_idx = geometry.to_public(divmod(int(flat), geometry.n2))
        g_paths.append(RisBsPath(gain=complex(gain), bs_index=int(bs_idx), ris_index=ris_idx))

    lo, hi = config.ue_paths
    h_paths: list[list[UeRisPath]] = []
    for _ in range(config.n_users):
        n_paths = int(rng.integers(lo, hi + 1))
        ue_flat = rng.choice(n_i, size=n_paths, replace=False)
        ue_gains = _complex_gains(rng, n_paths)
        user_paths = []
        for gain, flat in zip(ue_gains, ue_flat):
            ris_idx = geometry.to_public(divmod(int(flat), geometry.n2))
            user_paths.append(UeRisPath(gain=complex(gain), ris_index=ris_idx))
        h_paths.append(user_paths)

    return ChannelRealization(geometry=geometry, n_bs=config.n_bs, g_paths=g_paths, h_paths=h_paths)

