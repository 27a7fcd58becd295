"""On-grid geometric channel model for the reflector-to-BS and user-to-reflector links.

Angles live on the DFT-aligned sine grid, so every steering vector projects to
exactly one DFT beam and beamspace supports can be reasoned about as integer
grid indices.  A draw is its grid indices and gains, kept as the arrays the
RNG returns; the tests' reference model (tests/reference.py) builds the dense
steering-vector form of the same channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ArrayGeometry, SystemConfig


@dataclass
class ChannelRealization:
    """One draw as index and gain arrays; on the grid these determine every channel entry.

    Reflector indices are flat, i1 * n2 + i2 on the (n1, n2) element grid.
    Path p of the reflector-to-BS link arrives on BS beam g_beams[p], leaves
    reflector index g_ris[p] and has gain g_gains[p].  User k's paths arrive
    on reflector indices h_paths[k] with gains h_gains[k], so len(h_paths[k])
    is user k's path count.
    """

    geometry: ArrayGeometry
    n_bs: int  # BS antenna count
    g_beams: np.ndarray
    g_ris: np.ndarray
    g_gains: np.ndarray
    h_paths: list[np.ndarray]
    h_gains: list[np.ndarray]


def _complex_gains(rng: np.random.Generator, size: int) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def generate_channels(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one random realization: path gains standard complex Gaussian, grid
    indices uniform without replacement (per link), per-user path counts
    uniform over the configured inclusive range.

    Draw order is fixed (reflector-to-BS link first, then users in order) so a
    seeded generator reproduces the realization exactly.
    """
    n_i = config.geometry.n_elements
    g_beams = rng.choice(config.n_bs, size=config.bs_paths, replace=False)
    g_ris = rng.choice(n_i, size=config.bs_paths, replace=False)
    g_gains = _complex_gains(rng, config.bs_paths)

    lo, hi = config.ue_paths
    h_paths, h_gains = [], []
    for _ in range(config.n_users):
        n_paths = int(rng.integers(lo, hi + 1))
        h_paths.append(rng.choice(n_i, size=n_paths, replace=False))
        h_gains.append(_complex_gains(rng, n_paths))

    return ChannelRealization(
        config.geometry, config.n_bs, g_beams, g_ris, g_gains, h_paths, h_gains
    )
