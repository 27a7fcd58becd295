"""Scenario configuration shared by the channel generator, estimators, and benchmark driver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

DEFAULT_ESTIMATORS = ("oracle_ls", "triple_structured", "row_structured", "conventional_omp")


def is_noiseless(snr_db: float | None) -> bool:
    """None and +inf both mean a run without measurement noise."""
    return snr_db is None or snr_db == math.inf


# Lowest accepted SNR.  The per-trial linear NMSE grows as 1/SNR (up to about
# 2e151 at this bound), and a cell's standard error squares it: 100-trial cells
# first gave an infinite stderr at -1530 dB with 8 pilots and at -1560 dB in the
# default scenario.
MIN_SNR_DB = -1500.0


def snr_ratio(snr_db: float) -> float:
    """Linear SNR 10**(snr_db/10); ValueError unless snr_db >= MIN_SNR_DB and the ratio is finite.

    The accepted range is -1500 dB up to where the ratio overflows, about +3082 dB.
    """
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (snr_db >= MIN_SNR_DB and ratio < math.inf):
        raise ValueError(
            f"snr_db must be +inf, None or {MIN_SNR_DB:g} to about +3082 dB, got {snr_db!r}"
        )
    return ratio


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ArrayGeometry:
    """Reflector element layout: linear ("ula", n1 elements) or planar ("upa", n1 x n2).

    Both are the (n1, n2) element grid, flat index i1 * n2 + i2; a linear array
    has n2 == 1 and differs only in the public form of indices and offsets.
    """

    kind: str
    n1: int
    n2: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("ula", "upa"):
            raise ValueError(f"unknown array kind {self.kind!r}")
        if not (_is_int(self.n1) and _is_int(self.n2)) or self.n1 < 1 or self.n2 < 1:
            raise ValueError("array dimensions must be positive integers")
        if self.kind == "ula" and self.n2 != 1:
            raise ValueError("a linear array must have n2 == 1")

    @classmethod
    def ula(cls, n: int) -> "ArrayGeometry":
        return cls("ula", n)

    @classmethod
    def upa(cls, n1: int, n2: int) -> "ArrayGeometry":
        return cls("upa", n1, n2)

    @property
    def n_elements(self) -> int:
        return self.n1 * self.n2

    @property
    def is_planar(self) -> bool:
        return self.kind == "upa"

    def to_public(self, pair) -> int | tuple[int, int]:
        """A per-axis pair (i1, i2) in public form: i1 for linear arrays, (i1, i2) for planar."""
        i1, i2 = int(pair[0]), int(pair[1])
        return (i1, i2) if self.is_planar else i1

    def to_pair(self, value) -> tuple[int, int]:
        """Inverse of to_public: the per-axis pair of a public index or offset."""
        return (int(value[0]), int(value[1])) if self.is_planar else (int(value), 0)


@dataclass(frozen=True)
class SystemConfig:
    """One benchmark scenario.

    Every field is checked at construction.  snr_db of None or +inf runs
    noiseless; any other value must pass snr_ratio.  bs_paths is the number of
    reflector-to-BS paths (the shared beamspace column count) and ue_paths
    bounds the per-user path count drawn uniformly at random, inclusive on
    both ends.
    """

    n_bs: int = 64
    geometry: ArrayGeometry = ArrayGeometry("ula", 128)
    n_users: int = 16
    bs_paths: int = 4
    ue_paths: tuple[int, int] = (4, 8)
    n_pilots: int = 32
    snr_db: float | None = 0.0
    trials: int = 100
    base_seed: int = 0
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS

    def __post_init__(self) -> None:
        for name in ("n_bs", "n_users", "bs_paths", "n_pilots", "trials"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not _is_int(self.base_seed) or self.base_seed < 0:
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed!r}")
        if not isinstance(self.geometry, ArrayGeometry):
            raise ValueError("geometry must be an ArrayGeometry")
        n_i = self.geometry.n_elements
        if self.bs_paths > min(self.n_bs, n_i):
            raise ValueError(f"bs_paths must lie in [1, {min(self.n_bs, n_i)}]")
        try:
            lo, hi = self.ue_paths
        except (TypeError, ValueError):
            raise ValueError(f"ue_paths must be a (min, max) pair, got {self.ue_paths!r}") from None
        if not (_is_int(lo) and _is_int(hi)) or not 1 <= lo <= hi <= n_i:
            raise ValueError(f"ue_paths range ({lo}, {hi}) invalid for {n_i} reflector elements")
        if not is_noiseless(self.snr_db):
            if not isinstance(self.snr_db, Real) or isinstance(self.snr_db, bool):
                raise ValueError(f"snr_db must be a number, +inf or None, got {self.snr_db!r}")
            snr_ratio(self.snr_db)
        if isinstance(self.estimators, str):
            raise ValueError(f"estimators must be a sequence of names, got {self.estimators!r}")
        if not self.estimators:
            raise ValueError("at least one estimator must be selected")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimator list contains duplicates")

    @property
    def noiseless(self) -> bool:
        return is_noiseless(self.snr_db)
