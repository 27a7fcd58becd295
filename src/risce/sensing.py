"""Pilot-side model: reflector phase schedules, the FFT sensing matrix, noisy
measurements, and the sparse ground truth built in closed form from the channel draw.

Measurement convention for user k:

    Y_k = A @ H_k + W_k,      A = phases^H @ f_ris^H   (n_pilots x n_elements)

where f_bs is the unitary DFT and f_ris = kron(dft(n1), dft(n2)) its
Kronecker form over the (n1, n2) element grid, H_k = f_ris @ (G @ diag(h_k))^H
@ f_bs^H is the beamspace cascaded channel (rows: reflector beams, columns: BS
beams) and W_k is white complex Gaussian noise.  A is an orthonormal inverse
FFT of the conjugated phases: row t is the 2-D inverse FFT of conj(phases[:, t])
laid out on the element grid, so no DFT matrix is formed.  A linear array is
the n2 == 1 grid: both layouts take one code path, with shifts per grid axis.
Users are the leading array axis: Y_k is Y[k] of one users x n_pilots x n_bs
array, and H_k's occupied columns are values[k] of one users x n_elements x
len(col_support) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization
from .config import ArrayGeometry, is_noiseless, snr_ratio
from .numerics import grid_axes, signed_shift

# the benchmark tracer wraps these two names on this module, so they stay imported here
from .numerics import circ_xcorr_1d, circ_xcorr_2d  # noqa: F401

Offset = int | tuple[int, int]


class StructureViolation(RuntimeError):
    """A channel draw breaks the one-entry-per-path-pair form of the on-grid beamspace model."""


@dataclass(frozen=True)
class SensingSetup:
    """Fixed sensing operators shared by all users of one trial."""

    phases: np.ndarray  # n_elements x n_pilots unit-modulus reflector schedule
    sensing_matrix: np.ndarray  # n_pilots x n_elements, equals phases^H @ f_ris^H
    geometry: ArrayGeometry


@dataclass
class GroundTruth:
    """Beamspace channels plus the sparsity metadata estimators are judged against."""

    values: np.ndarray  # users x n_elements x len(col_support): user k's channel over col_support
    col_support: np.ndarray  # shared nonzero column indices, ascending
    row_patterns: list[np.ndarray]  # per-user row support of the first nonzero column
    offsets: list[Offset]  # per-column circular shift relative to the first column
    n_bs: int

    @cached_property
    def H(self) -> np.ndarray:
        """Dense users x n_elements x n_bs channels, zero outside col_support.

        Read-only, built on first access; no trial reads it.
        """
        H = np.zeros((*self.values.shape[:2], self.n_bs), dtype=complex)
        H[:, :, self.col_support] = self.values
        H.flags.writeable = False  # a cached view is shared by every reader
        return H


@dataclass
class MeasurementSet:
    """Every user's pilot observations and the noise variance they were drawn with."""

    Y: np.ndarray  # users x n_pilots x n_bs; Y[k] is user k's measurements
    noise_variance: float


def generate_phase_schedule(n_elements: int, n_pilots: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus reflector phase schedule with i.i.d. uniform phases."""
    if n_elements < 1 or n_pilots < 1:
        raise ValueError("schedule dimensions must be positive")
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_elements, n_pilots))
    return np.exp(1j * angles)


def make_sensing_setup(
    n_bs: int, geometry: ArrayGeometry, n_pilots: int, rng: np.random.Generator
) -> SensingSetup:
    """Draw a phase schedule and build the sensing matrix for one trial."""
    # n_bs is unused; it stays because perfbench/kernels.py calls this positionally
    phases = generate_phase_schedule(geometry.n_elements, n_pilots, rng)
    # one 2-D inverse FFT per pilot over the (n1, n2) element grid
    grid = phases.conj().T.reshape(n_pilots, geometry.n1, geometry.n2)
    axes = grid_axes(grid.shape)
    sensing_matrix = np.fft.ifftn(grid, axes=axes, norm="ortho").reshape(n_pilots, -1)
    # the FFT returns A column-major; keep the row-major layout the estimators were measured with
    return SensingSetup(
        phases=phases, sensing_matrix=np.ascontiguousarray(sensing_matrix), geometry=geometry
    )


def shift_indices(indices: np.ndarray, offset: Offset, geometry: ArrayGeometry) -> np.ndarray:
    """Flat element indices in [0, n_elements) shifted by an offset per grid axis, ascending."""
    indices = np.asarray(indices, dtype=int)
    if np.any((indices < 0) | (indices >= geometry.n_elements)):
        raise ValueError(f"element indices must lie in [0, {geometry.n_elements})")
    return np.sort(roll_map([offset], geometry)[0, indices])


def roll_map(offsets: list[Offset], geometry: ArrayGeometry) -> np.ndarray:
    """The C x n_elements roll table of C offsets: roll[c, p] is where p moves under offsets[c]."""
    pairs = np.array([geometry.to_pair(offset) for offset in offsets], dtype=int).reshape(-1, 2)
    r1, r2 = np.divmod(np.arange(geometry.n_elements), geometry.n2)
    return ((r1 + pairs[:, :1]) % geometry.n1) * geometry.n2 + (r2 + pairs[:, 1:]) % geometry.n2


def extract_ground_truth(realization: ChannelRealization, setup: SensingSetup) -> GroundTruth:
    """Build the sparse beamspace channels and their joint sparsity metadata from the draw.

    On the grid, BS path p (beam b_p, reflector index r_p, gain g_p) and user
    path q (reflector index u_q, gain h_q) fill exactly one entry of H_k:
    conj(g_p * h_q) / sqrt(N_I) at column b_p and at row r_p - u_q, taken per
    axis modulo the (n1, n2) grid and flattened.  So the columns are the BS
    beams, each column's rows are the user's pattern shifted by r_p - r_0, and
    the shifts are the same for every user.  Raises ValueError, before any
    other check, when the realization and the setup are on different element
    grids, and then when a BS beam lies outside [0, n_bs) or a reflector index
    outside [0, N_I), naming the link and the first such index.  Raises
    StructureViolation for a draw that breaks this one-entry-per-pair form: no
    BS path, two BS paths on one BS beam, two paths of one user on one
    reflector index, or a zero gain; a per-user violation names the first
    user that has one.  All users' entries go into one users x n_elements x
    len(col_support) array in one scatter.
    """
    geometry = setup.geometry
    if realization.geometry != geometry:
        raise ValueError(f"realization drawn on {realization.geometry}, setup built on {geometry}")
    n1, n2, n_i = geometry.n1, geometry.n2, geometry.n_elements
    # every user's paths in one flat array, user-major: path q belongs to user[q]
    n_users = len(realization.h_paths)
    counts = np.array([len(paths) for paths in realization.h_paths], dtype=int)
    user = np.repeat(np.arange(n_users), counts)
    u_ris = np.concatenate(realization.h_paths)
    for what, indices, size, owner in (
        ("BS beam", realization.g_beams, realization.n_bs, None),
        ("reflector index", realization.g_ris, n_i, None),
        ("reflector index", u_ris, n_i, user),
    ):
        bad = np.flatnonzero((indices < 0) | (indices >= size))
        if bad.size:
            link = "reflector-to-BS link" if owner is None else f"user {owner[bad[0]]}"
            raise ValueError(f"{link}: {what} {indices[bad[0]]} outside [0, {size})")

    if not realization.g_beams.size:
        raise StructureViolation("no reflector-to-BS path: every column is empty")
    by_beam = np.argsort(realization.g_beams, kind="stable")
    col_support = realization.g_beams[by_beam]
    if np.unique(col_support).size != col_support.size:
        raise StructureViolation("two reflector-to-BS paths share one BS beam")
    g1, g2 = np.divmod(realization.g_ris[by_beam], n2)
    offsets: list[Offset] = [
        geometry.to_public((signed_shift(d1, n1), signed_shift(d2, n2)))
        for d1, d2 in zip(g1 - g1[0], g2 - g2[0])
    ]

    u1, u2 = np.divmod(u_ris, n2)
    # rows[p, q]: flat row of the (BS path p, path q) entry, in column p of user[q]'s block
    rows = ((g1[:, None] - u1) % n1) * n2 + (g2[:, None] - u2) % n2
    u_gains = np.concatenate(realization.h_gains)
    values = np.conj(np.outer(realization.g_gains[by_beam], u_gains)) / np.sqrt(n_i)

    # each user's rows of the first column, ascending: equal neighbours share a reflector index
    order = np.lexsort((rows[0], user))
    pattern_rows, pattern_users = rows[0][order], user[order]
    repeated = (np.diff(pattern_users) == 0) & (np.diff(pattern_rows) == 0)
    shared = np.bincount(pattern_users[1:][repeated], minlength=n_users) > 0
    empty = np.bincount(user[~np.all(values, axis=0)], minlength=n_users) > 0
    bad = np.flatnonzero(shared | empty)
    if bad.size:
        k = int(bad[0])
        if shared[k]:
            raise StructureViolation(f"user {k}: two paths share one reflector index")
        raise StructureViolation(f"user {k}: a zero path gain leaves an entry empty")

    channels = np.zeros((n_users, n_i, col_support.size), dtype=complex)
    channels[user, rows, np.arange(col_support.size)[:, None]] = values
    return GroundTruth(
        values=channels,
        col_support=col_support,
        row_patterns=np.split(pattern_rows, np.cumsum(counts)[:-1]),
        offsets=offsets,
        n_bs=realization.n_bs,
    )


def simulate_measurements(
    truth: GroundTruth,
    setup: SensingSetup,
    snr_db: float | None,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Generate Y_k = A @ H_k + W_k for every user, as one users x n_pilots x n_bs array.

    The signal is synthesised over the occupied columns only, as one stacked
    product of A with truth.values; the other columns of Y_k are noise alone.
    The noise variance is calibrated against the realized signal so that
    10*log10(mean_k ||A @ H_k||_F^2 / (n_pilots * n_bs * sigma^2)) equals
    snr_db; snr_db of None or +inf disables noise.  Any other value must pass
    config.snr_ratio and give a finite variance; ValueError otherwise, raised
    before any noise is drawn.  Every user's noise is one n_pilots x n_bs draw,
    in user order, whatever its occupied columns.
    """
    noiseless = is_noiseless(snr_db)
    ratio = None if noiseless else snr_ratio(snr_db)
    signal = setup.sensing_matrix @ truth.values  # users x n_pilots x len(col_support)
    n_users, n_pilots, _ = signal.shape
    shape = (n_pilots, truth.n_bs)
    variance = 0.0
    if noiseless:
        Y = np.zeros((n_users, *shape), dtype=complex)
    else:
        mean_power = float(np.mean(np.sum(np.abs(signal) ** 2, axis=(1, 2))))
        variance = mean_power / (shape[0] * shape[1] * ratio)
        if not math.isfinite(variance):
            raise ValueError(f"noise variance {variance!r} at snr_db={snr_db!r} is not finite")
        Y = np.empty((n_users, *shape), dtype=complex)
        scale = np.sqrt(variance / 2.0)
        for Y_k in Y:  # one user at a time: the seed contract fixes the draw order
            np.multiply(scale, rng.standard_normal(shape), out=Y_k.real)
            np.multiply(scale, rng.standard_normal(shape), out=Y_k.imag)
    Y[:, :, truth.col_support] += signal
    return MeasurementSet(Y=Y, noise_variance=variance)
