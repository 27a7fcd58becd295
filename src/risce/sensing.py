"""Pilot-side model: reflector phase schedules, the beamspace transform, noisy
measurements, and the sparse ground truth built in closed form from the path lists.

Measurement convention for user k:

    Y_k = A @ H_k + W_k,      A = phases^H @ f_ris^H   (n_pilots x n_elements)

where f_bs is the unitary DFT and f_ris = kron(dft(n1), dft(n2)) its
Kronecker form over the (n1, n2) element grid, H_k = f_ris @ (G @ diag(h_k))^H
@ f_bs^H is the beamspace cascaded channel (rows: reflector beams, columns: BS
beams) and W_k is white complex Gaussian noise.  A is an orthonormal inverse
FFT of the conjugated phases: row t is the 2-D inverse FFT of conj(phases[:, t])
laid out on the element grid, so no DFT matrix is formed.  A linear array is
the n2 == 1 grid: both layouts take one code path, with shifts per grid axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, cascade_spatial
from .config import ArrayGeometry, is_noiseless, snr_ratio
from .numerics import dft_matrix, signed_shift

# the benchmark tracer wraps these two names on this module, so they stay imported here
from .numerics import circ_xcorr_1d, circ_xcorr_2d  # noqa: F401

Offset = int | tuple[int, int]


class StructureViolation(RuntimeError):
    """A path list breaks the one-entry-per-path-pair form of the on-grid beamspace model."""


@dataclass(frozen=True)
class SensingSetup:
    """Fixed sensing operators shared by all users of one trial."""

    phases: np.ndarray  # n_elements x n_pilots unit-modulus reflector schedule
    sensing_matrix: np.ndarray  # n_pilots x n_elements, equals phases^H @ f_ris^H
    geometry: ArrayGeometry


@dataclass
class GroundTruth:
    """Beamspace channels plus the sparsity metadata estimators are judged against."""

    H: list[np.ndarray]  # per-user n_elements x n_bs beamspace cascaded channels
    col_support: np.ndarray  # shared nonzero column indices, ascending
    row_patterns: list[np.ndarray]  # per-user row support of the first nonzero column
    offsets: list[Offset]  # per-column circular shift relative to the first column


@dataclass
class MeasurementSet:
    """Per-user pilot observations and the noise variance they were drawn with."""

    Y: list[np.ndarray]  # per-user n_pilots x n_bs
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
    sensing_matrix = np.fft.ifft2(grid, norm="ortho").reshape(n_pilots, geometry.n_elements)
    # the FFT returns A column-major; keep the row-major layout the estimators were measured with
    return SensingSetup(
        phases=phases, sensing_matrix=np.ascontiguousarray(sensing_matrix), geometry=geometry
    )


def beamspace_cascaded(G: np.ndarray, h_k: np.ndarray, geometry: ArrayGeometry) -> np.ndarray:
    """Beamspace cascaded channel f_ris @ (G @ diag(h_k))^H @ f_bs^H for one user.

    The model's dense definition: the reference the closed-form truth is tested against.
    """
    spatial = cascade_spatial(G, h_k)
    f_ris = np.kron(dft_matrix(geometry.n1), dft_matrix(geometry.n2))
    return f_ris @ spatial.conj().T @ dft_matrix(G.shape[0]).conj().T


def _shift(idx: np.ndarray, offset: Offset, geometry: ArrayGeometry) -> np.ndarray:
    d1, d2 = geometry.to_pair(offset)
    r1, r2 = np.divmod(idx, geometry.n2)
    return ((r1 + d1) % geometry.n1) * geometry.n2 + (r2 + d2) % geometry.n2


def shift_indices(indices: np.ndarray, offset: Offset, geometry: ArrayGeometry) -> np.ndarray:
    """Circularly shift flat element indices by an offset, per axis of the element grid."""
    return np.sort(_shift(np.asarray(indices, dtype=int), offset, geometry))


def roll_map(offset: Offset, geometry: ArrayGeometry) -> np.ndarray:
    """Unsorted shift of every element: roll[p] is the index p moves to under the offset."""
    return _shift(np.arange(geometry.n_elements), offset, geometry)


def extract_ground_truth(realization: ChannelRealization, setup: SensingSetup) -> GroundTruth:
    """Build the sparse beamspace channels and their joint sparsity metadata from the path lists.

    On the grid, BS path p (beam b_p, reflector index r_p, gain g_p) and user
    path q (reflector index u_q, gain h_q) fill exactly one entry of H_k:
    conj(g_p * h_q) / sqrt(N_I) at column b_p and at row r_p - u_q, taken per
    axis modulo the (n1, n2) grid and flattened.  So the columns are the BS
    beams, each column's rows are the user's pattern shifted by r_p - r_0, and
    the shifts are the same for every user.  Raises StructureViolation for
    path lists that break this one-entry-per-pair form: no BS path, two BS
    paths on one BS beam, two paths of one user on one reflector index, or a
    zero gain.
    """
    geometry = setup.geometry
    dims = (geometry.n1, geometry.n2)
    if not realization.g_paths:
        raise StructureViolation("no reflector-to-BS path: every column is empty")
    g_paths = sorted(realization.g_paths, key=lambda path: path.bs_index)
    col_support = np.array([path.bs_index for path in g_paths], dtype=int)
    if np.unique(col_support).size != col_support.size:
        raise StructureViolation("two reflector-to-BS paths share one BS beam")
    g_ris = np.array([geometry.to_pair(path.ris_index) for path in g_paths], dtype=int)
    g_gains = np.array([path.gain for path in g_paths], dtype=complex)

    offsets: list[Offset] = [
        geometry.to_public([signed_shift(d, n) for d, n in zip(ris - g_ris[0], dims)])
        for ris in g_ris
    ]

    H: list[np.ndarray] = []
    row_patterns: list[np.ndarray] = []
    for k, user_paths in enumerate(realization.h_paths):
        pairs = [geometry.to_pair(path.ris_index) for path in user_paths]
        u_ris = np.array(pairs, dtype=int).reshape(-1, 2)
        u_gains = np.array([path.gain for path in user_paths], dtype=complex)
        # rows[p, q]: flat row of the (BS path p, user path q) entry
        axes = (g_ris[:, None, :] - u_ris[None, :, :]) % dims
        rows = np.ravel_multi_index(tuple(np.moveaxis(axes, -1, 0)), dims)
        if np.unique(rows[0]).size != len(user_paths):
            raise StructureViolation(f"user {k}: two paths share one reflector index")
        values = np.conj(np.outer(g_gains, u_gains)) / np.sqrt(geometry.n_elements)
        if not np.all(values):
            raise StructureViolation(f"user {k}: a zero path gain leaves an entry empty")
        H_k = np.zeros((geometry.n_elements, realization.n_bs), dtype=complex)
        H_k[rows, col_support[:, None]] = values
        H.append(H_k)
        row_patterns.append(np.sort(rows[0]))

    return GroundTruth(H=H, col_support=col_support, row_patterns=row_patterns, offsets=offsets)


def simulate_measurements(
    truth: GroundTruth,
    setup: SensingSetup,
    snr_db: float | None,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Generate Y_k = A @ H_k + W_k for every user.

    The noise variance is calibrated against the realized signal so that
    10*log10(mean_k ||A @ H_k||_F^2 / (n_pilots * n_bs * sigma^2)) equals
    snr_db; snr_db of None or +inf disables noise.  Any other value must have
    a normal-float linear ratio (see config.snr_ratio) and give a finite
    variance; ValueError otherwise, raised before any noise is drawn.
    """
    ratio = None if is_noiseless(snr_db) else snr_ratio(snr_db)
    a = setup.sensing_matrix
    signal = [a @ H_k for H_k in truth.H]
    n_pilots, n_bs = signal[0].shape
    if ratio is None:
        return MeasurementSet(Y=[s.copy() for s in signal], noise_variance=0.0)
    mean_power = float(np.mean([np.sum(np.abs(s) ** 2) for s in signal]))
    variance = mean_power / (n_pilots * n_bs * ratio)
    if not math.isfinite(variance):
        raise ValueError(f"noise variance {variance!r} at snr_db={snr_db!r} is not finite")
    scale = np.sqrt(variance / 2.0)
    Y = []
    for s in signal:
        noise = scale * (
            rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        )
        Y.append(s + noise)
    return MeasurementSet(Y=Y, noise_variance=variance)
