"""Pilot-side model: reflector phase schedules, the beamspace transform, noisy
measurements, and ground-truth sparsity metadata read off generated channels.

Measurement convention for user k:

    Y_k = A @ H_k + W_k,      A = phases^H @ f_ris^H   (n_pilots x n_elements)

where H_k = f_ris @ (G @ diag(h_k))^H @ f_bs^H is the beamspace cascaded
channel (rows: reflector beams, columns: BS beams) and W_k is white complex
Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, cascade_spatial, flat_ris_index
from .config import ArrayGeometry
from .numerics import circ_xcorr_1d, circ_xcorr_2d, dft_matrix, peak_shift_1d, peak_shift_2d

SUPPORT_THRESHOLD = 1e-9

Offset = int | tuple[int, int]


class StructureViolation(RuntimeError):
    """A generated realization failed an internal sparsity-structure consistency check."""


@dataclass(frozen=True)
class SensingSetup:
    """Fixed sensing operators shared by all users of one trial."""

    phases: np.ndarray  # n_elements x n_pilots unit-modulus reflector schedule
    f_bs: np.ndarray  # n_bs x n_bs unitary DFT
    f_ris: np.ndarray  # n_elements x n_elements unitary DFT (Kronecker form for planar arrays)
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
    """Draw a phase schedule and assemble the DFTs and sensing matrix for one trial."""
    f_bs = dft_matrix(n_bs)
    if geometry.is_planar:
        f_ris = np.kron(dft_matrix(geometry.n1), dft_matrix(geometry.n2))
    else:
        f_ris = dft_matrix(geometry.n1)
    phases = generate_phase_schedule(geometry.n_elements, n_pilots, rng)
    sensing_matrix = phases.conj().T @ f_ris.conj().T
    return SensingSetup(
        phases=phases, f_bs=f_bs, f_ris=f_ris, sensing_matrix=sensing_matrix, geometry=geometry
    )


def beamspace_cascaded(G: np.ndarray, h_k: np.ndarray, setup: SensingSetup) -> np.ndarray:
    """Beamspace cascaded channel f_ris @ (G @ diag(h_k))^H @ f_bs^H for one user."""
    spatial = cascade_spatial(G, h_k)
    return setup.f_ris @ spatial.conj().T @ setup.f_bs.conj().T


def _shift(idx: np.ndarray, offset: Offset, geometry: ArrayGeometry) -> np.ndarray:
    if geometry.is_planar:
        d1, d2 = offset
        r1, r2 = np.divmod(idx, geometry.n2)
        return ((r1 + int(d1)) % geometry.n1) * geometry.n2 + (r2 + int(d2)) % geometry.n2
    return (idx + int(offset)) % geometry.n_elements


def shift_indices(indices: np.ndarray, offset: Offset, geometry: ArrayGeometry) -> np.ndarray:
    """Circularly shift flat element indices by an offset (per axis for planar arrays)."""
    return np.sort(_shift(np.asarray(indices, dtype=int), offset, geometry))


def roll_map(offset: Offset, geometry: ArrayGeometry) -> np.ndarray:
    """Unsorted shift of every element: roll[p] is the index p moves to under the offset."""
    return _shift(np.arange(geometry.n_elements), offset, geometry)


def _column_shift(ref: np.ndarray, col: np.ndarray, geometry: ArrayGeometry) -> Offset:
    """Signed circular shift taking the reference column onto `col`, from the correlation peak."""
    if geometry.is_planar:
        n1, n2 = geometry.n1, geometry.n2
        return peak_shift_2d(circ_xcorr_2d(ref.reshape(n1, n2), col.reshape(n1, n2)))
    return peak_shift_1d(circ_xcorr_1d(ref, col))


def _zero_offset(geometry: ArrayGeometry) -> Offset:
    return (0, 0) if geometry.is_planar else 0


def extract_ground_truth(realization: ChannelRealization, setup: SensingSetup) -> GroundTruth:
    """Compute beamspace channels and read off their joint sparsity metadata.

    Verifies the structural invariants the estimators rely on (shared column
    support, per-column row supports that are circular shifts of a per-user
    pattern, user-independent shifts) and raises StructureViolation if any
    fails; a failure indicates a model bug, not a data condition.
    """
    geometry = setup.geometry
    H = [beamspace_cascaded(realization.G, h_k, setup) for h_k in realization.h]

    col_supports = [
        np.flatnonzero(np.max(np.abs(H_k), axis=0) > SUPPORT_THRESHOLD) for H_k in H
    ]
    col_support = col_supports[0]
    for k, support in enumerate(col_supports[1:], start=1):
        if not np.array_equal(support, col_support):
            raise StructureViolation(f"user {k} column support differs from user 0")
    if col_support.size != len(realization.g_paths):
        raise StructureViolation(
            f"expected {len(realization.g_paths)} occupied columns, found {col_support.size}"
        )

    row_patterns: list[np.ndarray] = []
    per_user_offsets: list[list[Offset]] = []
    for k, H_k in enumerate(H):
        ref_col = H_k[:, col_support[0]]
        pattern = np.flatnonzero(np.abs(ref_col) > SUPPORT_THRESHOLD)
        if pattern.size != len(realization.h_paths[k]):
            raise StructureViolation(
                f"user {k}: expected {len(realization.h_paths[k])} rows, found {pattern.size}"
            )
        offsets: list[Offset] = [_zero_offset(geometry)]
        for j in range(1, col_support.size):
            col = H_k[:, col_support[j]]
            shift = _column_shift(ref_col, col, geometry)
            expected_rows = shift_indices(pattern, shift, geometry)
            actual_rows = np.flatnonzero(np.abs(col) > SUPPORT_THRESHOLD)
            if not np.array_equal(expected_rows, actual_rows):
                raise StructureViolation(
                    f"user {k} column {j}: row support is not a circular shift of the pattern"
                )
            offsets.append(shift)
        row_patterns.append(pattern)
        per_user_offsets.append(offsets)

    for k, offsets in enumerate(per_user_offsets[1:], start=1):
        if offsets != per_user_offsets[0]:
            raise StructureViolation(f"user {k} offsets differ from user 0")

    return GroundTruth(
        H=H, col_support=col_support, row_patterns=row_patterns, offsets=per_user_offsets[0]
    )


def simulate_measurements(
    truth: GroundTruth,
    setup: SensingSetup,
    snr_db: float | None,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Generate Y_k = A @ H_k + W_k for every user.

    The noise variance is calibrated against the realized signal so that
    10*log10(mean_k ||A @ H_k||_F^2 / (n_pilots * n_bs * sigma^2)) equals
    snr_db; snr_db of None or +inf disables noise.
    """
    a = setup.sensing_matrix
    signal = [a @ H_k for H_k in truth.H]
    n_pilots, n_bs = signal[0].shape
    noiseless = snr_db is None or np.isinf(snr_db)
    if noiseless:
        return MeasurementSet(Y=[s.copy() for s in signal], noise_variance=0.0)
    mean_power = float(np.mean([np.sum(np.abs(s) ** 2) for s in signal]))
    variance = mean_power / (n_pilots * n_bs * 10.0 ** (snr_db / 10.0))
    scale = np.sqrt(variance / 2.0)
    Y = []
    for s in signal:
        noise = scale * (
            rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        )
        Y.append(s + noise)
    return MeasurementSet(Y=Y, noise_variance=variance)


def true_flat_supports(realization: ChannelRealization) -> dict[str, object]:
    """Grid-index bookkeeping for debugging: flat reflector indices of every path."""
    geometry = realization.geometry
    return {
        "bs_beams": [p.bs_index for p in realization.g_paths],
        "ris_beams": [flat_ris_index(geometry, p.ris_index) for p in realization.g_paths],
        "ue_beams": [
            [flat_ris_index(geometry, p.ris_index) for p in paths] for paths in realization.h_paths
        ],
    }
