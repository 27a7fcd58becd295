"""Shared test helpers: independent reference constructions and invariant checks.

Everything here is written from the model definitions directly (plain phase
ramps, explicit double sums) so the package code is checked against an
independent implementation rather than against itself.
"""

import hashlib
import json

import numpy as np

from risce.channel import ChannelRealization, RisBsPath, UeRisPath, generate_channels
from risce.config import ArrayGeometry
from risce.estimators import EstimatorInput
from risce.harness import trial_rng
from risce.sensing import extract_ground_truth, make_sensing_setup, simulate_measurements

# acceptance summary lines, printed by the conftest terminal hook
ACCEPTANCE_LINES: list[str] = []


def record(ok: bool, label: str, detail: str) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def phase_ramp(n: int, sine: float) -> np.ndarray:
    """Unit-norm steering vector built directly from a sine value."""
    return np.exp(1j * np.pi * np.arange(n) * sine) / np.sqrt(n)


def double_sum_cascade(realization) -> list[np.ndarray]:
    """Analytic path-by-path construction of G @ diag(h_k) for every user.

    Each (reflector-to-BS path, user path) pair contributes
    gain_g * gain_u / sqrt(N) * outer(a_bs, conj(b)) where b is the steering
    ramp at the difference of the two reflector-side grid sines.
    """
    geom = realization.geometry
    n_bs = realization.n_bs
    n_i = geom.n_elements
    out = []
    for user_paths in realization.h_paths:
        M = np.zeros((n_bs, n_i), dtype=complex)
        for gp in realization.g_paths:
            a_bs = phase_ramp(n_bs, 2.0 * gp.bs_index / n_bs)
            for up in user_paths:
                if geom.is_planar:
                    d_az = 2.0 * (gp.ris_index[0] - up.ris_index[0]) / geom.n1
                    d_el = 2.0 * (gp.ris_index[1] - up.ris_index[1]) / geom.n2
                    b = np.kron(phase_ramp(geom.n1, d_az), phase_ramp(geom.n2, d_el))
                else:
                    b = phase_ramp(n_i, 2.0 * (gp.ris_index - up.ris_index) / n_i)
                M += gp.gain * up.gain / np.sqrt(n_i) * np.outer(a_bs, np.conj(b))
        out.append(M)
    return out


def known_shift_scenario(n_users: int = 2):
    """Hand-built 64-element draw with known row supports and column shifts.

    Reflector-side departure indices (0, 48, 54) make the second and third
    occupied columns circular shifts of the first by -16 and -10; user 0's
    reference row support comes out as {20, 35, 38, 50}.
    """
    geometry = ArrayGeometry.ula(64)
    bs_beams = [5, 12, 40]
    departures = [0, 48, 54]
    g_paths = [
        RisBsPath(gain=1.0 + 0.0j, bs_index=b, ris_index=p)
        for b, p in zip(bs_beams, departures)
    ]
    arrivals = [[44, 29, 26, 14], [3, 9, 27, 58]]
    h_paths = [
        [UeRisPath(gain=1.0 + 0.0j, ris_index=q) for q in user]
        for user in arrivals[:n_users]
    ]
    realization = ChannelRealization(geometry, 64, g_paths, h_paths)
    expected_offsets = [0, -16, -10]
    expected_rows_user0 = [
        [20, 35, 38, 50],
        [4, 19, 22, 34],
        [10, 25, 28, 40],
    ]
    return realization, expected_offsets, expected_rows_user0


def build_trial(config, trial_index: int = 0, axis_index: int = 0):
    """One seeded draw end to end, mirroring the harness trial construction."""
    rng = trial_rng(config.base_seed, axis_index, trial_index)
    realization = generate_channels(config, rng)
    setup = make_sensing_setup(config.n_bs, config.geometry, config.n_pilots, rng)
    truth = extract_ground_truth(realization, setup)
    measurements = simulate_measurements(truth, setup, config.snr_db, rng)
    inp = EstimatorInput(
        Y=measurements.Y,
        sensing_matrix=setup.sensing_matrix,
        n_columns=config.bs_paths,
        row_counts=[len(paths) for paths in realization.h_paths],
        geometry=config.geometry,
    )
    return realization, setup, truth, measurements, inp


def structure_digest(report) -> str:
    """SHA-256 of an estimate's integer results, independent of its coefficients."""

    def ints(values):
        return None if values is None else [int(v) for v in np.asarray(values).ravel()]

    record = {
        "col_support": ints(report.col_support),
        "offsets": None if report.offsets is None else [ints(d) for d in report.offsets],
        "row_patterns": (
            None if report.row_patterns is None else [ints(p) for p in report.row_patterns]
        ),
        "nonzero": [ints(np.flatnonzero(H_k)) for H_k in report.H_hat],
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def per_user_nmse_db(H_hat, H_true) -> list[float]:
    out = []
    for est, true in zip(H_hat, H_true):
        err = float(np.sum(np.abs(est - true) ** 2))
        energy = float(np.sum(np.abs(true) ** 2))
        out.append(-300.0 if err == 0.0 else 10.0 * np.log10(err / energy))
    return out


def check_report(report, inp) -> None:
    """Structural invariants every estimator output must satisfy."""
    n = inp.geometry.n_elements
    n_bs = inp.Y[0].shape[1]
    assert len(report.H_hat) == len(inp.Y)
    col_support = np.asarray(report.col_support)
    assert col_support.ndim == 1
    assert np.array_equal(col_support, np.sort(col_support))
    assert np.array_equal(col_support, np.unique(col_support))
    for H_k in report.H_hat:
        assert H_k.shape == (n, n_bs)
        occupied = np.flatnonzero(np.max(np.abs(H_k), axis=0) > 0)
        assert np.all(np.isin(occupied, col_support)), "energy outside the reported columns"
    if report.offsets is not None and report.row_patterns is not None:
        from risce.sensing import shift_indices

        assert len(report.offsets) == col_support.size
        for k, H_k in enumerate(report.H_hat):
            pattern = np.asarray(report.row_patterns[k])
            for j, c in enumerate(col_support):
                allowed = shift_indices(pattern, report.offsets[j], inp.geometry)
                rows = np.flatnonzero(np.abs(H_k[:, c]) > 0)
                assert np.all(np.isin(rows, allowed)), (
                    f"user {k} column {c} has rows outside the shifted pattern"
                )
