"""Shared test helpers: independent reference constructions and invariant checks.

Everything here is written from the model definitions directly (plain phase
ramps, explicit double sums) so the package code is checked against an
independent implementation rather than against itself.  The one exception is
build_trial, which is harness.draw_trial itself: tests draw their trials
exactly as the harness does, not from a copy of its seed sequence.
load_results reads a results CSV back into typed rows: the package only
writes them.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from risce.channel import ChannelRealization
from risce.config import ArrayGeometry, snr_ratio
from risce.harness import CSV_HEADER
from risce.harness import draw_trial as build_trial

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
    ramp at the difference of the two reflector-side grid sines, per axis.
    """
    geom = realization.geometry
    n_bs = realization.n_bs
    n_i = geom.n_elements
    # as Python scalars: each term's arithmetic is one path pair's, outside numpy
    g_paths = list(
        zip(realization.g_beams.tolist(), realization.g_ris.tolist(), realization.g_gains.tolist())
    )
    out = []
    for indices, gains in zip(realization.h_paths, realization.h_gains):
        M = np.zeros((n_bs, n_i), dtype=complex)
        for beam, g_index, g_gain in g_paths:
            a_bs = phase_ramp(n_bs, 2.0 * beam / n_bs)
            for u_index, u_gain in zip(indices.tolist(), gains.tolist()):
                if geom.is_planar:
                    (g1, g2), (u1, u2) = divmod(g_index, geom.n2), divmod(u_index, geom.n2)
                    d_az = 2.0 * (g1 - u1) / geom.n1
                    d_el = 2.0 * (g2 - u2) / geom.n2
                    b = np.kron(phase_ramp(geom.n1, d_az), phase_ramp(geom.n2, d_el))
                else:
                    b = phase_ramp(n_i, 2.0 * (g_index - u_index) / n_i)
                M += g_gain * u_gain / np.sqrt(n_i) * np.outer(a_bs, np.conj(b))
        out.append(M)
    return out


def hand_draw(geometry, n_bs, g_paths, h_paths) -> ChannelRealization:
    """A draw built by hand: g_paths lists (gain, BS beam, flat reflector index)
    triples, and h_paths[k] user k's (gain, flat reflector index) pairs."""
    g = np.array(g_paths, dtype=complex).reshape(-1, 3)
    users = [np.array(paths, dtype=complex).reshape(-1, 2) for paths in h_paths]
    return ChannelRealization(
        geometry,
        n_bs,
        g[:, 1].real.astype(int),
        g[:, 2].real.astype(int),
        g[:, 0],
        [user[:, 1].real.astype(int) for user in users],
        [user[:, 0] for user in users],
    )


def same_draw(a, b) -> bool:
    """Whether two channel draws are equal: every index and gain array by dtype and value."""
    if (a.geometry, a.n_bs, len(a.h_paths)) != (b.geometry, b.n_bs, len(b.h_paths)):
        return False
    pairs = zip(
        [a.g_beams, a.g_ris, a.g_gains, *a.h_paths, *a.h_gains],
        [b.g_beams, b.g_ris, b.g_gains, *b.h_paths, *b.h_gains],
    )
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)


def known_shift_scenario(n_users: int = 2):
    """Hand-built 64-element draw with known row supports and column shifts.

    Reflector-side departure indices (0, 48, 54) make the second and third
    occupied columns circular shifts of the first by -16 and -10; user 0's
    reference row support comes out as {20, 35, 38, 50}.
    """
    geometry = ArrayGeometry.ula(64)
    bs_beams = [5, 12, 40]
    departures = [0, 48, 54]
    arrivals = [[44, 29, 26, 14], [3, 9, 27, 58]]
    real = hand_draw(
        geometry,
        64,
        [(1.0, b, p) for b, p in zip(bs_beams, departures)],
        [[(1.0, q) for q in user] for user in arrivals[:n_users]],
    )
    expected_offsets = [0, -16, -10]
    expected_rows_user0 = [
        [20, 35, 38, 50],
        [4, 19, 22, 34],
        [10, 25, 28, 40],
    ]
    return real, expected_offsets, expected_rows_user0


def per_user_measurements(truth, setup, snr_db, rng) -> list[np.ndarray]:
    """Y_k = A @ H_k + W_k one user at a time: the reference for the stacked synthesis.

    The same draws and arithmetic as sensing.simulate_measurements, written as
    a loop over users: one product per user block, the per-user signal energies
    averaged, then each user's noise drawn and its signal added in user order.
    """
    a = setup.sensing_matrix
    signal = [a @ values for values in truth.values]
    shape = (a.shape[0], truth.n_bs)
    ratio = snr_ratio(snr_db)
    variance = 0.0
    if ratio < math.inf:
        mean_power = float(np.mean([np.sum(np.abs(s) ** 2) for s in signal]))
        variance = mean_power / (shape[0] * shape[1] * ratio)
    Y = []
    for s in signal:
        if ratio == math.inf:
            Y_k = np.zeros(shape, dtype=complex)
        else:
            scale = np.sqrt(variance / 2.0)
            Y_k = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        Y_k[:, truth.col_support] += s
        Y.append(Y_k)
    return Y


def dense(cols, values, n_bs: int) -> np.ndarray:
    """The dense users x N x n_bs channels of values (users x N x C) over cols.

    cols is users x C, or one length-C row shared by every user; every other
    column is zero.  Written one user at a time, independently of the package.
    """
    cols = np.broadcast_to(cols, (len(values), np.shape(cols)[-1]))
    out = np.zeros((len(values), values.shape[1], n_bs), dtype=complex)
    for k in range(len(values)):
        for j, c in enumerate(cols[k]):
            out[k, :, c] = values[k, :, j]
    return out


def block_flatnonzero(cols, values, n_bs: int) -> np.ndarray:
    """np.flatnonzero of one user's dense channel, read from its own columns.

    np.nonzero walks the N x C values row by row, and cols ascend, so the flat
    indices row * n_bs + column come out ascending, as in the dense array.
    """
    rows, j = np.nonzero(values)
    return rows * n_bs + cols[j]


def structure_digest(report, inp) -> str:
    """SHA-256 of an estimate's integer results, independent of its coefficients."""

    def ints(values):
        return None if values is None else [int(v) for v in np.asarray(values).ravel()]

    record = {
        "col_support": ints(report.col_support),
        "offsets": None if report.offsets is None else [ints(d) for d in report.offsets],
        "row_patterns": (
            None if report.row_patterns is None else [ints(p) for p in report.row_patterns]
        ),
        "nonzero": [
            ints(block_flatnonzero(cols, values, inp.Y.shape[2]))
            for cols, values in zip(report.cols, report.values, strict=True)
        ],
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
    H_hat = dense(report.cols, report.values, n_bs)
    assert len(H_hat) == len(inp.Y)
    assert report.cols.shape == (len(inp.Y), report.values.shape[2])
    assert np.all(np.diff(report.cols, axis=1) > 0), "each user's columns must ascend"
    col_support = np.asarray(report.col_support)
    assert col_support.ndim == 1
    assert np.array_equal(col_support, np.sort(col_support))
    assert np.array_equal(col_support, np.unique(col_support))
    for H_k in H_hat:
        assert H_k.shape == (n, n_bs)
        occupied = np.flatnonzero(np.max(np.abs(H_k), axis=0) > 0)
        assert np.all(np.isin(occupied, col_support)), "energy outside the reported columns"
    if report.offsets is not None and report.row_patterns is not None:
        from risce.sensing import shift_indices

        assert len(report.offsets) == col_support.size
        for k, H_k in enumerate(H_hat):
            pattern = np.asarray(report.row_patterns[k])
            for j, c in enumerate(col_support):
                allowed = shift_indices(pattern, report.offsets[j], inp.geometry)
                rows = np.flatnonzero(np.abs(H_k[:, c]) > 0)
                assert np.all(np.isin(rows, allowed)), (
                    f"user {k} column {c} has rows outside the shifted pattern"
                )


def _parse_axis(text: str) -> int | float:
    """Inverse of harness._format_axis: integer literals (pilot lengths) as int, the rest as float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_results(path) -> list[dict]:
    """Parse a results CSV back into typed rows (None where a cell errored)."""
    text = Path(path).read_text(encoding="utf-8-sig")  # a spreadsheet may save a byte-order mark
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1) if line]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"unrecognized results header in {path}")
    rows = []
    for lineno, line in lines[1:]:
        try:
            axis_value, estimator, nmse_field, stderr_field, trials = line.split(",")
            rows.append(
                {
                    "axis": _parse_axis(axis_value),
                    "estimator": estimator,
                    "nmse_db": None if nmse_field == "error" else float(nmse_field),
                    "stderr_db": None if stderr_field == "error" else float(stderr_field),
                    "trials": int(trials),
                }
            )
        except ValueError as exc:
            message = f"{path}:{lineno}: expected a row of {CSV_HEADER!r}, got {line!r}"
            raise ValueError(message) from exc
    return rows
