"""Kernel microbenchmarks on inputs drawn from seeded trials of the benchmark scenarios.

The greedy pursuit, the offset-coupled joint pursuit, the least-squares refit
and the 1-D cross-correlation run on one trial of the canonical scenario
(N=128 reflector elements, T=32 pilots); the 2-D cross-correlation runs on one
trial of the 16x16 planar scenario.  Each result is the median per-call time
over several timed blocks.
"""

from __future__ import annotations

import statistics
import time

from risce.channel import generate_channels
from risce.config import ArrayGeometry, SystemConfig
from risce.estimators import coarse_omp, offset_structured_somp
from risce.harness import trial_rng
from risce.numerics import circ_xcorr_1d, circ_xcorr_2d, ls_solve
from risce.sensing import (
    extract_ground_truth,
    make_sensing_setup,
    shift_indices,
    simulate_measurements,
)

BLOCK_SECONDS = 0.02
BLOCKS = 7


def draw_trial(config: SystemConfig):
    """Realization, sensing setup, ground truth and measurements of trial (0, 0)."""
    rng = trial_rng(config.base_seed, 0, 0)
    realization = generate_channels(config, rng)
    setup = make_sensing_setup(config.n_bs, config.geometry, config.n_pilots, rng)
    truth = extract_ground_truth(realization, setup)
    measurements = simulate_measurements(truth, setup, config.snr_db, rng)
    return realization, setup, truth, measurements


def per_call_us(fn) -> float:
    """Median per-call time in microseconds over BLOCKS blocks of about BLOCK_SECONDS each."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= BLOCK_SECONDS:
            break
        calls *= 2
    samples = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def kernel_metrics(seed: int) -> dict[str, float]:
    """Per-call microseconds of each kernel, keyed by per-layer metric name."""
    realization, setup, truth, measurements = draw_trial(SystemConfig(base_seed=seed))
    a = setup.sensing_matrix
    geometry = setup.geometry
    y_cols = measurements.Y[0][:, truth.col_support]
    n_rows = len(realization.h_paths[0])
    rows = shift_indices(truth.row_patterns[0], truth.offsets[0], geometry)
    h0 = truth.H[0]
    ref_col, other_col = h0[:, truth.col_support[0]], h0[:, truth.col_support[1]]

    planar = SystemConfig(geometry=ArrayGeometry.upa(16, 16), n_pilots=64, base_seed=seed)
    _, _, planar_truth, _ = draw_trial(planar)
    hp = planar_truth.H[0]
    u2 = hp[:, planar_truth.col_support[0]].reshape(16, 16)
    v2 = hp[:, planar_truth.col_support[1]].reshape(16, 16)

    return {
        "micro.coarse_omp.us": per_call_us(lambda: coarse_omp(y_cols[:, 0], a, n_rows)),
        "micro.offset_structured_somp.us": per_call_us(
            lambda: offset_structured_somp(y_cols, a, truth.offsets, n_rows, geometry)
        ),
        "micro.ls_solve.us": per_call_us(lambda: ls_solve(a[:, rows], y_cols[:, 0])),
        "micro.circ_xcorr_1d.us": per_call_us(lambda: circ_xcorr_1d(ref_col, other_col)),
        "micro.circ_xcorr_2d.us": per_call_us(lambda: circ_xcorr_2d(u2, v2)),
    }
