#!/usr/bin/env python3
"""Benchmark for risce: seeded Monte Carlo trials per second on three sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Each
workload is a closed loop: one client in this process calls
``risce.cli.main`` with the workload's arguments, one call after another,
each call running a few seeded trials.  See perfbench/README.md for the
workloads, the metrics and what each is expected to move.

--trace 0 reports the end-to-end metrics: trial throughput and latency, CPU
per trial, set-up time, peak memory and the share of cells that succeeded.
--trace 1 reports per-layer metrics from spans recorded around the program's
public functions, the tracing overhead, and kernel microbenchmarks.

Every run first sweeps the workload at the default seed and compares the CSV
with perfbench/reference/<workload>.csv; every timed call's CSV must hold
finite numbers in every cell.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

``--write-reference`` rewrites the reference CSVs from the current program.
The benchmark sets no BLAS or OpenMP thread variable; it records what it ran
with.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0
MIN_TRIALS = 100  # so that at least ten latency samples lie beyond p90
SETUP_PROBES = 9
SEED_STRIDE = 10_000  # timed call i of a run with seed s uses base seed s * SEED_STRIDE + i
PROBE_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]  # risce CLI arguments, without --trials, --seed and --out
    chunk_trials: int  # --trials of each timed call
    reference_trials: int  # --trials of the reference sweep


WORKLOADS = {
    "canonical": Workload(("sweep-t", "--values", "32,128"), 2, 3),
    "planar": Workload(("single", "--upa", "16", "16", "--pilots", "64"), 4, 4),
    "oracle_snr": Workload(
        ("sweep-snr", "--values=-10,-5,0,5,10", "--pilots", "64", "--estimators", "oracle_ls"),
        2,
        10,
    ),
}

# (module, attribute, layer name): each public function, wrapped at the
# binding its caller resolves.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "run_sweep", "harness.run_sweep"),
    ("cli", "emit_results", "harness.emit_results"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "generate_channels", "channel.generate_channels"),
    ("harness", "make_sensing_setup", "sensing.make_sensing_setup"),
    ("harness", "extract_ground_truth", "sensing.extract_ground_truth"),
    ("harness", "simulate_measurements", "sensing.simulate_measurements"),
    ("harness", "estimate_oracle_ls", "estimators.estimate_oracle_ls"),
    ("harness", "estimate_triple_structured", "estimators.estimate_triple_structured"),
    ("harness", "estimate_row_structured", "estimators.estimate_row_structured"),
    ("harness", "estimate_conventional_omp", "estimators.estimate_conventional_omp"),
    ("harness", "nmse_linear", "harness.nmse_linear"),
    ("estimators", "joint_column_support", "estimators.joint_column_support"),
    ("estimators", "coarse_omp", "estimators.coarse_omp"),
    ("estimators", "estimate_common_offsets", "estimators.estimate_common_offsets"),
    ("estimators", "offset_structured_somp", "estimators.offset_structured_somp"),
    ("estimators", "ls_solve", "numerics.ls_solve"),
    ("estimators", "circ_xcorr_1d", "numerics.circ_xcorr_1d"),
    ("estimators", "circ_xcorr_2d", "numerics.circ_xcorr_2d"),
    ("sensing", "circ_xcorr_1d", "numerics.circ_xcorr_1d"),
    ("sensing", "circ_xcorr_2d", "numerics.circ_xcorr_2d"),
)
STAGES = (
    "channel.generate_channels",
    "sensing.make_sensing_setup",
    "sensing.extract_ground_truth",
    "sensing.simulate_measurements",
    "estimators.estimate_oracle_ls",
    "estimators.estimate_triple_structured",
    "estimators.estimate_row_structured",
    "estimators.estimate_conventional_omp",
)
KERNELS = (
    "estimators.coarse_omp",
    "estimators.offset_structured_somp",
    "estimators.estimate_common_offsets",
    "estimators.joint_column_support",
    "numerics.ls_solve",
    "numerics.circ_xcorr_1d",
    "numerics.circ_xcorr_2d",
)


def import_program():
    """Import risce from ./src of this checkout, refusing any other copy."""
    if not (SRC / "risce" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import risce.cli
    import risce.estimators
    import risce.harness
    import risce.sensing

    if Path(risce.__file__).resolve().parent != SRC / "risce":
        raise SystemExit(f"error: imported risce from {risce.__file__}, not {SRC}")
    return risce


def environment() -> dict:
    """What the run ran with: machine, interpreter, numpy, BLAS and its threads, source."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": None,
        "blas_threads": None,
        "thread_env": {
            key: value for key, value in sorted(os.environ.items()) if key.endswith("_NUM_THREADS")
        },
        "commit": None,
        "source_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((SRC / "risce").glob("*.py")))
        ).hexdigest(),
    }
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted(
            {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
        )
    for path in libs[:1]:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                info["blas_runtime"] = get_config().decode()
                info["blas_threads"] = get_threads()
                break
    if (ROOT / ".git").exists():  # the checkout may be a plain copy of the tree
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if head.returncode == 0:
            info["commit"] = head.stdout.strip()
    return info


def run_cli(risce, argv: list[str]) -> float:
    """One call of risce.cli.main with its summary discarded; returns its wall seconds."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = risce.cli.main(argv)
    elapsed = time.perf_counter() - start
    if code == 1:  # a usage error is a fault of the benchmark, not a failed cell
        raise SystemExit(f"error: risce rejected {argv}")
    return elapsed


def sweep_argv(workload: Workload, trials: int, seed: int, out: Path) -> list[str]:
    return [*workload.argv, "--trials", str(trials), "--seed", str(seed), "--out", str(out)]


class Tally:
    """(trial, estimator) cells attempted and failed, with the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, csv_path: Path, trials: int, reference: Path | None = None) -> None:
        """Check one call's CSV; a CSV that fails its check counts all its cells as failed."""
        cells = check.read_cells(csv_path)
        if reference is not None:
            problems = check.reference_problems(cells, check.read_cells(reference))
        else:
            problems = check.finite_problems(cells)
        self.attempted += len(cells) * trials
        self.failed += len(cells) * trials if problems else check.failed_cells(cells, trials)
        self.problems += problems

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def reference_pass(risce, name: str, tally: Tally) -> float:
    """Sweep the workload at the default seed and check it; returns the call's wall seconds."""
    workload = WORKLOADS[name]
    csv_path = OUT / f"{name}-reference.csv"
    argv = sweep_argv(workload, workload.reference_trials, DEFAULT_SEED, csv_path)
    elapsed = run_cli(risce, argv)
    tally.add(csv_path, workload.reference_trials, REFERENCE / f"{name}.csv")
    return elapsed


def setup_seconds(name: str, seed: int) -> float:
    """Wall seconds from starting a fresh process until its first trial can start."""
    workload = WORKLOADS[name]
    argv = sweep_argv(workload, workload.chunk_trials, seed, OUT / f"{name}-probe.csv")
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *argv],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if probe.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {probe.stderr.strip()}")
    return float(probe.stdout.strip().splitlines()[-1]) - start


def end_to_end(risce, name: str, seed: int, seconds: int, min_trials: int) -> tuple[dict, dict]:
    """Closed loop of timed calls for `seconds` and at least `min_trials` trials."""
    workload = WORKLOADS[name]
    tally = Tally()
    reference_pass(risce, name, tally)  # also the warm-up: first-call costs stay out of the loop

    tracer = Tracer()
    tracer.wrap(risce.harness, "run_trial", "harness.run_trial")
    call_walls: list[float] = []
    call_cpus: list[float] = []
    setup: list[float] = []
    try:
        while sum(call_walls) < seconds or len(tracer.spans) < min_trials:
            # Set-up probes run between timed calls, spread over the run so
            # that a burst of load on the machine moves few of them.
            if len(setup) < SETUP_PROBES:
                setup.append(setup_seconds(name, seed))
            csv_path = OUT / f"{name}-timed.csv"
            call_seed = seed * SEED_STRIDE + len(call_walls)
            argv = sweep_argv(workload, workload.chunk_trials, call_seed, csv_path)
            cpu_start = time.process_time()
            call_walls.append(run_cli(risce, argv))
            call_cpus.append(time.process_time() - cpu_start)
            tally.add(csv_path, workload.chunk_trials)
    finally:
        tracer.restore()
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(name, seed))
    latency = tracer.summary()["harness.run_trial"]["ms"]
    trials = latency.size
    per_call = trials / len(call_walls)  # every call runs the same number of trials
    # Medians over calls, so that a burst of load from elsewhere on the
    # machine moves few samples.
    metrics = {
        "trials_per_s": (per_call / statistics.median(call_walls), "1/s"),
        "trial_ms_p50": (float(np.percentile(latency, 50)), "ms"),
        "trial_ms_p90": (float(np.percentile(latency, 90)), "ms"),
        "cpu_ms_per_trial": (statistics.median(call_cpus) / per_call * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cells_ok_frac": (1.0 - tally.failed / tally.attempted, "fraction"),
    }
    detail = {
        "trials": trials,
        "latency_samples_beyond_p90": int(np.sum(latency > metrics["trial_ms_p90"][0])),
        "call_walls_s": call_walls,
        "call_cpus_s": call_cpus,
        "setup_samples_s": setup,
        "problems": tally.problems,
    }
    return tally.result(metrics), detail


def per_layer(risce, name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """Alternate untraced and traced reference sweeps for `seconds`, then time the kernels."""
    from kernels import kernel_metrics  # imports risce, so only after import_program

    workload = WORKLOADS[name]
    tally = Tally()
    run_cli(risce, sweep_argv(workload, 1, seed * SEED_STRIDE, OUT / f"{name}-warmup.csv"))

    tracer = Tracer()
    ls_counts = {"calls": 0, "rank_deficient": 0, "flops": 0}

    def count_ls_solve(args, result):
        m, k = args[0].shape
        ls_counts["calls"] += 1
        ls_counts["rank_deficient"] += bool(result[1])
        ls_counts["flops"] += 8 * m * k * k  # computed: leading term of complex Householder QR

    def trial_key(args, kwargs):  # run_sweep calls run_trial(config, trial_index, axis_index=...)
        return kwargs.get("axis_index", 0), args[1]

    untraced_s = traced_s = 0.0
    passes = 0
    while passes < 2 or untraced_s + traced_s < seconds:
        if passes % 2 == 0:
            untraced_s += reference_pass(risce, name, tally)
        else:
            for module, attr, layer in TRACED:
                tracer.wrap(
                    getattr(risce, module),
                    attr,
                    layer,
                    trial_key=trial_key if layer == "harness.run_trial" else None,
                    on_return=count_ls_solve if layer == "numerics.ls_solve" else None,
                )
            try:
                traced_s += reference_pass(risce, name, tally)
            finally:
                tracer.restore()
        passes += 1

    tracer.write(OUT / f"{name}-spans.jsonl")
    summary = tracer.summary()
    trials = summary["harness.run_trial"]["ms"].size
    traced_passes = passes // 2
    untraced_passes = passes - traced_passes

    def calls(layer: str) -> np.ndarray:
        return summary.get(layer, {"ms": np.zeros(0)})["ms"]

    def self_times(layer: str) -> np.ndarray:
        return summary.get(layer, {"self_ms": np.zeros(0)})["self_ms"]

    def median(values: np.ndarray) -> float:  # 0 for a layer the workload never calls
        return float(np.median(values)) if values.size else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        metrics[f"{stage}.ms_p50"] = (median(calls(stage)), "ms")
    for kernel in KERNELS:
        metrics[f"{kernel}.calls"] = (calls(kernel).size / trials, "calls/trial")
        metrics[f"{kernel}.ms_total"] = (float(calls(kernel).sum()) / trials, "ms/trial")
    metrics["numerics.ls_solve.rank_deficient_frac"] = (
        ls_counts["rank_deficient"] / ls_counts["calls"] if ls_counts["calls"] else 0.0,
        "fraction",
    )
    metrics["numerics.ls_solve.flops_computed"] = (ls_counts["flops"] / trials, "flop/trial")
    metrics["harness.nmse_linear.ms_total"] = (
        float(calls("harness.nmse_linear").sum()) / trials,
        "ms/trial",
    )
    metrics["harness.run_trial.self_ms_p50"] = (median(self_times("harness.run_trial")), "ms")
    metrics["harness.emit_results.ms"] = (median(calls("harness.emit_results")), "ms")
    metrics["cli.main.self_ms"] = (median(self_times("cli.main")), "ms")
    for layer in dict.fromkeys(layer for _, _, layer in TRACED):
        metrics[f"{layer}.self_ms_per_trial"] = (
            float(self_times(layer).sum()) / trials,
            "ms/trial",
        )

    traced_rate = trials / traced_s
    untraced_rate = trials / traced_passes * untraced_passes / untraced_s
    metrics["trace.trials_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.trials_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "fraction")
    metrics.update({key: (value, "us") for key, value in kernel_metrics(seed).items()})
    detail = {
        "traced_trials": trials,
        "passes": passes,
        "spans": len(tracer.spans),
        "spans_file": str((OUT / f"{name}-spans.jsonl").relative_to(ROOT)),
        "problems": tally.problems,
    }
    return tally.result(metrics), detail


def write_reference(risce) -> None:
    REFERENCE.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        path = REFERENCE / f"{name}.csv"
        run_cli(risce, sweep_argv(workload, workload.reference_trials, DEFAULT_SEED, path))
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-trials", type=int, default=MIN_TRIALS, help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.min_trials < 1:
        parser.error("--seed and --seconds must be non-negative and --min-trials positive")
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    risce = import_program()
    if args.write_reference:
        write_reference(risce)
        return 0
    OUT.mkdir(exist_ok=True)
    env = environment()
    if args.trace:
        result, detail = per_layer(risce, args.workload, args.seed, args.seconds)
    else:
        result, detail = end_to_end(risce, args.workload, args.seed, args.seconds, args.min_trials)
    result["metrics"] = {
        key: {"value": value, "unit": unit} for key, (value, unit) in result["metrics"].items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "detail": detail,
        **result,
    }
    record_path = OUT / f"{args.workload}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print("environment: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    for problem in detail["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
