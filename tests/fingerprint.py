"""Output fingerprint: one SHA-256 per trial set over every estimator's full results.

Run it in each source tree to compare, from the tree's root:

    PYTHONPATH=src python tests/fingerprint.py [SET ...]

It prints one `SET sha256` line per set, every set when none is named.  The
first three sets are the benchmark's three workloads at their default seed;
the fourth is the noiseless path, which none of those runs:

- canonical: the default scenario at 32 and 128 pilots (axis indices 0 and
  1), trials 0-99 each;
- planar: a 16x16 planar reflector at 64 pilots, trials 0-99;
- oracle_snr: the oracle alone at 64 pilots, -10 to 10 dB in 5 dB steps
  (axis indices 0-4), 10 trials each;
- noiseless: the default scenario at snr_db = +inf, at 32 and 64 pilots
  (axis indices 0 and 1), trials 0-49 each.

Each trial is drawn by harness.draw_trial, inside harness._one_blas_thread()
as run_sweep's trials are.  Per estimator the digest takes its columns, the
bytes of its values, its offsets, row patterns and diagnostics, and its
NMSE's float.hex; an estimator that raises contributes its error message
instead.  Equal lines mean bitwise-equal estimates on those trials.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys

import numpy as np

from risce import harness
from risce.config import ArrayGeometry, SystemConfig
from util import build_trial


def _points(config: SystemConfig, axis_field: str, values, trials: int):
    """(config, axis_index, trial_index) for each trial of a sweep over config.<axis_field>."""
    for axis_index, value in enumerate(values):
        point = dataclasses.replace(config, **{axis_field: value})
        for trial_index in range(trials):
            yield point, axis_index, trial_index


SETS = {
    "canonical": lambda: _points(SystemConfig(), "n_pilots", (32, 128), 100),
    "planar": lambda: _points(
        SystemConfig(geometry=ArrayGeometry.upa(16, 16)), "n_pilots", (64,), 100
    ),
    "oracle_snr": lambda: _points(
        SystemConfig(n_pilots=64, estimators=("oracle_ls",)),
        "snr_db",
        (-10.0, -5.0, 0.0, 5.0, 10.0),
        10,
    ),
    "noiseless": lambda: _points(SystemConfig(snr_db=math.inf), "n_pilots", (32, 64), 50),
}


def _feed(h, value) -> None:
    """Hash a value with its type and shape, so different structures cannot collide."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(f"dict {len(value)}\n".encode())
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, list | tuple):
        h.update(f"seq {len(value)}\n".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(f"float {value.hex()}\n".encode())
    else:
        h.update(f"{type(value).__name__} {value!r}\n".encode())


def digest(points) -> str:
    """SHA-256 over every configured estimator's results on each (config, axis, trial) point."""
    h = hashlib.sha256()
    with harness._one_blas_thread():
        for config, axis_index, trial_index in points:
            _feed(h, (axis_index, trial_index))
            try:
                _, _, truth, _, inp = build_trial(config, trial_index, axis_index)
            except Exception as exc:  # a failed draw is part of the output
                _feed(h, harness._failure(exc))
                continue
            for name in config.estimators:
                _feed(h, name)
                try:
                    report = harness.ESTIMATORS[name](inp, truth)
                    nmse = harness.nmse_linear(*harness._aligned(report, truth))
                except Exception as exc:
                    _feed(h, harness._failure(exc))
                    continue
                _feed(h, [report.cols, report.values, report.offsets, report.row_patterns])
                _feed(h, [report.diagnostics, nmse])
    return h.hexdigest()


def main(argv: list[str]) -> int:
    names = argv or list(SETS)
    unknown = [name for name in names if name not in SETS]
    if unknown:
        print(f"unknown set {unknown[0]!r}; known: {', '.join(SETS)}", file=sys.stderr)
        return 1
    for name in names:
        print(name, digest(SETS[name]()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
