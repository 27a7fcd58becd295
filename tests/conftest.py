"""Session fixtures shared across test modules, and the acceptance summary hook."""

import dataclasses

import pytest

from risce.config import SystemConfig
from risce.harness import ESTIMATORS, _aligned, _one_blas_thread, nmse_linear

CANONICAL_PILOTS = (32, 128)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Re-emit the acceptance pass/fail lines where they survive output capture."""
    import util

    if util.ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in util.ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def canonical_trials():
    """The 200 canonical trials, run once for the golden test and the acceptance checks.

    Default scenario, base seed 0, pilot lengths 32 and 128 (axis indices 0
    and 1, as run_sweep orders them), trials 0-99 of each.  Returns
    {pilots: {estimator: [(structure digest, linear NMSE) per trial]}}, with
    None in place of the pair where the estimator raised, the case run_trial
    counts as a failure.
    """
    from util import build_trial, structure_digest

    out: dict = {}
    # at one OpenBLAS thread, as run_sweep runs its trials; the count is restored after
    with _one_blas_thread():
        for axis_index, pilots in enumerate(CANONICAL_PILOTS):
            config = dataclasses.replace(SystemConfig(), n_pilots=pilots)
            cells: dict = {name: [] for name in config.estimators}
            for trial in range(config.trials):
                _, _, truth, _, inp = build_trial(config, trial, axis_index=axis_index)
                for name in config.estimators:
                    try:
                        report = ESTIMATORS[name](inp, truth)
                        record = (
                            structure_digest(report, inp),
                            nmse_linear(*_aligned(report, truth)),
                        )
                    except Exception:
                        record = None
                    cells[name].append(record)
            out[pilots] = cells
    return out
