"""The beamspace channels of a trial are column blocks: the occupied BS-beam columns only.

The truth is values (users x N x C) over the shared columns col_support, and
every estimate is values (users x N x C) over cols (users x C): user k's
channel is values[k] at the BS beams cols[k] and zero elsewhere.  A trial
builds, measures and scores every channel over those columns; the dense
users x N x n_bs truth GroundTruth.H is built on first read, and the trial
never reads it, nor the dense reference model, which lives with the tests
(reference.py) and which no package module imports.  These checks hold the
column-block path to the dense definitions.
"""

import ast
import dataclasses
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import reference
import risce
from risce.config import ArrayGeometry, SystemConfig
from risce.estimators import joint_column_support
from risce.harness import ESTIMATORS, nmse_linear, run_trial
from risce.sensing import GroundTruth
from util import build_trial, dense

CANONICAL = SystemConfig()  # 128-element linear reflector, 32 pilots
PLANAR = SystemConfig(geometry=ArrayGeometry.upa(16, 16), n_pilots=64)
ONE_COLUMN = SystemConfig(bs_paths=1)
CONFIGS = {"canonical": CANONICAL, "upa-16x16": PLANAR, "one-column": ONE_COLUMN}
# trial 5 of the canonical and planar draws has users whose own top-power
# columns (conventional_omp) differ from the shared support
TRIALS = (0, 5)


@pytest.mark.parametrize("config", [CANONICAL, PLANAR], ids=["ula-128", "upa-16x16"])
def test_trial_reads_no_dense_view(config, monkeypatch):
    def refuse(self):
        raise AssertionError("a dense view was built on the trial path")

    monkeypatch.setattr(GroundTruth, "H", property(refuse))
    patched = set()
    for name, fn in inspect.getmembers(reference, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != reference.__name__:
            continue

        def refuse_call(*args, _name=name, **kwargs):
            raise AssertionError(f"reference.{_name} was called on the trial path")

        # every module that binds the function, the package and the test modules included
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(name) is fn:
                monkeypatch.setattr(module, name, refuse_call)
                patched.add((module.__name__, name))
    assert {name for module, name in patched if module == "reference"} == {
        "beamspace_cascaded", "cascade_spatial", "dense_channels", "dft_matrix",
        "grid_sine", "ris_steering", "steering_ula", "steering_upa",
    }
    assert not [module for module, _ in patched if module.split(".")[0] == "risce"]
    result = run_trial(config, trial_index=0)
    assert result.errors == {}
    assert set(result.nmse_lin) == set(config.estimators)


def test_only_the_package_imports_the_reference_model():
    # an FFT here would make the dense-transform checks compare the trial path with itself
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "fft"], "reference.py uses np.fft"
    # the reference model lives with the tests: no package module, __init__ included, imports it
    for path in sorted(Path(risce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not [n for n in names if "reference" in n.split(".")], path.name


def test_every_package_module_is_reached_from_the_cli():
    # a module only tests use, as the dense reference model, belongs with the tests
    package = Path(risce.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    reached, queue = set(), ["cli"]
    while queue:
        stem = queue.pop()
        if stem not in modules or stem in reached:
            continue
        reached.add(stem)
        for node in ast.walk(ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):  # from .x import y, from . import x, from risce.x
                module = ".".join(filter(None, ["risce" if node.level else "", node.module]))
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            queue += [name.split(".")[1] for name in names if name.startswith("risce.")]
    assert modules - reached == set()


def test_trial_nmse_equals_dense_nmse():
    differing_users = 0
    for config in CONFIGS.values():
        for trial in TRIALS:
            result = run_trial(config, trial_index=trial)
            _, _, truth, _, inp = build_trial(config, trial)
            for name in config.estimators:
                report = ESTIMATORS[name](inp, truth)
                H_hat = dense(report.cols, report.values, config.n_bs)
                npt.assert_allclose(
                    result.nmse_lin[name], nmse_linear(H_hat, truth.H), rtol=1e-12, atol=0
                )
                if name == "conventional_omp":
                    differing_users += int(np.any(report.cols != truth.col_support, axis=1).sum())
    assert differing_users > 0


@pytest.mark.parametrize("case", list(CONFIGS))
def test_dense_views_are_the_blocks_zero_filled(case):
    config = CONFIGS[case]
    truth = build_trial(config, trial_index=5)[2]
    H = truth.H
    assert H.shape == (config.n_users, config.geometry.n_elements, config.n_bs)
    assert not H.flags.writeable
    outside = np.setdiff1d(np.arange(config.n_bs), truth.col_support)
    assert not H[:, :, outside].any()
    assert H[:, :, truth.col_support].tobytes() == truth.values.tobytes()
    assert H.tobytes() == dense(truth.col_support, truth.values, config.n_bs).tobytes()


@pytest.mark.parametrize("case", list(CONFIGS))
def test_blocks_are_views_of_one_user_stack(case):
    # users are the leading axis of one array for the truth and for every estimate
    config = CONFIGS[case]
    _, _, truth, _, inp = build_trial(config, trial_index=5)
    shape = (config.n_users, config.geometry.n_elements, config.bs_paths)
    assert truth.values.shape == shape
    assert truth.col_support.shape == (config.bs_paths,)
    # the structured estimator, the row baseline and the oracle share one support across users
    shared = {
        "triple_structured": joint_column_support(inp.Y, config.bs_paths),
        "row_structured": joint_column_support(inp.Y, config.bs_paths),
        "oracle_ls": truth.col_support,
    }
    for name in config.estimators:
        report = ESTIMATORS[name](inp, truth)
        assert report.values.shape == shape, name
        assert report.cols.shape == (config.n_users, config.bs_paths), name
        assert np.all(np.diff(report.cols, axis=1) > 0), name
        npt.assert_array_equal(report.col_support, np.unique(report.cols))
        if name in shared:
            assert (report.cols == shared[name]).all(), name


@pytest.mark.parametrize("case", ["one-column", "upa-16x16"])
def test_noiseless_measurements_match_the_dense_product(case):
    # the block product need not be bitwise the full one: with one column
    # numpy multiplies by a matrix-vector kernel instead
    config = dataclasses.replace(CONFIGS[case], snr_db=math.inf)
    _, setup, truth, meas, _ = build_trial(config)
    for Y_k, H_k in zip(meas.Y, truth.H, strict=True):
        npt.assert_allclose(Y_k, setup.sensing_matrix @ H_k, rtol=0, atol=1e-13)
