"""The benchmark under perfbench/ binds to program names by string and by import.

These checks read those files without running or changing them, so a cleanup
that removes a name the benchmark still wraps or imports fails here, in the
main suite, rather than only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_bindings() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/run.py defines no TRACED table")


def _kernel_imports() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "kernels.py").read_text(encoding="utf-8"))
    return [
        (node.module.removeprefix("risce."), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("risce.")
        for alias in node.names
    ]


@pytest.mark.parametrize("source", ["run.py TRACED", "kernels.py imports"])
def test_benchmark_bindings_resolve(source):
    bindings = _traced_bindings() if source.startswith("run.py") else _kernel_imports()
    assert bindings
    missing = [
        f"risce.{module}.{attr}"
        for module, attr in bindings
        if not hasattr(importlib.import_module(f"risce.{module}"), attr)
    ]
    assert not missing, f"perfbench/{source} names missing from the program: {missing}"


def test_kernel_inputs_resolve(monkeypatch):
    """kernel_metrics reads each trial attribute it times its kernels on.

    It draws the canonical and the 16x16 planar trial and reads the realization,
    the sensing setup, the truth (dense H, supports, patterns, offsets) and the
    measurements; with per_call_us replaced by one untimed call per kernel,
    every read and every kernel call runs once.
    """
    spec = importlib.util.spec_from_file_location("perfbench_kernels", PERFBENCH / "kernels.py")
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    monkeypatch.setattr(kernels, "per_call_us", lambda fn: (fn(), 0.0)[1])
    metrics = kernels.kernel_metrics(0)
    names = ("coarse_omp", "offset_structured_somp", "ls_solve", "circ_xcorr_1d", "circ_xcorr_2d")
    assert sorted(metrics) == sorted(f"micro.{name}.us" for name in names)
