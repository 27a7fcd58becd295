"""The benchmark under perfbench/ binds to program names by string and by import.

These checks read those files without running or changing them, so a cleanup
that removes a name the benchmark still wraps or imports fails here, in the
main suite, rather than only when the benchmark runs.
"""

import ast
import importlib
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
