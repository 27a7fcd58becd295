"""README matches the code and results/: flags, config keys, package layout, pilot overhead,
the regenerate commands, and every package name it quotes."""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from risce.cli import _OPTIONS, build_parser
from util import load_results

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(start: str, end: str) -> str:
    """README from the line that starts with start up to the next line that starts with end."""
    head = README.index("\n" + start) + 1
    return README[head : README.index("\n" + end, head)]


def _parser_flags() -> dict[str, set[str]]:
    """Each subcommand's long flags, without --help."""
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: {
            flag
            for action in parser._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, parser in subparsers.choices.items()
    }


def test_flag_table_lists_exactly_the_parser_flags():
    table = _section("| flag |", "\n")  # up to the blank line after the table
    readme = set(re.findall(r"^\| `(--[a-z-]+)", table, flags=re.MULTILINE))
    flags = _parser_flags()
    assert readme == flags["single"]
    # the sweeps add only --values, which the README documents above the table
    assert flags["sweep-t"] == flags["sweep-snr"] == readme | {"--values"}


def test_config_key_list_names_exactly_the_option_table():
    text = _section("Keys:", "Command-line flags override")
    assert set(re.findall(r"`([a-z][a-z0-9_]*)`", text)) == set(_OPTIONS)


def test_package_layout_names_exactly_the_modules():
    block = _section("## Package layout", "tests/")
    listed = re.findall(r"^  ([a-z_]+)\.py ", block, flags=re.MULTILINE)
    modules = {path.stem for path in (ROOT / "src" / "risce").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)


def test_pilot_overhead_table_matches_the_committed_sweeps():
    files = {
        "ULA 128": "nmse_vs_pilots_ula128.csv",
        "UPA 16x16": "nmse_vs_pilots_upa16x16.csv",
    }
    table = _section("| reflector |", "\n")
    header, _, *lines = table.strip().splitlines()
    estimators = [cell.strip() for cell in header.strip("|").split("|")[2:]]
    readme = {}
    for line in lines:
        reflector, threshold, *pilots = [cell.strip() for cell in line.strip("|").split("|")]
        readme[(reflector, float(threshold.removesuffix(" dB")))] = dict(zip(estimators, pilots))
    expected = {}
    for reflector, name in files.items():
        rows = load_results(ROOT / "results" / name)  # ascending pilot length
        assert {row["trials"] for row in rows} == {100}
        for threshold in (-15.0, -20.0):
            reached = [row for row in rows if row["nmse_db"] <= threshold]
            expected[(reflector, threshold)] = {
                estimator: str(min(row["axis"] for row in reached if row["estimator"] == estimator))
                for estimator in estimators
            }
    assert readme == expected


def test_seed_table_matches_the_committed_canonical_sweeps():
    order = ("oracle_ls", "triple_structured", "row_structured", "conventional_omp")
    _, _, *lines = _section("| seed |", "\n").splitlines()
    readme = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    expected, failing = [], []
    for seed in range(6):
        rows = load_results(ROOT / "results" / f"canonical_seed{seed}.csv")
        assert {row["trials"] for row in rows} == {100}
        mean = {(row["axis"], row["estimator"]): row["nmse_db"] for row in rows}
        gaps = [mean[(t, "triple_structured")] - mean[(t, "oracle_ls")] for t in (32, 128)]
        ordered = [
            all(mean[(t, a)] <= mean[(t, b)] for a, b in zip(order, order[1:])) for t in (32, 128)
        ]
        failing += [f"seed {seed} at {t} pilots" for t, ok in zip((32, 128), ordered) if not ok]
        advantage = mean[(32, "conventional_omp")] - mean[(32, "triple_structured")]
        expected.append(
            [str(seed), f"{gaps[0]:.3f}", *("holds" if ok else "fails" for ok in ordered),
             f"{advantage:.2f}", f"{gaps[1]:.3f}"]
        )
    assert readme == expected
    listed = _section("- A1: seed", "\n")  # the worst seed per claim, listed under the table
    a1 = max(expected, key=lambda row: float(row[1]))
    assert f"- A1: seed {a1[0]}, a gap of {a1[1]} dB" in listed
    advantage = min(expected, key=lambda row: float(row[4]))
    assert f"- A3 advantage: seed {advantage[0]}, {advantage[4]} dB" in listed
    gap128 = max(expected, key=lambda row: float(row[5]))
    assert f"- Gap at 128 pilots (not asserted): seed {gap128[0]}, {gap128[5]} dB" in listed
    assert re.findall(r"seed \d+ at \d+ pilots", listed) == failing


def test_snr_table_matches_the_committed_snr_sweeps():
    files = {
        "ULA 128, 32 pilots": "nmse_vs_snr_ula128_t32.csv",
        "UPA 16x16, 64 pilots": "nmse_vs_snr_upa16x16_t64.csv",
    }
    _, _, *lines = _section("| reflector, pilots |", "\n").splitlines()
    readme = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    expected = []
    for reflector, name in files.items():
        rows = load_results(ROOT / "results" / name)
        assert {row["trials"] for row in rows} == {100}
        at_20 = {row["estimator"]: row["nmse_db"] for row in rows if row["axis"] == 20.0}
        expected += [
            [reflector, estimator, f"{nmse:.2f}", f"{nmse - at_20['oracle_ls']:.2f}"]
            for estimator, nmse in at_20.items()
        ]
    assert readme == expected


def test_regenerate_commands_name_each_committed_csv_once():
    # loads results/regenerate.py and reads its command list; no sweep runs
    spec = importlib.util.spec_from_file_location("regenerate", ROOT / "results" / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    named = [name for _, name in regenerate.commands()]
    committed = sorted(path.name for path in (ROOT / "results").glob("*.csv"))
    assert sorted(named) == committed


def _resolves(name: str, modules: dict, classes: dict) -> bool:
    """Whether a dotted name is a module attribute, a class attribute or a dataclass field."""
    head, *rest = name.removeprefix("risce.").split(".")
    obj = modules.get(head) or classes.get(head)
    if obj is None:
        return False
    for i, attr in enumerate(rest):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
            continue
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        return attr in fields and i == len(rest) - 1  # a field without a class-level default
    return True


def test_quoted_package_names_resolve():
    # a quoted dotted name is the package's when it starts with risce, a module of the
    # package or a CamelCase class name, as in `sensing.extract_ground_truth`, `GroundTruth.H`
    modules = {
        path.stem: importlib.import_module(f"risce.{path.stem}")
        for path in (ROOT / "src" / "risce").glob("*.py")
        if path.stem != "__init__"
    }
    classes = {
        name: cls
        for module in modules.values()
        for name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    }
    quoted = re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\(\))?`", README)
    names = sorted(
        {
            name
            for name in quoted
            if name.split(".")[0] in {"risce", *modules}
            or re.fullmatch(r"[A-Z][a-z0-9]+[A-Z]\w*", name.split(".")[0])
        }
    )
    assert "CellStats.failure_reasons" in names and "sensing.extract_ground_truth" in names
    missing = [name for name in names if not _resolves(name, modules, classes)]
    assert not missing, f"README quotes names the package does not have: {missing}"
