"""README's option lists match the command line: the flag table and the config-file keys."""

import argparse
import re
from pathlib import Path

from risce.cli import _OPTIONS, build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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
