"""Command-line benchmark driver.

Subcommands: sweep-t (NMSE over pilot lengths), sweep-snr (NMSE over SNR), and
single (one configuration point).  Exit codes: 0 success, 1 invalid
configuration, 2 every cell failed at runtime.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .config import ArrayGeometry, SystemConfig
from .harness import emit_results, run_sweep


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this driver reserves 2 for runtime failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> list[int]:
    return [int(item) for item in text.split(",") if item.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(item) for item in text.split(",") if item.strip()]


def _int_pair(text: str, form: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"must be {form}")
    return int(parts[0]), int(parts[1])


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


class _Option(NamedTuple):
    """A scenario option: file key `key` and flag `--key-with-dashes` set one SystemConfig field."""

    field: str
    parse: Callable[[str], object]  # a config-file value -> the value the flag gives
    flag: dict  # argparse keywords
    to_field: Callable = lambda value: value  # that value -> the field's value


# file-parsing and help order
_OPTIONS = {
    "n_bs": _Option("n_bs", int, dict(type=int, help="BS antenna count")),
    "n_ris": _Option(
        "geometry",
        int,
        dict(type=int, help="reflector element count (linear layout)"),
        ArrayGeometry.ula,
    ),
    "upa": _Option(
        "geometry",
        lambda text: _int_pair(text.replace("x", ","), "'N1xN2' or 'N1,N2'"),
        dict(type=int, nargs=2, metavar=("N1", "N2"), help="planar reflector layout"),
        lambda pair: ArrayGeometry.upa(*pair),
    ),
    "users": _Option("n_users", int, dict(type=int, help="number of single-antenna users")),
    "bs_paths": _Option("bs_paths", int, dict(type=int, help="reflector-to-BS path count")),
    "ue_paths": _Option(
        "ue_paths",
        lambda text: _int_pair(text, "'MIN,MAX'"),
        dict(type=int, nargs=2, metavar=("MIN", "MAX"), help="per-user path count range"),
        tuple,
    ),
    "pilots": _Option("n_pilots", int, dict(type=int, help="pilot length")),
    "snr_db": _Option("snr_db", float, dict(type=float, help="operating SNR in dB; inf: no noise")),
    "trials": _Option("trials", int, dict(type=int, help="Monte Carlo trials per axis point")),
    "seed": _Option("base_seed", int, dict(type=int, help="base seed for the trial streams")),
    "estimators": _Option("estimators", str, dict(help="comma-separated estimator names"), _names),
}


def _parse_config_file(path: str) -> dict:
    """Flat `key = value` UTF-8 file, with or without a byte-order mark; '#' starts a comment.

    See the README for the schema.  Returns typed values keyed like the
    command-line flags, for `_config_kwargs`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    entries: dict = {}  # key -> (line number, value)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            first = entries[key][0]
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} (first at line {first})")
        entries[key] = lineno, value
    if "n_ris" in entries and "upa" in entries:
        raise ValueError(f"{path}: give either n_ris or upa, not both")
    values: dict = {}
    for key in sorted(entries, key=list(_OPTIONS).index):  # the first bad value in table order
        try:
            values[key] = _OPTIONS[key].parse(entries[key][1])
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc
    return values


def _config_kwargs(values: dict) -> dict:
    """SystemConfig keyword arguments from flag-keyed values; None or a missing key means unset."""
    kwargs = {}
    for key, option in _OPTIONS.items():
        if values.get(key) is not None:
            kwargs[option.field] = option.to_field(values[key])
    return kwargs


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    for key, option in _OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), **option.flag)
    parser.add_argument("--out", metavar="FILE", help="write results as CSV")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged.

    The default axis values are tuples, so no call can change another's defaults.
    """
    parser = _Parser(prog="risce", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    sweep_t = subparsers.add_parser("sweep-t", help="sweep the pilot length")
    sweep_t.add_argument("--values", type=_csv_ints, default=(16, 32, 64, 128))
    _add_common_options(sweep_t)
    sweep_snr = subparsers.add_parser("sweep-snr", help="sweep the SNR")
    sweep_snr.add_argument("--values", type=_csv_floats, default=(-10.0, -5.0, 0.0, 5.0, 10.0))
    _add_common_options(sweep_snr)
    single = subparsers.add_parser("single", help="run one configuration point")
    _add_common_options(single)
    return parser


def _resolve_config(args: argparse.Namespace) -> SystemConfig:
    """File entries first, then flags, so a flag overrides the file."""
    kwargs = _config_kwargs(_parse_config_file(args.config)) if args.config else {}
    if args.n_ris is not None and args.upa is not None:
        raise ValueError("give either --n-ris or --upa, not both")
    kwargs.update(_config_kwargs({key: getattr(args, key) for key in _OPTIONS}))
    return SystemConfig(**kwargs)


def _print_summary(result) -> None:
    width = max(len(name) for name in result.estimators)
    for value in result.values:
        for name in result.estimators:
            cell = result.cells[(value, name)]
            if cell.mean_db is None:
                line = f"axis={value:<8} {name:<{width}}  error ({cell.n_failed} failures)"
            else:
                line = (
                    f"axis={value:<8} {name:<{width}}  {cell.mean_db:8.2f} dB"
                    f"  +/- {cell.stderr_db:.2f}  trials {cell.n_trials}"
                )
            print(line)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        axis = "snr" if args.command == "sweep-snr" else "pilot_length"
        values = [config.n_pilots] if args.command == "single" else args.values
        result = run_sweep(config, axis, values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _print_summary(result)
    if args.out:
        try:
            emit_results(result, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    if all(cell.n_trials == 0 for cell in result.cells.values()):
        print("error: every cell failed at runtime", file=sys.stderr)
        return 2
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
