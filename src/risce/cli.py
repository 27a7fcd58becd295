"""Command-line benchmark driver.

Subcommands: sweep-t (NMSE over pilot lengths), sweep-snr (NMSE over SNR), and
single (one configuration point).  Exit codes: 0 success, 1 invalid
configuration, 2 every cell failed at runtime.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ArrayGeometry, SystemConfig
from .harness import emit_results, run_sweep

_CONFIG_KEYS = (
    "n_bs",
    "n_ris",
    "upa",
    "users",
    "bs_paths",
    "ue_paths",
    "pilots",
    "snr_db",
    "noiseless",
    "trials",
    "seed",
    "estimators",
)

# keys whose values pass to SystemConfig unchanged, with the field each one sets
_FIELDS = {
    "n_bs": "n_bs",
    "users": "n_users",
    "bs_paths": "bs_paths",
    "pilots": "n_pilots",
    "snr_db": "snr_db",
    "trials": "trials",
    "seed": "base_seed",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this driver reserves 2 for runtime failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> list[int]:
    return [int(item) for item in text.split(",") if item.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(item) for item in text.split(",") if item.strip()]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_config_file(path: str) -> dict:
    """Flat `key = value` file; '#' starts a comment.  See the README for the schema.

    Returns typed values keyed like the command-line flags, for `_config_kwargs`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    entries: dict = {}
    first_line: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in entries:
            raise ValueError(
                f"{path}:{lineno}: duplicate key {key!r} (first at line {first_line[key]})"
            )
        entries[key], first_line[key] = value, lineno
    if "n_ris" in entries and "upa" in entries:
        raise ValueError(f"{path}: give either n_ris or upa, not both")
    values: dict = {}
    for key in _CONFIG_KEYS:
        if key not in entries:
            continue
        value = entries[key]
        try:
            if key in ("upa", "ue_paths"):
                parts = (value.replace("x", ",") if key == "upa" else value).split(",")
                if len(parts) != 2:
                    form = "'N1xN2' or 'N1,N2'" if key == "upa" else "'MIN,MAX'"
                    raise ValueError(f"must be {form}")
                values[key] = (int(parts[0]), int(parts[1]))
            elif key == "snr_db":
                values[key] = float(value)
            elif key == "noiseless":
                values[key] = _parse_bool(value)
            elif key == "estimators":
                values[key] = value
            else:
                values[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"{path}: {key}: {exc}") from exc
    return values


def _config_kwargs(values: dict) -> dict:
    """SystemConfig keyword arguments from flag-keyed values; None or a missing key means unset."""
    kwargs = {field: values[key] for key, field in _FIELDS.items() if values.get(key) is not None}
    if values.get("n_ris") is not None:
        kwargs["geometry"] = ArrayGeometry.ula(values["n_ris"])
    if values.get("upa") is not None:
        kwargs["geometry"] = ArrayGeometry.upa(*values["upa"])
    if values.get("ue_paths") is not None:
        kwargs["ue_paths"] = tuple(values["ue_paths"])
    if values.get("noiseless"):
        kwargs["snr_db"] = None
    if values.get("estimators") is not None:
        kwargs["estimators"] = tuple(
            name.strip() for name in values["estimators"].split(",") if name.strip()
        )
    return kwargs


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument("--n-bs", type=int, help="BS antenna count")
    parser.add_argument("--n-ris", type=int, help="reflector element count (linear layout)")
    parser.add_argument(
        "--upa", type=int, nargs=2, metavar=("N1", "N2"), help="planar reflector layout"
    )
    parser.add_argument("--users", type=int, help="number of single-antenna users")
    parser.add_argument("--bs-paths", type=int, help="reflector-to-BS path count")
    parser.add_argument(
        "--ue-paths", type=int, nargs=2, metavar=("MIN", "MAX"), help="per-user path count range"
    )
    parser.add_argument("--pilots", type=int, help="pilot length")
    parser.add_argument("--snr-db", type=float, help="operating SNR in dB")
    parser.add_argument("--noiseless", action="store_true", help="disable measurement noise")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per axis point")
    parser.add_argument("--seed", type=int, help="base seed for the trial streams")
    parser.add_argument("--estimators", help="comma-separated estimator names")
    parser.add_argument("--out", metavar="FILE", help="write results as CSV")


def build_parser() -> _Parser:
    parser = _Parser(prog="risce", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    sweep_t = subparsers.add_parser("sweep-t", help="sweep the pilot length")
    sweep_t.add_argument("--values", type=_csv_ints, default=[16, 32, 64, 128])
    _add_common_options(sweep_t)
    sweep_snr = subparsers.add_parser("sweep-snr", help="sweep the SNR")
    sweep_snr.add_argument("--values", type=_csv_floats, default=[-10.0, -5.0, 0.0, 5.0, 10.0])
    _add_common_options(sweep_snr)
    single = subparsers.add_parser("single", help="run one configuration point")
    _add_common_options(single)
    return parser


def _resolve_config(args: argparse.Namespace) -> SystemConfig:
    """File entries first, then flags, so a flag overrides the file."""
    kwargs = _config_kwargs(_parse_config_file(args.config)) if args.config else {}
    if args.n_ris is not None and args.upa is not None:
        raise ValueError("give either --n-ris or --upa, not both")
    kwargs.update(_config_kwargs({key: getattr(args, key) for key in _CONFIG_KEYS}))
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "sweep-t":
        axis, values = "pilot_length", args.values
    elif args.command == "sweep-snr":
        axis, values = "snr", args.values
    else:
        axis, values = "pilot_length", [config.n_pilots]
    if not values:
        print("error: no axis values given", file=sys.stderr)
        return 1

    try:
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
