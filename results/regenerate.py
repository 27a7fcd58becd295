"""Re-run the committed sweeps and compare their CSVs byte for byte.

Reads every `risce ... --out results/FILE.csv` command from results/README.md,
runs it from the repository root with `python3 -m risce.cli` and `src` on the
import path, writing into a temporary directory, and compares each output with
the committed file.  Prints one line per file and exits 1 if any differs (with
the first differing lines) or a command fails.  Needs only the standard
library and the package's own dependencies:

    python3 results/regenerate.py
"""

from __future__ import annotations

import difflib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

RESULTS = Path(__file__).resolve().parent
ROOT = RESULTS.parent
COMMAND = re.compile(r"`risce (.+? --out results/(\S+\.csv))`")


def commands() -> list[tuple[list[str], str]]:
    """(cli arguments, committed file name) for each command the README lists."""
    found = [
        (shlex.split(match.group(1)), match.group(2))
        for match in COMMAND.finditer((RESULTS / "README.md").read_text())
    ]
    if not found:
        raise SystemExit("no `risce ... --out results/FILE.csv` command in results/README.md")
    return found


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for args, name in commands():
            out = Path(tmp) / name
            args[args.index("--out") + 1] = str(out)
            run = subprocess.run(
                [sys.executable, "-m", "risce.cli", *args],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            if run.returncode != 0:
                print(f"{name}: command failed with exit code {run.returncode}\n{run.stderr}")
                failed = True
                continue
            committed = (RESULTS / name).read_bytes()
            if out.read_bytes() == committed:
                print(f"{name}: identical")
                continue
            failed = True
            print(f"{name}: differs from the committed file")
            diff = difflib.unified_diff(
                committed.decode().splitlines(), out.read_text().splitlines(),
                f"committed/{name}", f"regenerated/{name}", lineterm="",
            )
            print("\n".join(list(diff)[:40]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
