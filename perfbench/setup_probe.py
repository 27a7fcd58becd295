"""Child process for the set-up measurement.

Run as ``python3 setup_probe.py <risce CLI arguments>``.  It imports the
program, lets ``risce.cli.main`` parse and validate the arguments, and stops at
the first call of ``run_trial``, printing the monotonic clock at that moment.
The parent reads the clock before starting this process, so the difference is
the time from process start until the first trial can start.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import risce.cli  # noqa: E402
import risce.harness  # noqa: E402


class FirstTrial(Exception):
    """Raised at the first trial to end the run there."""


def _stop(*args, **kwargs):
    raise FirstTrial(time.monotonic())


def main() -> int:
    risce.harness.run_trial = _stop
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = risce.cli.main(sys.argv[1:])
    except FirstTrial as reached:
        print(repr(reached.args[0]))
        return 0
    print(f"error: the program exited with code {code} before its first trial", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
