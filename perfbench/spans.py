"""In-memory spans recorded around the program's public functions.

A `Tracer` replaces a function at the module binding its caller resolves (for
example ``risce.harness.generate_channels``, which ``run_trial`` looks up in
its own module globals) with a wrapper that records one span per call: name,
start, end, parent span and the trial key ``(axis_index, trial_index)``.
Spans stay in memory until `write` is called, and `restore` puts every
original binding back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Owns the installed wrappers and the spans they record."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, trial key or None].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._trial: tuple[int, int] | None = None
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, trial_key=None, on_return=None) -> None:
        """Record a span named `name` around every call of `module.attr`.

        `trial_key(args, kwargs)` marks the function as the per-trial root and
        returns the key its descendants carry; `on_return(args, result)` sees
        each call's arguments and result, for counters kept at the boundary.
        """
        original = getattr(module, attr)
        spans, open_stack = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            outer_trial = self._trial
            if trial_key is not None:
                self._trial = trial_key(args, kwargs)
            span = [name, 0.0, 0.0, open_stack[-1] if open_stack else -1, self._trial]
            open_stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                open_stack.pop()
                self._trial = outer_trial
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put back every binding `wrap` replaced, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: inclusive and self durations, in ms, of every call.

        A span's self time is its duration minus the durations of its direct
        children; wrapped functions never overlap their siblings in this
        single-threaded program, so children tile disjoint parts of the parent.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, list[float]] = defaultdict(list)
        exclusive: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name].append(end - start)
            exclusive[name].append(end - start - child_time[index])
        return {
            name: {
                "ms": np.asarray(inclusive[name]) * 1e3,
                "self_ms": np.asarray(exclusive[name]) * 1e3,
            }
            for name in inclusive
        }

    def write(self, path: Path) -> None:
        """Write one JSON line per span; times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, trial) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                    "parent": parent,
                    "trial": list(trial) if trial is not None else None,
                }
                out.write(json.dumps(record) + "\n")
