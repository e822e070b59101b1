"""Spans and counters recorded by the benchmark around its own calls into
`graceful`.  Nothing here reaches inside the library.

A span is (name, start, end, parent, op): name is `<layer>.<function>`,
parent the index of the enclosing operation span (None for set-up and CLI
spans, which belong to no operation) and op the operation id.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list = []
        self.counts: Counter = Counter()
        self._parent: int | None = None
        self._op: int | None = None

    def call(self, name: str, fn, *args):
        """fn(*args), timed as span `name` when tracing."""
        if not self.traced:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self._parent, self._op))

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def begin_op(self, op: int) -> float:
        """Open operation span `op`; counts restart for the operation."""
        self.counts = Counter()
        self._op = op
        if self.traced:
            self._parent = len(self.spans)
            self.spans.append(None)
        return time.perf_counter()

    def end_op(self, name: str, start: float) -> float:
        end = time.perf_counter()
        if self.traced:
            self.spans[self._parent] = (name, start, end, None, self._op)
        self._parent = self._op = None
        return end - start

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Busy and self seconds per layer and per span name, split into spans
    inside operations and spans outside them.  Self time is a span's duration
    minus the part its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        scope = "in_op" if op is not None else "outside"
        layer = name.split(".", 1)[0]
        for key, value in ((f"{layer}.busy", end - start),
                           (f"{layer}.self", end - start - child[i]),
                           (name, end - start)):
            table = out.setdefault(key, {"in_op": 0.0, "outside": 0.0})
            table[scope] += value
    return out
