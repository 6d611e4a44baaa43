"""Spans recorded around the benchmark's calls into gwentropy.

A span is (name, start, end, parent, op): start and end are perf_counter
seconds, parent is the index of the enclosing span (-1 at top level) and op
is the closed-loop operation the span belongs to, so all spans of one
operation share it.  Spans stay in memory until `write` at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Stand-in for untraced runs: every span is a shared no-op context."""

    op = 0
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
