"""In-memory spans and counters for the benchmark's replay pass.

A span records a name, start, end, the span that encloses it, the
post-processing call it belongs to and the repetition it ran in. Spans are
only taken around the benchmark's own calls into the package; nothing
inside the package is instrumented. With tracing off, ``span`` does no
timing and keeps nothing, while counters are still kept, so both passes
report the same deterministic counts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index, call id, repetition]
        self.counters = [defaultdict(int)]  # one dict per repetition
        self._stack = []
        self._call = None
        self._calls = 0

    @property
    def rep(self) -> int:
        return len(self.counters) - 1

    def next_repetition(self):
        self.counters.append(defaultdict(int))

    def count(self, name: str, value=1):
        self.counters[-1][name] += value

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._call, self.rep]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def call(self, name: str):
        """Span one post-processing call under a fresh call identifier."""
        outer = self._call
        self._calls += 1
        self._call = self._calls
        try:
            with self.span(name):
                yield
        finally:
            self._call = outer

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def maximum(self, name: str, value):
        self.counters[-1][name] = max(self.counters[-1].get(name, value), value)

    def times_by_rep(self, modules):
        """Seconds per repetition: {"<span>": busy, "<span>.self": self,
        "<module>.self": self time of every span of that module}."""
        reps = len(self.counters)
        out = defaultdict(lambda: [0.0] * reps)
        for (name, start, end, _, _, rep), own in zip(self.spans, self.self_times()):
            out[name][rep] += end - start
            out[name + ".self"][rep] += own
            module = name.split(".", 1)[0]
            if module in modules:
                out[module + ".self"][rep] += own
        return out

    def call_durations(self, name: str):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
