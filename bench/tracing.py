"""Spans and failure counts around public library calls, kept in memory.

The benchmark records spans from its own code, around each call into the
library; nothing inside the library is instrumented.  A span is the tuple
``(span id, parent id, name, start ns, end ns, operation id, label)``.  The
operation id is the id of the case span (one input instance) that caused
the call, so every call made for one instance shares it.  Names group spans
into layers; the label says which instance a harness span covers.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import count
from time import perf_counter_ns


class Recorder:
    """Runs public calls for one pass, counting attempts and failures.

    With ``traced`` false it records no spans, so untraced passes pay only
    the call and exception bookkeeping.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = []
        self.attempted = 0
        self.failures = {}  # operation index -> first reason it failed
        self._ids = count()
        self._stack = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @contextmanager
    def span(self, name: str, label: str = ""):
        """A span around harness code: a pass, or one input instance."""
        if not self.traced:
            yield
            return
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end,
                               self._operation(span_id), label))

    def _operation(self, default):
        # the case span is the second level: pass, then input instance
        return self._stack[1] if len(self._stack) > 1 else default

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` and return ``(operation index, result)``.

        An exception counts as a failed operation and gives the result None.
        The index lets a later output check charge a mismatch to the call.
        """
        op = self.attempted
        self.attempted += 1
        start = perf_counter_ns() if self.traced else 0
        try:
            return op, fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.fail(op, f"{name} raised {type(exc).__name__}: {exc}")
            return op, None
        finally:
            if self.traced:
                end = perf_counter_ns()
                span_id = next(self._ids)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append((span_id, parent, name, start, end,
                                   self._operation(parent), ""))

    def fail(self, op: int, reason: str):
        self.failures.setdefault(op, reason)

    def check(self, op: int, ok: bool, what: str):
        if not ok:
            self.fail(op, f"mismatch: {what}")

    def layer_summary(self) -> dict:
        """Per span name: calls, busy time, self time and latency percentiles.

        Self time is a span's duration minus the time its child spans cover;
        calls into the library are leaves, so their self time is their busy
        time.
        """
        child_ns = {}
        for _, parent, _, start, end, _, _ in self.spans:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        durations, self_ns = {}, {}
        for span_id, _, name, start, end, _, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns.get(span_id, 0)
        summary = {}
        for name in sorted(durations):
            ds = sorted(durations[name])
            summary[name] = {
                "calls": len(ds),
                "busy_s": sum(ds) / 1e9,
                "self_s": self_ns[name] / 1e9,
                "p50_us": _nearest_rank(ds, 0.50) / 1e3,
                "p99_us": _nearest_rank(ds, 0.99) / 1e3,
            }
        return summary

    def write_spans(self, path):
        """Write spans as JSON lines, times relative to the earliest start."""
        origin = min((s[3] for s in self.spans), default=0)
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, op, label in sorted(self.spans):
                fh.write(json.dumps([span_id, parent, name, start - origin,
                                     end - origin, op, label]) + "\n")


def _nearest_rank(sorted_values: list, q: float):
    if not sorted_values:
        return 0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
