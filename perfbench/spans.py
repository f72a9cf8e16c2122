"""Span recording for the traced benchmark run.

A span is (name, start, end, parent, op): the parent is the index of the
enclosing span, or -1, and op is the id of the op it belongs to.  Spans are
kept in memory and written out once, when the run ends.  A span's self time
is its duration minus the durations of its direct children.

The benchmark times the library from outside: each span wraps one call into
a public function of one module, named `<module>.<function>`.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class NullTracer:
    """Untraced runs: calls go straight through."""

    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass

    def fail(self, name):
        pass


class Tracer(NullTracer):
    on = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = -1

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, _now(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, _now(), parent, op)

    @contextmanager
    def span(self, name: str, op: int):
        """A root span, such as one whole op."""
        self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def call(self, name, fn, *args, **kwargs):
        self.calls[name] += 1
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name] += 1
            raise
        finally:
            self._close(idx)

    def batch(self, name, fn, arg_tuples) -> list:
        """One span over many direct calls; a call that raises yields None."""
        out = []
        idx = self._open(name)
        try:
            for args in arg_tuples:
                try:
                    out.append(fn(*args))
                except Exception:
                    self.errors[name] += 1
                    out.append(None)
        finally:
            self._close(idx)
        self.calls[name] += len(out)
        return out

    def count(self, name, amount=1):
        self.counts[name] += amount

    def fail(self, name):
        """Count a failure that is not a raise, such as a child's exit code."""
        self.errors[name] += 1

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
