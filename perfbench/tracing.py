"""In-memory span recorder for the traced benchmark run (stdlib only).

A span is ``[name, start_ns, end_ns, parent_index, op]``: ``parent_index``
is the index of the enclosing open span (-1 at top level) and ``op`` the
operation the span belongs to, so spans of one operation share an
identifier. Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Records spans; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.op = None
        self._stack = []

    def _open(self, name):
        rec = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
               self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def traced(self, fn, name):
        """``fn`` wrapped so that every call records a span called ``name``."""
        def call(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return call

    @contextmanager
    def wrapped(self, obj, methods):
        """Trace the bound methods ``{attr: span_name}`` of one instance.

        The wrappers are instance attributes, so calls the program makes
        through ``self.<attr>`` are recorded too; they are removed on exit.
        """
        if self.enabled:
            for attr, name in methods.items():
                setattr(obj, attr, self.traced(getattr(obj, attr), name))
        try:
            yield
        finally:
            if self.enabled:
                for attr in methods:
                    delattr(obj, attr)

    # -- derived quantities -------------------------------------------------

    def durations_ms(self, name, self_time=False):
        """Durations of the spans called ``name`` in ms; with ``self_time``,
        minus the time their direct children cover."""
        child = {}
        if self_time:
            for rec in self.spans:
                if rec[3] >= 0:
                    child[rec[3]] = child.get(rec[3], 0) + rec[2] - rec[1]
        return [(rec[2] - rec[1] - child.get(i, 0)) / 1e6
                for i, rec in enumerate(self.spans) if rec[0] == name]

    def median_ms(self, name, self_time=False):
        d = self.durations_ms(name, self_time)
        if not d:
            raise RuntimeError(f"no span named {name!r} was recorded")
        return statistics.median(d)

    def write(self, path):
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names,
                       "spans": [[index[r[0]], r[1], r[2], r[3], r[4]]
                                 for r in self.spans]},
                      fh, separators=(",", ":"))
            fh.write("\n")
