"""Spans around calls into hopfdiag, recorded from outside the package.

``Tracer.wrap`` replaces a function by a module attribute of the same name
that records a span per call: name, start, end and the parent span.  This
sees every call made through the module (``models.jc_reduced_critical_values``
from ``cli``, ``acceptance`` and the workloads alike), which is how hopfdiag
calls across modules.  Spans are kept in flat arrays and summarized, or
written out, when the run ends.  RuntimeWarnings are counted against the
innermost open span.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.warnings: Counter = Counter()

    def traced(self, name: str, fn, observe=None, keys=()):
        """fn wrapped to record a span; ``observe(counter, args, result)``
        adds per-call counts (rows, bytes, ...) after the span closes, under
        ``keys``, which start at 0."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        ident = self._ids[name]
        perf = time.perf_counter
        stack = self._stack
        counter = self.counts[name]
        for key in keys:
            counter.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                stack.pop()
            if observe is not None:
                observe(counter, args, result)
            return result

        return wrapper

    def wrap(self, module, attr: str, observe=None, keys=()):
        """Trace module.attr as span ``<module>.<attr>``."""
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        self.patch(module, attr,
                   self.traced(name, getattr(module, attr), observe, keys))

    def patch(self, obj, attr: str, value):
        """Set obj.attr for the duration of ``active()``."""
        self._patches.append((obj, attr, value))

    @contextlib.contextmanager
    def active(self):
        """Install the patches and the warning counter; undo both on exit."""
        saved = [(obj, attr, getattr(obj, attr))
                 for obj, attr, _ in self._patches]
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            show = warnings.showwarning

            def count_warning(message, category, *args, **kwargs):
                if issubclass(category, RuntimeWarning) and self._stack:
                    self.warnings[self.names[self.name_id[self._stack[-1]]]] += 1
                else:
                    show(message, category, *args, **kwargs)

            warnings.showwarning = count_warning
            for obj, attr, value in self._patches:
                setattr(obj, attr, value)
            try:
                yield self
            finally:
                for obj, attr, value in reversed(saved):
                    setattr(obj, attr, value)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (inclusive), self_s, and durations.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so the children's intervals lie
        inside the parent's and do not overlap.
        """
        n_names = len(self.names)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=dur.size)
        own = dur - child
        calls = np.bincount(ids, minlength=n_names)
        busy = np.bincount(ids, weights=dur, minlength=n_names)
        self_s = np.bincount(ids, weights=own, minlength=n_names)
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.arange(n_names + 1))
        return {name: {"calls": int(calls[k]), "busy_s": float(busy[k]),
                       "self_s": float(self_s[k]),
                       "durations": dur[order[bounds[k]:bounds[k + 1]]]}
                for k, name in enumerate(self.names)}

    def write_spans(self, path):
        """CSV of every span: name, start and end (s from the first span),
        and the row index of the parent span (-1 for a root span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with open(path, "w", newline="") as fh:
            fh.write("name,start_s,end_s,parent\n")
            fh.writelines(
                f"{names[k]},{s - t0!r},{e - t0!r},{p}\n"
                for k, s, e, p in zip(self.name_id, self.start, self.end,
                                      self.parent))
