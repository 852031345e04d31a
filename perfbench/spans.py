"""In-memory span recording and per-layer self-time accounting.

A span is one timed call into a layer: ``(id, parent, name, start, end,
op)``. ``parent`` is the span that was open on the same thread when the
call began; ``op`` is the index of the benchmark operation the call
served (the daemon records none: the load generator places its spans
after the run). Times come from ``time.perf_counter``, which on Linux
reads ``CLOCK_MONOTONIC``, so spans recorded by the load generator and
by the daemon process lie on one time line and a daemon span can be
placed inside the client request that caused it.

Spans stay in memory while the benchmark runs and are analysed (or, in
the daemon, written out) when it ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Sequence

# A span is a list so it serialises to JSON as-is:
# [id, parent, name, start, end, op]
ID, PARENT, NAME, START, END, OP = range(6)


class Tracer:
    """Records spans in memory. One tracer per process."""

    def __init__(self, prefix: str = "") -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._prefix = prefix
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent[OP]
        span = [f"{self._prefix}{next(self._ids)}",
                parent[ID] if parent is not None else None,
                name, time.perf_counter(), None, op]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced


class TracedBackend:
    """A :class:`repro.runtime.backends.TraceBackend` proxy that records
    each ``trace`` call as a ``runtime.trace`` span."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.trace = tracer.wrap("runtime.trace", inner.trace)


class TracedPass:
    """An :class:`repro.core.passes.OptimizerPass` proxy: ``plan`` is a
    ``core.plan`` span and every planned action's ``apply`` a
    ``graph.rewrite`` span."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self._plan = tracer.wrap("core.plan", inner.plan)

    def plan(self, ctx):
        return [TracedAction(a, self._tracer) for a in self._plan(ctx)]


class TracedAction:
    """A rewrite :class:`repro.core.passes.Action` proxy."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.description = inner.description
        self.apply = tracer.wrap("graph.rewrite", inner.apply)


class TracedStore:
    """A :class:`repro.service.store.ResultStore` wrapper recording
    ``store.get`` and ``store.put`` spans."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.get = tracer.wrap("store.get", inner.get)
        self.put = tracer.wrap("store.put", inner.put)

    def keys(self):
        return self.inner.keys()

    def __len__(self) -> int:
        return len(self.inner)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _union_length(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[list]) -> Dict[str, float]:
    """Each span's duration minus the part its children cover, keyed by
    span id. Children are found through ``PARENT``."""
    children: Dict[str, list] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START])
        - _union_length(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }


def graft(children: Sequence[list], parents: Sequence[list]) -> None:
    """Re-parent each span in ``children`` under the ``parents`` span
    whose interval contains it. Parents must not overlap each other
    (one closed-loop connection sends one request at a time); children
    outside every parent keep their parent."""
    ordered = sorted(parents, key=lambda s: s[START])
    starts = [p[START] for p in ordered]
    for c in children:
        i = bisect_right(starts, c[START]) - 1
        if i >= 0 and c[END] <= ordered[i][END]:
            c[PARENT] = ordered[i][ID]
            c[OP] = ordered[i][OP]


def assign_ops(spans: Sequence[list], ops: Sequence[list]) -> None:
    """Set the op of each span to the op whose interval holds its start
    (ops of a closed loop do not overlap), or to ``None`` outside every
    op."""
    ordered = sorted(ops, key=lambda s: s[START])
    starts = [o[START] for o in ordered]
    for s in spans:
        i = bisect_right(starts, s[START]) - 1
        inside = i >= 0 and s[START] <= ordered[i][END]
        s[OP] = ordered[i][OP] if inside else None


def per_name(spans: Sequence[list], selfs: Dict[str, float]) -> Dict[str, dict]:
    """Per span name: call count and total self seconds."""
    out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s in spans:
        row = out[s[NAME]]
        row["calls"] += 1
        row["self_s"] += selfs[s[ID]]
    return dict(out)


def route(path: str) -> str:
    """The first segment of a request path: the route both sides name
    their request spans after (``http.request:jobs``,
    ``daemon.handle:jobs``)."""
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    return parts[0] if parts else "other"
