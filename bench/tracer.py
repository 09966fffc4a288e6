"""Spans around calls into the package's public functions, recorded from outside.

Functions are wrapped at the name their caller looks up: ``cli`` imports
``match`` by name, so ``triplex.cli.match`` is patched, not only
``triplex.evaluation.match``. A span is ``(id, parent, name, thread, start,
end)``; the parent is the innermost open span on the calling thread, or, for
work a thread pool runs, the span that submitted it. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> int:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else 0

    def call(self, name: str, fn, args, kwargs, parent: int | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None:
            parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, threading.get_ident(), start, end))

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def patch(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``on_result(args, kwargs, result)`` may add counters.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            result = tracer.call(span_name, original, args, kwargs)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def traced_pool(self, task_name: str) -> type:
        """A ``ThreadPoolExecutor`` whose ``map`` tasks are spans of the submitting span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                parent = tracer.current()

                def task(*args):
                    return tracer.call(task_name, fn, args, {}, parent=parent)

                return super().map(task, *iterables, **kwargs)

        return TracedPool


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap one another, so the covered part is
    the length of the union of the children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, _, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, self time and total time summed over threads, durations."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for span_id, _, name, _, start, end in spans:
        entry = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        entry["total_s"] += end - start
        entry["durations"].append(end - start)
    return table
