"""In-memory span recording and the self-time bookkeeping over it.

A :class:`Tracer` records one span per call into a wrapped layer
function: ``(id, parent, label, start, end)`` on the process-wide
``time.perf_counter`` clock.  Parents follow a per-thread stack; work
handed to another thread can carry its parent explicitly
(:meth:`Tracer.span` with ``parent=``), so a request's tree may span
the HTTP handler thread and a queue worker.  Some layers only expose
accumulated seconds (profiler rows recorded after the fact); those are
kept as *durations* attached to the span open at the time.

The bookkeeping functions work on the dumped JSON form, so they are
testable on synthetic trees:

* a span's self time is its duration minus the union of its child
  intervals (clipped to the span) minus its durations;
* a layer's self time is the sum over its spans plus its durations;
* coverage is the attributed self time as a share of wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = [
    "Tracer",
    "descendants",
    "layer_counts",
    "layer_self_times",
    "self_times",
    "tail_percentile",
    "union_length",
]


class Tracer:
    """Thread-safe in-memory span, duration and counter store."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.durations: list[tuple[int | None, str, float]] = []
        self.counts: list[tuple[int | None, str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str] | None:
        """The innermost open span on this thread as ``(id, label)``."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, label: str, parent: int | None = None) -> Iterator[int]:
        """Record the ``with`` block as one span; ``parent`` overrides
        the thread's innermost open span (cross-thread hand-off)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span_id = next(self._ids)
        stack.append((span_id, label))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, label, start, end))

    def add_span(
        self, label: str, start: float, end: float, parent: int | None
    ) -> None:
        """Record an interval measured elsewhere (e.g. a queue wait)."""
        self.spans.append((next(self._ids), parent, label, start, end))

    def add_duration(self, label: str, seconds: float) -> None:
        """Attach ``seconds`` of ``label`` work to the open span."""
        top = self.current()
        self.durations.append((top[0] if top else None, label, seconds))

    def count(self, name: str, amount: float = 1) -> None:
        """Count ``amount`` of ``name`` against the open span, so counts
        can be filtered to the same span trees as the times."""
        top = self.current()
        self.counts.append((top[0] if top else None, name, amount))

    def to_json(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "durations": [list(d) for d in self.durations],
            "counts": [list(c) for c in self.counts],
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle)


def union_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list, durations: list) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals minus the durations attached to it, floored at zero."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    attached: dict[int, float] = {}
    for parent, _, seconds in durations:
        if parent is not None:
            attached[parent] = attached.get(parent, 0.0) + seconds
    out = {}
    for span_id, _, _, start, end in spans:
        covered = union_length(children.get(span_id, ()), start, end)
        out[span_id] = max(0.0, end - start - covered - attached.get(span_id, 0.0))
    return out


def descendants(spans: list, roots: Iterable[int]) -> set[int]:
    """Ids of ``roots`` and every span below them."""
    by_parent: dict[int, list[int]] = {}
    for span_id, parent, *_ in spans:
        if parent is not None:
            by_parent.setdefault(parent, []).append(span_id)
    seen: set[int] = set()
    todo = list(roots)
    while todo:
        span_id = todo.pop()
        if span_id in seen:
            continue
        seen.add(span_id)
        todo.extend(by_parent.get(span_id, ()))
    return seen


def layer_self_times(
    spans: list, durations: list, within: set[int] | None = None
) -> dict[str, float]:
    """Self time summed per label, over the spans in ``within`` (all
    spans when ``None``) plus the durations attached to them."""
    own = self_times(spans, durations)
    out: dict[str, float] = {}
    for span_id, _, label, _, _ in spans:
        if within is None or span_id in within:
            out[label] = out.get(label, 0.0) + own[span_id]
    for parent, label, seconds in durations:
        if within is None or parent in within:
            out[label] = out.get(label, 0.0) + seconds
    return out


def layer_counts(counts: list, within: set[int] | None = None) -> dict[str, float]:
    """Counters summed per name over the events inside ``within``."""
    out: dict[str, float] = {}
    for parent, name, amount in counts:
        if within is None or parent in within:
            out[name] = out.get(name, 0) + amount
    return out


def tail_percentile(samples: list[float], beyond: int = 10) -> dict:
    """The highest nearest-rank percentile with at least ``beyond``
    samples strictly above it.

    Returns ``value``, ``percentile`` (of the ``n`` samples),
    ``beyond`` (samples above the value) and ``n``.  With too few
    samples for any percentile to qualify, the maximum is returned as
    the 100th percentile with zero samples beyond.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail_percentile needs at least one sample")
    k = n - beyond - 1
    while k >= 0:
        above = n - bisect_right(ordered, ordered[k])
        if above >= beyond:
            return {
                "value": ordered[k],
                "percentile": 100.0 * (n - above) / n,
                "beyond": above,
                "n": n,
            }
        k -= 1
    return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "n": n}
