"""In-memory span recording and self-time arithmetic.

A span is (id, name, start, end, parent, op).  Spans live in a list
until the run ends; nothing is written while ops are being timed.
Times come from ``time.monotonic``, which on Linux is the system-wide
``CLOCK_MONOTONIC``, so spans recorded in a child process line up with
the parent's.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

now = time.monotonic

#: name of the span that covers one whole op
OP_SPAN = "op"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans for one thread, plus per-op counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, start: float | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, now() if start is None else start,
                    float("nan"), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, end: float | None = None) -> None:
        span.end = now() if end is None else end
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def begin_op(self, op: int, start: float) -> Span:
        if self._stack:
            raise RuntimeError("an op span must be a root span")
        self.op = op
        return self.begin(OP_SPAN, start)

    def end_op(self, span: Span, end: float) -> None:
        self.end(span, end)
        self.op = None

    def count(self, name: str, amount: float = 1) -> None:
        if self.op is not None:
            self.counts[self.op][name] += amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Callable[[tuple, dict, object], None] | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span whenever it runs inside an op."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def adopt(self, records: Iterable[Sequence], parent: Span) -> None:
        """Graft spans recorded elsewhere (``[name, start, end, parent
        index or None]``, parents listed first) under ``parent``."""
        ids: list[int] = []
        for name, start, end, parent_index in records:
            span = Span(
                len(self.spans), name, float(start), float(end),
                parent.id if parent_index is None else ids[parent_index],
                parent.op,
            )
            self.spans.append(span)
            ids.append(span.id)

    def export(self, spans: Sequence[Span]) -> list[list]:
        """``spans`` as the records :meth:`adopt` reads."""
        index = {span.id: i for i, span in enumerate(spans)}
        return [
            [s.name, s.start, s.end, index.get(s.parent)] for s in spans
        ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children[span.id], span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Span name -> summed self time.  Under the ``op`` root the values
    add up to the ops' wall time; the root's own entry is the
    unattributed remainder."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)
