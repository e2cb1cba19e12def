"""In-memory span tracer for the traced run, plus the arithmetic on spans.

Spans are recorded from the benchmark's own files: :meth:`Tracer.patch`
swaps a public function or method for a timing wrapper *where its caller
looks it up* (``repro.core.throughput.place``, not ``repro.core.place``)
and puts the original back on exit.  Nothing inside ``src/`` changes.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Every op runs under one root span named
:data:`OP_SPAN`, so the root's self time is the op's un-spanned remainder
and the self times of all spans of an op add up to the op's duration.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

OP_SPAN = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, or -1.
    parent: int
    op: int

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op}


class Tracer:
    """Spans and per-op counters of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        #: op id -> counter name -> summed value.
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, self.clock(), 0.0, parent, self._op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = self.clock()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one op; spans and counters inside belong to it."""
        self._op = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self._op = -1

    def count(self, name: str, value: float, op: int | None = None) -> None:
        """Add ``value`` to a counter of ``op`` (default: the current op)."""
        self.counters[self._op if op is None else op][name] += value

    def wrap(self, func: Callable, name: str,
             counter: tuple[str, Callable] | None = None) -> Callable:
        """``func`` timed as span ``name``; ``counter`` is
        ``(counter name, result -> value)`` added per call."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result
        return traced

    def patch(self, owner, attr: str, name: str,
              counter: tuple[str, Callable] | None = None):
        """Replace ``owner.attr`` with its traced wrapper for a block."""
        return swap(owner, attr, self.wrap(owner.__dict__[attr], name,
                                           counter))


@contextlib.contextmanager
def swap(owner, attr: str, value) -> Iterator[None]:
    """Set ``owner.attr`` to ``value`` for the block, then restore it."""
    original = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.end - span.start - covered)
    return result


def per_op_totals(spans: list[Span]) -> dict[int, dict[str, tuple[float, int]]]:
    """op id -> span name -> (summed self time, call count)."""
    totals: dict[int, dict[str, list]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0]))
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.op][span.name]
        entry[0] += own
        entry[1] += 1
    return {op: {name: (t, c) for name, (t, c) in names.items()}
            for op, names in totals.items()}
