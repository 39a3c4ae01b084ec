"""Outside-in spans: timing wrappers on the names each caller looks up.

A Tracer keeps every span in memory (name, start, end, parent index and
an optional amount such as sweeps or bytes). Self time is a span's
duration minus the durations of its direct children; calls run on one
thread, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    amount: int = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, amount=None):
        """``fn`` recording a span per call; ``amount(args, result)``, if
        given, sets the span's amount after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if amount is not None:
                span.amount = amount(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, children)]

    def totals(self) -> dict[str, tuple[float, int, int]]:
        """Per span name: (self time, calls, summed amount)."""
        out: dict[str, tuple[float, int, int]] = {}
        for span, self_time in zip(self.spans, self.self_times()):
            t, calls, amount = out.get(span.name, (0.0, 0, 0))
            out[span.name] = (t + self_time, calls + 1, amount + span.amount)
        return out


@contextmanager
def patched(tracer: Tracer, targets):
    """Replace ``module.attr`` by a traced wrapper for each
    (module, attr, span name, amount) target; restored on exit.

    A target whose attribute no longer exists is skipped, so a layer the
    program stopped calling reports zero calls instead of failing."""
    saved = []
    try:
        for module, attr, name, amount in targets:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, amount))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
