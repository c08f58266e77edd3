"""Spans around the benchmark's own calls into the program, kept in memory.

A span is [name, parent index, start ns, end ns].  The worker opens one
root span named "op" per timed op and the workloads open one span around
each call into a module's public function, named "<module>.<function>".
Nothing inside `src/` is instrumented.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter_ns

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False

    def span(self, name: str):
        return _NO_SPAN


class Tracer:
    """Records nested spans until `take` hands them over.

    `span` opens the span and returns the tracer, whose `__exit__` closes
    the innermost open span; spans close in reverse order of opening.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "Tracer":
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, parent, perf_counter_ns(), 0])
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.spans[self._open.pop()][3] = perf_counter_ns()
        return False

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def totals_s(spans: list[list]) -> dict[str, float]:
    """Seconds spent in each span name, summed over its spans."""
    out: dict[str, float] = defaultdict(float)
    for name, _, start, end in spans:
        out[name] += (end - start) / 1e9
    return dict(out)


def summarize_op(spans: list[list]) -> tuple[float, dict[str, float], float]:
    """(op ms, ms per layer name, share of the op covered by its child spans).

    spans[0] must be the op's root span.  A layer's time sums every span of
    that name at any depth; coverage counts only the root's direct children,
    so nested spans are not counted twice.
    """
    _, _, op_start, op_end = spans[0]
    op_ns = op_end - op_start
    per_layer: dict[str, float] = defaultdict(float)
    covered = 0
    for name, parent, start, end in spans[1:]:
        per_layer[name] += (end - start) / 1e6
        if parent == 0:
            covered += end - start
    return op_ns / 1e6, dict(per_layer), covered / op_ns
