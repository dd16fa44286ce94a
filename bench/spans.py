"""Span recording for the traced benchmark run, and summary statistics.

A span covers one public eaopt call made by the benchmark: its name,
start and end (``perf_counter_ns``), the span that was open when it
started, and the run id.  Spans stay in memory until the run writes
them out.  Nothing inside eaopt is traced.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _Open:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(None)  # reserved, so children can name it as parent
        tracer._stack.append(self.index)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans[self.index] = Span(self.name, self.start, end, parent, tracer.run_id)
        return False


class Tracer:
    """Records nested spans in memory; ``span(name)`` is a context manager."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for child in sorted(children[index], key=lambda c: c.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.duration_ns - covered)
    return result


@dataclass(frozen=True)
class Percentile:
    """A percentile of a sample, with the number of samples behind it."""

    q: float
    value: float
    samples: int


def percentile(values, q: float) -> Percentile:
    """The q-th percentile (linear interpolation) and the sample count."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    return Percentile(q, float(np.percentile(values, q)), int(values.size))


def median(values) -> float:
    return percentile(values, 50).value
