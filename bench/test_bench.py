"""Tests for the benchmark's own helpers.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eaopt import AllocationProblem, builtin_table1, optimize_allocation  # noqa: E402

import inputs  # noqa: E402
from checker import ORACLE_AT_FLOOR, Checker, Model, allocation_problems  # noqa: E402
from spans import Span, Tracer, percentile, self_times_ns  # noqa: E402


def _five_joules():
    catalog = builtin_table1()
    problem = AllocationProblem(3600.0, 5.0, 1.0, catalog)
    return optimize_allocation(problem), Model.of(catalog, 1.0, 3600.0)


def test_checker_passes_a_correct_allocation():
    alloc, model = _five_joules()
    assert allocation_problems(alloc, model, 5.0) == []


def test_checker_flags_times_scaled_by_one_percent():
    alloc, model = _five_joules()
    corrupted = dataclasses.replace(alloc, times=tuple(t * 1.01 for t in alloc.times))
    problems = allocation_problems(corrupted, model, 5.0)
    assert any("time closure" in p for p in problems)
    assert any("objective" in p for p in problems)


def test_checker_counts_an_exception_and_goes_on():
    checker = Checker()
    with checker.guard("op that raises"):
        raise ArithmeticError("boom")
    checker.record("op that passes", [])
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.failures == ["op that raises: ArithmeticError: boom"]


def test_oracle_floor_defect_is_recorded_not_failed():
    pytest.importorskip("scipy")
    catalog = builtin_table1()
    checker = Checker()
    problem = AllocationProblem(3600.0, 0.18, 1.0, catalog)
    value = checker.oracle(problem, Model.of(catalog, 1.0, 3600.0))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert checker.known[ORACLE_AT_FLOOR].occurrences == 1
    assert checker.failed == 0


def test_self_time_of_a_hand_built_tree():
    # root [0, 100) holds a [10, 30) and b [40, 70); a holds c [12, 20).
    spans = [
        Span("root", 0, 100, None, "r"),
        Span("a", 10, 30, 0, "r"),
        Span("c", 12, 20, 1, "r"),
        Span("b", 40, 70, 0, "r"),
    ]
    assert self_times_ns(spans) == [50, 12, 8, 30]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0, 100, None, "r"),
        Span("a", 10, 50, 0, "r"),
        Span("b", 30, 120, 0, "r"),  # overlaps a and runs past the parent
    ]
    assert self_times_ns(spans)[0] == 10


def test_tracer_links_nested_spans_to_their_parent():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.parent) == ("outer", None, 0)
    assert inner.run_id == outer.run_id == "run-1"
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns


def test_percentile_reports_its_sample_count():
    p99 = percentile(range(1, 1001), 99)
    assert p99.samples == 1000
    assert p99.q == 99
    assert p99.value == pytest.approx(990.01)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_same_seed_same_catalog(tmp_path):
    a = inputs.write_wide_catalog(tmp_path / "a.csv", np.random.default_rng(7))
    b = inputs.write_wide_catalog(tmp_path / "b.csv", np.random.default_rng(7))
    c = inputs.write_wide_catalog(tmp_path / "c.csv", np.random.default_rng(8))
    assert a.path.read_text() == b.path.read_text() != c.path.read_text()
    assert len(a.accuracy) == inputs.WIDE_DPS
