"""The budget sweep in Python floats: its grid, its CSV header, and the
rows that `eaopt sweep --budget-range` writes, without numpy.

simulator.sweep_budget solves the same grid as arrays, and
simulator.sweep_to_csv renders that report; both count the grid with
grid_points and head the CSV with sweep_header.  sweep_chunks decides
each budget with allocator._decide, on the catalog's segment table and
on each design point's two-vertex (off, dp) table, which gives the bits
simulator._solve and its static kernels give, and write_rows spells
each float as repr, as float_words does.  So both renderings are the
same text.  sweep_chunks holds one chunk of rows at a time, and its
memory does not grow with the grid; the price is a Python loop per
budget, slower than the arrays on grids of about 100,000 points.
"""

from __future__ import annotations

import math

from ._table import write_rows, write_table
from ._tolerance import COUNT_SLACK
from .allocator import _check_budget, _check_inputs, _check_start, _decide, _static_table
from .catalog import Catalog

# The most points a budget grid has: 8 MB of budgets as an array, and one
# simulated period each.
MAX_GRID_POINTS = 2**20

# How many grid budgets sweep_chunks renders into one piece of text.
_CHUNK_ROWS = 256

_METRICS = ("objective", "expected_accuracy", "active_fraction")


def grid_points(start: float, stop: float, step: float) -> int:
    """The number of points of the inclusive grid start, start+step, ...
    up to stop; ValueError unless start, stop and step are finite, step is
    positive, stop is not below start and there are at most
    MAX_GRID_POINTS points."""
    spec = f"budget range {start!r}:{stop!r}:{step!r}"
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{spec}: start, stop and step must be finite")
    if step <= 0:
        raise ValueError(f"{spec}: step must be > 0")
    if stop < start:
        raise ValueError(f"{spec}: stop must be >= start")
    try:
        points = math.floor((stop - start) / step + COUNT_SLACK) + 1
    except OverflowError:  # the quotient overflowed to inf
        points = math.inf
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{spec}: too many points at this step")
    return points


def sweep_header(dp_ids: tuple[int, ...]) -> str:
    """The budget sweep CSV's header: the budget, the optimizer's metrics,
    then each design point's static metrics."""
    cols = ["budget_j"] + [f"opt_{m}" for m in _METRICS]
    for dp_id in dp_ids:
        cols += [f"dp{dp_id}_{m}" for m in _METRICS]
    return ",".join(cols)


def sweep_chunks(catalog: Catalog, alpha: float, start: float, stop: float, step: float,
                 period: float):
    """The text of sweep_to_csv(sweep_budget(catalog, alpha, start, stop,
    step, period), catalog) in pieces: the header, then the rows
    _CHUNK_ROWS budgets at a time.  The inputs are checked as sweep_budget
    checks them, with the same errors in the same order, before this
    returns, so a writer opens nothing for a sweep that fails."""
    points = grid_points(start, stop, step)

    def check_series():
        # Budget k is start + step * k and start k is period * k, as
        # sweep_budget's arrays compute them.  Both rise with k, so the
        # first bad budget is the first one or, where the last overflows,
        # the first of the infinite ones, which reads inf as the last
        # does; and a start is infinite only where the last one is.
        for k in (0, points - 1):
            _check_budget(start + step * k)
        _check_start(period * (points - 1))

    _check_inputs(period, alpha, catalog, check_series)
    return _chunks(catalog, alpha, start, step, period, points)


def _chunks(catalog: Catalog, alpha: float, start: float, step: float, period: float,
            points: int):
    """sweep_chunks' pieces, once its inputs are checked."""
    table = catalog._segments(alpha)
    tables = [table, *(_static_table(table.weights, k) for k in range(len(catalog)))]
    yield write_table(sweep_header(catalog.ids), [])
    for lo in range(0, points, _CHUNK_ROWS):
        budgets = [start + step * k for k in range(lo, min(lo + _CHUNK_ROWS, points))]
        columns = [budgets]
        for each in tables:  # the optimum, then each design point's static schedule
            readings = [_decide(each, period, budget)[2] for budget in budgets]
            columns += list(zip(*readings))[:3]
        yield write_rows(columns)
