"""Multi-period simulation and parameter sweeps over the allocator.

Runs the optimizer across a BudgetSeries, solves every static
single-mode baseline for the same budgets, and aggregates normalized
performance ratios.  Periods are independent (no energy rollover), so
records preserve input order and the whole run is reproducible.

This module holds the array form of the allocator's closed form: _solve
and the static kernels read the catalog's segment table into numpy
arrays once per simulation and solve every budget at once, by the
operations allocator._decide runs on one budget in Python floats, in the
same order.  sweep_alpha runs the same kernels: _segment's envelope solve
and the objective row of _readings per alpha, on the static seconds that
_static_seconds solves once per sweep, since they do not depend on alpha.

A SimulationReport keeps its periods as arrays.  It is also a sequence
of its PeriodRecords, which are built on first access; len() and the
writers read the arrays and build none.  sweep_budget returns the report
of its grid, and sweep_to_csv renders it from the columns.  The grid is
counted and the CSV headed by _sweep, whose sweep_chunks renders the same
text in Python floats a chunk of rows at a time for `eaopt sweep
--budget-range`, without numpy; a property test holds the two renderings
byte-identical.

When a static baseline scores zero for a period (the budget covers only
the keep-alive floor, or nothing at all), or so little that the ratio
overflows, the ratio for that period is undefined; aggregates count those
periods instead of folding infinities into the means, and the writers
spell it null (JSON) or a blank cell (CSV).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

from ._sweep import grid_points, sweep_header
from ._table import float_words, write_rows, write_table
from .allocator import INFEASIBLE, OPTIMAL, Allocation, _below_floor, _check_inputs, _Segments
from .catalog import Catalog
from .harvest import BudgetSeries, _check_series


def _split(power: np.ndarray, budgets: np.ndarray, period: float, left, right) -> np.ndarray:
    """Seconds on mode right of the schedules that mix modes left and
    right to spend each budget: t_right = (budget - p_left T) /
    (p_right - p_left), clipped to [0, T]; mode left runs the rest.  A
    quotient that overflows to inf clips to T."""
    p_left = power[left]
    with np.errstate(over="ignore"):
        t_right = (budgets - p_left * period) / (power[right] - p_left)
    return np.minimum(np.maximum(t_right, 0.0, out=t_right), period, out=t_right)


def _readings(weight: np.ndarray, left, right, t_right, period: float) -> np.ndarray:
    """Rows objective, expected_accuracy, active_fraction and
    energy_used of each schedule that runs mode left for T - t_right
    seconds and mode right for t_right: one expression over the (4, N+1)
    weight rows of a table.  The arrays broadcast to one shape, one entry
    per schedule.  Only the two mixed modes take part, so a reading does
    not depend on how many schedules are solved together."""
    readings = weight[..., left] * (period - t_right) + weight[..., right] * t_right
    readings[:3] /= period
    return readings


def _segment(table: _Segments, power: np.ndarray, period: float, budgets: np.ndarray):
    """The envelope segment (left, right) of each budget's optimal
    schedule, and its seconds t_right on mode right: the mean power
    budget/period falls on one segment, which _split shares out.  power is
    the table's power row as an array."""
    if len(table.hull) == 1:  # every utility is 0: stay off
        left, right = np.full((2, budgets.size), power.size - 1)
        return left, right, np.zeros(budgets.size)
    # Searching the inner vertices gives the segment index; budgets past
    # either end fall on the end segments and clip there.  A mean power
    # that overflows to inf falls past every vertex.
    with np.errstate(over="ignore"):
        mean_power = budgets / period
    seg = np.searchsorted(table.inner, mean_power, side="right")
    hull = np.array(table.hull)
    left, right = hull[seg], hull[seg + 1]
    return left, right, _split(power, budgets, period, left, right)


def _solve(table: _Segments, period: float, budgets: np.ndarray):
    """The optimal schedules, one per budget: (P, N+1) seconds per mode,
    off last, their (4, P) readings, and the (P,) mask of budgets below
    the keep-alive floor.  A budget below the floor is below p_off T, so
    it falls on the first segment, off to the next vertex, and t_right
    clips to 0: the mask sets only the status.  allocator._decide is the
    same solve for one budget."""
    weight = np.array(table.weights)
    power = weight[3]
    off = power.size - 1
    left, right, t_right = _segment(table, power, period, budgets)
    rows = np.arange(budgets.size)
    seconds = np.zeros((budgets.size, off + 1))
    seconds[rows, left] = period - t_right
    seconds[rows, right] += t_right
    below = _below_floor(budgets, period, power[off])
    return seconds, _readings(weight, left, right, t_right, period), below


def _static_modes(n: int):
    """The segments (off, k) of the N static schedules, as index arrays
    that broadcast over (P, N)."""
    return np.full((1, 1), n), np.arange(n)[None, :]


def _static_seconds(power: np.ndarray, period: float, budgets: np.ndarray) -> np.ndarray:
    """The static schedules' (P, N) seconds on each design point, off for
    the rest of the period.  Design point k is _split on the segment (off,
    k), which spends nothing on k below the keep-alive floor.  They depend
    on the power row alone, not on alpha."""
    return _split(power, budgets[:, None], period, *_static_modes(power.size - 1))


def _static_readings(weight: np.ndarray, static_t: np.ndarray, period: float) -> np.ndarray:
    """The (rows, P, N) readings of the static schedules that run each
    design point for static_t seconds, from the given weight rows."""
    return _readings(weight, *_static_modes(static_t.shape[1]), static_t, period)


def _allocations(dp_ids, times, off_time, readings, infeasible) -> list[Allocation]:
    """Allocation objects from (P, len(dp_ids)) times and (P,) columns."""
    return [
        Allocation(dp_ids, tuple(t), off, objective, accuracy, active, energy,
                   INFEASIBLE if below else OPTIMAL)
        for t, off, objective, accuracy, active, energy, below in zip(
            times.tolist(), off_time.tolist(), *(r.tolist() for r in readings),
            infeasible.tolist(),
        )
    ]


@dataclass(frozen=True)
class RatioStats:
    """Aggregate of optimized/static objective ratios over periods where
    the static objective is positive and the ratio finite."""

    mean: float | None
    min: float | None
    max: float | None
    defined: int
    undefined: int


@dataclass(frozen=True)
class PeriodRecord:
    index: int
    start: float
    budget: float
    optimized: Allocation
    statics: dict[int, Allocation]
    ratios: dict[int, float | None]  # None when undefined (static objective 0, or ratio inf)


@dataclass(frozen=True, eq=False)
class PeriodColumns:
    """Every period of a simulation as arrays, P periods by N design points.

    Readings are the rows objective, expected_accuracy, active_fraction
    and energy_used of each schedule."""

    starts: np.ndarray  # (P,)
    budget: np.ndarray  # (P,)
    seconds: np.ndarray  # (P, N+1) optimized seconds per design point, off last
    readings: np.ndarray  # (4, P) of the optimized schedules
    static_t: np.ndarray  # (P, N) seconds each static schedule runs its design point
    static_readings: np.ndarray  # (4, P, N) of the static schedules
    ratios: np.ndarray  # (P, N) optimized / static objective, 0.0 where undefined
    defined: np.ndarray  # (P, N) where the static objective is positive and the ratio finite
    infeasible: np.ndarray  # (P,) budgets below the keep-alive floor


@dataclass(frozen=True)
class SimulationReport:
    """Aggregates of a simulation, and its periods as columns.

    Equality and repr cover the aggregates only; records builds the
    per-period objects from the columns on first access.  The report is a
    sequence of those records: len() reads the columns and builds nothing,
    and indexing or iterating reads records."""

    alpha: float
    period_length: float
    dp_ids: tuple[int, ...]
    dp_labels: tuple[str, ...]
    ratio_stats: dict[int, RatioStats]
    mean_expected_accuracy: float
    mean_active_fraction: float
    time_share: dict[int, float]  # fraction of total time on each DP
    off_share: float
    columns: PeriodColumns = field(repr=False, compare=False)

    @cached_property
    def records(self) -> tuple[PeriodRecord, ...]:
        """One PeriodRecord per period, in period order."""
        c = self.columns
        ids = self.dp_ids
        optimized = _allocations(ids, c.seconds[:, :-1], c.seconds[:, -1], c.readings,
                                 c.infeasible)
        statics = [
            _allocations((dp_id,), c.static_t[:, k : k + 1], self.period_length - c.static_t[:, k],
                         c.static_readings[:, :, k], c.infeasible)
            for k, dp_id in enumerate(ids)
        ]
        cells = np.where(c.defined, c.ratios, None).tolist()
        return tuple(
            PeriodRecord(i, start, budget, opt, dict(zip(ids, row_statics)),
                         dict(zip(ids, row_ratios)))
            for i, (start, budget, opt, row_statics, row_ratios) in enumerate(
                zip(c.starts.tolist(), c.budget.tolist(), optimized, zip(*statics), cells)
            )
        )

    def __len__(self) -> int:
        return len(self.columns.budget)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self):
        return iter(self.records)


def _mean(values: list[float], count: int) -> float | None:
    """Mean of the count defined values, summed in order, where values
    holds 0.0 in place of each undefined one: adding 0.0 leaves a sum of
    ratios, which are never negative, bit for bit unchanged.  Where that
    sum overflows, the sum of each value over the count instead."""
    if not count:
        return None
    mean = sum(values) / count
    if math.isfinite(mean):
        return mean
    return sum(v / count for v in values)


def _ratio_stats(
    ratios: np.ndarray, defined: np.ndarray, dp_ids: tuple[int, ...]
) -> dict[int, RatioStats]:
    """Per design point, the (P, N) ratios where defined: their count,
    min and max in one pass over the columns, and their mean summed in
    period order."""
    periods = len(ratios)
    # One row per design point, so that each reduction runs along a row.
    ratios, defined = ratios.T.copy(), defined.T.copy()
    counts = np.count_nonzero(defined, axis=1).tolist()
    lows = np.where(defined, ratios, np.inf).min(axis=1).tolist()
    highs = np.where(defined, ratios, -np.inf).max(axis=1).tolist()
    # Each row becomes Python floats only while its mean is summed.
    return {
        dp_id: RatioStats(
            mean=_mean(row.tolist(), count),
            min=low if count else None,
            max=high if count else None,
            defined=count,
            undefined=periods - count,
        )
        for dp_id, row, count, low, high in zip(dp_ids, ratios, counts, lows, highs)
    }


def _ratios(objective: np.ndarray, static_objective: np.ndarray):
    """(P, N) optimized / static objectives, and where they are defined:
    the static objective is positive and the ratio finite (a subnormal
    static objective overflows it to inf).  Undefined entries hold 0.0."""
    positive = static_objective > 0.0
    with np.errstate(over="ignore"):
        ratios = np.divide(objective[:, None], static_objective,
                           out=np.zeros_like(static_objective), where=positive)
    defined = positive & np.isfinite(ratios)
    ratios[~defined] = 0.0
    return ratios, defined


def _checked(budgets: BudgetSeries, catalog: Catalog, alpha: float):
    """The period length of a series, and copies of its starts and budgets
    as arrays, once simulate's inputs are checked: the series must not be
    empty, then the period, the budgets, alpha and the catalog are checked
    in that order."""
    period_length = budgets.period_length
    if len(budgets) == 0:
        raise ValueError("budget series is empty")
    # Copies of starts and budgets, so that records built later do not see
    # the caller's edits.
    column = np.array(budgets.budgets, dtype=float)
    starts = np.array(budgets.starts, dtype=float)
    _check_inputs(period_length, alpha, catalog, lambda: _check_series(starts, column))
    return period_length, starts, column


def simulate(budgets: BudgetSeries, catalog: Catalog, alpha: float) -> SimulationReport:
    """One optimized-vs-static record per period of the series, plus
    aggregates; the period length is the series'."""
    period_length, starts, column = _checked(budgets, catalog, alpha)
    table = catalog._segments(alpha)
    seconds, readings, infeasible = _solve(table, period_length, column)
    weight = np.array(table.weights)
    static_t = _static_seconds(weight[3], period_length, column)
    static_readings = _static_readings(weight, static_t, period_length)
    ratios, defined = _ratios(readings[0], static_readings[0])
    n = column.size
    total_time = n * period_length
    return SimulationReport(
        alpha=alpha,
        period_length=period_length,
        dp_ids=catalog.ids,
        dp_labels=catalog.labels,
        ratio_stats=_ratio_stats(ratios, defined, catalog.ids),
        mean_expected_accuracy=sum(readings[1].tolist()) / n,
        mean_active_fraction=sum(readings[2].tolist()) / n,
        time_share={
            dp_id: sum(seconds[:, k].tolist()) / total_time
            for k, dp_id in enumerate(catalog.ids)
        },
        off_share=sum(seconds[:, -1].tolist()) / total_time,
        columns=PeriodColumns(
            starts=starts,
            budget=column,
            seconds=seconds,
            readings=readings,
            static_t=static_t,
            static_readings=static_readings,
            ratios=ratios,
            defined=defined,
            infeasible=infeasible,
        ),
    )


def budget_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid start, start+step, ... up to stop, of at
    most _sweep.MAX_GRID_POINTS points, counted by _sweep.grid_points."""
    points = grid_points(start, stop, step)
    with np.errstate(over="ignore"):  # simulate names a budget that overflows to inf
        return start + step * np.arange(points)


def sweep_budget(
    catalog: Catalog,
    alpha: float,
    start: float,
    stop: float,
    step: float,
    period_length: float = 3600.0,
) -> SimulationReport:
    """Optimizer and static baselines across a budget grid: the report of
    one simulation with one period per grid budget."""
    grid = budget_grid(start, stop, step)
    with np.errstate(over="ignore"):  # simulate names a start that overflows to inf
        starts = period_length * np.arange(len(grid))
    return simulate(BudgetSeries(period_length, starts, grid), catalog, alpha)


@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    ratio_stats: dict[int, RatioStats]


def sweep_alpha(
    catalog: Catalog, budgets: BudgetSeries, alphas: list[float]
) -> list[AlphaPoint]:
    """Aggregate normalized ratios (with min/max bounds) for each alpha:
    each point's ratio_stats are simulate(budgets, catalog, alpha)'s, and
    the inputs are checked as simulate checks them, alpha by alpha (no
    alphas: no check, and no points).

    The static schedules' seconds do not depend on alpha, so they are
    solved once per sweep; each alpha then costs one envelope solve and
    the objective rows of both schedules, by simulate's own kernels."""
    alphas = map(float, alphas)
    first = next(alphas, None)
    if first is None:
        return []
    period, _, column = _checked(budgets, catalog, first)
    power = np.array(catalog._segments(first).weights[3])
    static_t = _static_seconds(power, period, column)
    points = []
    for alpha in chain([first], alphas):
        _check_inputs(period, alpha, catalog)
        table = catalog._segments(alpha)
        utility = np.array(table.weights[:1])
        left, right, t_right = _segment(table, power, period, column)
        objective = _readings(utility, left, right, t_right, period)[0]
        ratios, defined = _ratios(objective, _static_readings(utility, static_t, period)[0])
        points.append(AlphaPoint(alpha, _ratio_stats(ratios, defined, catalog.ids)))
    return points


def sweep_to_csv(report: SimulationReport, catalog: Catalog) -> str:
    """One row per budget: optimizer metrics then each static baseline's,
    rendered from the report's columns.  catalog must be the report's."""
    if catalog.ids != report.dp_ids:
        raise ValueError(
            f"catalog design points {catalog.ids} are not the report's {report.dp_ids}"
        )
    c = report.columns
    fill = [c.budget, *c.readings[:3]]
    for k in range(len(report.dp_ids)):
        fill += list(c.static_readings[:3, :, k])
    return write_table(sweep_header(report.dp_ids), fill)


def alpha_sweep_to_csv(points: list[AlphaPoint], catalog: Catalog) -> str:
    """One row per alpha: each design point's ratio stats; None is blank.
    catalog must be the sweep's."""
    for ids in (tuple(pt.ratio_stats) for pt in points):
        if ids != catalog.ids:
            raise ValueError(f"catalog design points {catalog.ids} are not the sweep's {ids}")
    cols, fill = ["alpha"], [np.array([pt.alpha for pt in points])]
    for dp in catalog:
        stats = [pt.ratio_stats[dp.id] for pt in points]
        for metric in ("ratio_mean", "ratio_min", "ratio_max", "defined", "undefined"):
            cols.append(f"dp{dp.id}_{metric}")
            values = map(attrgetter(metric.removeprefix("ratio_")), stats)
            fill.append(["" if v is None else v for v in values])
    return write_table(",".join(cols), fill)


def _record_template(dp_ids: tuple[int, ...], status: str) -> tuple[str, str]:
    """One record as json.dumps(indent=2) lays it out inside the records
    list, with status in every schedule, split after its "start" value.
    The head has a %s for the index, the start and the rendered tail; the
    tail a %s for each float in report_to_json's row order."""
    slot = "%s"

    def allocation(ids):  # Allocation.to_dict fixes the key order
        return Allocation(ids, (slot,) * len(ids), *(slot,) * 5, status).to_dict()

    record = {
        "index": slot,
        "start": slot,
        "budget": slot,
        "optimized": allocation(dp_ids),
        "statics": {str(i): allocation((i,)) for i in dp_ids},
        "ratios": {str(i): slot for i in dp_ids},
    }
    text = json.dumps(record, indent=2).replace("%", "%%").replace('"%%s"', slot)
    text = "    " + text.replace("\n", "\n    ")
    split = text.index('"start": %s') + len('"start": %s')
    return text[:split] + slot, text[split:]


# How many period records _json_chunks joins into one chunk.
_CHUNK_PERIODS = 256


def report_to_json(report: SimulationReport) -> str:
    """Full report: aggregates plus every period record, laid out as
    json.dumps(payload, indent=2) lays them out, rendered from the columns."""
    return "".join(_json_chunks(report))


def _json_chunks(report: SimulationReport):
    """report_to_json's text in pieces: the aggregates, the records
    _CHUNK_PERIODS at a time with a ",\\n" piece of its own between each
    two chunks (so that no chunk is copied to prefix it), then the closing
    brackets, so that a writer never holds the whole text.

    Everything in a record after "start" is a function of the row's
    floats, its infeasible flag and its defined mask, so each chunk renders
    each of its distinct rows once.  A dict keys each row on its bytes:
    the floats' bits, which keep -0.0 apart from 0.0, and both masks, so
    rows that share a budget but not their masks stay apart.  Only one
    chunk's rows and rendered tails are held at a time."""
    c = report.columns
    periods = len(c.budget)
    head = {
        "alpha": report.alpha,
        "period_length": report.period_length,
        "dp_ids": list(report.dp_ids),
        "dp_labels": list(report.dp_labels),
        "periods": periods,
        "mean_expected_accuracy": report.mean_expected_accuracy,
        "mean_active_fraction": report.mean_active_fraction,
        "time_share": {str(i): s for i, s in report.time_share.items()},
        "off_share": report.off_share,
        "ratio_stats": {str(i): asdict(st) for i, st in report.ratio_stats.items()},
    }
    n = len(report.dp_ids)
    record, optimal_tail = _record_template(report.dp_ids, OPTIMAL)
    infeasible_tail = _record_template(report.dp_ids, INFEASIBLE)[1]
    # json.dumps(head) ends in "\n}": the records go in before that brace.
    yield json.dumps(head, indent=2)[:-2] + ',\n  "records": [\n'
    for lo in range(0, periods, _CHUNK_PERIODS):
        hi = min(lo + _CHUNK_PERIODS, periods)
        static_t = c.static_t[lo:hi]
        floats = np.column_stack(
            [c.budget[lo:hi], c.seconds[lo:hi], c.readings[:, lo:hi].T]
            + [np.column_stack([static_t[:, k], report.period_length - static_t[:, k],
                                c.static_readings[:, lo:hi, k].T])
               for k in range(n)]
            + [c.ratios[lo:hi]]
        )
        infeasible, defined = c.infeasible[lo:hi], c.defined[lo:hi]
        keys = np.column_stack([floats.view(np.int64), infeasible, defined])
        # A void view spells each row as one bytes object; each names the
        # first row of the chunk with the same bytes.
        seen: dict[bytes, int] = {}
        rows_bytes = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
        firsts = [seen.setdefault(key, i) for i, key in enumerate(rows_bytes.ravel().tolist())]
        first = list(seen.values())
        words = float_words(floats[first], json.dumps)
        words[:, -n:][~defined[first]] = "null"
        tails = dict(zip(first, [
            (infeasible_tail if below else optimal_tail) % tuple(row)
            for below, row in zip(infeasible[first].tolist(), words.tolist())
        ]))
        starts = float_words(c.starts[lo:hi], json.dumps).tolist()
        rows = zip(range(lo, hi), starts, map(tails.__getitem__, firsts))
        if lo:
            yield ",\n"
        yield ",\n".join(map(record.__mod__, rows))
    yield "\n  ]\n}\n"


def report_to_csv(report: SimulationReport) -> str:
    """One row per period; undefined ratios serialize as empty cells."""
    return "".join(_csv_chunks(report))


def _csv_chunks(report: SimulationReport):
    """report_to_csv's text in pieces: the header, then the rows
    _CHUNK_PERIODS at a time, so that a writer never holds the whole text."""
    cols = ["index", "start", "budget_j", "opt_objective", "opt_expected_accuracy",
            "opt_active_fraction", "opt_off_time"]
    for dp_id in report.dp_ids:
        cols += [f"dp{dp_id}_time", f"dp{dp_id}_static_objective", f"dp{dp_id}_ratio"]
    yield write_table(",".join(cols), [])
    c = report.columns
    periods = len(c.budget)
    for lo in range(0, periods, _CHUNK_PERIODS):
        hi = min(lo + _CHUNK_PERIODS, periods)
        ratios = float_words(c.ratios[lo:hi])
        ratios[~c.defined[lo:hi]] = ""
        fill = [range(lo, hi), c.starts[lo:hi], c.budget[lo:hi], *c.readings[:3, lo:hi],
                c.seconds[lo:hi, -1]]
        for k in range(len(report.dp_ids)):
            fill += [c.seconds[lo:hi, k], c.static_readings[0, lo:hi, k], ratios[:, k].tolist()]
        yield write_rows(fill)
