"""Multi-period simulation and parameter sweeps over the allocator.

Runs the optimizer across a BudgetSeries, solves every static
single-mode baseline for the same budgets, and aggregates normalized
performance ratios.  Periods are independent (no energy rollover), so
records preserve input order and the whole run is reproducible.

A SimulationReport keeps its periods as arrays.  It is also a sequence
of its PeriodRecords, which are built on first access; len() and the
writers read the arrays and build none.  sweep_budget returns the report
of its grid, and sweep_to_csv renders it from the columns.

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
from operator import attrgetter

import numpy as np

from ._table import float_words, write_table
from .allocator import Allocation, _allocations, _check_inputs
from .catalog import Catalog
from .harvest import BudgetSeries, _check_series
from .lp_core import INFEASIBLE, OPTIMAL


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


def _mean(values: list[float]) -> float | None:
    """Mean of values summed in order; where that sum overflows, the sum
    of each value over the count instead."""
    if not values:
        return None
    mean = sum(values) / len(values)
    if math.isfinite(mean):
        return mean
    return sum(v / len(values) for v in values)


def _ratio_stats(
    ratios: np.ndarray, defined: np.ndarray, dp_ids: tuple[int, ...]
) -> dict[int, RatioStats]:
    """Per design point, the (P, N) ratios where defined, summed in period order."""
    stats = {}
    for k, dp_id in enumerate(dp_ids):
        values = ratios[defined[:, k], k].tolist()
        stats[dp_id] = RatioStats(
            mean=_mean(values),
            min=min(values) if values else None,
            max=max(values) if values else None,
            defined=len(values),
            undefined=len(ratios) - len(values),
        )
    return stats


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


def simulate(budgets: BudgetSeries, catalog: Catalog, alpha: float) -> SimulationReport:
    """One optimized-vs-static record per period of the series, plus
    aggregates; the period length is the series'."""
    period_length = budgets.period_length
    if len(budgets) == 0:
        raise ValueError("budget series is empty")
    column = np.asarray(budgets.budgets, dtype=float)
    _check_inputs(period_length, column, alpha, catalog)
    # Copies of starts and budgets, so that records built later do not see
    # the caller's edits.
    starts = np.array(budgets.starts, dtype=float)
    _check_series(starts, column)
    modes = catalog._modes
    seconds, readings, infeasible = modes.solve(alpha, period_length, column)
    static_t, static_readings = modes.baselines(modes.curve(alpha)[0], period_length, column,
                                                infeasible)
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
        off_share=sum(seconds[:, modes.off].tolist()) / total_time,
        columns=PeriodColumns(
            starts=starts,
            budget=column.copy(),
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
    """Inclusive arithmetic grid start, start+step, ... up to stop."""
    spec = f"budget range {start!r}:{stop!r}:{step!r}"
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{spec}: start, stop and step must be finite")
    if step <= 0:
        raise ValueError(f"{spec}: step must be > 0")
    if stop < start:
        raise ValueError(f"{spec}: stop must be >= start")
    count = (stop - start) / step + 1e-9
    if not math.isfinite(count):
        raise ValueError(f"{spec}: too many points at this step")
    return start + step * np.arange(int(math.floor(count)) + 1)


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
    series = BudgetSeries(period_length, period_length * np.arange(len(grid)), grid)
    return simulate(series, catalog, alpha)


@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    ratio_stats: dict[int, RatioStats]


def sweep_alpha(
    catalog: Catalog, budgets: BudgetSeries, alphas: list[float]
) -> list[AlphaPoint]:
    """Aggregate normalized ratios (with min/max bounds) for each alpha,
    one simulation per alpha."""
    return [
        AlphaPoint(alpha, simulate(budgets, catalog, alpha).ratio_stats)
        for alpha in map(float, alphas)
    ]


def sweep_to_csv(report: SimulationReport, catalog: Catalog) -> str:
    """One row per budget: optimizer metrics then each static baseline's,
    rendered from the report's columns.  catalog must be the report's."""
    if catalog.ids != report.dp_ids:
        raise ValueError(
            f"catalog design points {catalog.ids} are not the report's {report.dp_ids}"
        )
    metrics = ("objective", "expected_accuracy", "active_fraction")
    c = report.columns
    cols = ["budget_j"] + [f"opt_{m}" for m in metrics]
    fill = [c.budget, *c.readings[:3]]
    for k, dp_id in enumerate(report.dp_ids):
        cols += [f"dp{dp_id}_{m}" for m in metrics]
        fill += list(c.static_readings[:3, :, k])
    return write_table(",".join(cols), fill)


def alpha_sweep_to_csv(points: list[AlphaPoint], catalog: Catalog) -> str:
    """One row per alpha: each design point's ratio stats; None is blank."""
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


def report_to_json(report: SimulationReport) -> str:
    """Full report: aggregates plus every period record, laid out as
    json.dumps(payload, indent=2) lays them out, rendered from the columns."""
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
    # Everything in a record after "start" is a function of the row's
    # floats, its infeasible flag and its defined mask, so each distinct
    # row is rendered once; keying on bits keeps -0.0 apart from 0.0.
    n = len(report.dp_ids)
    static_off = report.period_length - c.static_t
    floats = np.column_stack(
        [c.budget, c.seconds, c.readings.T]
        + [np.column_stack([c.static_t[:, k], static_off[:, k], c.static_readings[:, :, k].T])
           for k in range(n)]
        + [c.ratios]
    )
    keys = np.column_stack([floats.view(np.int64), c.infeasible, c.defined])
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    words = float_words(floats[first], json.dumps)
    words[:, -n:][~c.defined[first]] = "null"
    record, optimal_tail = _record_template(report.dp_ids, OPTIMAL)
    infeasible_tail = _record_template(report.dp_ids, INFEASIBLE)[1]
    tails = np.array([
        (infeasible_tail if below else optimal_tail) % tuple(row)
        for below, row in zip(c.infeasible[first].tolist(), words.tolist())
    ], dtype=object)[inverse.reshape(-1)]
    starts = float_words(c.starts, json.dumps)
    records = ",\n".join(
        map(record.__mod__, zip(range(periods), starts.tolist(), tails.tolist()))
    )
    # json.dumps(head) ends in "\n}": the records go in before that brace.
    return json.dumps(head, indent=2)[:-2] + ',\n  "records": [\n' + records + "\n  ]\n}\n"


def report_to_csv(report: SimulationReport) -> str:
    """One row per period; undefined ratios serialize as empty cells."""
    cols = ["index", "start", "budget_j", "opt_objective", "opt_expected_accuracy",
            "opt_active_fraction", "opt_off_time"]
    for dp_id in report.dp_ids:
        cols += [f"dp{dp_id}_time", f"dp{dp_id}_static_objective", f"dp{dp_id}_ratio"]
    c = report.columns
    ratios = float_words(c.ratios)
    ratios[~c.defined] = ""
    fill = [range(len(c.budget)), c.starts, c.budget, *c.readings[:3], c.seconds[:, -1]]
    for k in range(len(report.dp_ids)):
        fill += [c.seconds[:, k], c.static_readings[0, :, k], ratios[:, k].tolist()]
    return write_table(",".join(cols), fill)
