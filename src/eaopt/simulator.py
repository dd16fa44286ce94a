"""Multi-period simulation and parameter sweeps over the allocator.

Runs the optimizer across a BudgetSeries, solves every static
single-mode baseline for the same budgets, and aggregates normalized
performance ratios.  Periods are independent (no energy rollover), so
records preserve input order and the whole run is reproducible.

When a static baseline scores zero for a period (the budget covers only
the keep-alive floor, or nothing at all), the ratio for that period is
undefined; aggregates count those periods instead of folding infinities
into the means.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .allocator import Allocation, _check_inputs, _Modes
from .catalog import Catalog
from .harvest import BudgetSeries


@dataclass(frozen=True)
class RatioStats:
    """Aggregate of optimized/static objective ratios over periods where
    the static objective is positive."""

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
    ratios: dict[int, float | None]  # None when the static objective is 0


@dataclass(frozen=True)
class SimulationReport:
    alpha: float
    period_length: float
    dp_ids: tuple[int, ...]
    dp_labels: tuple[str, ...]
    records: tuple[PeriodRecord, ...]
    ratio_stats: dict[int, RatioStats]
    mean_expected_accuracy: float
    mean_active_fraction: float
    time_share: dict[int, float]  # fraction of total time on each DP
    off_share: float


def _checked(
    budgets: BudgetSeries, catalog: Catalog, alpha: float, period_length: float | None
) -> tuple[float, np.ndarray]:
    """The period length and the budgets as a float array, once every
    input is checked."""
    if period_length is None:
        period_length = budgets.period_length
    elif not math.isclose(period_length, budgets.period_length, rel_tol=1e-9):
        raise ValueError(
            f"period length {period_length!r} does not match the budget series "
            f"({budgets.period_length!r})"
        )
    if len(budgets) == 0:
        raise ValueError("budget series is empty")
    column = np.asarray(budgets.budgets, dtype=float)
    _check_inputs(period_length, column.tolist(), alpha, catalog)
    return period_length, column


def _ratio_stats(
    ratios: np.ndarray, defined: np.ndarray, dp_ids: tuple[int, ...]
) -> dict[int, RatioStats]:
    """Per design point, the (P, N) ratios where defined, summed in period order."""
    stats = {}
    for k, dp_id in enumerate(dp_ids):
        values = ratios[defined[:, k], k].tolist()
        stats[dp_id] = RatioStats(
            mean=sum(values) / len(values) if values else None,
            min=min(values) if values else None,
            max=max(values) if values else None,
            defined=len(values),
            undefined=len(ratios) - len(values),
        )
    return stats


def _ratios(objective: np.ndarray, static_objective: np.ndarray):
    """(P, N) optimized / static objectives, and where they are defined
    (static objective > 0); undefined entries hold 0.0."""
    defined = static_objective > 0.0
    ratios = np.divide(objective[:, None], static_objective,
                       out=np.zeros_like(static_objective), where=defined)
    return ratios, defined


def simulate(
    budgets: BudgetSeries,
    catalog: Catalog,
    alpha: float,
    period_length: float | None = None,
) -> SimulationReport:
    """One optimized-vs-static record per period, plus aggregates."""
    period_length, column = _checked(budgets, catalog, alpha, period_length)
    modes = _Modes(catalog)
    utility = modes.utility(alpha)
    optimized, objective = modes.solve(utility, period_length, column)
    statics, static_objective = modes.baselines(utility, period_length, column)
    ratios, defined = _ratios(objective, static_objective)
    cells = np.where(defined, ratios, None).tolist()
    starts = np.asarray(budgets.starts, dtype=float).tolist()
    records = tuple(
        PeriodRecord(i, start, budget, opt, dict(zip(modes.ids, row_statics)),
                     dict(zip(modes.ids, row_ratios)))
        for i, (start, budget, opt, row_statics, row_ratios) in enumerate(
            zip(starts, column.tolist(), optimized, zip(*statics), cells)
        )
    )
    n = len(records)
    total_time = n * period_length
    return SimulationReport(
        alpha=alpha,
        period_length=period_length,
        dp_ids=catalog.ids,
        dp_labels=catalog.labels,
        records=records,
        ratio_stats=_ratio_stats(ratios, defined, modes.ids),
        mean_expected_accuracy=sum(a.expected_accuracy for a in optimized) / n,
        mean_active_fraction=sum(a.active_fraction for a in optimized) / n,
        time_share={
            dp_id: sum(a.times[k] for a in optimized) / total_time
            for k, dp_id in enumerate(modes.ids)
        },
        off_share=sum(a.off_time for a in optimized) / total_time,
    )


def budget_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid start, start+step, ... up to stop."""
    if step <= 0:
        raise ValueError(f"step {step!r} must be > 0")
    if stop < start:
        raise ValueError(f"stop {stop!r} must be >= start {start!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def sweep_budget(
    catalog: Catalog,
    alpha: float,
    start: float,
    stop: float,
    step: float,
    period_length: float = 3600.0,
) -> tuple[PeriodRecord, ...]:
    """Optimizer and static baselines across a budget grid, one record
    per grid budget."""
    grid = budget_grid(start, stop, step)
    series = BudgetSeries(period_length, period_length * np.arange(len(grid)), grid)
    return simulate(series, catalog, alpha).records


@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    ratio_stats: dict[int, RatioStats]


def sweep_alpha(
    catalog: Catalog,
    budgets: BudgetSeries,
    alphas: list[float],
    period_length: float | None = None,
) -> list[AlphaPoint]:
    """Aggregate normalized ratios (with min/max bounds) for each alpha."""
    points = []
    static = None
    for alpha in map(float, alphas):
        period, column = _checked(budgets, catalog, alpha, period_length)
        if static is None:  # the static schedules do not depend on alpha
            modes = _Modes(catalog)
            static = modes.static(period, column)
        utility = modes.utility(alpha)
        optimal = modes.optimal(utility, period, column)
        ratios, defined = _ratios(optimal.weigh(utility) / period, static.weigh(utility) / period)
        points.append(AlphaPoint(alpha, _ratio_stats(ratios, defined, modes.ids)))
    return points


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_to_csv(points: tuple[PeriodRecord, ...], catalog: Catalog) -> str:
    """One row per budget: optimizer metrics then each static baseline's."""
    cols = ["budget_j", "opt_objective", "opt_expected_accuracy", "opt_active_fraction"]
    for dp in catalog:
        cols += [
            f"dp{dp.id}_objective",
            f"dp{dp.id}_expected_accuracy",
            f"dp{dp.id}_active_fraction",
        ]
    lines = [",".join(cols)]
    for pt in points:
        row = [
            pt.budget,
            pt.optimized.objective,
            pt.optimized.expected_accuracy,
            pt.optimized.active_fraction,
        ]
        for dp in catalog:
            static = pt.statics[dp.id]
            row += [static.objective, static.expected_accuracy, static.active_fraction]
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def alpha_sweep_to_csv(points: list[AlphaPoint], catalog: Catalog) -> str:
    cols = ["alpha"]
    for dp in catalog:
        cols += [
            f"dp{dp.id}_ratio_mean",
            f"dp{dp.id}_ratio_min",
            f"dp{dp.id}_ratio_max",
            f"dp{dp.id}_defined",
            f"dp{dp.id}_undefined",
        ]
    lines = [",".join(cols)]
    for pt in points:
        row: list = [pt.alpha]
        for dp in catalog:
            stats = pt.ratio_stats[dp.id]
            row += [stats.mean, stats.min, stats.max, stats.defined, stats.undefined]
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def report_to_json(report: SimulationReport) -> str:
    """Full report: aggregates plus every period record."""
    payload = {
        "alpha": report.alpha,
        "period_length": report.period_length,
        "dp_ids": list(report.dp_ids),
        "dp_labels": list(report.dp_labels),
        "periods": len(report.records),
        "mean_expected_accuracy": report.mean_expected_accuracy,
        "mean_active_fraction": report.mean_active_fraction,
        "time_share": {str(i): s for i, s in report.time_share.items()},
        "off_share": report.off_share,
        "ratio_stats": {
            str(i): {
                "mean": st.mean,
                "min": st.min,
                "max": st.max,
                "defined": st.defined,
                "undefined": st.undefined,
            }
            for i, st in report.ratio_stats.items()
        },
        "records": [
            {
                "index": r.index,
                "start": r.start,
                "budget": r.budget,
                "optimized": r.optimized.to_dict(),
                "statics": {str(i): a.to_dict() for i, a in r.statics.items()},
                "ratios": {str(i): v for i, v in r.ratios.items()},
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_csv(report: SimulationReport) -> str:
    """One row per period; undefined ratios serialize as empty cells."""
    cols = ["index", "start", "budget_j", "opt_objective", "opt_expected_accuracy",
            "opt_active_fraction", "opt_off_time"]
    for dp_id in report.dp_ids:
        cols += [f"dp{dp_id}_time", f"dp{dp_id}_static_objective", f"dp{dp_id}_ratio"]
    lines = [",".join(cols)]
    for r in report.records:
        row: list = [
            r.index,
            r.start,
            r.budget,
            r.optimized.objective,
            r.optimized.expected_accuracy,
            r.optimized.active_fraction,
            r.optimized.off_time,
        ]
        for k, dp_id in enumerate(report.dp_ids):
            row += [r.optimized.times[k], r.statics[dp_id].objective, r.ratios[dp_id]]
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"
