"""Independent slow oracles and instance generators for the test suite.

brute_force_lp enumerates candidate vertices of small LPs directly from
the constraint geometry, with none of the tableau machinery under test,
so agreement with the simplex solver is meaningful evidence.

reference_report_json and reference_report_csv serialize a simulation
report the direct way, through its records and the json module, with
each ratio recomputed from the record's objectives, and
reference_sweep_csv and reference_alpha_sweep_csv write the two sweep
CSVs cell by cell; the column writers in eaopt.simulator must give the
same bytes.

one_shot_budgets and one_shot_rebin turn a trace into budgets over the
whole trace at once, the references for the blocked conversion.

numpy_envelope finds the rising upper concave envelope with numpy's
stable argsort and running maximum, the reference for the allocator's
pure-Python one.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from hypothesis import strategies as st

from eaopt._tolerance import COUNT_SLACK
from eaopt.catalog import Catalog, DesignPoint

_FEAS_TOL = 1e-9


def brute_force_lp(objective, constraints):
    """Best vertex of {x >= 0, constraints} for tiny LPs, or None.

    A vertex activates n planes chosen from the constraint hyperplanes
    and the coordinate planes x_i = 0; equality rows are always active.
    Suitable only for feasible bounded instances (the optimum of such an
    LP lies at a vertex).  Returns (objective_value, x).
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    rows = [
        (np.asarray(coeffs, dtype=float), sense, float(rhs))
        for coeffs, sense, rhs in constraints
    ]
    planes = [(coeffs, rhs) for coeffs, _, rhs in rows]
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = 1.0
        planes.append((axis, 0.0))
    eq_rows = {k for k, (_, sense, _) in enumerate(rows) if sense == "eq"}
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        if not eq_rows.issubset(combo):
            continue
        a_mat = np.array([planes[k][0] for k in combo])
        b_vec = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(a_mat, b_vec)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(a_mat @ x - b_vec)) > 1e-6:
            continue  # near-singular system, not a trustworthy vertex
        if np.min(x) < -_FEAS_TOL:
            continue
        if not _feasible(rows, x):
            continue
        value = float(c @ x)
        if best is None or value > best[0]:
            best = (value, x)
    return best


def _feasible(rows, x) -> bool:
    for coeffs, sense, rhs in rows:
        lhs = float(coeffs @ x)
        slack = _FEAS_TOL * max(1.0, abs(rhs))
        if sense == "le" and lhs > rhs + slack:
            return False
        if sense == "eq" and abs(lhs - rhs) > slack:
            return False
    return True


def numpy_envelope(power: np.ndarray, utility: np.ndarray) -> tuple[int, ...]:
    """Modes on the rising upper concave envelope of (power, utility),
    cheapest first, by numpy: a stable argsort by power, a running maximum
    of utility, then Andrew's monotone chain."""
    order = np.argsort(power, kind="stable")
    ranked = utility[order]
    rises = np.empty(order.size, dtype=bool)
    rises[0] = True
    np.greater(ranked[1:], np.maximum.accumulate(ranked)[:-1], out=rises[1:])
    kept = order[rises].tolist()
    px, uy = power[kept].tolist(), utility[kept].tolist()
    hull: list[int] = []
    for k in range(len(kept)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (px[a] - px[o]) * (uy[k] - uy[o]) - (uy[a] - uy[o]) * (px[k] - px[o])
            if cross < 0:
                break
            hull.pop()
        hull.append(k)
    return tuple(kept[k] for k in hull)


def random_feasible_bounded_lp(rng: np.random.Generator):
    """(objective, constraints, feasible_point) with a bounded region.

    Family A is all-inequality with nonnegative right-hand sides, so the
    origin is feasible; family B pins an equality through a known point
    and relaxes inequalities around it.  Both add a simplex-bounding row
    so the maximum is finite.
    """
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    objective = rng.uniform(-1.0, 1.0, size=n)
    constraints = []
    if rng.random() < 0.5:
        feasible_point = np.zeros(n)
        for _ in range(m):
            constraints.append((rng.uniform(-1.0, 1.0, size=n), "le", rng.uniform(0.0, 5.0)))
        constraints.append((np.ones(n), "le", rng.uniform(1.0, 10.0)))
    else:
        feasible_point = rng.uniform(0.0, 2.0, size=n)
        coeffs = rng.uniform(-1.0, 1.0, size=n)
        constraints.append((coeffs, "eq", float(coeffs @ feasible_point)))
        for _ in range(m - 1):
            row = rng.uniform(-1.0, 1.0, size=n)
            constraints.append((row, "le", float(row @ feasible_point) + rng.uniform(0.0, 3.0)))
        constraints.append((np.ones(n), "le", float(feasible_point.sum()) + rng.uniform(1.0, 5.0)))
    return objective, constraints, feasible_point


def random_catalog(rng: np.random.Generator, max_points: int = 100):
    """Random valid catalog data: (accuracies, powers, off_power)."""
    n = int(rng.integers(1, max_points + 1))
    accuracies = rng.uniform(0.05, 1.0, size=n)
    powers = rng.uniform(1e-4, 1e-2, size=n)
    off_power = float(powers.min()) * float(rng.uniform(0.0, 0.9))
    return accuracies, powers, off_power


# Design points drawn from small grids, so equal powers, equal
# accuracies and exact twins are common.
_ACCURACY = st.one_of(st.sampled_from([0.05, 0.5, 0.76, 0.9, 1.0]), st.floats(0.01, 1.0))
_POWER = st.one_of(st.sampled_from([1e-4, 1.2e-3, 2e-3]), st.floats(1e-5, 1e-1))
# Ids need not be 1..N: any distinct integers, large ones included.
_IDS = st.one_of(st.just(None), st.lists(st.integers(0, 10**12), min_size=7, max_size=7,
                                         unique=True))
_PERIOD = st.one_of(st.sampled_from([60.0, 3600.0, 86400.0]), st.floats(60.0, 86400.0))


@st.composite
def degenerate_cases(draw):
    """(catalog, period, budgets, alpha) with ties, twins, off_power = 0,
    and budgets at zero, at the keep-alive floor and below it."""
    points = draw(st.lists(st.tuples(_ACCURACY, _POWER), min_size=1, max_size=6))
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))  # an exact twin
    off_power = min(p for _, p in points) * draw(
        st.one_of(st.just(0.0), st.floats(0.0, 0.9))
    )
    ids = draw(_IDS) or range(1, len(points) + 1)
    catalog = Catalog(
        tuple(DesignPoint(i, f"P{i}", a, p) for i, (a, p) in zip(ids, points)),
        off_power,
    )
    period = draw(_PERIOD)
    floor = off_power * period
    top = max(p for _, p in points) * period
    budget = st.one_of(
        st.just(0.0),
        st.just(floor),
        st.floats(0.0, 1.0).map(lambda f: f * floor),  # below the floor
        st.floats(0.0, 1.2).map(lambda f: floor + f * (top - floor)),
    )
    budgets = draw(st.lists(budget, min_size=1, max_size=5))
    alpha = draw(st.floats(0.0, 64.0))
    return catalog, period, budgets, alpha


# The north star's scales: microwatt to watt powers, and any period
# length, from 1 ms to more than a day.
_WIDE_POWER = st.one_of(st.sampled_from([1e-6, 1e-3, 1.0]), st.floats(1e-6, 1.0))
_WIDE_PERIOD = st.one_of(st.sampled_from([1e-3, 1.0, 3600.0, 1e5]), st.floats(1e-3, 1e5))


@st.composite
def every_scale_cases(draw):
    """(catalog, period, budgets, alpha) with powers from 1 uW to 1 W,
    periods from 1 ms to 1e5 s, power and accuracy ties, exact twins and
    off_power = 0.  The budgets are 0 and -0.0, the keep-alive floor and
    1e-8 either side of it, each design point's saturation budget, 1e308,
    and a few between the floor and past the top saturation budget."""
    points = draw(st.lists(st.tuples(_ACCURACY, _WIDE_POWER), min_size=1, max_size=6))
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))  # an exact twin
    off_power = min(p for _, p in points) * draw(
        st.one_of(st.just(0.0), st.floats(0.0, 0.9))
    )
    catalog = Catalog(
        tuple(DesignPoint(i, f"P{i}", a, p) for i, (a, p) in enumerate(points, 1)), off_power
    )
    period = draw(_WIDE_PERIOD)
    floor = off_power * period
    top = max(p for _, p in points) * period
    budgets = [0.0, -0.0, floor * (1 - 1e-8), floor, floor * (1 + 1e-8),
               *(p * period for _, p in points), 1e308]
    budgets += draw(st.lists(st.floats(0.0, 1.2).map(lambda f: floor + f * (top - floor)),
                             max_size=5))
    alpha = draw(st.one_of(st.sampled_from([0.0, 1e-9, 1.0, 40.0]), st.floats(0.0, 64.0)))
    return catalog, period, budgets, alpha


def highs_objective(catalog, period: float, budget: float, alpha: float) -> float:
    """Optimum from SciPy's HiGHS on the allocation LP rescaled to unit
    magnitudes: time as a share of the period, utility over the largest
    utility, power over the largest power.  0 when the budget cannot
    cover the keep-alive floor.

    The off share is eliminated (off = 1 - sum of active shares), so the
    budget row charges each design point its power above off_power.  An
    off column would carry off_power / max power, which can fall below
    HiGHS's small_matrix_value (1e-9); HiGHS drops such entries, and with
    the floor uncharged it would run design points on a budget that only
    covers the floor.  Every budget-row coefficient is at most 1 and the
    shares sum to at most 1, so the row's bound is capped at 1, which also
    keeps a mean power that overflows to inf (1e308 J over 1 ms) finite."""
    from scipy.optimize import linprog

    accuracy = np.array([dp.accuracy for dp in catalog])
    power = np.array([dp.power for dp in catalog])
    utility = accuracy**alpha
    scale = float(utility.max())
    if scale == 0.0:
        return 0.0
    p_ref = float(power.max())
    res = linprog(
        -utility / scale,
        A_ub=[(power - catalog.off_power) / p_ref, np.ones(power.size)],
        b_ub=[min((budget / period - catalog.off_power) / p_ref, 1.0), 1.0],
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 2:  # infeasible
        return 0.0
    if res.status != 0:
        raise ArithmeticError(f"HiGHS status {res.status}: {res.message}")
    return -float(res.fun) * scale


def one_shot_budgets(trace, panel, period_length: float) -> np.ndarray:
    """Irradiance budgets integrated over the whole trace at once, with no
    blocks: the reference that trace_to_budgets' blocked integration must
    match bit for bit, cap included.  Every hold is cut at the period edges
    it crosses, and one bincount credits each piece to the period it
    starts in."""
    times = trace.times
    t0 = float(times[0])
    last_hold = float(times[-1]) - float(times[-2]) if len(times) > 1 else period_length
    end = float(times[-1]) + last_hold
    n = max(1, math.ceil((end - t0) / period_length - COUNT_SLACK))
    starts = t0 + period_length * np.arange(n)
    power = trace.values * panel.area * panel.efficiency
    edges = starts[1:]
    cuts = np.sort(np.concatenate([times, [end], np.minimum(edges, end)]))
    sample = np.searchsorted(times, cuts[:-1], side="right") - 1
    period = np.searchsorted(edges, cuts[:-1], side="right")
    budgets = np.bincount(period, weights=power[sample] * np.diff(cuts), minlength=n)
    if panel.budget_cap is not None:
        budgets = np.minimum(budgets, panel.budget_cap)
    return budgets


def one_shot_rebin(trace, panel, period_length: float) -> np.ndarray:
    """Budget-mode samples summed into their periods over the whole trace
    at once, with no blocks: the reference that trace_to_budgets' blocked
    re-binning must match bit for bit, cap included.  Each sample goes to
    the last period start at or before it, and one bincount sums every
    period's samples in time order."""
    times = trace.times
    t0 = float(times[0])
    n = int((float(times[-1]) - t0) // period_length) + 2
    starts = t0 + period_length * np.arange(n)
    index = np.searchsorted(starts, times, side="right") - 1
    budgets = np.bincount(index, weights=trace.values)
    if panel.budget_cap is not None:
        budgets = np.minimum(budgets, panel.budget_cap)
    return budgets


def _ratio(optimized: float, static: float) -> float | None:
    """optimized / static, or None where undefined: the static objective
    is not positive, or the ratio overflows to inf."""
    if static <= 0.0:
        return None
    ratio = optimized / static
    return ratio if math.isfinite(ratio) else None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_report_json(report) -> str:
    """Full report: aggregates plus every period record, via json.dumps."""
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
                "ratios": {
                    str(i): _ratio(r.optimized.objective, a.objective)
                    for i, a in r.statics.items()
                },
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def reference_report_csv(report) -> str:
    """One row per period, cell by cell; undefined ratios are empty."""
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
            static = r.statics[dp_id].objective
            row += [r.optimized.times[k], static, _ratio(r.optimized.objective, static)]
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_sweep_csv(points, catalog) -> str:
    """One row per budget record, cell by cell: optimizer metrics then
    each static baseline's."""
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


def reference_alpha_sweep_csv(points, catalog) -> str:
    """One row per alpha point, cell by cell; None stats are empty."""
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
