"""Optimal time allocation across design points under an energy budget.

Within a period of length T the device splits its time between design
points and an off state so that total energy stays within the budget
while the accuracy-weighted utility

    J(t) = (1/T) * sum_i accuracy_i**alpha * t_i

is maximized.  alpha tunes the accuracy/duty-cycle trade-off: alpha=0
maximizes time on (any design point counts equally), alpha=1 maximizes
expected accuracy, large alpha favors the most accurate points only.

The problem is a two-constraint linear program (time closure equality
plus an energy inequality), solved with the simplex solver in lp_core.
An independent geometric solution -- the upper concave envelope of the
(power, accuracy**alpha) point set evaluated at the mean-power target
budget/T -- is provided as envelope_oracle for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog, DesignPoint, validate_catalog
from .lp_core import EQ, INFEASIBLE, LE, OPTIMAL, StandardFormLP, solve_lp

# Relative slack when deciding whether a budget can even sustain the
# keep-alive draw for the whole period.
_FLOOR_RTOL = 1e-9
_FLOOR_ATOL = 1e-15


@dataclass(frozen=True)
class AllocationProblem:
    """One period's inputs: length in seconds, budget in joules, alpha."""

    period: float
    budget: float
    alpha: float
    catalog: Catalog

    def __post_init__(self):
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period {self.period!r} must be finite and > 0")
        if not (math.isfinite(self.budget) and self.budget >= 0):
            raise ValueError(f"budget {self.budget!r} must be finite and >= 0")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha {self.alpha!r} must be finite and >= 0")
        problems = validate_catalog(self.catalog)
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class Allocation:
    """Solved schedule for one period.

    times[i] is the seconds assigned to dp_ids[i]; off_time covers the
    remainder of the period.  objective is J(t); expected_accuracy and
    active_fraction are the alpha=1 and alpha=0 readings of the same
    schedule.  energy_used includes the keep-alive draw.
    """

    dp_ids: tuple[int, ...]
    times: tuple[float, ...]
    off_time: float
    objective: float
    expected_accuracy: float
    active_fraction: float
    energy_used: float
    status: str

    def to_dict(self) -> dict:
        return {
            "times": {str(i): t for i, t in zip(self.dp_ids, self.times)},
            "off_time": self.off_time,
            "objective": self.objective,
            "expected_accuracy": self.expected_accuracy,
            "active_fraction": self.active_fraction,
            "energy_used": self.energy_used,
            "status": self.status,
        }


def _finish(
    dps: tuple[DesignPoint, ...],
    times: np.ndarray,
    off_time: float,
    period: float,
    off_power: float,
    alpha: float,
    status: str,
) -> Allocation:
    acc = np.array([dp.accuracy for dp in dps])
    pw = np.array([dp.power for dp in dps])
    vals = acc**alpha
    return Allocation(
        dp_ids=tuple(dp.id for dp in dps),
        times=tuple(float(t) for t in times),
        off_time=float(off_time),
        objective=float(vals @ times) / period,
        expected_accuracy=float(acc @ times) / period,
        active_fraction=float(np.ones_like(acc) @ times) / period,
        energy_used=float(pw @ times) + off_power * float(off_time),
        status=status,
    )


def _below_floor(budget: float, period: float, off_power: float) -> bool:
    floor = off_power * period
    return budget < floor * (1.0 - _FLOOR_RTOL) - _FLOOR_ATOL


def _infeasible(problem: AllocationProblem) -> Allocation:
    dps = problem.catalog.design_points
    return _finish(
        dps,
        np.zeros(len(dps)),
        problem.period,
        problem.period,
        problem.catalog.off_power,
        problem.alpha,
        INFEASIBLE,
    )


def build_problem(problem: AllocationProblem) -> StandardFormLP:
    """LP over (t_1..t_N, t_off): time closure EQ plus energy LE."""
    dps = problem.catalog.design_points
    n = len(dps)
    weights = np.array([dp.accuracy**problem.alpha for dp in dps]) / problem.period
    objective = np.concatenate([weights, [0.0]])
    ones = np.ones(n + 1)
    powers = np.array([dp.power for dp in dps] + [problem.catalog.off_power])
    return StandardFormLP(
        objective=objective,
        constraints=[
            (ones, EQ, problem.period),
            (powers, LE, problem.budget),
        ],
    )


def optimize_allocation(problem: AllocationProblem, max_iterations: int | None = None) -> Allocation:
    """Solve one period.  Infeasible only when the budget cannot cover
    the keep-alive floor off_power * period."""
    if _below_floor(problem.budget, problem.period, problem.catalog.off_power):
        return _infeasible(problem)
    solution = solve_lp(build_problem(problem), max_iterations=max_iterations)
    if solution.status != OPTIMAL or solution.values is None:
        if solution.status == INFEASIBLE:
            return _infeasible(problem)
        raise ArithmeticError(f"allocation solve ended with status {solution.status!r}")
    values = np.clip(solution.values, 0.0, None)
    times = values[:-1]
    off_time = max(problem.period - float(times.sum()), 0.0)
    return _finish(
        problem.catalog.design_points,
        times,
        off_time,
        problem.period,
        problem.catalog.off_power,
        problem.alpha,
        solution.status,
    )


def envelope_oracle(problem: AllocationProblem) -> float:
    """J* from the concave-envelope geometry, independent of the LP.

    Plot each state at (power, accuracy**alpha) with the off state at
    (off_power, 0).  Feasible utilities at mean power p are exactly the
    convex combinations of these points, so J* is the upper concave
    envelope evaluated at p* = budget / period, saturating at the
    highest-utility vertex when the budget exceeds its power.
    """
    if _below_floor(problem.budget, problem.period, problem.catalog.off_power):
        return 0.0
    pts = [(problem.catalog.off_power, 0.0, -1)]
    pts += [
        (dp.power, dp.accuracy**problem.alpha, i)
        for i, dp in enumerate(problem.catalog.design_points)
    ]
    pts.sort(key=lambda p: (p[0], -p[1], p[2]))
    dedup = []
    for p in pts:
        if dedup and p[0] == dedup[-1][0]:
            continue  # same power: keep the higher-utility point
        dedup.append(p)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull: list[tuple[float, float, int]] = []
    for p in dedup:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    # Keep only the rising part: past the peak, spending more power per
    # second buys nothing, so the envelope is flat from the peak onward.
    rising = [hull[0]]
    for p in hull[1:]:
        if p[1] <= rising[-1][1]:
            break
        rising.append(p)
    hull = rising

    # A budget that passes the floor check can still divide to a mean
    # power a rounding error below the off vertex (0.18 J / 3600 s on
    # the builtin catalog); it sits on that vertex.
    target = max(problem.budget / problem.period, hull[0][0])
    if target >= hull[-1][0]:
        return hull[-1][1]
    for left, right in zip(hull, hull[1:]):
        if left[0] <= target <= right[0]:
            lam = (target - left[0]) / (right[0] - left[0])
            return (1.0 - lam) * left[1] + lam * right[1]
    raise ArithmeticError("target below the keep-alive vertex despite floor check")


def static_dp_allocation(
    dp: DesignPoint,
    period: float,
    budget: float,
    off_power: float,
    alpha: float = 1.0,
) -> Allocation:
    """Best single-mode schedule: run dp until the budget is spent.

    The device runs dp for t seconds and idles the rest, so the budget
    supports t = (budget - off_power * period) / (power - off_power),
    clipped to [0, period].
    """
    if dp.power <= off_power:
        raise ValueError(
            f"{dp.label}: power {dp.power!r} W must exceed off_power {off_power!r} W"
        )
    dps = (dp,)
    if _below_floor(budget, period, off_power):
        return _finish(dps, np.zeros(1), period, period, off_power, alpha, INFEASIBLE)
    t = (budget - off_power * period) / (dp.power - off_power)
    t = min(period, max(t, 0.0))
    return _finish(dps, np.array([t]), period - t, period, off_power, alpha, OPTIMAL)
