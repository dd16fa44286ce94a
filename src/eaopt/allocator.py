"""Optimal time allocation across design points under an energy budget.

Within a period of length T the device splits its time between design
points and an off state so that total energy stays within the budget
while the accuracy-weighted utility

    J(t) = (1/T) * sum_i accuracy_i**alpha * t_i

is maximized.  alpha tunes the accuracy/duty-cycle trade-off: alpha=0
maximizes time on (any design point counts equally), alpha=1 maximizes
expected accuracy, large alpha favors the most accurate points only.

The problem is a two-constraint linear program (time closure equality
plus an energy inequality).  Its optimum is the rising upper concave
envelope of {(off_power, 0)} and the (power, accuracy**alpha) points,
evaluated at the mean power budget/T, so at most two modes are ever
active: the envelope vertices on either side of budget/T, or the top
vertex alone once the budget covers its power.  Every schedule here is
one closed form, _Modes.split: mode right runs for
t_right = clip((budget - p_left T) / (p_right - p_left), 0, T) seconds
and mode left for the rest.  The optimum takes (left, right) to be the
envelope segment around budget/T, and the static baseline of design
point k takes it to be (off, k).  Both solve a whole array of budgets at
once, and share one keep-alive floor mask.  regime_map reads the budgets
where the optimal mix changes off the same envelope.

Nothing that depends only on the catalog is redone per decision.  Each
Catalog keeps, in cached properties, its validation result and one
_Modes table: the read-only accuracy, power and active arrays.  The
table keeps the utilities and envelope of _ALPHA_MEMO alpha values in a
functools.lru_cache; when it is full, the least recently used is
dropped.  optimize_allocation, simulate and regime_map all read the
envelope from there.

Ties follow one rule.  Between modes of equal power the envelope keeps
the higher utility, then the lower catalog index; between modes of
equal utility it keeps the cheapest.  So at alpha=0, where every
design point has utility 1, the cheapest design point runs for as much
of the period as the budget allows and any leftover energy is unspent.

build_problem writes the same problem as a StandardFormLP for the
simplex solver in lp_core, and envelope_oracle recomputes the optimum
in pure Python; both are independent cross-checks of the allocator and
read none of these caches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, DesignPoint
from .lp_core import EQ, INFEASIBLE, LE, OPTIMAL, StandardFormLP

# Relative slack when deciding whether a budget can even sustain the
# keep-alive draw for the whole period.
_FLOOR_RTOL = 1e-9

# How many alpha values a _Modes table keeps the utilities and envelope
# of; the least recently used is dropped to make room for a new one.
_ALPHA_MEMO = 64


def _check_inputs(period: float, budgets, alpha: float, catalog: Catalog) -> None:
    """Raise ValueError on the first input no schedule can be solved for."""
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period {period!r} must be finite and > 0")
    budgets = np.asarray(budgets)
    bad = ~(np.isfinite(budgets) & (budgets >= 0))
    if bad.any():
        budget = budgets[bad.argmax()].item()
        raise ValueError(f"budget {budget!r} must be finite and >= 0")
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha {alpha!r} must be finite and >= 0")
    if catalog._problems:
        raise ValueError("; ".join(catalog._problems))


@dataclass(frozen=True)
class AllocationProblem:
    """One period's inputs: length in seconds, budget in joules, alpha."""

    period: float
    budget: float
    alpha: float
    catalog: Catalog

    def __post_init__(self):
        _check_inputs(self.period, (self.budget,), self.alpha, self.catalog)


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


def _below_floor(budget, period: float, off_power: float):
    """Whether each budget falls short of the keep-alive draw off_power * period."""
    floor = off_power * period
    return budget < floor * (1.0 - _FLOOR_RTOL)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Modes:
    """A catalog as read-only arrays: its design points, then the off
    state.  Catalog._modes holds one per catalog, shared by every
    decision on it."""

    def __init__(self, catalog: Catalog):
        dps = catalog.design_points
        self.off = len(dps)
        self.accuracy = _read_only(np.array([dp.accuracy for dp in dps] + [0.0]))
        self.power = _read_only(np.array([dp.power for dp in dps] + [catalog.off_power]))
        active = np.ones(self.off + 1)
        active[self.off] = 0.0
        self.active = _read_only(active)

    def utility(self, alpha: float) -> np.ndarray:
        utility = self.accuracy**alpha
        utility[self.off] = 0.0  # 0.0**0 is 1
        return utility

    @functools.cached_property
    def curve(self):
        """_curve, kept for the _ALPHA_MEMO most recently used alpha
        values.  Built on first use: a table that static_dp_allocation
        makes for one call never needs it."""
        return functools.lru_cache(_ALPHA_MEMO)(self._curve)

    def _curve(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(utility, envelope) at alpha, both read-only."""
        utility = _read_only(self.utility(float(alpha)))  # 1 and 1.0 share one key
        return utility, _read_only(self.envelope(utility))

    def envelope(self, utility: np.ndarray) -> np.ndarray:
        """Modes on the rising upper concave envelope of (power, utility),
        cheapest first; the off state is always the first."""
        power = self.power
        # Modes of equal power stay in catalog order.  Of those, the first
        # with the highest utility survives the filter or the chain below.
        order = np.argsort(power, kind="stable")
        # A mode that does not raise the best utility of the cheaper ones
        # is never optimal.  The survivors rise in utility.
        ranked = utility[order]
        rises = np.empty(order.size, dtype=bool)
        rises[0] = True
        np.greater(ranked[1:], np.maximum.accumulate(ranked)[:-1], out=rises[1:])
        kept = order[rises].tolist()
        px, uy = power[kept].tolist(), utility[kept].tolist()
        hull: list[int] = []  # Andrew's monotone chain, upper half
        for k in range(len(kept)):
            while len(hull) >= 2:
                o, a = hull[-2], hull[-1]
                cross = (px[a] - px[o]) * (uy[k] - uy[o]) - (uy[a] - uy[o]) * (px[k] - px[o])
                if cross < 0:
                    break
                hull.pop()
            hull.append(k)
        return np.array([kept[k] for k in hull])

    def split(self, budgets: np.ndarray, period: float, left, right) -> np.ndarray:
        """Seconds on mode right of the schedules that mix modes left and
        right to spend each budget: t_right = (budget - p_left T) /
        (p_right - p_left), clipped to [0, T]; mode left runs the rest.  A
        quotient that overflows to inf clips to T."""
        p_left = self.power[left]
        with np.errstate(over="ignore"):
            t_right = (budgets - p_left * period) / (self.power[right] - p_left)
        return np.minimum(np.maximum(t_right, 0.0, out=t_right), period, out=t_right)

    def readings(self, left, right, t_right, utility: np.ndarray, period: float) -> np.ndarray:
        """Rows objective, expected_accuracy, active_fraction and
        energy_used of each schedule that runs mode left for T - t_right
        seconds and mode right for t_right: one expression, with the
        weight swapped.  The arrays broadcast to one shape, one entry per
        schedule.  Only the two mixed modes take part, so a reading does
        not depend on how many schedules are solved together."""
        weight = np.array((utility, self.accuracy, self.active, self.power))
        readings = weight[..., left] * (period - t_right) + weight[..., right] * t_right
        readings[:3] /= period
        return readings

    def solve(self, alpha: float, period: float, budgets: np.ndarray):
        """The optimal schedules, one per budget: (P, N+1) seconds per
        mode, off last, their (4, P) readings, and the (P,) mask of
        budgets below the keep-alive floor, which stay off.  The mean
        power budget/period falls on one envelope segment (left, right),
        which split() shares out."""
        utility, hull = self.curve(alpha)
        if hull.size == 1:  # every utility is 0: stay off
            left, right = np.full((2, budgets.size), self.off)
            t_right = np.zeros(budgets.size)
        else:
            # Searching the inner vertices gives the segment index; budgets
            # past either end fall on the end segments and clip there.
            seg = np.searchsorted(self.power[hull[1:-1]], budgets / period, side="right")
            left, right = hull[seg], hull[seg + 1]
            t_right = self.split(budgets, period, left, right)
        below = _below_floor(budgets, period, self.power[self.off])
        left[below] = self.off
        t_right[below] = 0.0
        rows = np.arange(budgets.size)
        seconds = np.zeros((budgets.size, self.off + 1))
        seconds[rows, left] = period - t_right
        seconds[rows, right] += t_right
        return seconds, self.readings(left, right, t_right, utility, period), below

    def baselines(self, utility: np.ndarray, period: float, budgets: np.ndarray,
                  below: np.ndarray):
        """The static schedules: (P, N) seconds on each design point, off
        for the rest of the period, and their (4, P, N) readings.  Design
        point k is split() on the segment (off, k); budgets flagged in
        below, the keep-alive floor mask, stay off."""
        off, dps = np.full((1, 1), self.off), np.arange(self.off)[None, :]
        t = self.split(budgets[:, None], period, off, dps)
        t[below] = 0.0
        return t, self.readings(off, dps, t, utility, period)


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


def optimize_allocation(problem: AllocationProblem) -> Allocation:
    """Solve one period.  Infeasible only when the budget cannot cover
    the keep-alive floor off_power * period."""
    catalog = problem.catalog
    budgets = np.array([problem.budget])
    seconds, readings, infeasible = catalog._modes.solve(problem.alpha, problem.period, budgets)
    return _allocations(catalog.ids, seconds[:, :-1], seconds[:, -1], readings, infeasible)[0]


def regime_map(
    catalog: Catalog, alpha: float, period: float
) -> list[tuple[float, tuple[int | None, ...]]]:
    """Where the optimal mix changes as the budget grows.

    One (start, ids) entry per envelope segment, cheapest first: from
    start joules (the left vertex's power times period) the optimal
    schedule mixes the modes with these ids, None being off.  The last
    entry is the top vertex alone, which runs the whole period from its
    start on.  Below the first start, the keep-alive floor, no schedule
    is feasible.
    """
    _check_inputs(period, (), alpha, catalog)
    modes = catalog._modes
    hull = modes.curve(alpha)[1].tolist()
    ids = (*catalog.ids, None)
    mixes = [(ids[left], ids[right]) for left, right in zip(hull, hull[1:])]
    return list(zip((modes.power[hull] * period).tolist(), [*mixes, (ids[hull[-1]],)]))


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
    clipped to [0, period].  The inputs are checked as AllocationProblem
    checks them.
    """
    catalog = Catalog((dp,), off_power)
    _check_inputs(period, (budget,), alpha, catalog)
    modes = catalog._modes
    budgets = np.array([budget])
    infeasible = _below_floor(budgets, period, off_power)
    t, readings = modes.baselines(modes.utility(alpha), period, budgets, infeasible)
    return _allocations((dp.id,), t, period - t[:, 0], readings[:, :, 0], infeasible)[0]
