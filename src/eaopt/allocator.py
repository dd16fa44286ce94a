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
vertex alone once the budget covers its power.  A mode that lies on the
straight line between its two neighbouring envelope vertices is not a
vertex: the envelope keeps the fewest vertices, so a budget between the
neighbours mixes just those two and the schedule switches modes as
seldom as it can.  Every schedule here is
one closed form: mode right runs for
t_right = clip((budget - p_left T) / (p_right - p_left), 0, T) seconds
and mode left for the rest.  The optimum takes (left, right) to be the
envelope segment around budget/T, and the static baseline of design
point k takes it to be (off, k).  A budget below the keep-alive floor is
infeasible, and the floor only sets that status: the off state is always
the first envelope vertex, so such a budget falls on the first segment,
whose t_right clips to 0.  regime_map reads the budgets where the
optimal mix changes off the same envelope.

Nothing that depends only on (catalog, alpha) is redone per decision.
Each Catalog keeps, in cached properties, its validation result and a
functools.lru_cache of _segments over its _rows, built once per catalog:
the accuracy, active and power rows and the modes in power order.  Each
entry is one immutable segment table of tuples (the envelope, its inner
vertex powers and the utility row beside those same three rows) for one
of the _ALPHA_MEMO most recently used alpha values.  The table is built
in Python floats, utilities by Python's **, as envelope_oracle and
build_problem spell them, so this module imports no numpy: one decision
through the CLI never loads it.  optimize_allocation and
static_dp_allocation are one decision each, _decide: one bisect of the
inner vertex powers, then the closed form on the table's floats; the
static schedule of a design point is _decide on its two-vertex (off, dp)
table, _static_table.  The CLI's budget sweep (_sweep.sweep_chunks) is
_decide on every grid budget, on the catalog's table and on the static
tables it builds once per sweep, so it runs without numpy too.
simulate solves all its budgets with simulator._solve and
simulator._baselines, which make numpy arrays of the same table once per
call and run the same operations in the same order, so that both give
the same bits for one budget.  regime_map reads the same table.

Ties follow one rule.  Between modes of equal power the envelope keeps
the higher utility, then the lower catalog index; between modes of
equal utility it keeps the cheapest.  So at alpha=0, where every
design point has utility 1, the cheapest design point runs for as much
of the period as the budget allows and any leftover energy is unspent.

build_problem writes the same problem as a StandardFormLP for the
simplex solver in lp_core, which it imports when called, and
envelope_oracle recomputes the optimum in pure Python; both are
independent cross-checks of the allocator and read none of these caches.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from ._tolerance import FLOOR_RTOL
from .catalog import Catalog, DesignPoint

# The status of a solved schedule; lp_core's solutions use the same words.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# How many alpha values' segment tables a catalog keeps; the least
# recently used is dropped to make room for a new one.
_ALPHA_MEMO = 64


def _check_budget(budget) -> None:
    """Raise ValueError unless budget is finite and >= 0.  A numpy
    scalar is named as the Python number its item() gives."""
    if not (math.isfinite(budget) and budget >= 0):
        value = budget.item() if hasattr(budget, "item") else budget
        raise ValueError(f"budget {value!r} must be finite and >= 0")


def _check_start(start) -> None:
    """Raise ValueError unless a period's start is finite, naming it as
    _check_budget names a budget."""
    if not math.isfinite(start):
        value = start.item() if hasattr(start, "item") else start
        raise ValueError(f"start {value!r} must be finite")


def _check_inputs(period: float, alpha: float, catalog: Catalog, check_budgets=lambda: None) -> None:
    """Raise ValueError on the first input no schedule can be solved for,
    checking the period, the budgets (check_budgets raises on a bad one),
    alpha and the catalog in that order."""
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period {period!r} must be finite and > 0")
    check_budgets()
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
        _check_inputs(self.period, self.alpha, self.catalog, lambda: _check_budget(self.budget))


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
    return budget < floor * (1.0 - FLOOR_RTOL)


@dataclass(frozen=True)
class _Segments:
    """The envelope of one (catalog, alpha) as a segment table: segment k
    mixes vertices hull[k] and hull[k + 1], and a mean power budget/T
    falls on the segment that bisecting the inner vertex powers gives.
    Every field is a tuple of Python ints or floats, so a table cannot
    change once built."""

    hull: tuple[int, ...]  # mode of each envelope vertex, cheapest first, off first
    inner: tuple[float, ...]  # power of each vertex but the first and the last
    weights: tuple[tuple[float, ...], ...]  # rows utility, accuracy, active, power; off last


def _rows(design_points: tuple[DesignPoint, ...], off_power: float):
    """The accuracy, active and power rows of the design points and the
    off state, off last, and the modes in stable power order: the parts
    of a segment table that do not depend on alpha.  Catalog._segments
    builds them once per catalog."""
    power = tuple(float(dp.power) for dp in design_points) + (float(off_power),)
    return (
        tuple(float(dp.accuracy) for dp in design_points) + (0.0,),
        (1.0,) * len(design_points) + (0.0,),
        power,
        tuple(sorted(range(len(power)), key=power.__getitem__)),
    )


def _segments(accuracy: tuple[float, ...], active: tuple[float, ...],
              power: tuple[float, ...], order: tuple[int, ...], alpha: float) -> _Segments:
    """The segment table at alpha of the modes whose _rows are accuracy,
    active, power and order.  Catalog._segments keeps it for the
    _ALPHA_MEMO most recently used alpha values."""
    alpha = float(alpha)  # the cache gives 1 and 1.0 one key
    utility = [a**alpha for a in accuracy]
    utility[-1] = 0.0  # 0.0**0 is 1
    hull = _envelope(power, utility, order)
    inner = tuple(power[k] for k in hull[1:-1])
    return _Segments(hull, inner, (tuple(utility), accuracy, active, power))


def _envelope(power, utility, order) -> tuple[int, ...]:
    """Modes on the rising upper concave envelope of (power, utility),
    cheapest first; the off state, the cheapest mode, is always the first.
    order lists the modes by power, those of equal power in catalog order.
    A mode on the line between its neighbours (cross == 0) is dropped, so
    the envelope has the fewest vertices and a schedule the fewest
    switches."""
    # A mode that does not raise the best utility of the cheaper ones is
    # never optimal, so of modes of equal power the first with the highest
    # utility survives.  The survivors rise in utility.
    kept = [order[0]]
    best = utility[order[0]]
    for k in order:
        if utility[k] > best:
            kept.append(k)
            best = utility[k]
    hull: list[int] = []  # Andrew's monotone chain, upper half
    for k in kept:
        pk, uk = power[k], utility[k]
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            po, uo = power[o], utility[o]
            cross = (power[a] - po) * (uk - uo) - (utility[a] - uo) * (pk - po)
            if cross < 0:
                break
            hull.pop()
        hull.append(k)
    return tuple(hull)


def _decide(table: _Segments, period: float, budget: float):
    """The optimal schedule of one budget, as simulator._solve finds it,
    by the same operations in the same order on Python floats: its N
    seconds per design point, its off time, its four readings, and whether
    the budget is below the keep-alive floor."""
    hull = table.hull
    utility, accuracy, active, power = table.weights
    off = len(power) - 1
    if len(hull) == 1:  # every utility is 0: stay off
        left = right = off
        t_right = 0.0
    else:
        seg = bisect.bisect_right(table.inner, budget / period)
        left, right = hull[seg], hull[seg + 1]
        p_left = power[left]
        t_right = (budget - p_left * period) / (power[right] - p_left)
        # 0.0 first: a budget of -0.0 clips to 0.0, as in np.maximum.
        t_right = min(period, max(0.0, t_right))
    # A budget below the floor is below p_off T, so it falls on the
    # first segment, off to the next vertex, and t_right clips to 0: the
    # schedule is already all off.
    below = _below_floor(budget, period, power[off])
    t_left = period - t_right
    seconds = [0.0] * (off + 1)
    seconds[left] = t_left
    seconds[right] += t_right
    off_time = seconds.pop()
    readings = (
        (utility[left] * t_left + utility[right] * t_right) / period,
        (accuracy[left] * t_left + accuracy[right] * t_right) / period,
        (active[left] * t_left + active[right] * t_right) / period,
        power[left] * t_left + power[right] * t_right,
    )
    return seconds, off_time, readings, below


def _static_table(weights: tuple[tuple[float, ...], ...], k: int) -> _Segments:
    """The segment (off, design point k) of a table's weight rows as a
    two-vertex table, even where k's utility is 0: _decide on it is the
    static schedule of k, as simulator._baselines splits the same segment."""
    return _Segments((1, 0), (), tuple((row[k], row[-1]) for row in weights))


def build_problem(problem: AllocationProblem) -> StandardFormLP:
    """LP over (t_1..t_N, t_off): time closure EQ plus energy LE."""
    import numpy as np

    from .lp_core import EQ, LE, StandardFormLP

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
    seconds, off_time, readings, below = _decide(
        catalog._segments(problem.alpha), float(problem.period), float(problem.budget))
    return Allocation(catalog.ids, tuple(seconds), off_time, *readings,
                      INFEASIBLE if below else OPTIMAL)


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
    _check_inputs(period, alpha, catalog)
    table = catalog._segments(alpha)
    hull, power, period = table.hull, table.weights[3], float(period)
    ids = (*catalog.ids, None)
    mixes = [(ids[left], ids[right]) for left, right in zip(hull, hull[1:])]
    return list(zip([power[k] * period for k in hull], [*mixes, (ids[hull[-1]],)]))


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
    _check_inputs(period, alpha, Catalog((dp,), off_power), lambda: _check_budget(budget))
    accuracy, active, power, _ = _rows((dp,), off_power)
    table = _static_table(((accuracy[0] ** float(alpha), 0.0), accuracy, active, power), 0)
    seconds, off_time, readings, below = _decide(table, float(period), float(budget))
    return Allocation((dp.id,), tuple(seconds), off_time, *readings,
                      INFEASIBLE if below else OPTIMAL)
