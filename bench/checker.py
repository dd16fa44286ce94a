"""Output checks for the benchmark.

Every check is one checked operation.  A failed check is counted and
described, never raised, so one bad output cannot abort a run.  Known
seed defects (ROADMAP item 4 and the envelope oracle's keep-alive floor
case) are recorded apart from the workload counts, each with its cause,
every time a run meets them.

References, all independent of the simplex that produces the program's
allocations:

* ``eaopt.envelope_oracle`` (concave-envelope geometry) for every
  optimized objective;
* SciPy's HiGHS ``linprog`` on a rescaled copy of the LP for a seeded
  sample, for the reproducer catalogs and wherever the oracle cannot
  answer;
* the closed form ``t = clip((E - P_off T) / (P - P_off), 0, T)`` for
  every static single-mode baseline.

Objectives are compared, not time splits: at alpha = 0 every full-on mix
is optimal, so two correct solvers may split time differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Tolerances relative to the problem's own scale: the largest utility
# accuracy**alpha for objectives, the period for times, and the
# full-power energy max(P) * T for energy.
RTOL = 1e-9
# HiGHS works to 1e-7 feasibility and optimality on the rescaled LP.
HIGHS_RTOL = 1e-6
# The allocator's own keep-alive floor rule (allocator._below_floor).
FLOOR_RTOL = 1e-9
FLOOR_ATOL = 1e-15

ORACLE_AT_FLOOR = "envelope-oracle-at-floor"


@dataclass(frozen=True)
class Model:
    """One (catalog, alpha, period) as arrays: all a check needs."""

    ids: tuple
    accuracy: np.ndarray
    power: np.ndarray
    off_power: float
    alpha: float
    period: float

    @classmethod
    def of(cls, catalog, alpha: float, period: float) -> Model:
        dps = catalog.design_points
        return cls(
            tuple(dp.id for dp in dps),
            np.array([dp.accuracy for dp in dps]),
            np.array([dp.power for dp in dps]),
            float(catalog.off_power),
            float(alpha),
            float(period),
        )

    @cached_property
    def weights(self) -> np.ndarray:
        return self.accuracy**self.alpha

    @cached_property
    def scale(self) -> float:
        """Largest reachable objective; objective tolerances scale with it."""
        return float(self.weights.max())

    @cached_property
    def energy_scale(self) -> float:
        return float(self.power.max()) * self.period

    @cached_property
    def singles(self) -> tuple[Model, ...]:
        """One-design-point models, for the static baselines."""
        return tuple(
            Model((dp_id,), self.accuracy[i : i + 1], self.power[i : i + 1],
                  self.off_power, self.alpha, self.period)
            for i, dp_id in enumerate(self.ids)
        )

    def below_floor(self, budget: float) -> bool:
        floor = self.off_power * self.period
        return budget < floor * (1.0 - FLOOR_RTOL) - FLOOR_ATOL


def allocation_problems(alloc, model: Model, budget: float) -> list[str]:
    """Accounting checks on one Allocation; an empty list means it passes.

    t >= 0, time closure, energy within the budget, the reported
    objective and energy recomputed from ``times``, and the status that
    the keep-alive floor implies.
    """
    period = model.period
    times = np.asarray(alloc.times, dtype=float)
    if tuple(alloc.dp_ids) != model.ids:
        return [f"dp_ids {alloc.dp_ids[:3]}... do not match the catalog"]
    if not (np.all(np.isfinite(times)) and math.isfinite(alloc.off_time)):
        return ["non-finite time"]
    if np.any(times < 0.0) or alloc.off_time < 0.0:
        return [f"negative time (min {min(times.min(), alloc.off_time)!r})"]
    problems = []
    closure = float(times.sum()) + alloc.off_time - period
    if abs(closure) > RTOL * period:
        problems.append(f"time closure off by {closure!r} s")
    objective = float(model.weights @ times) / period
    if abs(objective - alloc.objective) > RTOL * model.scale:
        problems.append(f"objective {alloc.objective!r} != {objective!r} recomputed from times")
    energy = float(model.power @ times) + model.off_power * alloc.off_time
    if abs(energy - alloc.energy_used) > RTOL * model.energy_scale:
        problems.append(f"energy_used {alloc.energy_used!r} != {energy!r} recomputed")
    if model.below_floor(budget):
        if alloc.status != "infeasible" or np.any(times != 0.0):
            problems.append(f"budget {budget!r} is below the floor but status is {alloc.status!r}")
    else:
        if alloc.status != "optimal":
            problems.append(f"status {alloc.status!r} for a budget above the floor")
        if energy > budget + RTOL * model.energy_scale:
            problems.append(f"energy {energy!r} J exceeds budget {budget!r} J")
    return problems


def objective_problems(value: float, reference: float, scale: float,
                       rtol: float = RTOL, what: str = "oracle") -> list[str]:
    if abs(value - reference) > rtol * scale:
        return [f"objective {value!r} != {what} {reference!r}"]
    return []


def static_objective(model: Model, budget: float) -> float:
    """Closed-form objective of running one design point until the budget
    is spent; ``model`` has a single design point."""
    if model.below_floor(budget):
        return 0.0
    off = model.off_power
    t = (budget - off * model.period) / (float(model.power[0]) - off)
    t = min(model.period, max(t, 0.0))
    return float(model.weights[0]) * t / model.period


def static_problems(alloc, model: Model, budget: float) -> list[str]:
    problems = allocation_problems(alloc, model, budget)
    return problems or objective_problems(
        alloc.objective, static_objective(model, budget), model.scale, what="closed form")


def highs_objective(model: Model, budget: float) -> float:
    """Optimum from SciPy's HiGHS on the LP rescaled to unit magnitudes:
    time as a share of the period, utility over the largest utility,
    power over the largest power.  0 when the floor is not covered."""
    from scipy.optimize import linprog

    if model.scale == 0.0:
        return 0.0
    p_ref = float(model.power.max())
    n = len(model.ids)
    c = -np.append(model.weights / model.scale, 0.0)
    res = linprog(
        c,
        A_ub=[np.append(model.power, model.off_power) / p_ref],
        b_ub=[budget / (p_ref * model.period)],
        A_eq=[np.ones(n + 1)],
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 2:  # infeasible: the budget is below the keep-alive floor
        return 0.0
    if res.status != 0:
        raise ArithmeticError(f"HiGHS status {res.status}: {res.message}")
    return -float(res.fun) * model.scale


def on_floor(model: Model, budget: float) -> bool:
    """The budget passes the allocator's floor check, yet budget / period
    rounds below off_power: the case where envelope_oracle raises."""
    return not model.below_floor(budget) and budget / model.period < model.off_power


def ratio_stats(opt: list[float], statics: dict) -> dict:
    """Expected simulator aggregates: optimized / static objective per
    design point over the periods where the static objective is > 0."""
    out = {}
    for dp_id, values in statics.items():
        ratios = [o / s for o, s in zip(opt, values) if s > 0.0]
        out[dp_id] = (
            sum(ratios) / len(ratios) if ratios else None,
            min(ratios) if ratios else None,
            max(ratios) if ratios else None,
            len(ratios),
            len(values) - len(ratios),
        )
    return out


def stats_problems(got: dict, expected: dict) -> list[str]:
    """Compare RatioStats-like records against ratio_stats() output."""
    for dp_id, (mean, lo, hi, defined, undefined) in expected.items():
        st = got[dp_id]
        if (st.defined, st.undefined) != (defined, undefined):
            return [f"dp {dp_id}: defined/undefined {st.defined}/{st.undefined} "
                    f"!= {defined}/{undefined}"]
        for name, a, b in (("mean", st.mean, mean), ("min", st.min, lo), ("max", st.max, hi)):
            if (a is None) != (b is None) or (a is not None and abs(a - b) > RTOL * max(1.0, abs(b))):
                return [f"dp {dp_id}: ratio {name} {a!r} != {b!r}"]
    return []


@dataclass
class KnownDefect:
    cause: str
    occurrences: int = 0
    status: str = "reproduced"  # or "fixed" once the program agrees
    detail: str = ""


@dataclass
class Checker:
    """Counts checked operations and their failures for one run."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    known: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {problems[0]}")
            return False
        return True

    def guard(self, op: str) -> _Guard:
        """Context that turns an exception into one failed operation."""
        return _Guard(self, op)

    def known_defect(self, defect_id: str, cause: str, status: str = "reproduced",
                     detail: str = "") -> None:
        entry = self.known.setdefault(defect_id, KnownDefect(cause))
        entry.occurrences += 1
        entry.status = status
        entry.detail = detail or entry.detail

    def oracle(self, problem, model: Model) -> float:
        """envelope_oracle's value, or HiGHS's where the oracle hits its
        known keep-alive-floor defect (which is recorded)."""
        from eaopt import envelope_oracle

        try:
            return envelope_oracle(problem)
        except ArithmeticError as exc:
            if not on_floor(model, problem.budget):
                raise
            self.known_defect(
                ORACLE_AT_FLOOR,
                "envelope_oracle raises ArithmeticError when budget/period rounds below "
                "off_power although the floor check passes",
                detail=f"budget {problem.budget!r} J, period {model.period!r} s: "
                       f"{problem.budget / model.period!r} < {model.off_power!r} ({exc})",
            )
            return highs_objective(model, problem.budget)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "fail_frac": self.failed / self.attempted if self.attempted else None,
            "first_failures": self.failures[:10],
            "known_defects": {
                k: {"cause": v.cause, "status": v.status, "occurrences": v.occurrences,
                    "detail": v.detail}
                for k, v in self.known.items()
            },
        }


class _Guard:
    def __init__(self, checker: Checker, op: str):
        self.checker = checker
        self.op = op

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None or not issubclass(exc_type, Exception):
            return False
        # A run boundary: the failure is counted and the run goes on.
        self.checker.record(self.op, [f"{exc_type.__name__}: {exc}"])
        return True
