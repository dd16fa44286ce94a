"""Acceptance suite: nine numbered criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Each criterion is a separate test so a failure pinpoints the claim that
broke; the printed `[criterion N] PASS|FAIL` line is the contract.

Criterion 5's second clause (optimizer/DP3 parity at 6.5 J under
alpha=2) is asserted exactly as stated with its 1e-3 relative tolerance.
Exact arithmetic on the builtin catalog puts the true parity point at
DP3's saturation budget 6.552 J; at 6.5 J the gap is 4.73e-3, so that
clause fails by construction.  It is kept red rather than loosened; see
the companion unit test test_alpha2_dp3_catches_up_exactly_at_its_saturation.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from eaopt.allocator import (
    AllocationProblem,
    build_problem,
    envelope_oracle,
    optimize_allocation,
    static_dp_allocation,
)
from eaopt.catalog import Catalog, DesignPoint, builtin_table1
from eaopt.harvest import PanelModel, synth_trace, trace_to_budgets
from eaopt.lp_core import INFEASIBLE, OPTIMAL, UNBOUNDED, StandardFormLP, solve_lp
from eaopt.simulator import sweep_alpha
from oracles import brute_force_lp, random_catalog, random_feasible_bounded_lp

PERIOD = 3600.0
OFF_POWER = 5.0e-5
CATALOG = builtin_table1()


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"\n[criterion {number}] FAIL ({elapsed:.2f}s) {title}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[criterion {number}] PASS ({elapsed:.2f}s) {title}")


def solve(budget, alpha=1.0, catalog=CATALOG, period=PERIOD):
    return optimize_allocation(AllocationProblem(period, budget, alpha, catalog))


def test_criterion_1_five_joule_split():
    with criterion(1, "5 J allocation splits DP4/DP5 at 42.9%/57.1%"):
        started = time.perf_counter()
        allocation = solve(5.0, alpha=1.0)
        elapsed = time.perf_counter() - started
        times = dict(zip(allocation.dp_ids, allocation.times))
        assert times[4] / PERIOD == pytest.approx(0.429, abs=0.02)
        assert times[5] / PERIOD == pytest.approx(0.571, abs=0.02)
        for dp_id in (1, 2, 3):
            assert times[dp_id] < 1e-6
        assert elapsed < 1.0


def test_criterion_2_saturation_thresholds():
    with criterion(2, "DP1 saturation at 9.936 J; DP5 static full at 4.32 J"):
        for budget in (9.936, 9.95, 10.5, 12.0):
            allocation = solve(budget, alpha=1.0)
            times = dict(zip(allocation.dp_ids, allocation.times))
            assert times[1] == pytest.approx(PERIOD, rel=1e-9)
            assert sum(t for i, t in times.items() if i != 1) <= 1e-9 * PERIOD
        dp5 = CATALOG.design_points[4]
        for budget in (4.32, 5.0, 9.0, 20.0):
            static = static_dp_allocation(dp5, PERIOD, budget, OFF_POWER)
            assert static.active_fraction == pytest.approx(1.0, rel=1e-9)
        below = static_dp_allocation(dp5, PERIOD, 4.31, OFF_POWER)
        assert below.active_fraction < 1.0


def test_criterion_3_pointwise_dominance():
    with criterion(3, "optimizer >= every static DP across [0.18, 10] J x alpha"):
        started = time.perf_counter()
        budgets = np.arange(0.18, 10.0 + 1e-9, 0.01)
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            for budget in budgets:
                budget = float(budget)
                optimized = solve(budget, alpha)
                for dp in CATALOG:
                    static = static_dp_allocation(dp, PERIOD, budget, OFF_POWER, alpha)
                    assert optimized.objective >= static.objective - 1e-9, (
                        f"budget {budget}, alpha {alpha}, {dp.label}"
                    )
        assert time.perf_counter() - started < 10.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "simplex matches envelope oracle on 1000 random catalogs"):
        started = time.perf_counter()
        rng = np.random.default_rng(20240819)
        for _ in range(1000):
            accuracies, powers, off_power = random_catalog(rng, max_points=100)
            catalog = Catalog(
                tuple(
                    DesignPoint(i + 1, f"P{i + 1}", float(a), float(p))
                    for i, (a, p) in enumerate(zip(accuracies, powers))
                ),
                off_power,
            )
            budget = float(
                rng.uniform(off_power * PERIOD, 1.1 * float(powers.max()) * PERIOD)
            )
            alpha = float(rng.uniform(0.0, 8.0))
            problem = AllocationProblem(PERIOD, budget, alpha, catalog)
            solution = solve_lp(build_problem(problem))
            assert solution.status == OPTIMAL
            expected = envelope_oracle(problem)
            scale = max(abs(expected), abs(solution.objective), 1e-300)
            assert abs(solution.objective - expected) <= 1e-9 * scale
            assert sum(1 for t in solution.values[:-1] if t > 1e-6) <= 2
        assert time.perf_counter() - started < 30.0


def test_criterion_5_alpha2_regime():
    with criterion(5, "alpha=2: off+DP4 below 5.904 J; DP3 parity at 6.5 J (1e-3)"):
        for budget in np.arange(0.19, 5.904 - 1e-9, 0.01):
            allocation = solve(float(budget), alpha=2.0)
            active = {
                i for i, t in zip(allocation.dp_ids, allocation.times) if t > 1e-6
            }
            assert active == {4}, f"budget {budget}: active set {active}"
        optimized = solve(6.5, alpha=2.0)
        dp3 = CATALOG.design_points[2]
        static = static_dp_allocation(dp3, PERIOD, 6.5, OFF_POWER, alpha=2.0)
        gap = abs(optimized.objective - static.objective) / optimized.objective
        assert gap <= 1e-3, (
            f"relative gap at 6.5 J is {gap:.6g}; exact parity occurs at "
            f"DP3's saturation budget 6.552 J"
        )


def test_criterion_6_solver_speed():
    with criterion(6, "one 100-design-point solve under 10 ms"):
        rng = np.random.default_rng(7)
        accuracies = rng.uniform(0.5, 1.0, size=100)
        powers = rng.uniform(1e-4, 1e-2, size=100)
        catalog = Catalog(
            tuple(
                DesignPoint(i + 1, f"P{i + 1}", float(a), float(p))
                for i, (a, p) in enumerate(zip(accuracies, powers))
            ),
            5e-5,
        )
        problem = AllocationProblem(PERIOD, 10.0, 1.5, catalog)
        optimize_allocation(problem)  # warm-up outside the timed runs
        best = min(
            _timed_solve(problem) for _ in range(5)
        )
        assert best < 0.010, f"fastest solve took {best * 1e3:.3f} ms"


def _timed_solve(problem):
    started = time.perf_counter()
    allocation = optimize_allocation(problem)
    elapsed = time.perf_counter() - started
    assert allocation.status == OPTIMAL
    return elapsed


def test_criterion_7_reductions_and_invariance():
    with criterion(7, "alpha reductions exact; accuracy scaling leaves times fixed"):
        budgets = [0.2, 0.5, 1.0, 3.0, 4.32, 5.0, 5.904, 6.5, 9.936, 12.0]
        for budget in budgets:
            zero = solve(budget, alpha=0.0)
            assert zero.objective == zero.active_fraction  # bitwise equality
            one = solve(budget, alpha=1.0)
            assert one.objective == one.expected_accuracy  # bitwise equality
        scaled_catalog = Catalog(
            tuple(
                DesignPoint(dp.id, dp.label, dp.accuracy * 0.5, dp.power)
                for dp in CATALOG
            ),
            OFF_POWER,
        )
        for budget in budgets:
            for alpha in (0.5, 1.0, 2.0, 4.0):
                base = solve(budget, alpha)
                scaled = solve(budget, alpha, catalog=scaled_catalog)
                assert scaled.times == pytest.approx(base.times, abs=1e-9)
                assert scaled.off_time == pytest.approx(base.off_time, abs=1e-9)


def test_criterion_8_month_shape():
    with criterion(8, "month study: DP1 ratio >1 and falling, DP5 ratio rising"):
        started = time.perf_counter()
        trace = synth_trace(30)
        budgets = trace_to_budgets(trace, PanelModel(), PERIOD)
        assert len(budgets) == 720
        alphas = [0.5, 1.0, 2.0, 4.0, 8.0]
        points = sweep_alpha(CATALOG, budgets, alphas)
        dp1_means = [pt.ratio_stats[1].mean for pt in points]
        dp5_means = [pt.ratio_stats[5].mean for pt in points]
        assert all(m is not None for m in dp1_means + dp5_means)
        assert dp1_means[0] > 1.0
        for earlier, later in zip(dp1_means, dp1_means[1:]):
            assert later <= earlier + 1e-12
        for earlier, later in zip(dp5_means, dp5_means[1:]):
            assert later >= earlier - 1e-12
        assert time.perf_counter() - started < 60.0


def test_criterion_9_lp_engine_suite():
    with criterion(9, "LP engine: 500-case brute-force agreement, statuses, cycling"):
        rng = np.random.default_rng(20240821)
        for _ in range(500):
            objective, constraints, _ = random_feasible_bounded_lp(rng)
            solution = solve_lp(StandardFormLP(objective, constraints))
            assert solution.status == OPTIMAL
            reference = brute_force_lp(objective, constraints)
            assert reference is not None
            assert abs(solution.objective - reference[0]) <= 1e-8

        infeasible = StandardFormLP(
            np.array([1.0]), [([1.0], "le", 1.0), ([-1.0], "le", -2.0)]
        )
        assert solve_lp(infeasible).status == INFEASIBLE
        infeasible_eq = StandardFormLP(
            np.array([1.0, 1.0]),
            [([1.0, 1.0], "eq", 2.0), ([1.0, 1.0], "le", 1.0)],
        )
        assert solve_lp(infeasible_eq).status == INFEASIBLE
        unbounded = StandardFormLP(np.array([1.0, 1.0]), [([1.0, -1.0], "le", 1.0)])
        assert solve_lp(unbounded).status == UNBOUNDED

        beale = StandardFormLP(
            np.array([0.75, -150.0, 0.02, -6.0]),
            [
                ([0.25, -60.0, -0.04, 9.0], "le", 0.0),
                ([0.5, -90.0, -0.02, 3.0], "le", 0.0),
                ([0.0, 0.0, 1.0, 0.0], "le", 1.0),
            ],
        )
        solution = solve_lp(beale)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(0.05, abs=1e-9)
