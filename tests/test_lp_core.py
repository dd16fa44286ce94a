"""Simplex solver unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaopt._tolerance import FLOOR_RTOL
from eaopt.allocator import AllocationProblem, build_problem, optimize_allocation
from eaopt.catalog import Catalog, DesignPoint
from eaopt.lp_core import (
    EQ,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    OPTIMAL,
    UNBOUNDED,
    StandardFormLP,
    add_slacks,
    solve_lp,
)
from oracles import brute_force_lp, random_feasible_bounded_lp


def lp(objective, constraints):
    return StandardFormLP(np.asarray(objective, dtype=float), constraints)


class TestBasicSolves:
    def test_textbook_two_variable(self):
        # max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        problem = lp(
            [3, 5],
            [([1, 0], LE, 4), ([0, 2], LE, 12), ([3, 2], LE, 18)],
        )
        solution = solve_lp(problem)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(36.0, abs=1e-9)
        assert solution.values == pytest.approx([2.0, 6.0], abs=1e-9)

    def test_equality_constraint(self):
        problem = lp([1, 0], [([1, 1], EQ, 1)])
        solution = solve_lp(problem)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(1.0, abs=1e-12)
        assert solution.values == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_negative_rhs_becomes_ge(self):
        # max -x s.t. x >= 2, expressed as -x <= -2
        problem = lp([-1], [([-1], LE, -2), ([1], LE, 10)])
        solution = solve_lp(problem)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(-2.0, abs=1e-9)
        assert solution.values == pytest.approx([2.0], abs=1e-9)

    def test_degenerate_rhs_zero(self):
        # A zero rhs makes the starting vertex degenerate; still solvable.
        problem = lp([1, 1], [([1, -1], LE, 0), ([1, 1], LE, 2)])
        solution = solve_lp(problem)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(2.0, abs=1e-9)

    def test_redundant_equalities(self):
        problem = lp([1, 2], [([1, 1], EQ, 1), ([1, 1], EQ, 1)])
        solution = solve_lp(problem)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(2.0, abs=1e-9)
        assert solution.values == pytest.approx([0.0, 1.0], abs=1e-9)


class TestStatuses:
    def test_infeasible_box(self):
        problem = lp([1], [([1], LE, 1), ([-1], LE, -2)])
        solution = solve_lp(problem)
        assert solution.status == INFEASIBLE
        assert solution.values is None

    def test_infeasible_equality(self):
        problem = lp([1, 1], [([1, 1], EQ, 2), ([1, 1], LE, 1)])
        assert solve_lp(problem).status == INFEASIBLE

    def test_unbounded_ray(self):
        problem = lp([1, 1], [([1, -1], LE, 1)])
        solution = solve_lp(problem)
        assert solution.status == UNBOUNDED
        assert solution.values is None

    def test_unbounded_after_ge(self):
        problem = lp([1], [([-1], LE, -1)])  # x >= 1, max x
        assert solve_lp(problem).status == UNBOUNDED

    def test_iteration_limit(self):
        problem = lp(
            [3, 5],
            [([1, 0], LE, 4), ([0, 2], LE, 12), ([3, 2], LE, 18)],
        )
        solution = solve_lp(problem, max_iterations=1)
        assert solution.status == ITERATION_LIMIT

    def test_max_iterations_must_be_positive(self):
        problem = lp([1], [([1], LE, 1)])
        with pytest.raises(ValueError):
            solve_lp(problem, max_iterations=0)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="row length"):
            solve_lp(lp([1, 2], [([1], LE, 1)]))

    def test_unknown_sense(self):
        with pytest.raises(ValueError, match="unknown sense"):
            solve_lp(lp([1], [([1], "ge", 1)]))

    def test_non_finite_objective(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_lp(lp([np.nan], [([1], LE, 1)]))

    def test_non_finite_constraint(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_lp(lp([1], [([np.inf], LE, 1)]))

    def test_no_constraints(self):
        with pytest.raises(ValueError, match="constraint"):
            solve_lp(lp([1], []))

    def test_empty_objective(self):
        with pytest.raises(ValueError, match="non-empty"):
            solve_lp(lp([], [([], LE, 1)]))


class TestCyclingGuard:
    def test_beale_instance_terminates_at_optimum(self):
        # Classic degenerate instance on which the plain largest-coefficient
        # rule cycles forever without an anti-cycling fallback.
        problem = lp(
            [0.75, -150.0, 0.02, -6.0],
            [
                ([0.25, -60.0, -0.04, 9.0], LE, 0.0),
                ([0.5, -90.0, -0.02, 3.0], LE, 0.0),
                ([0.0, 0.0, 1.0, 0.0], LE, 1.0),
            ],
        )
        log = []
        solution = solve_lp(problem, pivot_log=log)
        assert solution.status == OPTIMAL
        assert solution.objective == pytest.approx(0.05, abs=1e-9)
        assert solution.values == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-9)
        assert len(log) == solution.iterations

    def test_pivot_log_records_every_pivot(self):
        log = []
        solution = solve_lp(
            lp([1, 1], [([1, 0], LE, 1), ([0, 1], LE, 1)]), pivot_log=log
        )
        assert solution.status == OPTIMAL
        assert len(log) == solution.iterations
        assert all("phase=" in line and "rule=" in line for line in log)


class TestTableauSetup:
    def test_slack_and_artificial_layout(self):
        problem = lp([1, 1], [([1, 1], LE, 2), ([1, -1], EQ, 0), ([-1, 0], LE, -1)])
        tableau = add_slacks(problem)
        # one slack (LE), one surplus (the negated GE), two artificials
        assert tableau.n_structural == 2
        assert tableau.slack_start == 2
        assert tableau.art_start == 4
        assert tableau.n_cols == 6
        rhs = tableau.matrix[:-1, -1]
        assert np.all(rhs >= 0)

    def test_initial_basis_is_feasible(self):
        problem = lp([1], [([1], LE, 3)])
        tableau = add_slacks(problem)
        x = tableau.basic_solution()
        assert x[tableau.slack_start] == pytest.approx(3.0)


class TestAgainstBruteForce:
    def test_fixed_seed_batch(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            objective, constraints, feasible_point = random_feasible_bounded_lp(rng)
            solution = solve_lp(StandardFormLP(objective, constraints))
            assert solution.status == OPTIMAL
            reference = brute_force_lp(objective, constraints)
            assert reference is not None
            assert solution.objective == pytest.approx(reference[0], abs=1e-8)
            assert solution.objective >= float(objective @ feasible_point) - 1e-8

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_solution_is_feasible_and_beats_witness(self, seed):
        rng = np.random.default_rng(seed)
        objective, constraints, feasible_point = random_feasible_bounded_lp(rng)
        solution = solve_lp(StandardFormLP(objective, constraints))
        assert solution.status == OPTIMAL
        x = solution.values
        assert np.min(x) >= -1e-9
        for coeffs, sense, rhs in constraints:
            lhs = float(np.asarray(coeffs) @ x)
            if sense == LE:
                assert lhs <= rhs + 1e-7 * max(1.0, abs(rhs))
            else:
                assert lhs == pytest.approx(rhs, abs=1e-7)
        assert solution.objective >= float(objective @ feasible_point) - 1e-7


class TestFeasibilityAgreesWithTheAllocator:
    """The simplex's phase-1 verdict and the allocator's keep-alive floor
    are one rule, relative to the floor, so they agree at any period
    length, sub-second ones included, and a feasible simplex schedule
    never spends more than the budget allows."""

    @pytest.mark.parametrize("period", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize("off_power", [1e-6, 1e-5, 1e-4, 1e-3])
    @pytest.mark.parametrize("shift", [-1e-6, -1e-8, 0.0, 1e-8])
    def test_same_status_as_the_allocator(self, period, off_power, shift):
        catalog = Catalog((DesignPoint(1, "A", 0.5, 1.0), DesignPoint(2, "B", 0.9, 2.0)),
                          off_power)
        budget = off_power * period * (1.0 + shift)
        problem = AllocationProblem(period, budget, 1.0, catalog)
        solution = solve_lp(build_problem(problem))
        assert solution.status == optimize_allocation(problem).status
        assert solution.status == (INFEASIBLE if shift < 0 else OPTIMAL)
        if solution.status == OPTIMAL:
            powers = np.array([dp.power for dp in catalog] + [off_power])
            assert float(powers @ solution.values) <= budget * (1.0 + FLOOR_RTOL)
