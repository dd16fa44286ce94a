"""Allocator tests: frozen hand-computed optima, envelope agreement,
reduction identities, and dominance properties."""

import copy
import dataclasses
import gc
import math
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaopt import catalog as catalog_module
from eaopt.allocator import (
    _ALPHA_MEMO,
    Allocation,
    AllocationProblem,
    _envelope,
    _rows,
    _segments,
    build_problem,
    envelope_oracle,
    optimize_allocation,
    regime_map,
    static_dp_allocation,
)
from eaopt.catalog import Catalog, DesignPoint, builtin_table1, validate_catalog
from eaopt.harvest import BudgetSeries
from eaopt.lp_core import INFEASIBLE, OPTIMAL, solve_lp
from eaopt.simulator import _solve, report_to_csv, report_to_json, simulate, sweep_alpha, sweep_budget
from oracles import (
    degenerate_cases,
    every_scale_cases,
    highs_objective,
    numpy_envelope,
    random_catalog,
)

PERIOD = 3600.0

# Hand-solved optima for the builtin catalog (exact-fraction arithmetic,
# frozen before the allocator existed):
#   5 J, alpha=1: the budget line crosses the DP4-DP5 hull edge, so
#     t4 = (5 - 1.2e-3*3600) / (1.64e-3 - 1.2e-3) = 0.68/0.00044 s,
#     t5 = 3600 - t4, J = (0.90 t4 + 0.76 t5) / 3600.
T4_AT_5J = 1545.4545454545455
T5_AT_5J = 2054.5454545454545
J_AT_5J = 0.8201010101010101
#   Static DP1 at 5 J: t = (5 - 0.18)/(2.76e-3 - 5e-5) = 4.82/2.71e-3.
DP1_STATIC_T_AT_5J = 1778.5977859778598
DP1_STATIC_ACC_AT_5J = 0.4644116441164412
RATIO_AT_5J = 1.7658924372175895
#   Saturation budgets: P_i * 3600.
DP1_SATURATION = 9.936
DP4_SATURATION = 5.904
DP5_SATURATION = 4.32
#   4 J, alpha=2: blend of off and DP4 (the steepest alpha=2 hull edge),
#     t4 = (4 - 0.18)/(1.64e-3 - 5e-5), J = 0.81 * t4 / 3600.
T4_FRACTION_AT_4J_ALPHA2 = 0.6673654786862334
J_AT_4J_ALPHA2 = 0.5405660377358491
#   6.5 J, alpha=2: optimum blends DP4 and DP3; DP3's static curve only
#     catches up at its own saturation budget 6.552 J.
J_OPT_AT_6_5J_ALPHA2 = 0.843479012345679
J_DP3_AT_6_5J_ALPHA2 = 0.8394927809165097
DP3_SATURATION = 6.552
J_ALPHA2_AT_DP3_SATURATION = 0.8464


def problem(budget, alpha=1.0, catalog=None, period=PERIOD):
    return AllocationProblem(period, budget, alpha, catalog or builtin_table1())


def _float_bits(values) -> list[str]:
    """Each float spelled by float.hex, so that -0.0 and 0.0 differ."""
    return [float.hex(value) for value in values]


def _floats(allocation: Allocation) -> tuple:
    """allocation's seconds, off last, then its four readings."""
    return (*allocation.times, allocation.off_time, allocation.objective,
            allocation.expected_accuracy, allocation.active_fraction, allocation.energy_used)


def _bits(allocation: Allocation) -> tuple:
    """allocation's fields with every float spelled by float.hex."""
    return allocation.dp_ids, allocation.status, _float_bits(_floats(allocation))


class TestFrozenOptima:
    def test_five_joule_split(self):
        allocation = optimize_allocation(problem(5.0))
        times = dict(zip(allocation.dp_ids, allocation.times))
        assert times[4] == pytest.approx(T4_AT_5J, rel=1e-9)
        assert times[5] == pytest.approx(T5_AT_5J, rel=1e-9)
        for dp_id in (1, 2, 3):
            assert times[dp_id] < 1e-6
        assert allocation.off_time < 1e-6
        assert allocation.objective == pytest.approx(J_AT_5J, rel=1e-9)
        assert allocation.status == OPTIMAL

    def test_dp1_saturation(self):
        for budget in (DP1_SATURATION, 10.0, 50.0):
            allocation = optimize_allocation(problem(budget))
            times = dict(zip(allocation.dp_ids, allocation.times))
            assert times[1] == pytest.approx(PERIOD, rel=1e-9)
            assert allocation.objective == pytest.approx(0.94, rel=1e-9)

    def test_alpha2_low_budget_uses_dp4_only(self):
        for budget in np.arange(0.2, DP4_SATURATION - 1e-9, 0.1):
            allocation = optimize_allocation(problem(float(budget), alpha=2.0))
            times = dict(zip(allocation.dp_ids, allocation.times))
            active = {i for i, t in times.items() if t > 1e-6}
            assert active == {4}, f"budget {budget}: active set {active}"

    def test_alpha2_four_joules(self):
        allocation = optimize_allocation(problem(4.0, alpha=2.0))
        times = dict(zip(allocation.dp_ids, allocation.times))
        assert times[4] / PERIOD == pytest.approx(T4_FRACTION_AT_4J_ALPHA2, rel=1e-9)
        assert allocation.objective == pytest.approx(J_AT_4J_ALPHA2, rel=1e-9)

    def test_alpha2_6_5_joules_frozen_values(self):
        allocation = optimize_allocation(problem(6.5, alpha=2.0))
        assert allocation.objective == pytest.approx(J_OPT_AT_6_5J_ALPHA2, rel=1e-9)
        static = static_dp_allocation(
            builtin_table1().design_points[2], PERIOD, 6.5, 5.0e-5, alpha=2.0
        )
        assert static.objective == pytest.approx(J_DP3_AT_6_5J_ALPHA2, rel=1e-9)

    def test_alpha2_dp3_catches_up_exactly_at_its_saturation(self):
        allocation = optimize_allocation(problem(DP3_SATURATION, alpha=2.0))
        static = static_dp_allocation(
            builtin_table1().design_points[2], PERIOD, DP3_SATURATION, 5.0e-5, alpha=2.0
        )
        assert allocation.objective == pytest.approx(J_ALPHA2_AT_DP3_SATURATION, rel=1e-9)
        assert static.objective == pytest.approx(J_ALPHA2_AT_DP3_SATURATION, rel=1e-9)
        assert allocation.objective == pytest.approx(static.objective, rel=1e-9)


class TestFeasibilityEdges:
    def test_below_keep_alive_floor(self):
        allocation = optimize_allocation(problem(0.1))
        assert allocation.status == INFEASIBLE
        assert allocation.objective == 0.0
        assert allocation.off_time == PERIOD
        assert set(allocation.times) == {0.0}
        assert allocation.energy_used == pytest.approx(0.18, rel=1e-12)

    def test_exactly_at_floor_is_feasible_and_off(self):
        allocation = optimize_allocation(problem(0.18))
        assert allocation.status == OPTIMAL
        assert allocation.objective == pytest.approx(0.0, abs=1e-9)
        assert allocation.off_time == pytest.approx(PERIOD, rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_oracle_exactly_at_floor_is_off(self, alpha):
        # 0.18 J / 3600 s rounds just below the 5e-5 W keep-alive power.
        prob = problem(0.18, alpha)
        assert envelope_oracle(prob) == 0.0
        assert optimize_allocation(prob).objective == pytest.approx(
            envelope_oracle(prob), rel=1e-9, abs=1e-12
        )

    def test_microwatt_floor_has_no_absolute_slack(self):
        # 5e-16 J short of a 6e-8 J floor: within an absolute 1e-15 J of
        # it, but far outside the 1e-9 relative slack.
        catalog = Catalog((DesignPoint(1, "A", 0.9, 1e-6),), 1e-9)
        prob = AllocationProblem(60.0, 1e-9 * 60.0 - 5e-16, 1.0, catalog)
        assert solve_lp(build_problem(prob)).status == INFEASIBLE
        assert optimize_allocation(prob).status == INFEASIBLE
        assert envelope_oracle(prob) == 0.0

    def test_zero_budget_zero_off_power(self):
        base = builtin_table1()
        catalog = Catalog(base.design_points, 0.0)
        allocation = optimize_allocation(AllocationProblem(PERIOD, 0.0, 1.0, catalog))
        assert allocation.status == OPTIMAL
        assert allocation.objective == pytest.approx(0.0, abs=1e-12)

    def test_every_utility_underflows_to_zero(self):
        catalog = Catalog(
            (DesignPoint(1, "A", 0.01, 1e-3), DesignPoint(2, "B", 0.02, 2e-3)), 1e-5
        )
        allocation = optimize_allocation(AllocationProblem(PERIOD, 5.0, 400.0, catalog))
        assert allocation.status == OPTIMAL
        assert allocation.objective == 0.0
        assert allocation.times == (0.0, 0.0) and allocation.off_time == PERIOD

    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            AllocationProblem(0.0, 1.0, 1.0, builtin_table1())
        with pytest.raises(ValueError, match="budget"):
            AllocationProblem(PERIOD, -1.0, 1.0, builtin_table1())
        with pytest.raises(ValueError, match="alpha"):
            AllocationProblem(PERIOD, 1.0, -0.5, builtin_table1())
        with pytest.raises(ValueError, match="no design points"):
            AllocationProblem(PERIOD, 1.0, 1.0, Catalog((), 1e-5))

    @pytest.mark.parametrize(
        "budget, message",
        [
            (math.nan, "budget nan must be finite and >= 0"),
            (-1.0, "budget -1.0 must be finite and >= 0"),
            (math.inf, "budget inf must be finite and >= 0"),
            (-1, "budget -1 must be finite and >= 0"),
            (np.float64(math.nan), "budget nan must be finite and >= 0"),
            (np.float64(-math.inf), "budget -inf must be finite and >= 0"),
            (np.float32(math.nan), "budget nan must be finite and >= 0"),
            (np.float32(-0.1), "budget -0.10000000149011612 must be finite and >= 0"),
        ],
    )
    def test_rejected_budget_reads_as_a_python_number(self, budget, message):
        with pytest.raises(ValueError) as raised:
            problem(budget)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "budget",
        [5.0, 5, True, False, 0, -0.0, np.float64(5.0), np.float32(5.0), np.float32(0.1)],
    )
    def test_accepted_budget_gives_python_floats(self, budget):
        allocation = optimize_allocation(problem(budget))
        assert all(type(value) is float for value in _floats(allocation))
        assert _bits(allocation) == _bits(optimize_allocation(problem(float(budget))))


class TestAccountingIdentities:
    budgets = [0.2, 0.5, 1.0, 2.0, 4.32, 5.0, 5.904, 6.5, 8.0, 9.936, 12.0]

    def test_time_closure_and_energy(self):
        for budget in self.budgets:
            allocation = optimize_allocation(problem(budget, alpha=2.0))
            assert sum(allocation.times) + allocation.off_time == pytest.approx(
                PERIOD, rel=1e-12
            )
            assert allocation.energy_used <= budget * (1 + 1e-9) + 1e-12
            assert min(allocation.times) >= 0.0
            assert allocation.off_time >= 0.0

    def test_alpha_zero_objective_is_active_fraction(self):
        for budget in self.budgets:
            allocation = optimize_allocation(problem(budget, alpha=0.0))
            assert allocation.objective == allocation.active_fraction  # bitwise

    def test_alpha_one_objective_is_expected_accuracy(self):
        for budget in self.budgets:
            allocation = optimize_allocation(problem(budget, alpha=1.0))
            assert allocation.objective == allocation.expected_accuracy  # bitwise

    def test_accuracy_scaling_leaves_times_unchanged(self):
        base = builtin_table1()
        scaled = Catalog(
            tuple(
                DesignPoint(dp.id, dp.label, dp.accuracy * 0.5, dp.power)
                for dp in base
            ),
            base.off_power,
        )
        for budget in self.budgets:
            for alpha in (0.5, 1.0, 2.0, 4.0):
                original = optimize_allocation(problem(budget, alpha))
                rescaled = optimize_allocation(problem(budget, alpha, scaled))
                assert rescaled.times == pytest.approx(original.times, abs=1e-9)
                assert rescaled.off_time == pytest.approx(original.off_time, abs=1e-9)

    def test_support_size_at_most_two(self):
        for budget in self.budgets:
            for alpha in (0.0, 0.5, 1.0, 2.0, 8.0):
                allocation = optimize_allocation(problem(budget, alpha))
                assert sum(1 for t in allocation.times if t > 1e-6) <= 2

    def test_to_dict_schema(self):
        payload = optimize_allocation(problem(5.0)).to_dict()
        assert set(payload) == {
            "times", "off_time", "objective", "expected_accuracy",
            "active_fraction", "energy_used", "status",
        }
        assert set(payload["times"]) == {"1", "2", "3", "4", "5"}


class TestEnvelopeOracle:
    def test_matches_frozen_cases(self):
        assert envelope_oracle(problem(5.0)) == pytest.approx(J_AT_5J, rel=1e-12)
        assert envelope_oracle(problem(4.0, alpha=2.0)) == pytest.approx(
            J_AT_4J_ALPHA2, rel=1e-12
        )
        assert envelope_oracle(problem(6.5, alpha=2.0)) == pytest.approx(
            J_OPT_AT_6_5J_ALPHA2, rel=1e-12
        )
        assert envelope_oracle(problem(50.0)) == pytest.approx(0.94, rel=1e-12)
        assert envelope_oracle(problem(0.1)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        budget=st.floats(min_value=0.0, max_value=15.0),
        alpha=st.floats(min_value=0.0, max_value=8.0),
    )
    @example(budget=7.0, alpha=1.192092896e-07)  # near-equal utilities
    def test_matches_simplex_on_builtin(self, budget, alpha):
        prob = problem(budget, alpha)
        solution = solve_lp(build_problem(prob))
        assert solution.status in (OPTIMAL, INFEASIBLE)
        simplex = solution.objective if solution.status == OPTIMAL else 0.0
        expected = envelope_oracle(prob)
        assert simplex == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_duplicate_power_points(self):
        catalog = Catalog(
            (
                DesignPoint(1, "A", 0.9, 2e-3),
                DesignPoint(2, "B", 0.7, 2e-3),
                DesignPoint(3, "C", 0.5, 1e-3),
            ),
            1e-5,
        )
        prob = AllocationProblem(PERIOD, 5.0, 1.0, catalog)
        assert optimize_allocation(prob).objective == pytest.approx(
            envelope_oracle(prob), rel=1e-9
        )


class TestTieRule:
    @pytest.mark.parametrize("budget", [9.0, 12.0])
    def test_alpha_zero_runs_the_cheapest_design_point(self, budget):
        # Every full-on mix is optimal at alpha = 0; the cheapest design
        # point (DP5) fills the period and the leftover energy is unspent.
        allocation = optimize_allocation(problem(budget, alpha=0.0))
        assert allocation.times == (0.0, 0.0, 0.0, 0.0, PERIOD)
        assert allocation.off_time == 0.0
        assert allocation.objective == allocation.active_fraction == 1.0
        assert allocation.energy_used == pytest.approx(DP5_SATURATION, rel=1e-12)

    def test_equal_power_keeps_higher_utility_then_lower_index(self):
        catalog = Catalog(
            (
                DesignPoint(1, "A", 0.7, 2e-3),
                DesignPoint(2, "B", 0.9, 2e-3),
                DesignPoint(3, "C", 0.9, 2e-3),
            ),
            1e-5,
        )
        allocation = optimize_allocation(AllocationProblem(PERIOD, 50.0, 1.0, catalog))
        assert allocation.times == (0.0, PERIOD, 0.0)

    def test_collinear_modes_are_not_vertices(self):
        # Off, DP1, DP2 and DP3 lie on one line at alpha = 1: the envelope
        # keeps only its ends, so 5.4 J runs DP3 alone and never switches
        # through DP1 or DP2, though mixing them scores the same.
        catalog = Catalog(
            (
                DesignPoint(1, "A", 0.25, 1e-3),
                DesignPoint(2, "B", 0.5, 2e-3),
                DesignPoint(3, "C", 1.0, 4e-3),
            ),
            0.0,
        )
        allocation = optimize_allocation(AllocationProblem(PERIOD, 5.4, 1.0, catalog))
        assert allocation.times == (0.0, 0.0, 1350.0)
        assert allocation.objective == 0.375
        report = simulate(BudgetSeries(PERIOD, np.array([0.0]), np.array([5.4])), catalog, 1.0)
        assert report.columns.seconds[0, :3].tolist() == [0.0, 0.0, 1350.0]
        assert report.columns.readings[0].tolist() == [0.375]
        assert regime_map(catalog, 1.0, PERIOD) == [(0.0, (None, 3)), (14.4, (3,))]


def _allocator_objective(prob: AllocationProblem) -> float:
    return optimize_allocation(prob).objective


def _simplex_objective(prob: AllocationProblem) -> float:
    solution = solve_lp(build_problem(prob))
    assert solution.status == OPTIMAL
    return solution.objective


@pytest.mark.parametrize("objective", [_allocator_objective, _simplex_objective],
                         ids=["optimize_allocation", "solve_lp"])
class TestSmallUtilityReproducers:
    """Optima whose utilities are tiny or nearly equal, where a solver
    with absolute tolerances stops early; references from exact
    rational arithmetic on the envelope (HiGHS agrees).  Each is solved
    by the allocator and by the simplex on build_problem's LP."""

    def test_builtin_tiny_alpha(self, objective):
        value = objective(problem(7.0, alpha=1.192092896e-07))
        assert value == pytest.approx(0.9999999903995453, rel=1e-12)

    def test_two_points_alpha_40(self, objective):
        catalog = Catalog(
            (DesignPoint(1, "A", 0.5, 1e-3), DesignPoint(2, "B", 0.6, 2e-3)), 1e-5
        )
        value = objective(AllocationProblem(PERIOD, 5.0, 40.0, catalog))
        assert value == pytest.approx(9.262457131605276e-10, rel=1e-12)

    def test_three_points_alpha_12(self, objective):
        catalog = Catalog(
            (
                DesignPoint(1, "A", 0.05, 1e-3),
                DesignPoint(2, "B", 0.1, 2e-3),
                DesignPoint(3, "C", 0.2, 3e-3),
            ),
            1e-5,
        )
        value = objective(AllocationProblem(PERIOD, 5.0, 12.0, catalog))
        assert value == pytest.approx(1.8889394277220377e-09, rel=1e-12)


def _matches_oracle_and_highs(case) -> None:
    """optimize_allocation's objective matches envelope_oracle and HiGHS,
    and its schedule fills the period with at most two modes running."""
    pytest.importorskip("scipy.optimize")
    catalog, period, budgets, alpha = case
    scale = max(dp.accuracy for dp in catalog) ** alpha
    for budget in budgets:
        prob = AllocationProblem(period, budget, alpha, catalog)
        allocation = optimize_allocation(prob)
        assert abs(allocation.objective - envelope_oracle(prob)) <= 1e-12 * scale
        highs = highs_objective(catalog, period, budget, alpha)
        assert abs(allocation.objective - highs) <= 1e-6 * scale
        assert sum(allocation.times) + allocation.off_time == pytest.approx(
            period, rel=1e-12
        )
        assert min(allocation.times) >= 0.0 and allocation.off_time >= 0.0
        assert sum(1 for t in allocation.times if t > 0.0) <= 2


class TestEngineProperties:
    @settings(max_examples=300, deadline=None)
    @given(case=degenerate_cases())
    @example(  # budget at the floor, off_power below HiGHS's smallest matrix entry
        case=(
            Catalog(
                (
                    DesignPoint(1, "P1", 0.05, 1e-4),
                    DesignPoint(2, "P2", 0.05, 0.0625),
                    DesignPoint(3, "P3", 0.05, 5e-5),
                ),
                5e-11,
            ),
            60.0,
            [3e-9],
            0.0,
        )
    )
    def test_matches_oracle_and_highs(self, case):
        _matches_oracle_and_highs(case)

    @settings(max_examples=300, deadline=None)
    @given(case=every_scale_cases())
    def test_matches_oracle_and_highs_at_every_scale(self, case):
        _matches_oracle_and_highs(case)

    @settings(max_examples=200, deadline=None)
    @given(case=degenerate_cases())
    def test_batch_equals_batch_of_one(self, case):
        catalog, period, budgets, alpha = case
        series = BudgetSeries(period, period * np.arange(len(budgets)), np.array(budgets))
        before = simulate(series, catalog, alpha).records
        report = simulate(series, catalog, alpha)
        report_to_json(report)
        report_to_csv(report)
        assert report.records == before  # the writers leave the columns as they were
        for record, budget in zip(report.records, budgets):
            single = optimize_allocation(AllocationProblem(period, budget, alpha, catalog))
            assert _bits(record.optimized) == _bits(single)
            for dp in catalog:
                assert _bits(record.statics[dp.id]) == _bits(static_dp_allocation(
                    dp, period, budget, catalog.off_power, alpha
                ))

    @settings(max_examples=300, deadline=None)
    @given(case=every_scale_cases())
    @example(  # a 1 ms period: 1e308 J overflows to an inf mean power
        case=(Catalog((DesignPoint(1, "P1", 0.05, 1e-6),), 0.0), 0.001, [0.0, 1e-9, 1e308], 0.0)
    )
    @example(  # every utility underflows to 0: the all-off branch
        case=(Catalog((DesignPoint(1, "P1", 1e-6, 1e-3), DesignPoint(2, "P2", 2e-6, 2e-3)), 1e-4),
              3600.0, [0.0, 0.36, 100.0], 64.0)
    )
    def test_decision_is_bit_identical_to_the_array_solve(self, case):
        """optimize_allocation reads one budget off the segment table in
        Python floats; _solve reads a whole array of them off the same
        table.  Both are the one closed form, so they agree to the bit."""
        catalog, period, budgets, alpha = case
        table = catalog._segments(alpha)
        seconds, readings, below = _solve(table, period, np.array(budgets))
        if len(table.hull) == 1:  # nothing is worth running
            assert seconds[:, :-1].tolist() == [[0.0] * len(catalog)] * len(budgets)
        for k, budget in enumerate(budgets):
            allocation = optimize_allocation(AllocationProblem(period, budget, alpha, catalog))
            assert _float_bits(_floats(allocation)) == _float_bits(
                [*seconds[k].tolist(), *readings[:, k].tolist()])
            assert allocation.status == (INFEASIBLE if below[k] else OPTIMAL)


# Powers and utilities from small grids, so that equal powers, equal
# utilities, exact twins and collinear vertices are common.
_GRID_POINTS = st.lists(st.tuples(st.sampled_from([1e-4, 1e-3, 2e-3, 3e-3, 4e-3]),
                                  st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
                        min_size=1, max_size=9)


class TestPurePythonTable:
    """The segment table is built in Python floats; numpy's stable argsort
    and running maximum, in oracles.numpy_envelope, are the reference for
    its envelope."""

    @settings(max_examples=300, deadline=None)
    @given(case=st.one_of(degenerate_cases(), every_scale_cases()))
    @example(case=(Catalog((DesignPoint(1, "A", 0.5, 1e-3), DesignPoint(2, "B", 0.9, 1e-3),
                            DesignPoint(3, "C", 0.9, 1e-3), DesignPoint(4, "D", 0.9, 2e-3)),
                           0.0), 3600.0, [1.0], 0.0))
    def test_envelope_equals_the_numpy_reference(self, case):
        catalog, _, _, alpha = case
        accuracy, _, power, order = _rows(catalog.design_points, catalog.off_power)
        table_utility = list(catalog._segments(alpha).weights[0])
        numpy_utility = (np.array(accuracy) ** float(alpha)).tolist()
        for utility in (table_utility, numpy_utility):
            utility[-1] = 0.0
            assert _envelope(power, utility, order) == numpy_envelope(np.array(power),
                                                                      np.array(utility))

    @settings(max_examples=300, deadline=None)
    @given(points=_GRID_POINTS)
    def test_envelope_of_tied_points_equals_the_numpy_reference(self, points):
        power, utility = (list(column) for column in zip(*points))
        order = sorted(range(len(power)), key=power.__getitem__)
        assert _envelope(power, utility, order) == numpy_envelope(np.array(power),
                                                                  np.array(utility))

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(degenerate_cases(), every_scale_cases()))
    def test_utilities_are_spelled_as_the_oracles_spell_them(self, case):
        """The table's utilities are dp.accuracy ** alpha in Python floats,
        as envelope_oracle and build_problem compute them, to the bit."""
        catalog, _, _, alpha = case
        utility = catalog._segments(alpha).weights[0]
        assert _float_bits(utility[:-1]) == _float_bits(
            [dp.accuracy ** alpha for dp in catalog])
        assert _float_bits(utility[-1:]) == _float_bits([0.0])


def _running(catalog, period, alpha, budget) -> set:
    """Ids of the modes optimize_allocation gives time to, None for off."""
    allocation = optimize_allocation(AllocationProblem(period, budget, alpha, catalog))
    running = {i for i, t in zip(allocation.dp_ids, allocation.times) if t > 0.0}
    return running | {None} if allocation.off_time > 0.0 else running


@st.composite
def _regime_cases(draw):
    """(catalog, period, alpha) from degenerate_cases or random_catalog,
    with alpha often at 0, 1e-9, 1 or 40."""
    if draw(st.booleans()):
        catalog, period, _, alpha = draw(degenerate_cases())
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        accuracies, powers, off_power = random_catalog(rng, max_points=30)
        catalog = Catalog(
            tuple(DesignPoint(i + 1, f"P{i + 1}", a, p)
                  for i, (a, p) in enumerate(zip(accuracies.tolist(), powers.tolist()))),
            off_power,
        )
        period, alpha = PERIOD, draw(st.floats(0.0, 64.0))
    alpha = draw(st.sampled_from([alpha, 0.0, 1e-9, 1.0, 40.0]))
    return catalog, period, alpha


class TestRegimeMap:
    # Starts are each envelope vertex's power times the period.
    BUILTIN = {
        0.0: [(5e-5 * PERIOD, (None, 5)), (1.2e-3 * PERIOD, (5,))],
        1.0: [
            (5e-5 * PERIOD, (None, 5)),
            (1.2e-3 * PERIOD, (5, 4)),
            (1.64e-3 * PERIOD, (4, 3)),
            (1.82e-3 * PERIOD, (3, 1)),
            (2.76e-3 * PERIOD, (1,)),
        ],
        2.0: [
            (5e-5 * PERIOD, (None, 4)),
            (1.64e-3 * PERIOD, (4, 3)),
            (1.82e-3 * PERIOD, (3, 1)),
            (2.76e-3 * PERIOD, (1,)),
        ],
    }

    @pytest.mark.parametrize("alpha", sorted(BUILTIN))
    def test_builtin(self, alpha):
        assert regime_map(builtin_table1(), alpha, PERIOD) == self.BUILTIN[alpha]

    def test_builtin_alpha1_starts(self):
        starts = [start for start, _ in regime_map(builtin_table1(), 1.0, PERIOD)]
        assert starts == pytest.approx([0.18, 4.32, DP4_SATURATION, DP3_SATURATION,
                                        DP1_SATURATION], rel=1e-15)

    def test_every_utility_underflows(self):
        catalog = Catalog((DesignPoint(1, "A", 1e-5, 1e-3), DesignPoint(2, "B", 1e-6, 2e-3)),
                          1e-5)
        assert regime_map(catalog, 100.0, 60.0) == [(1e-5 * 60.0, (None,))]

    @pytest.mark.parametrize(
        "period, alpha, match",
        [(0.0, 1.0, "period"), (float("nan"), 1.0, "period"), (PERIOD, -1.0, "alpha")],
    )
    def test_rejects_bad_inputs(self, period, alpha, match):
        with pytest.raises(ValueError, match=match):
            regime_map(builtin_table1(), alpha, period)

    @settings(max_examples=300, deadline=None)
    @given(case=_regime_cases())
    @example(case=(Catalog((DesignPoint(1, "A", 0.5, 1e-3),), 1e-315), 60.0, 1.0))
    def test_matches_optimize_allocation(self, case):
        catalog, period, alpha = case
        regimes = regime_map(catalog, alpha, period)
        for (start, mix), (stop, _) in zip(regimes, regimes[1:]):
            assert start < stop
            assert _running(catalog, period, alpha, (start + stop) / 2) == set(mix)
        last, top = regimes[-1]
        assert len(top) == 1
        assert _running(catalog, period, alpha, 2.0 * last + 1.0) == set(top)
        floor = regimes[0][0]
        assert floor == catalog.off_power * period
        if floor > 0.0:
            # A subnormal floor times (1 - 1e-6) rounds back to the floor.
            below = min(floor * (1 - 1e-6), np.nextafter(floor, 0.0))
            allocation = optimize_allocation(AllocationProblem(period, below, alpha, catalog))
            assert allocation.status == INFEASIBLE


def _fresh(catalog: Catalog) -> Catalog:
    """An equal catalog object with nothing cached on it yet."""
    return Catalog(tuple(catalog.design_points), catalog.off_power)


def _table_bits(table) -> list:
    """Every field of a segment table, floats spelled by float.hex."""
    def bits(value):
        if isinstance(value, tuple):
            return tuple(map(bits, value))
        return float.hex(value) if isinstance(value, float) else value

    return [bits(getattr(table, field.name)) for field in dataclasses.fields(table)]


class TestCatalogCache:
    """Validation and each alpha's segment table are computed once per
    catalog object and shared by every later call on it."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=degenerate_cases(),
        alphas=st.lists(st.sampled_from([0.0, -0.0, 1e-9, 0.5, 1, 2, 40]), min_size=1,
                        max_size=12),
    )
    def test_reused_catalog_matches_a_fresh_one(self, case, alphas):
        catalog, period, budgets, _ = case
        for alpha in alphas:
            assert regime_map(catalog, alpha, period) == regime_map(_fresh(catalog), alpha, period)
            for budget in budgets:
                reused = optimize_allocation(AllocationProblem(period, budget, alpha, catalog))
                fresh = optimize_allocation(
                    AllocationProblem(period, budget, alpha, _fresh(catalog)))
                assert repr(reused) == repr(fresh)

    def test_invalid_catalog_raises_the_same_error_every_time(self):
        catalog = Catalog((DesignPoint(1, "A", 1.5, 1e-3), DesignPoint(1, "B", 0.5, 2e-3)), 1e-5)
        expected = "A: accuracy 1.5 outside (0, 1]; duplicate id 1 (A, B)"
        series = BudgetSeries(PERIOD, np.zeros(1), np.ones(1))
        for _ in range(3):
            assert validate_catalog(catalog) == expected.split("; ")
            with pytest.raises(ValueError) as raised:
                AllocationProblem(PERIOD, 1.0, 1.0, catalog)
            assert str(raised.value) == expected
            with pytest.raises(ValueError) as raised:
                simulate(series, catalog, 1.0)
            assert str(raised.value) == expected
            with pytest.raises(ValueError) as raised:
                regime_map(catalog, 1.0, PERIOD)
            assert str(raised.value) == expected

    def test_cached_tables_are_immutable(self):
        catalog = builtin_table1()
        before = optimize_allocation(problem(5.0, catalog=catalog))
        table = catalog._segments(1.0)
        fields = dataclasses.fields(table)
        assert [field.name for field in fields] == ["hull", "inner", "weights"]
        assert all(type(getattr(table, field.name)) is tuple for field in fields)
        assert all(type(row) is tuple for row in table.weights)
        assert all(type(mode) is int for mode in table.hull)
        assert all(type(value) is float for row in (table.inner, *table.weights) for value in row)
        for field in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(table, field.name, ())
        assert optimize_allocation(problem(5.0, catalog=catalog)) == before

    def test_tables_share_the_rows_alpha_does_not_change(self):
        """The accuracy, active and power rows, and the modes in power
        order, are built once per catalog, as tuples the cache's partial
        binds; every table holds those same rows."""
        catalog = builtin_table1()
        bound = catalog._segments.__wrapped__
        assert bound.func is _segments and not bound.keywords
        assert bound.args == (
            tuple(dp.accuracy for dp in catalog) + (0.0,),
            (1.0,) * len(catalog) + (0.0,),
            tuple(dp.power for dp in catalog) + (catalog.off_power,),
            (5, 4, 3, 2, 1, 0),  # off, then DP5 up to DP1
        )
        for alpha in (0.0, 1.0, 2.0):
            weights = catalog._segments(alpha).weights
            assert all(row is bound_row for row, bound_row in zip(weights[1:], bound.args))

    def test_dropped_catalog_is_freed_by_reference_counting(self):
        """The table cache binds the catalog's fields, not the catalog, so
        no reference cycle keeps a dropped catalog alive."""
        catalog = builtin_table1()
        series = BudgetSeries(PERIOD, np.zeros(1), np.array([5.0]))
        enabled = gc.isenabled()
        gc.disable()
        try:
            optimize_allocation(problem(5.0, catalog=catalog))
            simulate(series, catalog, 1.0)
            regime_map(catalog, 1.0, PERIOD)
            assert "_segments" in vars(catalog)
            freed = weakref.ref(catalog)
            del catalog
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_readers_share_one_table_per_alpha(self):
        catalog = builtin_table1()
        series = BudgetSeries(PERIOD, np.zeros(1), np.array([5.0]))
        optimize_allocation(problem(5.0, catalog=catalog))
        simulate(series, catalog, 1.0)
        regime_map(catalog, 1.0, PERIOD)
        sweep_budget(catalog, 1.0, 1.0, 2.0, 0.5)
        info = catalog._segments.cache_info()
        assert info.misses == 1 and info.hits == 3

    def test_validate_catalog_returns_a_new_list(self):
        catalog = Catalog((DesignPoint(1, "A", 1.5, 1e-3),), 1e-5)
        problems = validate_catalog(catalog)
        problems.append("edited")
        problems.clear()
        assert validate_catalog(catalog) == ["A: accuracy 1.5 outside (0, 1]"]
        valid = builtin_table1()
        validate_catalog(valid).append("edited")
        assert validate_catalog(valid) == []
        problem(5.0, catalog=valid)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda c: pickle.loads(pickle.dumps(c))])
    def test_copies_leave_the_caches_behind(self, clone):
        catalog = builtin_table1()
        before = optimize_allocation(problem(5.0, catalog=catalog))
        copied = clone(catalog)
        assert copied == catalog and hash(copied) == hash(catalog)
        assert "_segments" in vars(catalog)
        assert "_segments" not in vars(copied) and "_problems" not in vars(copied)
        assert "ids" not in vars(copied) and catalog.ids is catalog.ids
        assert optimize_allocation(problem(5.0, catalog=copied)) == before

    def test_alpha_memo_is_bounded(self):
        catalog = builtin_table1()
        series = BudgetSeries(PERIOD, PERIOD * np.arange(3), np.array([0.18, 5.0, 9.0]))
        alphas = np.linspace(0.0, 40.0, 200).tolist()
        points = sweep_alpha(catalog, series, alphas)
        tables = catalog._segments
        assert tables.cache_info().currsize == _ALPHA_MEMO
        # An evicted alpha is rebuilt with the same bits.
        assert simulate(series, catalog, alphas[0]).ratio_stats == points[0].ratio_stats
        assert points[0].ratio_stats == simulate(series, _fresh(catalog), alphas[0]).ratio_stats
        assert tables.cache_info().currsize == _ALPHA_MEMO

    def test_alpha_memo_drops_the_least_recently_used(self):
        tables = builtin_table1()._segments
        alphas = np.linspace(0.0, 40.0, _ALPHA_MEMO + 1).tolist()
        kept = [tables(alpha) for alpha in alphas[:_ALPHA_MEMO]]
        assert tables(alphas[0]) is kept[0]  # touched: now the most recent
        tables(alphas[-1])  # evicts alphas[1], the least recently used
        assert tables(alphas[0]) is kept[0]
        rebuilt = tables(alphas[1])
        assert rebuilt is not kept[1]
        assert _table_bits(rebuilt) == _table_bits(kept[1])

    def test_threads_share_one_catalog(self):
        catalog = builtin_table1()
        alphas = np.linspace(0.0, 40.0, 3 * _ALPHA_MEMO).tolist()
        expected = {a: optimize_allocation(problem(5.0, a, _fresh(catalog))) for a in alphas}
        mismatches, errors = [], []

        def work(seed):
            try:
                for alpha in np.random.default_rng(seed).permutation(alphas).tolist():
                    if optimize_allocation(problem(5.0, alpha, catalog)) != expected[alpha]:
                        mismatches.append(alpha)
            except Exception as exc:  # a thread drops what it raises; assert on it below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert catalog._segments.cache_info().currsize == _ALPHA_MEMO

    def test_second_decision_does_not_validate_again(self, monkeypatch):
        calls = []

        def counting(catalog):
            calls.append(catalog)
            return find_problems(catalog)

        find_problems = catalog_module._find_problems
        monkeypatch.setattr(catalog_module, "_find_problems", counting)
        catalog = builtin_table1()
        series = BudgetSeries(PERIOD, np.zeros(1), np.array([5.0]))
        for alpha in (1.0, 2.0, 1.0):
            optimize_allocation(problem(5.0, alpha, catalog))
            simulate(series, catalog, alpha)
            regime_map(catalog, alpha, PERIOD)
        assert validate_catalog(catalog) == []
        assert len(calls) == 1
        optimize_allocation(problem(5.0, catalog=_fresh(catalog)))
        assert len(calls) == 2

    def test_cross_checks_do_not_read_the_cache(self):
        """A stale table cache misleads optimize_allocation, simulate and
        regime_map only: build_problem, solve_lp, envelope_oracle and
        HiGHS still solve the catalog as it is, so they catch the stale
        tables.  The stale ones square every accuracy, so at alpha = 1
        they give the alpha = 2 answers."""
        pytest.importorskip("scipy.optimize")
        catalog = builtin_table1()
        other = Catalog(tuple(DesignPoint(dp.id, dp.label, dp.accuracy**2, dp.power)
                              for dp in catalog), catalog.off_power)
        catalog.__dict__["_segments"] = other._segments
        prob = problem(5.0, catalog=catalog)
        squared = optimize_allocation(problem(5.0, alpha=2.0)).objective
        assert optimize_allocation(prob).objective == pytest.approx(squared, rel=1e-12)
        series = BudgetSeries(PERIOD, np.zeros(1), np.array([5.0]))
        assert simulate(series, catalog, 1.0).mean_active_fraction == pytest.approx(
            simulate(series, builtin_table1(), 2.0).mean_active_fraction, rel=1e-12)
        assert regime_map(catalog, 1.0, PERIOD) == TestRegimeMap.BUILTIN[2.0]
        assert envelope_oracle(prob) == pytest.approx(J_AT_5J, rel=1e-12)
        assert solve_lp(build_problem(prob)).objective == pytest.approx(J_AT_5J, rel=1e-9)
        assert highs_objective(catalog, PERIOD, 5.0, 1.0) == pytest.approx(J_AT_5J, rel=1e-6)


class TestStaticBaseline:
    def test_dp1_at_five_joules(self):
        dp1 = builtin_table1().design_points[0]
        static = static_dp_allocation(dp1, PERIOD, 5.0, 5.0e-5)
        assert static.times[0] == pytest.approx(DP1_STATIC_T_AT_5J, rel=1e-9)
        assert static.expected_accuracy == pytest.approx(DP1_STATIC_ACC_AT_5J, rel=1e-9)
        optimized = optimize_allocation(problem(5.0))
        ratio = optimized.objective / static.objective
        assert ratio == pytest.approx(RATIO_AT_5J, rel=1e-9)

    def test_dp5_saturates_at_4_32(self):
        dp5 = builtin_table1().design_points[4]
        for budget in (DP5_SATURATION, 5.0, 10.0):
            static = static_dp_allocation(dp5, PERIOD, budget, 5.0e-5)
            assert static.active_fraction == pytest.approx(1.0, rel=1e-9)
        below = static_dp_allocation(dp5, PERIOD, 4.0, 5.0e-5)
        assert below.active_fraction < 1.0

    def test_infeasible_below_floor(self):
        dp1 = builtin_table1().design_points[0]
        static = static_dp_allocation(dp1, PERIOD, 0.1, 5.0e-5)
        assert static.status == INFEASIBLE
        assert static.objective == 0.0

    def test_power_must_exceed_off_power(self):
        dp = DesignPoint(1, "A", 0.9, 1e-5)
        with pytest.raises(ValueError, match="off_power"):
            static_dp_allocation(dp, PERIOD, 1.0, 5.0e-5)

    @pytest.mark.parametrize(
        "period, budget, alpha, match",
        [
            (float("nan"), 1.0, 1.0, "period"),
            (0.0, 1.0, 1.0, "period"),
            (-PERIOD, 1.0, 1.0, "period"),
            (float("inf"), 1.0, 1.0, "period"),
            (PERIOD, float("nan"), 1.0, "budget"),
            (PERIOD, -1.0, 1.0, "budget"),
            (PERIOD, float("inf"), 1.0, "budget"),
            (PERIOD, 1.0, float("nan"), "alpha"),
            (PERIOD, 1.0, -1.0, "alpha"),
        ],
    )
    def test_rejects_what_allocation_problem_rejects(self, period, budget, alpha, match):
        dp1 = builtin_table1().design_points[0]
        with pytest.raises(ValueError, match=match):
            AllocationProblem(period, budget, alpha, Catalog((dp1,), 5.0e-5))
        with pytest.raises(ValueError, match=match):
            static_dp_allocation(dp1, period, budget, 5.0e-5, alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        budget=st.floats(min_value=0.18, max_value=15.0),
        alpha=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_never_beats_optimizer(self, budget, alpha):
        prob = problem(budget, alpha)
        optimized = optimize_allocation(prob)
        for dp in builtin_table1():
            static = static_dp_allocation(dp, PERIOD, budget, 5.0e-5, alpha)
            assert optimized.objective >= static.objective - 1e-9


class TestLPFormulation:
    def test_build_problem_shape(self):
        lp = build_problem(problem(5.0))
        assert lp.n == 6  # five design points plus the off state
        assert len(lp.constraints) == 2
        senses = [sense for _, sense, _ in lp.constraints]
        assert senses == ["eq", "le"]

    def test_direct_solve_matches_allocator(self):
        prob = problem(5.0)
        solution = solve_lp(build_problem(prob))
        allocation = optimize_allocation(prob)
        assert solution.objective == pytest.approx(allocation.objective, rel=1e-12)
