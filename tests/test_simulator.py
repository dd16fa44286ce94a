"""Simulation, sweep, and report-serialization tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from eaopt import simulator
from eaopt.allocator import AllocationProblem, optimize_allocation, static_dp_allocation
from eaopt.catalog import Catalog, DesignPoint, builtin_table1
from eaopt.cli import main
from eaopt.harvest import BudgetSeries, PanelModel, synth_trace, trace_to_budgets
from eaopt.simulator import (
    PeriodColumns,
    RatioStats,
    alpha_sweep_to_csv,
    budget_grid,
    report_to_csv,
    report_to_json,
    simulate,
    sweep_alpha,
    sweep_budget,
    sweep_to_csv,
)
from oracles import (
    degenerate_cases,
    reference_alpha_sweep_csv,
    reference_report_csv,
    reference_report_json,
    reference_sweep_csv,
)

HOUR = 3600.0
CATALOG = builtin_table1()


def constant_series(budget, periods=4):
    return BudgetSeries(
        HOUR, HOUR * np.arange(periods), np.full(periods, float(budget))
    )


def month_series(**kwargs):
    trace = synth_trace(30, **kwargs)
    return trace_to_budgets(trace, PanelModel(), HOUR)


class TestSimulate:
    def test_saturating_budget_reduces_to_dp1(self):
        report = simulate(constant_series(9.936), CATALOG, alpha=1.0)
        for record in report.records:
            times = dict(zip(record.optimized.dp_ids, record.optimized.times))
            assert times[1] == pytest.approx(HOUR, rel=1e-9)
            assert record.ratios[1] == pytest.approx(1.0, rel=1e-9)
        assert report.ratio_stats[1].mean == pytest.approx(1.0, rel=1e-9)

    def test_five_joule_constant(self):
        report = simulate(constant_series(5.0), CATALOG, alpha=1.0)
        assert report.mean_expected_accuracy == pytest.approx(0.8201010101010101, rel=1e-9)
        assert report.ratio_stats[1].mean == pytest.approx(1.7658924372175895, rel=1e-9)
        for record in report.records:
            assert record.statics[1].expected_accuracy == pytest.approx(
                0.4644116441164412, rel=1e-9
            )

    def test_keep_alive_budget_is_all_off_and_undefined(self):
        report = simulate(constant_series(0.18), CATALOG, alpha=1.0)
        for record in report.records:
            assert record.optimized.objective == pytest.approx(0.0, abs=1e-9)
            assert all(ratio is None for ratio in record.ratios.values())
        stats = report.ratio_stats[1]
        assert stats.mean is None and stats.defined == 0
        assert stats.undefined == len(report.records)

    def test_per_period_dominance(self):
        report = simulate(month_series(noise=0.25, seed=9), CATALOG, alpha=2.0)
        for record in report.records:
            best_static = max(a.objective for a in record.statics.values())
            assert record.optimized.objective >= best_static - 1e-9

    def test_aggregates_recomputable_from_records(self):
        report = simulate(month_series(seed=3), CATALOG, alpha=1.0)
        n = len(report.records)
        assert report.mean_expected_accuracy == sum(
            r.optimized.expected_accuracy for r in report.records
        ) / n
        assert report.mean_active_fraction == sum(
            r.optimized.active_fraction for r in report.records
        ) / n
        for dp_id in report.dp_ids:
            defined = [r.ratios[dp_id] for r in report.records if r.ratios[dp_id] is not None]
            stats = report.ratio_stats[dp_id]
            if defined:
                assert stats.mean == sum(defined) / len(defined)
                assert stats.min == min(defined)
                assert stats.max == max(defined)
                assert stats.min <= stats.mean <= stats.max
            assert stats.defined == len(defined)
            assert stats.defined + stats.undefined == n

    def test_time_shares_sum_to_one(self):
        report = simulate(month_series(seed=5), CATALOG, alpha=1.0)
        total = sum(report.time_share.values()) + report.off_share
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_empty_series(self):
        empty = BudgetSeries(HOUR, np.array([]), np.array([]))
        with pytest.raises(ValueError, match="empty"):
            simulate(empty, CATALOG, 1.0)

    @pytest.mark.parametrize(
        "budgets, alpha, match",
        [
            ([5.0, float("nan"), 5.0], 1.0, "budget"),
            ([5.0, -1.0], 1.0, "budget"),
            ([5.0, 5.0], -0.5, "alpha"),
        ],
    )
    def test_invalid_inputs(self, budgets, alpha, match):
        series = BudgetSeries(HOUR, HOUR * np.arange(len(budgets)), np.array(budgets))
        with pytest.raises(ValueError, match=match):
            simulate(series, CATALOG, alpha)

    @pytest.mark.parametrize(
        "bad, text",
        [(float("nan"), "budget nan must be finite and >= 0"),
         (float("inf"), "budget inf must be finite and >= 0"),
         (-1.0, "budget -1.0 must be finite and >= 0")],
    )
    def test_first_bad_budget_is_named(self, bad, text):
        budgets = np.array([5.0, 0.0, bad, 5.0, -2.0, 5.0])
        series = BudgetSeries(HOUR, HOUR * np.arange(len(budgets)), budgets)
        with pytest.raises(ValueError) as raised:
            simulate(series, CATALOG, 1.0)
        assert str(raised.value) == text

    def test_starts_must_match_the_budgets(self):
        series = BudgetSeries(HOUR, np.array([0.0]), np.array([1.0, 5.0, 7.0]))
        with pytest.raises(ValueError) as raised:
            simulate(series, CATALOG, 1.0)
        assert str(raised.value) == "budget series has 1 starts for 3 budgets"

    def test_first_non_finite_start_is_named(self):
        starts = np.array([0.0, float("nan"), float("inf"), 3 * HOUR])
        series = BudgetSeries(HOUR, starts, np.full(4, 5.0))
        with pytest.raises(ValueError) as raised:
            simulate(series, CATALOG, 1.0)
        assert str(raised.value) == "start nan must be finite"

    def test_reports_are_reproducible(self):
        a = simulate(month_series(noise=0.2, seed=11), CATALOG, alpha=2.0)
        b = simulate(month_series(noise=0.2, seed=11), CATALOG, alpha=2.0)
        assert a == b
        assert report_to_json(a) == report_to_json(b)
        assert report_to_csv(a) == report_to_csv(b)


class TestBudgetGrid:
    def test_inclusive_endpoints(self):
        grid = budget_grid(0.18, 10.0, 0.1)
        assert len(grid) == 99
        assert grid[0] == pytest.approx(0.18)
        assert grid[-1] == pytest.approx(9.98)

    def test_fine_step(self):
        assert len(budget_grid(0.18, 10.0, 0.01)) == 983

    def test_exact_endpoint_included(self):
        grid = budget_grid(1.0, 2.0, 0.5)
        assert list(grid) == pytest.approx([1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="step"):
            budget_grid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="stop"):
            budget_grid(2.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="budget range .* must be finite"):
            budget_grid(0.0, math.inf, 1.0)
        with pytest.raises(ValueError, match="budget range .* step"):
            budget_grid(0.0, 1.0, 1e-320)


class TestSweeps:
    def test_budget_sweep_rows_and_dominance(self):
        points = sweep_budget(CATALOG, 1.0, 0.18, 10.0, 0.1)
        assert len(points) == 99
        for pt in points:
            best_static = max(a.objective for a in pt.statics.values())
            assert pt.optimized.objective >= best_static - 1e-9

    def test_sweep_csv_shape(self):
        points = sweep_budget(CATALOG, 1.0, 1.0, 2.0, 0.5)
        text = sweep_to_csv(points, CATALOG)
        lines = text.splitlines()
        assert lines[0].startswith("budget_j,opt_objective,opt_expected_accuracy")
        assert "dp1_objective" in lines[0] and "dp5_active_fraction" in lines[0]
        assert len(lines) == 1 + 3
        assert len(lines[1].split(",")) == 4 + 3 * len(CATALOG)

    @pytest.mark.parametrize("design_points", [
        CATALOG.design_points[:-1],
        CATALOG.design_points[::-1],
    ], ids=["fewer", "reordered"])
    def test_sweep_csv_rejects_another_catalog(self, design_points):
        report = sweep_budget(CATALOG, 1.0, 1.0, 2.0, 0.5)
        with pytest.raises(ValueError, match="not the report's"):
            sweep_to_csv(report, Catalog(design_points, CATALOG.off_power))

    def test_alpha_sweep_stats(self):
        series = month_series(seed=2)
        points = sweep_alpha(CATALOG, series, [0.5, 1.0, 2.0])
        assert [pt.alpha for pt in points] == [0.5, 1.0, 2.0]
        for pt in points:
            stats = pt.ratio_stats[1]
            assert stats.min <= stats.mean <= stats.max

    def test_alpha_sweep_csv(self):
        series = constant_series(5.0)
        text = alpha_sweep_to_csv(sweep_alpha(CATALOG, series, [1.0]), CATALOG)
        lines = text.splitlines()
        assert lines[0].split(",")[0] == "alpha"
        assert "dp1_ratio_mean" in lines[0] and "dp5_undefined" in lines[0]
        assert len(lines) == 2


class TestReportSerialization:
    def test_json_round_trips_and_flags_undefined(self):
        report = simulate(constant_series(0.18, periods=2), CATALOG, alpha=1.0)
        payload = json.loads(report_to_json(report))
        assert payload["periods"] == 2
        assert payload["ratio_stats"]["1"]["mean"] is None
        assert payload["records"][0]["ratios"]["1"] is None
        assert payload["records"][0]["optimized"]["status"] == "optimal"

    def test_json_contents(self):
        report = simulate(constant_series(5.0, periods=2), CATALOG, alpha=1.0)
        payload = json.loads(report_to_json(report))
        assert payload["alpha"] == 1.0
        assert payload["dp_labels"] == ["DP1", "DP2", "DP3", "DP4", "DP5"]
        record = payload["records"][0]
        assert record["budget"] == 5.0
        assert record["optimized"]["times"]["4"] == pytest.approx(1545.4545454545455)
        assert record["statics"]["1"]["expected_accuracy"] == pytest.approx(
            0.4644116441164412
        )

    def test_csv_rows_and_empty_cells(self):
        report = simulate(constant_series(0.18, periods=3), CATALOG, alpha=1.0)
        lines = report_to_csv(report).splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert len(row) == len(header)
        assert row[header.index("dp1_ratio")] == ""

    def test_csv_header_stable(self):
        report = simulate(constant_series(5.0, periods=1), CATALOG, alpha=1.0)
        header = report_to_csv(report).splitlines()[0]
        assert header.split(",")[:7] == [
            "index", "start", "budget_j", "opt_objective",
            "opt_expected_accuracy", "opt_active_fraction", "opt_off_time",
        ]


# A design point whose utility is subnormal at alpha = 64: its static
# objective is positive but tiny, so the ratio overflows to inf.  That
# ratio is undefined: null in JSON, a blank CSV cell, counted in undefined.
_SUBNORMAL = (
    Catalog((DesignPoint(7, "A", 1e-5, 1e-3), DesignPoint(10**12, "B", 1.0, 2e-3)), 0.0),
    HOUR,
    [0.0, 3.0, 5.0],
    64.0,
)
# Every ratio against DP 7 is finite, about 1.68e308, so their sum overflows.
_HUGE_RATIOS = (
    Catalog((DesignPoint(7, "A", 1.5187540055433938e-05, 1e-3),
             DesignPoint(8, "B", 1.0, 2e-3)), 0.0),
    HOUR,
    [5.0, 5.0, 5.0],
    64.0,
)
_ONE_DP = (Catalog((DesignPoint(3, "only", 0.8, 1e-3),), 1e-4), 60.0, [0.0, 0.006, 0.03], 1.0)
# Every budget at or below the keep-alive floor (0.18 J): every ratio is
# undefined, so the alpha sweep's mean, min and max cells are blank.
_AT_FLOOR = (CATALOG, HOUR, [0.0, 0.1, 0.18], 2.0)
# A -0.0 budget is legal and must stay -0.0 beside a 0.0 one, although
# np.unique compares them equal.
_SIGNED_ZERO = (CATALOG, HOUR, [0.0, -0.0, 5.0, -0.0], 1.0)
# The same few budgets over and over, each at its own start.
_REPEATED = (CATALOG, HOUR, [0.0, 5.0, 0.0, 9.936, 5.0, 0.0, 0.18, 5.0] * 4, 2.0)
_EXTREME = (CATALOG, HOUR, [5e-324, 1e308, 0.0, 5e-324], 1.0)


class TestColumnWriters:
    """The column writers give exactly the bytes of the record-walking
    reference writers in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(case=degenerate_cases())
    @example(case=_SUBNORMAL)
    @example(case=_HUGE_RATIOS)
    @example(case=_ONE_DP)
    @example(case=_AT_FLOOR)
    @example(case=_SIGNED_ZERO)
    @example(case=_REPEATED)
    @example(case=_EXTREME)
    def test_bytes_equal_reference(self, case):
        catalog, period, budgets, alpha = case
        series = BudgetSeries(period, period * np.arange(len(budgets)), np.array(budgets))
        report = simulate(series, catalog, alpha)
        assert report_to_json(report) == reference_report_json(report)
        assert report_to_csv(report) == reference_report_csv(report)
        assert sweep_to_csv(report, catalog) == reference_sweep_csv(report.records, catalog)
        points = sweep_alpha(catalog, series, [alpha, 0.0])
        assert alpha_sweep_to_csv(points, catalog) == reference_alpha_sweep_csv(points, catalog)

    def test_builtin_month_at_alpha_2(self):
        report = simulate(month_series(), CATALOG, alpha=2.0)
        assert report_to_json(report) == reference_report_json(report)
        assert report_to_csv(report) == reference_report_csv(report)

    def test_rows_differing_only_in_masks_are_not_merged(self):
        """report_to_json renders each distinct row once; a row's defined
        mask and infeasible flag are part of what makes it distinct."""
        report = simulate(constant_series(5.0, periods=3), CATALOG, alpha=1.0)
        c = report.columns
        defined = c.defined.copy()
        defined[1, 0] = False
        infeasible = np.array([False, False, True])
        columns = PeriodColumns(c.starts, c.budget, c.seconds, c.readings, c.static_t,
                                c.static_readings, c.ratios, defined, infeasible)
        hand = dataclasses.replace(report, columns=columns)
        records = json.loads(report_to_json(hand))["records"]
        assert records[0]["ratios"]["1"] == c.ratios[0, 0]
        assert records[1]["ratios"]["1"] is None
        assert records[1]["optimized"] == records[0]["optimized"]
        assert records[2]["optimized"]["status"] == "infeasible"
        assert records[2]["statics"]["1"]["status"] == "infeasible"
        assert records[2]["ratios"] == records[0]["ratios"]
        for record, expected in zip(records, hand.records):
            assert record["optimized"] == expected.optimized.to_dict()
            assert record["statics"] == {str(i): a.to_dict() for i, a in expected.statics.items()}
            assert record["ratios"] == {str(i): r for i, r in expected.ratios.items()}


def test_overflowed_ratio_is_strict_json():
    catalog, period, budgets, alpha = _SUBNORMAL
    series = BudgetSeries(period, period * np.arange(len(budgets)), np.array(budgets))

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(report_to_json(simulate(series, catalog, alpha)), parse_constant=refuse)
    assert payload["ratio_stats"]["7"] == {
        "mean": None, "min": None, "max": None, "defined": 0, "undefined": 3,
    }
    assert [r["ratios"]["7"] for r in payload["records"]] == [None, None, None]


def test_overflowing_ratio_sum_keeps_a_finite_mean():
    catalog, period, budgets, alpha = _HUGE_RATIOS
    series = BudgetSeries(period, period * np.arange(len(budgets)), np.array(budgets))
    report = simulate(series, catalog, alpha)
    stats = report.ratio_stats[7]
    assert stats.defined == 3 and math.isfinite(stats.max) and stats.max > 1e308
    assert stats.mean == pytest.approx(stats.max, rel=1e-15)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(report_to_json(report), parse_constant=refuse)
    assert payload["ratio_stats"]["7"]["mean"] == stats.mean
    cells = alpha_sweep_to_csv(sweep_alpha(catalog, series, [alpha]), catalog).split()[1]
    assert "inf" not in cells


def _reference_ratio_stats(catalog, period, budgets, alpha) -> dict[int, RatioStats]:
    """RatioStats from one optimize_allocation and one static_dp_allocation
    call per period, summed in period order with Python floats."""
    optimized = [
        optimize_allocation(AllocationProblem(period, b, alpha, catalog)).objective
        for b in budgets
    ]
    stats = {}
    for dp in catalog:
        values = []
        for objective, budget in zip(optimized, budgets):
            static = static_dp_allocation(dp, period, budget, catalog.off_power, alpha)
            if static.objective > 0.0 and math.isfinite(objective / static.objective):
                values.append(objective / static.objective)
        mean = sum(values) / len(values) if values else None
        if mean is not None and not math.isfinite(mean):
            mean = sum(v / len(values) for v in values)
        stats[dp.id] = RatioStats(
            mean=mean,
            min=min(values) if values else None,
            max=max(values) if values else None,
            defined=len(values),
            undefined=len(budgets) - len(values),
        )
    return stats


class TestSweepAlphaReference:
    """sweep_alpha against per-period single decisions, exactly."""

    ALPHAS = [0.0, 0.5, 1.0, 8.0, 64.0]

    @settings(max_examples=100, deadline=None)
    @given(case=degenerate_cases())
    @example(case=_SUBNORMAL)
    @example(case=_HUGE_RATIOS)
    @example(case=_AT_FLOOR)
    def test_equals_per_period_decisions(self, case):
        catalog, period, budgets, _ = case
        series = BudgetSeries(period, period * np.arange(len(budgets)), np.array(budgets))
        points = sweep_alpha(catalog, series, self.ALPHAS)
        assert [pt.alpha for pt in points] == self.ALPHAS
        for pt in points:
            assert pt.ratio_stats == _reference_ratio_stats(catalog, period, budgets, pt.alpha)


class TestLazyRecords:
    @pytest.fixture
    def no_records(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a PeriodRecord was built")

        monkeypatch.setattr(simulator, "PeriodRecord", refuse)

    def test_writers_build_no_record(self, no_records):
        report = simulate(month_series(noise=0.2, seed=4), CATALOG, alpha=2.0)
        assert len(report) == 720
        report_to_json(report)
        report_to_csv(report)
        sweep_to_csv(report, CATALOG)
        assert "records" not in vars(report)
        with pytest.raises(AssertionError, match="PeriodRecord"):
            report.records

    def test_cli_sweep_builds_no_record(self, no_records, capsys):
        assert main(["sweep", "--budget-range", "1:2:0.5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3

    def test_report_is_a_sequence_of_its_records(self):
        report = sweep_budget(CATALOG, 1.0, 0.18, 10.0, 0.1)
        assert len(report) == 99
        assert "records" not in vars(report)
        records = report.records
        for i in (0, 42, 98, -1, -99):
            assert report[i] is records[i]
        assert all(a is b for a, b in zip(report[3:90:7], records[3:90:7], strict=True))
        assert list(report) == list(records)
        with pytest.raises(IndexError):
            report[99]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_cli_simulate_builds_no_record(self, no_records, tmp_path, capsys, fmt):
        path = tmp_path / f"report.{fmt}"
        code = main(["simulate", "--trace", "synth:2d", "--format", fmt, "--output", str(path)])
        assert code == 0
        assert "periods: 48" in capsys.readouterr().out
        assert path.stat().st_size > 0
