"""End-to-end CLI tests driving main() in process."""

import gc
import json
import shlex
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import numpy as np

from eaopt import simulator
from eaopt.catalog import builtin_table1, serialize_catalog
from eaopt.cli import RunConfig, load_config_file, main, make_config
from eaopt.harvest import BudgetSeries, PanelModel, budget_series_to_csv, synth_trace, trace_to_budgets
from eaopt.simulator import _CHUNK_PERIODS, report_to_csv, report_to_json, simulate

SPLIT_5J = {"4": 1545.4545454545455, "5": 2054.5454545454545}
HOUR = 3600.0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimize:
    def test_five_joule_split(self, capsys):
        code, out, err = run(capsys, "optimize", "--budget", "5", "--alpha", "1")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["times"]["4"] == pytest.approx(SPLIT_5J["4"], rel=1e-9)
        assert payload["times"]["5"] == pytest.approx(SPLIT_5J["5"], rel=1e-9)

    def test_infeasible_exits_2(self, capsys):
        code, out, _ = run(capsys, "optimize", "--budget", "0.1")
        assert code == 2
        assert json.loads(out)["status"] == "infeasible"

    def test_saturated_is_all_dp1(self, capsys):
        code, out, _ = run(capsys, "optimize", "--budget", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["times"]["1"] == pytest.approx(3600.0, rel=1e-9)

    def test_missing_budget_is_usage_error(self, capsys):
        code, _, err = run(capsys, "optimize")
        assert code == 1
        assert "budget" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "allocation.json"
        code, out, _ = run(capsys, "optimize", "--budget", "5", "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["status"] == "optimal"

    def test_custom_period_and_alpha(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--budget", "2.5", "--period", "1800", "--alpha", "2"
        )
        assert code == 0
        assert json.loads(out)["active_fraction"] <= 1.0


class TestPareto:
    def test_builtin_all_kept(self, capsys):
        code, out, _ = run(capsys, "pareto")
        assert code == 0
        payload = json.loads(out)
        assert [dp["label"] for dp in payload["kept"]] == [
            "DP1", "DP2", "DP3", "DP4", "DP5",
        ]
        assert payload["removed"] == []
        assert payload["off_power"] == 5e-05

    def test_dominated_point_reported(self, capsys, tmp_path):
        text = serialize_catalog(builtin_table1())
        text += "6,DP6,0.91,0.002\n"
        path = tmp_path / "catalog.csv"
        path.write_text(text)
        code, out, _ = run(capsys, "pareto", "--catalog", str(path))
        assert code == 0
        payload = json.loads(out)
        assert len(payload["kept"]) == 5
        assert payload["removed"] == [
            {
                "id": 6,
                "label": "DP6",
                "accuracy": 0.91,
                "power": 0.002,
                "dominated_by": "DP3",
            }
        ]

    def test_bad_catalog_path(self, capsys):
        code, _, err = run(capsys, "pareto", "--catalog", "/nonexistent.csv")
        assert code == 1 and "error:" in err

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "pareto", "--catalog", "builtin:bogus")
        assert code == 1 and "unknown builtin" in err

    @pytest.mark.parametrize("flag", ["--alpha", "--period"])
    def test_rejects_flags_it_would_ignore(self, capsys, flag):
        code, out, err = run(capsys, "pareto", flag, "2")
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err

    def test_config_file_keys_stay_shared(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("alpha = 2\nperiod = 60\n")
        code, out, _ = run(capsys, "pareto", "--config", str(config))
        assert code == 0
        assert len(json.loads(out)["kept"]) == 5


class TestSweep:
    def test_budget_range_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--budget-range", "0.18:10:0.1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 100  # header + 99 grid points
        assert lines[0].startswith("budget_j,opt_objective")

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 1 and "exactly one" in err
        code, _, err = run(
            capsys, "sweep", "--budget-range", "1:2:1", "--trace", "synth:1d"
        )
        assert code == 1 and "exactly one" in err

    def test_bad_range(self, capsys):
        for bad in ("1:2", "a:b:c", "2:1:0.5", "1:2:0",
                    "0:inf:1", "-inf:1:1", "0:1:1e-320", "nan:1:1", "0:1:inf",
                    "0:1e300:1", "0:4e18:1"):
            code, _, err = run(capsys, "sweep", "--budget-range", bad)
            assert code == 1 and "range" in err

    def test_huge_range_is_refused_before_allocating(self, capsys, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError(f"np.arange{args} ran")

        monkeypatch.setattr(np, "arange", no_arange)
        code, out, err = run(capsys, "sweep", "--budget-range", "0:1e9:1")
        assert code == 1 and out == ""
        assert err == "error: budget range 0.0:1000000000.0:1.0: too many points at this step\n"

    def test_alpha_sweep_over_synth_trace(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--trace", "synth:2d", "--alpha-list", "0.5,1,2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[0] == "alpha"
        assert len(lines) == 4

    def test_trace_requires_alpha_list(self, capsys):
        code, _, err = run(capsys, "sweep", "--trace", "synth:2d")
        assert code == 1 and "alpha-list" in err

    def test_bad_alpha_list(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--trace", "synth:2d", "--alpha-list", "1,two"
        )
        assert code == 1 and "alpha list" in err

    def test_alpha_list_without_values(self, capsys):
        code, _, err = run(capsys, "sweep", "--trace", "synth:2d", "--alpha-list", ",")
        assert code == 1 and "bad alpha list ','" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--budget-range", "1:2:0.5", "--output", str(path)
        )
        assert code == 0 and out == ""
        assert len(path.read_text().splitlines()) == 4


class TestSimulate:
    def test_synth_month_summary(self, capsys):
        code, out, _ = run(capsys, "simulate", "--trace", "synth:30d", "--alpha", "2")
        assert code == 0
        assert "periods: 720" in out
        assert "mean ratio vs DP1" in out

    def test_json_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "simulate", "--trace", "synth:2d", "--output", str(path)
        )
        assert code == 0
        assert "periods: 48" in out
        payload = json.loads(path.read_text())
        assert payload["periods"] == 48

    def test_csv_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "simulate", "--trace", "synth:2d",
            "--format", "csv", "--output", str(path),
        )
        assert code == 0
        assert len(path.read_text().splitlines()) == 49

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "#mode: budget\ntimestamp,value\n0,5\n3600,6\n7200,0.1\n"
        )
        code, out, _ = run(capsys, "simulate", "--trace", str(path))
        assert code == 0
        assert "periods: 3" in out

    def test_saved_budget_series(self, capsys, tmp_path):
        budgets = np.tile([0.0, 2.5, 7.25, 0.0, 0.0, 11.0, 0.5], 4)
        series = BudgetSeries(900.0, 123.456 + 900.0 * np.arange(len(budgets)), budgets)
        trace = tmp_path / "series.csv"
        trace.write_text(budget_series_to_csv(series))
        report_path = tmp_path / "report.json"
        code, out, err = run(
            capsys, "simulate", "--trace", str(trace), "--period", "900",
            "--alpha", "2", "--output", str(report_path),
        )
        assert code == 0 and err == ""
        report = simulate(series, builtin_table1(), 2.0)
        assert report_path.read_text() == report_to_json(report)
        lines = [
            f"periods: {len(budgets)}",
            f"mean expected accuracy: {report.mean_expected_accuracy:.6g}",
            f"mean active fraction: {report.mean_active_fraction:.6g}",
        ]
        for dp_id, label in zip(report.dp_ids, report.dp_labels):
            stats = report.ratio_stats[dp_id]
            lines.append(f"mean ratio vs {label}: {stats.mean:.6g} "
                         f"(defined {stats.defined}, undefined {stats.undefined})")
        assert out == "\n".join(lines) + "\n"

    def test_report_of_several_chunks(self, capsys, tmp_path):
        """A trace file of more periods than two chunks of records: the
        report file holds exactly report_to_json of the in-process report."""
        rng = np.random.default_rng(7)
        periods = 2 * _CHUNK_PERIODS + 452
        budgets = np.where(rng.random(periods) < 0.4, 0.0, rng.uniform(0.1, 12.0, periods))
        series = BudgetSeries(HOUR, HOUR * np.arange(periods), budgets)
        trace = tmp_path / "series.csv"
        trace.write_text(budget_series_to_csv(series))
        report_path = tmp_path / "report.json"
        code, out, err = run(capsys, "simulate", "--trace", str(trace),
                             "--format", "json", "--output", str(report_path))
        assert code == 0 and err == ""
        assert out.startswith(f"periods: {periods}\n")
        assert report_path.read_text() == report_to_json(simulate(series, builtin_table1(), 1.0))

    def test_csv_report_of_several_chunks(self, capsys, tmp_path):
        """The CSV report of more periods than two chunks is exactly
        report_to_csv of the in-process report."""
        rng = np.random.default_rng(8)
        periods = 2 * _CHUNK_PERIODS + 452
        budgets = np.where(rng.random(periods) < 0.4, 0.0, rng.uniform(0.1, 12.0, periods))
        series = BudgetSeries(HOUR, HOUR * np.arange(periods), budgets)
        trace = tmp_path / "series.csv"
        trace.write_text(budget_series_to_csv(series))
        report_path = tmp_path / "report.csv"
        code, out, err = run(capsys, "simulate", "--trace", str(trace),
                             "--format", "csv", "--output", str(report_path))
        assert code == 0 and err == ""
        assert out.startswith(f"periods: {periods}\n")
        assert report_path.read_text() == report_to_csv(simulate(series, builtin_table1(), 1.0))

    def test_json_report_is_written_in_chunks(self, capsys, tmp_path, monkeypatch):
        """simulate --output writes the JSON report as it renders it: from
        the report on, tracemalloc's peak stays below twice its length."""
        series = trace_to_budgets(synth_trace(365, noise=0.3, seed=1), PanelModel(), HOUR)
        report = simulate(series, builtin_table1(), 1.0)
        length = len(report_to_json(report))

        def traced_simulate(*args):
            tracemalloc.start()
            return report

        monkeypatch.setattr(simulator, "simulate", traced_simulate)
        path = tmp_path / "report.json"
        try:
            code, _, _ = run(capsys, "simulate", "--trace", "synth:1d", "--output", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert path.stat().st_size == length
        assert peak < 2 * length

    def test_trace_off_the_period_grid(self, capsys, tmp_path):
        trace = tmp_path / "offset.csv"
        trace.write_text("#mode: irradiance\ntimestamp,value\n10.1,100\n190.1,0\n")
        report = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "simulate", "--trace", str(trace), "--period", "60",
            "--format", "csv", "--output", str(report),
        )
        assert code == 0
        assert "mean ratio vs DP1: 1 (defined 3, undefined 3)" in out
        budgets = [float(row.split(",")[2]) for row in report.read_text().splitlines()[1:]]
        assert budgets == pytest.approx([1.8, 1.8, 1.8, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("period", ["5e-324", "1e-300"])
    def test_period_too_short_for_the_grid(self, capsys, tmp_path, period):
        budget = tmp_path / "budget.csv"
        budget.write_text("#mode: budget\ntimestamp,value\n0,1\n60,2\n")
        for trace in ("synth:1d", str(budget)):
            code, out, err = run(capsys, "simulate", "--trace", trace, "--period", period)
            assert (code, out) == (1, "")
            assert err == f"error: period length {float(period)!r}: too many periods\n"

    def test_missing_trace(self, capsys):
        code, _, err = run(capsys, "simulate")
        assert code == 1 and "trace" in err

    def test_bad_synth_spec(self, capsys):
        for bad in ("synth:", "synth:x", "synth:3", "synth:3dd"):
            code, _, err = run(capsys, "simulate", "--trace", bad)
            assert code == 1 and "synth" in err

    def test_seeded_noise_is_reproducible(self, capsys):
        argv = [
            "simulate", "--trace", "synth:2d",
            "--synth-noise", "0.2", "--synth-seed", "5",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestConfigMerge:
    def test_file_then_flag_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("budget = 0.1\nalpha = 2  # inline note\n")
        code, out, _ = run(capsys, "optimize", "--config", str(config))
        assert code == 2  # file budget 0.1 is below the keep-alive floor
        code, out, _ = run(
            capsys, "optimize", "--config", str(config), "--budget", "5"
        )
        assert code == 0  # flag overrides the file's budget
        payload = json.loads(out)
        # alpha=2 from the file still applies: the 5 J optimum is the
        # off+DP4 blend, t4 = (5 - 0.18) / (1.64e-3 - 5e-5).
        assert payload["times"]["4"] == pytest.approx(3031.4465408805031, rel=1e-9)
        assert payload["times"]["5"] == pytest.approx(0.0, abs=1e-6)

    def test_dashed_keys(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("# run settings\n\npanel-area = 0.004\nsynth-seed = 9\n")
        values = load_config_file(str(config))
        assert values == {"panel_area": 0.004, "synth_seed": 9}

    def test_unknown_key(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("wattage = 3\n")
        code, _, err = run(capsys, "optimize", "--config", str(config), "--budget", "5")
        assert code == 1 and "unknown config key" in err

    def test_line_without_equals(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("alpha = 2\nverbose\n")
        code, _, err = run(capsys, "optimize", "--config", str(config), "--budget", "5")
        assert code == 1 and ":2: expected key=value, got 'verbose'" in err

    def test_bad_value(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("alpha = quick\n")
        code, _, err = run(capsys, "optimize", "--config", str(config), "--budget", "5")
        assert code == 1 and "bad value" in err

    def test_config_file_is_closed(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("alpha = 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_config_file(str(config))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_bad_format_is_usage_error(self, capsys, tmp_path, source):
        config = tmp_path / "run.conf"
        config.write_text("format = xml\n" if source == "config" else "")
        report = tmp_path / "report.out"
        argv = ["simulate", "--trace", "synth:2d", "--config", str(config),
                "--output", str(report)]
        if source == "flag":
            argv += ["--format", "xml"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "xml" in err
        assert not report.exists()

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "optimize", "--config", "/nope.conf", "--budget", "5")
        assert code == 1 and "config" in err

    # A sample value per RunConfig annotation, and the value it loads as.
    _SAMPLES = {
        "float": ("0.25", 0.25),
        "float | None": ("0.25", 0.25),
        "int | None": ("7", 7),
        "str": ("a.csv", "a.csv"),
        "str | None": ("a.csv", "a.csv"),
    }

    @pytest.mark.parametrize("field", fields(RunConfig), ids=lambda f: f.name)
    def test_every_field_loads_with_its_type(self, tmp_path, field):
        text, expected = self._SAMPLES[field.type]
        config = tmp_path / "run.conf"
        config.write_text(f"{field.name} = {text}\n")
        values = load_config_file(str(config))
        assert values == {field.name: expected}
        assert type(values[field.name]) is type(expected)

    def test_defaults(self):
        config = RunConfig()
        assert config.period == 3600.0
        assert config.alpha == 1.0
        assert config.catalog == "builtin:table1"
        assert config.off_power is None

    def test_make_config_ignores_unset_flags(self):
        import argparse

        parser_args = argparse.Namespace(budget=7.5, config=None, extra=1)
        config = make_config(parser_args)
        assert config.budget == 7.5
        assert config.period == 3600.0


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "optimize", "--budget", "5", "--turbo")
        assert code == 1

    def test_off_power_override_validated(self, capsys):
        code, _, err = run(
            capsys, "optimize", "--budget", "5", "--off-power", "0.5"
        )
        assert code == 1 and "off_power" in err

    def test_off_power_override_works(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--budget", "5", "--off-power", "0.0001"
        )
        assert code == 0
        assert json.loads(out)["status"] == "optimal"


def _readme_blocks(lang: str) -> list[str]:
    """The bodies of the README's ```<lang> blocks, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [block.split("```", 1)[0] for block in text.split(f"```{lang}\n")[1:]]


def _readme_commands() -> list[str]:
    """Every `eaopt ...` line in the README's ```sh blocks."""
    return [line for block in _readme_blocks("sh") for line in block.splitlines()
            if line.startswith("eaopt ")]


class TestReadme:
    def test_commands_found(self):
        assert len(_readme_commands()) >= 7

    @pytest.mark.parametrize("command", _readme_commands())
    def test_command_runs(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "my_catalog.csv").write_text(serialize_catalog(builtin_table1()))
        code, _, err = run(capsys, *shlex.split(command)[1:])
        assert code == 0, err

    def test_regime_map_snippet_prints_what_it_shows(self, capsys):
        snippet = next(block for block in _readme_blocks("python") if "regime_map" in block)
        exec(snippet, {})
        assert capsys.readouterr().out == _readme_blocks("text")[0]
