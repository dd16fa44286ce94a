"""Command-line front end: optimize, pareto, sweep, and simulate.

Exit codes are stable: 0 on success, 1 on usage/parse/IO errors (message
on stderr), 2 when a single-period optimization is infeasible.

A flat key=value config file can seed any flag (dashes or underscores);
explicit flags override the file, which overrides built-in defaults.
Budget sources are mutually exclusive per command: --budget for
optimize, --budget-range or --trace for sweep, --trace for simulate.
Traces are CSV paths or synth:<N>d URIs for the built-in synthetic
irradiance generator.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .allocator import AllocationProblem, optimize_allocation
from .catalog import Catalog, CatalogError, builtin_table1, load_catalog, pareto_partition, validate_catalog
from .harvest import BudgetSeries, PanelModel, TraceError, load_trace, synth_trace, trace_to_budgets
from .lp_core import INFEASIBLE
from .simulator import (
    alpha_sweep_to_csv,
    report_to_csv,
    report_to_json,
    simulate,
    sweep_alpha,
    sweep_budget,
    sweep_to_csv,
)


class UsageError(ValueError):
    """Bad flag combinations or config values; exits with code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI invocation.

    off_power=None means "use the catalog's keep-alive value"; the
    builtin catalog carries 5.0e-5 W.
    """

    catalog: str = "builtin:table1"
    period: float = 3600.0
    off_power: float | None = None
    alpha: float = 1.0
    budget: float | None = None
    budget_range: str | None = None
    trace: str | None = None
    alpha_list: str | None = None
    panel_area: float = 2e-3
    panel_efficiency: float = 0.15
    budget_cap: float | None = None
    synth_peak: float = 10.0
    synth_day_fraction: float = 0.5
    synth_noise: float = 0.0
    synth_seed: int | None = None
    format: str = "json"
    output: str | None = None


_FORMATS = ("json", "csv")

# Each config key converts its value to its RunConfig field's type; the
# annotations are strings such as "float" and "int | None".
_KEY_TYPES = {
    f.name: {"float": float, "int": int, "str": str}[f.type.split(" | ")[0]]
    for f in fields(RunConfig)
}


def load_config_file(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; dashes equal underscores."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _KEY_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _KEY_TYPES[key](value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return values


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for
    infeasible results, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eaopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--catalog", help="catalog CSV path or builtin:table1")
        p.add_argument("--off-power", type=float, help="keep-alive power in W (overrides catalog)")
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--output", help="write results to this path instead of stdout")

    def schedule(p):
        common(p)
        p.add_argument(
            "--period", type=float,
            help="period length in seconds; a saved budget series needs the period it was"
                 " written with, or its budgets are re-binned",
        )
        p.add_argument("--alpha", type=float, help="accuracy/duty-cycle trade-off exponent")

    def panel(p):
        p.add_argument("--panel-area", type=float, help="panel area in m2")
        p.add_argument("--panel-efficiency", type=float, help="panel efficiency in (0, 1]")
        p.add_argument("--budget-cap", type=float, help="per-period budget clip in J")
        p.add_argument("--synth-peak", type=float, help="synthetic trace peak irradiance W/m2")
        p.add_argument("--synth-day-fraction", type=float, help="fraction of each day with sun")
        p.add_argument("--synth-noise", type=float, help="multiplicative noise amplitude in [0, 1)")
        p.add_argument("--synth-seed", type=int, help="seed for synthetic trace noise")

    p_opt = sub.add_parser("optimize", help="solve one period for a fixed budget")
    schedule(p_opt)
    p_opt.add_argument("--budget", type=float, help="energy budget in J")
    p_opt.set_defaults(func=cmd_optimize)

    p_par = sub.add_parser("pareto", help="split a catalog into kept and dominated points")
    common(p_par)
    p_par.set_defaults(func=cmd_pareto)

    p_sw = sub.add_parser("sweep", help="budget sweep (CSV) or alpha sweep over a trace")
    schedule(p_sw)
    panel(p_sw)
    p_sw.add_argument("--budget-range", help="start:stop:step in J, inclusive grid")
    p_sw.add_argument("--trace", help="trace CSV path or synth:<days>d (alpha sweep)")
    p_sw.add_argument("--alpha-list", help="comma-separated alphas for the trace sweep")
    p_sw.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="per-period report over a harvest trace")
    schedule(p_sim)
    panel(p_sim)
    p_sim.add_argument("--trace", help="trace CSV path or synth:<days>d")
    p_sim.add_argument("--format", choices=_FORMATS, help="report format for --output")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags."""
    config = RunConfig()
    if getattr(args, "config", None):
        config = replace(config, **load_config_file(args.config))
    names = {f.name for f in fields(RunConfig)}
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name in names and value is not None
    }
    config = replace(config, **overrides)
    if config.format not in _FORMATS:
        raise UsageError(f"bad format {config.format!r} (want {' or '.join(_FORMATS)})")
    return config


def _resolve_catalog(config: RunConfig) -> Catalog:
    if config.catalog.startswith("builtin:"):
        name = config.catalog[len("builtin:"):]
        if name != "table1":
            raise UsageError(f"unknown builtin catalog {name!r}")
        catalog = builtin_table1()
    else:
        catalog = load_catalog(config.catalog)
    if config.off_power is not None:
        catalog = Catalog(catalog.design_points, config.off_power)
        problems = validate_catalog(catalog)
        if problems:
            raise UsageError("; ".join(problems))
    return catalog


_SYNTH_RE = re.compile(r"synth:(\d+)d")


def _resolve_budgets(config: RunConfig) -> BudgetSeries:
    if config.trace is None:
        raise UsageError("--trace is required")
    if config.trace.startswith("synth:"):
        match = _SYNTH_RE.fullmatch(config.trace)
        if not match:
            raise UsageError(f"bad synthetic trace spec {config.trace!r} (want synth:<days>d)")
        trace = synth_trace(
            days=int(match.group(1)),
            peak_irradiance=config.synth_peak,
            day_length_fraction=config.synth_day_fraction,
            noise=config.synth_noise,
            seed=config.synth_seed,
        )
    else:
        trace = load_trace(config.trace)
    panel = PanelModel(config.panel_area, config.panel_efficiency, config.budget_cap)
    return trace_to_budgets(trace, panel, config.period)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def cmd_optimize(config: RunConfig) -> int:
    if config.budget is None:
        raise UsageError("optimize requires --budget")
    catalog = _resolve_catalog(config)
    problem = AllocationProblem(config.period, config.budget, config.alpha, catalog)
    allocation = optimize_allocation(problem)
    _emit(json.dumps(allocation.to_dict(), indent=2) + "\n", config.output)
    return 2 if allocation.status == INFEASIBLE else 0


def cmd_pareto(config: RunConfig) -> int:
    catalog = _resolve_catalog(config)
    kept, removed = pareto_partition(catalog)

    def row(dp):
        return {"id": dp.id, "label": dp.label, "accuracy": dp.accuracy, "power": dp.power}

    payload = {
        "off_power": catalog.off_power,
        "kept": [row(dp) for dp in kept],
        "removed": [{**row(dp), "dominated_by": dominator.label} for dp, dominator in removed],
    }
    _emit(json.dumps(payload, indent=2) + "\n", config.output)
    return 0


def _parse_range(spec: str) -> tuple[float, float, float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad budget range {spec!r} (want start:stop:step)")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad budget range {spec!r} (non-numeric field)") from None
    return start, stop, step


def cmd_sweep(config: RunConfig) -> int:
    if (config.budget_range is None) == (config.trace is None):
        raise UsageError("sweep requires exactly one of --budget-range or --trace")
    catalog = _resolve_catalog(config)
    if config.budget_range is not None:
        start, stop, step = _parse_range(config.budget_range)
        report = sweep_budget(catalog, config.alpha, start, stop, step, config.period)
        _emit(sweep_to_csv(report, catalog), config.output)
        return 0
    if config.alpha_list is None:
        raise UsageError("sweep over a trace requires --alpha-list")
    try:
        alphas = [float(a) for a in config.alpha_list.split(",") if a.strip()]
    except ValueError:
        raise UsageError(f"bad alpha list {config.alpha_list!r}") from None
    if not alphas:
        raise UsageError(f"bad alpha list {config.alpha_list!r}")
    budgets = _resolve_budgets(config)
    points = sweep_alpha(catalog, budgets, alphas)
    _emit(alpha_sweep_to_csv(points, catalog), config.output)
    return 0


def cmd_simulate(config: RunConfig) -> int:
    catalog = _resolve_catalog(config)
    budgets = _resolve_budgets(config)
    report = simulate(budgets, catalog, config.alpha)
    if config.output is not None:
        text = report_to_json(report) if config.format == "json" else report_to_csv(report)
        _emit(text, config.output)
    lines = [
        f"periods: {len(report)}",
        f"mean expected accuracy: {report.mean_expected_accuracy:.6g}",
        f"mean active fraction: {report.mean_active_fraction:.6g}",
    ]
    for dp_id, label in zip(report.dp_ids, report.dp_labels):
        stats = report.ratio_stats[dp_id]
        mean = "undefined" if stats.mean is None else f"{stats.mean:.6g}"
        lines.append(
            f"mean ratio vs {label}: {mean} "
            f"(defined {stats.defined}, undefined {stats.undefined})"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = make_config(args)
        return args.func(config)
    except (UsageError, CatalogError, TraceError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
