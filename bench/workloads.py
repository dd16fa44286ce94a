"""The three benchmark workloads and the measurements they share.

Each workload is a closed loop with one client in one process: every
call waits for the previous one, and no threads or pools are used.  A
run repeats rounds of the workload until ``--seconds`` have passed; one
round is

* the in-process library pipeline, from the input files to output text
  (``periods_per_s``);
* every decision on its own, ``AllocationProblem`` plus
  ``optimize_allocation``, timed one by one (``solve_*``);
* the workload's ``python -m eaopt`` command set (``cli_*``,
  ``report_mb``);
* checks of every output, which are never timed.

The traced run (``--trace 1``) times the pipeline with and without spans,
then runs a layer probe (each public call of a decision under its own
span), the allocator calls the simulator makes, and the CLI in process.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import eaopt
from eaopt import (
    AllocationProblem,
    PanelModel,
    build_problem,
    envelope_oracle,
    optimize_allocation,
    solve_lp,
    static_dp_allocation,
    validate_catalog,
)
from eaopt import cli as eaopt_cli

import inputs
from checker import (
    HIGHS_RTOL,
    RTOL,
    Checker,
    Model,
    allocation_problems,
    highs_objective,
    objective_problems,
    ratio_stats,
    static_objective,
    static_problems,
    stats_problems,
)
from spans import NullTracer, Tracer
from spawner import Spawner

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLI_TIMEOUT_S = 150
# Fresh interpreters before and after the rounds; setup_s is their median.
# Splitting them samples the start and the end of the run, so one slow
# stretch of the machine moves fewer of them.
SETUP_PROCESSES = (6, 5)
HIGHS_PER_ROUND = 8  # seeded decisions per round checked against HiGHS
PROBE_DECISIONS = 1200  # layer-probe sample per round: >= 10 beyond p99
PROBE_STATICS = 5  # static baselines timed per probe decision
DECISION_PARTS = 3  # the round's timed decisions run in this many parts
NULL = NullTracer()


def now() -> float:
    return time.perf_counter()


# --------------------------------------------------------------------------
# Processes


@dataclass(frozen=True)
class CliRun:
    seconds: float
    peak_rss_mb: float
    code: int
    stderr: str


def child_env() -> dict:
    """The caller's environment with eaopt on the path.  Bytecode caching
    is left on, so set-up times measure an import from cached bytecode
    whatever the caller's setting."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli(spawner: Spawner, args: list[str], scratch: Path) -> CliRun:
    """``PYTHONPATH=src python -m eaopt <args>``: wall time from spawn to
    reap, and the command's peak RSS from ``os.wait4``."""
    err_path = scratch / "cli.stderr"
    reply = spawner.run([sys.executable, "-m", "eaopt", *args], str(ROOT), child_env(),
                        str(scratch / "cli.stdout"), str(err_path), CLI_TIMEOUT_S)
    if reply["timed_out"]:
        raise TimeoutError(f"eaopt {args[0]} ran past {CLI_TIMEOUT_S} s")
    return CliRun(reply["seconds"], reply["peak_rss_bytes"] / 1e6, reply["code"],
                  err_path.read_text()[-500:])


def fresh_setup(spawner: Spawner, resolve: str, scratch: Path) -> tuple[float, float]:
    """A fresh interpreter that imports eaopt and resolves the workload's
    catalog.  Returns (wall seconds, seconds spent in ``import eaopt``)."""
    code = ("import time\nt0 = time.perf_counter()\nimport eaopt\n"
            f"t1 = time.perf_counter()\n{resolve}\nprint(repr(t1 - t0))\n")
    out, err = scratch / "setup.stdout", scratch / "setup.stderr"
    reply = spawner.run([sys.executable, "-c", code], str(ROOT), child_env(), str(out),
                        str(err), CLI_TIMEOUT_S)
    if reply["code"] != 0 or reply["timed_out"]:
        raise RuntimeError(f"setup process exited {reply['code']}: {err.read_text()[-300:]}")
    return reply["seconds"], float(out.read_text().split()[-1])


# --------------------------------------------------------------------------
# Samples collected over a run


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    pipeline_s: list = field(default_factory=list)
    pipeline_decisions: list = field(default_factory=list)
    # decisions that reach the LP, in the order they ran; the ones below
    # the keep-alive floor return before any solve and are only counted
    latency_ns: list = field(default_factory=list)
    floor_decisions: int = 0
    # command kind (its set of flags) -> [(seconds, peak RSS MB, bytes written)]
    cli_runs: dict = field(default_factory=dict)
    untraced_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    # layer probe, one entry per probe decision or per round
    self_us: list = field(default_factory=list)  # optimize - build - solve, LP decisions
    pivots: list = field(default_factory=list)
    phase1_pivots: list = field(default_factory=list)  # per round
    bland_pivots: list = field(default_factory=list)  # per round
    envelope_errors: list = field(default_factory=list)  # per round
    simulator_self_s: list = field(default_factory=list)
    cli_main_s: list = field(default_factory=list)  # per round, in-process cli.main
    spans_per_round: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)  # layer counts, the same every round


@dataclass
class Case:
    """One decision: a catalog, its check model (alpha, period) and a budget."""

    catalog: object
    model: Model
    budget: float

    def problem(self) -> AllocationProblem:
        return AllocationProblem(inputs.PERIOD, self.budget, self.model.alpha, self.catalog)


class Workload:
    name = ""

    def __init__(self, scratch: Path, seed: int, checker: Checker, spawner: Spawner):
        self.scratch = scratch
        self.spawner = spawner
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.checker = checker
        self.samples = Samples()
        # (alpha, budget) -> objective of a decision that passed its checks
        self.verified: dict = {}

    # -- provided by each workload ------------------------------------------
    setup_resolve = "eaopt.builtin_table1()"
    latency_from_pipeline = False  # True where the pipeline times each decision

    def pipeline(self, tr):
        """In-process input -> output text; returns an object with
        ``seconds``, ``decisions`` and ``simulator_s``."""
        raise NotImplementedError

    def check_pipeline(self, out) -> None:
        raise NotImplementedError

    def cases(self, out) -> list[Case]:
        raise NotImplementedError

    def cli_commands(self, round_no: int) -> list[list[str]]:
        raise NotImplementedError

    def check_cli(self, round_no: int, index: int, args: list[str], out) -> None:
        raise NotImplementedError

    def embedded_allocator_calls(self, out, tr) -> float | None:
        """Seconds of the allocator calls the simulator makes on the same
        inputs, made directly; None where the workload runs no simulator."""
        return None

    def once(self) -> None:
        """Per-run extra checks (known-defect reproducers)."""

    def layer_counts(self, out) -> dict:
        """Work done per round by each layer, as counts."""
        raise NotImplementedError

    # -- shared ---------------------------------------------------------------
    def setup(self, count: int) -> None:
        for _ in range(count):
            with self.checker.guard(f"{self.name} setup process"):
                wall, imported = fresh_setup(self.spawner, self.setup_resolve, self.scratch)
                self.samples.setup_s.append(wall)
                self.samples.import_s.append(imported)
                self.checker.record(f"{self.name} setup process", [])

    def decisions(self, cases: list[Case], part: int) -> None:
        """One of DECISION_PARTS parts of the round's decisions, each timed
        alone, then all checked against the oracle: checking between timed
        decisions slows the next one.  Decisions run in a seeded shuffled
        order, so every window of consecutive decisions (solve_p99_us)
        mixes the whole workload."""
        if self.latency_from_pipeline:
            return
        lat = self.samples.latency_ns
        order = np.random.default_rng([self.seed, 2]).permutation(len(cases))
        mine = order[part::DECISION_PARTS].tolist()
        results = []
        for i in mine:
            case = cases[i]
            t0 = time.perf_counter_ns()
            problem = AllocationProblem(inputs.PERIOD, case.budget, case.model.alpha, case.catalog)
            alloc = optimize_allocation(problem)
            elapsed = time.perf_counter_ns() - t0
            if case.model.below_floor(case.budget):
                self.samples.floor_decisions += 1
            else:
                lat.append(elapsed)
            results.append(alloc)
        for i, alloc in zip(mine, results):
            case = cases[i]
            if self.check_decision(case, alloc):
                self.verified[(case.model.alpha, case.budget)] = alloc.objective

    def check_decision(self, case: Case, alloc, reference: float | None = None) -> bool:
        op = f"{self.name} decision alpha={case.model.alpha} budget={case.budget!r}"
        with self.checker.guard(op):
            problems = allocation_problems(alloc, case.model, case.budget)
            if not problems:
                if reference is None:
                    reference = self.checker.oracle(case.problem(), case.model)
                problems = objective_problems(alloc.objective, reference, case.model.scale)
            return self.checker.record(op, problems)
        return False

    def highs_sample(self, cases: list[Case], round_no: int) -> None:
        feasible = [c for c in cases if not c.model.below_floor(c.budget)]
        pick = np.random.default_rng([self.seed, round_no]).choice(
            len(feasible), size=min(HIGHS_PER_ROUND, len(feasible)), replace=False)
        for k in pick.tolist():
            case = feasible[k]
            op = f"{self.name} HiGHS alpha={case.model.alpha} budget={case.budget!r}"
            with self.checker.guard(op):
                alloc = optimize_allocation(case.problem())
                ref = highs_objective(case.model, case.budget)
                self.checker.record(op, objective_problems(
                    alloc.objective, ref, case.model.scale, HIGHS_RTOL, "HiGHS"))

    def run_cli_set(self, round_no: int, out) -> None:
        for index, args in enumerate(self.cli_commands(round_no)):
            op = f"{self.name} cli {args[0]} #{index}"
            with self.checker.guard(op):
                run = run_cli(self.spawner, args, self.scratch)
                if run.code != 0:
                    self.checker.record(op, [f"exit {run.code}: {run.stderr}"])
                    continue
                output = Path(args[args.index("--output") + 1])
                kind = " ".join([args[0], *(a for a in args if a.startswith("--"))])
                self.samples.cli_runs.setdefault(kind, []).append(
                    (run.seconds, run.peak_rss_mb, output.stat().st_size))
                self.check_cli(round_no, index, args, out)

    def e2e_round(self, round_no: int) -> None:
        out = None
        with self.checker.guard(f"{self.name} pipeline"):
            out = self.pipeline(NULL)
            for decisions, seconds in out.blocks:
                self.samples.pipeline_decisions.append(decisions)
                self.samples.pipeline_s.append(seconds)
        if out is None:
            return
        # The timed decisions run in parts spread over the round, so they
        # sample the machine at several moments rather than in one burst.
        cases = self.cases(out)
        with self.checker.guard(f"{self.name} decisions"):
            self.decisions(cases, 0)
        with self.checker.guard(f"{self.name} pipeline output"):
            self.check_pipeline(out)
        with self.checker.guard(f"{self.name} decisions"):
            self.decisions(cases, 1)
        self.run_cli_set(round_no, out)
        with self.checker.guard(f"{self.name} decisions"):
            self.decisions(cases, 2)
            self.highs_sample(cases, round_no)

    def trace_round(self, round_no: int, tracer: Tracer) -> None:
        s = self.samples
        first_span = len(tracer.spans)
        out = None
        with self.checker.guard(f"{self.name} pipeline"):
            first = self.pipeline(NULL)
            untraced = first.seconds
            del first
            with tracer.span("pipeline"):
                out = self.pipeline(tracer)
            s.untraced_s.append(untraced)
            s.traced_s.append(out.seconds)
        if out is None:
            return
        with self.checker.guard(f"{self.name} pipeline output"):
            self.check_pipeline(out)
            s.counts = self.layer_counts(out)
        with self.checker.guard(f"{self.name} layer probe"):
            cases = self.cases(out)
            pick = np.random.default_rng([self.seed, round_no, 1]).choice(
                len(cases), size=min(PROBE_DECISIONS, len(cases)), replace=False)
            self.probe([cases[k] for k in sorted(pick.tolist())], tracer)
        with self.checker.guard(f"{self.name} embedded allocator calls"):
            embedded = self.embedded_allocator_calls(out, tracer)
            if embedded is not None:
                s.simulator_self_s.append(out.simulator_s - embedded)
        main_s = 0.0
        for index, args in enumerate(self.cli_commands(round_no)):
            op = f"{self.name} cli.main {args[0]} #{index}"
            with self.checker.guard(op):
                with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.main"):
                    code = eaopt_cli.main(args)
                main_s += tracer.spans[-1].duration_ns / 1e9
                self.checker.record(op, [] if code == 0 else [f"exit {code}"])
                if code == 0:
                    self.check_cli(round_no, index, args, out)
        s.cli_main_s.append(main_s)
        s.spans_per_round.append(len(tracer.spans) - first_span)

    def probe(self, cases: list[Case], tr: Tracer) -> None:
        """Every public call of one decision under its own span."""
        s = self.samples
        pivots_1 = bland = errors = 0
        for case in cases:
            catalog, model, budget = case.catalog, case.model, case.budget
            with tr.span("catalog.validate_catalog"):
                validate_catalog(catalog)
            with tr.span("allocator.AllocationProblem"):
                problem = AllocationProblem(inputs.PERIOD, budget, model.alpha, catalog)
            with tr.span("allocator.optimize_allocation"):
                alloc = optimize_allocation(problem)
            optimize_ns = tr.spans[-1].duration_ns
            dps = catalog.design_points[:PROBE_STATICS]
            for dp in dps:
                with tr.span("allocator.static_dp_allocation"):
                    static_dp_allocation(dp, inputs.PERIOD, budget, catalog.off_power, model.alpha)
            reference = None
            with tr.span("allocator.envelope_oracle"):
                try:
                    reference = envelope_oracle(problem)
                except ArithmeticError:
                    errors += 1
            if not model.below_floor(budget):  # the decisions that reach the LP
                with tr.span("allocator.build_problem"):
                    lp = build_problem(problem)
                build_ns = tr.spans[-1].duration_ns
                with tr.span("lp_core.solve_lp"):
                    solution = solve_lp(lp)
                solve_ns = tr.spans[-1].duration_ns
                s.self_us.append((optimize_ns - build_ns - solve_ns) / 1e3)
                s.pivots.append(solution.iterations)
                log: list[str] = []
                solve_lp(lp, pivot_log=log)
                pivots_1 += sum(" phase=1 " in line for line in log)
                bland += sum(" rule=bland " in line for line in log)
            self.check_decision(case, alloc, reference)
        s.phase1_pivots.append(pivots_1)
        s.bland_pivots.append(bland)
        s.envelope_errors.append(errors)


# --------------------------------------------------------------------------
# Shared output checks


def static_set_problems(statics: dict, model: Model, budget: float) -> list[str]:
    for single in model.singles:
        problems = static_problems(statics[single.ids[0]], single, budget)
        if problems:
            return [f"static DP{single.ids[0]}: {problems[0]}"]
    return []


def _cell(text: str) -> float | None:
    return float(text) if text else None


def parse_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def csv_problems(got: str, expected: str) -> list[str]:
    """Cell-by-cell comparison of two CSV texts, numbers within RTOL."""
    a, b = parse_csv(got), parse_csv(expected)
    if len(a) != len(b) or a[:1] != b[:1]:
        return [f"{len(a)} rows / header {a[:1]} != {len(b)} rows / header {b[:1]}"]
    for r, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=2):
        if len(ra) != len(rb):
            return [f"row {r}: {len(ra)} cells != {len(rb)}"]
        for x, y in zip(ra, rb):
            if x == y:
                continue
            if not x or not y or abs(float(x) - float(y)) > RTOL * max(1.0, abs(float(y))):
                return [f"row {r}: {x!r} != {y!r}"]
    return []


# --------------------------------------------------------------------------
# year-hourly


@dataclass
class YearOut:
    seconds: float
    decisions: int
    samples: int
    budgets: object
    report: object
    text: str
    simulator_s: float

    @property
    def blocks(self):
        return [(self.decisions, self.seconds)]


class YearHourly(Workload):
    """The study pipeline at year size; lp_core gets a small share."""

    name = "year-hourly"

    def __init__(self, scratch, seed, checker, spawner):
        super().__init__(scratch, seed, checker, spawner)
        self.trace_path = scratch / "year.csv"
        self.trace_samples, self.irradiance_integral = inputs.write_year_trace(
            self.trace_path, self.rng)
        self.catalog = eaopt.builtin_table1()
        self.alpha = 1.0
        self.model = Model.of(self.catalog, self.alpha, inputs.PERIOD)
        self.report_path = scratch / "report.json"
        self.checked_text = None

    def pipeline(self, tr) -> YearOut:
        t0 = now()
        with tr.span("catalog.load"):
            catalog = eaopt.builtin_table1()
        with tr.span("harvest.load_trace"):
            trace = eaopt.load_trace(self.trace_path)
        with tr.span("harvest.trace_to_budgets"):
            budgets = eaopt.trace_to_budgets(trace, PanelModel(), inputs.PERIOD)
        t_sim = now()
        with tr.span("simulator.simulate"):
            report = eaopt.simulate(budgets, catalog, self.alpha)
        t_sim = now() - t_sim
        with tr.span("simulator.report_to_json"):
            text = eaopt.report_to_json(report)
        seconds = now() - t0
        return YearOut(seconds, len(budgets), len(trace.times), budgets, report, text, t_sim)

    def check_pipeline(self, out: YearOut) -> None:
        # A report byte-identical to one already checked holds the same
        # allocations, so each is checked once per run.
        if out.text == self.checked_text:
            self.checker.record(f"{self.name} report identical to the checked one", [])
            return
        self._check_report(out)
        if not self.checker.failures:
            self.checked_text = out.text

    def _check_report(self, out: YearOut) -> None:
        checker, model = self.checker, self.model
        panel = PanelModel()
        expected_j = self.irradiance_integral * panel.area * panel.efficiency
        total_j = float(out.budgets.budgets.sum())
        checker.record(f"{self.name} harvest", [] if (
            out.samples == self.trace_samples
            and len(out.budgets) == inputs.YEAR_DAYS * 24
            and abs(total_j - expected_j) <= RTOL * expected_j
        ) else [f"{out.samples} samples, {len(out.budgets)} periods, {total_j!r} J "
                f"(expected {self.trace_samples}, {inputs.YEAR_DAYS * 24}, {expected_j!r} J)"])
        report = out.report
        opt, statics = [], {dp_id: [] for dp_id in model.ids}
        for record in report.records:
            op = f"{self.name} record {record.index}"
            budget = record.budget
            case = Case(self.catalog, model, budget)
            if not self.check_decision(case, record.optimized):
                continue
            with checker.guard(op):
                problems = static_set_problems(record.statics, model, budget)
                for dp_id, static in record.statics.items():
                    ratio = record.ratios[dp_id]
                    want = None if static.objective <= 0.0 else record.optimized.objective / static.objective
                    if (ratio is None) != (want is None) or (ratio is not None and ratio != want):
                        problems.append(f"ratio for DP{dp_id} {ratio!r} != {want!r}")
                checker.record(op, problems[:1])
            opt.append(record.optimized.objective)
            for single in model.singles:
                statics[single.ids[0]].append(static_objective(single, budget))
        if len(opt) == len(report.records):
            checker.record(f"{self.name} ratio_stats",
                           stats_problems(report.ratio_stats, ratio_stats(opt, statics)))
        self._parsed_matches(out, out.text, "pipeline report_to_json")

    def _parsed_matches(self, out: YearOut, text: str, what: str) -> None:
        op = f"{self.name} {what}"
        with self.checker.guard(op):
            data = json.loads(text)
            report = out.report
            problems = []
            if data["periods"] != len(report.records) or len(data["records"]) != len(report.records):
                problems.append(f"{data['periods']} periods != {len(report.records)}")
            for key in ("alpha", "mean_expected_accuracy", "mean_active_fraction", "off_share"):
                if data[key] != getattr(report, key):
                    problems.append(f"{key} {data[key]!r} != {getattr(report, key)!r}")
            for rec, mine in zip(data["records"], report.records):
                opt = rec["optimized"]
                if (rec["budget"] != mine.budget or opt["objective"] != mine.optimized.objective
                        or list(opt["times"].values()) != list(mine.optimized.times)):
                    problems.append(f"record {mine.index} differs")
                    break
            self.checker.record(op, problems[:1])

    def layer_counts(self, out: YearOut) -> dict:
        return {"harvest.samples": out.samples, "harvest.periods": out.decisions,
                "catalog.dps": len(self.catalog),
                "simulator.allocations": out.decisions * (1 + len(self.catalog)),
                "simulator.report_bytes": len(out.text.encode())}

    def cases(self, out: YearOut) -> list[Case]:
        return [Case(self.catalog, self.model, b) for b in out.budgets.budgets.tolist()]

    def cli_commands(self, round_no):
        return [["simulate", "--trace", str(self.trace_path), "--alpha", "1",
                 "--format", "json", "--output", str(self.report_path)]]

    def check_cli(self, round_no, index, args, out: YearOut) -> None:
        text = self.report_path.read_text()
        if text == out.text:
            self.checker.record(f"{self.name} cli report", [])
        else:
            self._parsed_matches(out, text, "cli report")

    def embedded_allocator_calls(self, out: YearOut, tr) -> float | None:
        return allocator_calls(tr, self.catalog, [(self.alpha, out.budgets.budgets.tolist())])


def allocator_calls(tr, catalog, groups) -> float:
    """The calls simulate makes per period (problem, optimize, one static
    per design point), made directly; returns their total seconds."""
    off = catalog.off_power
    with tr.span("allocator.embedded_calls"):
        t0 = now()
        for alpha, budgets in groups:
            for budget in budgets:
                optimize_allocation(AllocationProblem(inputs.PERIOD, budget, alpha, catalog))
                for dp in catalog:
                    static_dp_allocation(dp, inputs.PERIOD, budget, off, alpha)
        return now() - t0


# --------------------------------------------------------------------------
# alpha-sweep


@dataclass
class SweepOut:
    seconds: float
    decisions: int
    samples: int
    budgets: object
    alpha_points: list
    budget_points: list
    alpha_csv: str
    budget_csv: str
    simulator_s: float

    @property
    def blocks(self):
        return [(self.decisions, self.seconds)]


class AlphaSweep(Workload):
    """Aggregates only: one sweep_alpha pass per alpha and the README budget
    grid, with no per-period report."""

    name = "alpha-sweep"

    def __init__(self, scratch, seed, checker, spawner):
        super().__init__(scratch, seed, checker, spawner)
        self.synth_seed = int(self.rng.integers(2**31))
        self.grid_alpha = inputs.SWEEP_GRID_ALPHA
        self.catalog = eaopt.builtin_table1()
        self.models = {a: Model.of(self.catalog, a, inputs.PERIOD)
                       for a in (*inputs.SWEEP_ALPHAS, self.grid_alpha)}
        self.alpha_out = scratch / "alpha_sweep.csv"
        self.budget_out = scratch / "budget_sweep.csv"

    def pipeline(self, tr) -> SweepOut:
        t0 = now()
        with tr.span("catalog.load"):
            catalog = eaopt.builtin_table1()
        with tr.span("harvest.synth_trace"):
            trace = eaopt.synth_trace(inputs.SWEEP_DAYS, noise=inputs.SWEEP_NOISE,
                                      seed=self.synth_seed)
        with tr.span("harvest.trace_to_budgets"):
            budgets = eaopt.trace_to_budgets(trace, PanelModel(), inputs.PERIOD)
        t_sim = now()
        with tr.span("simulator.sweep_alpha"):
            alpha_points = eaopt.sweep_alpha(catalog, budgets, list(inputs.SWEEP_ALPHAS))
        with tr.span("simulator.sweep_budget"):
            budget_points = eaopt.sweep_budget(catalog, self.grid_alpha, *inputs.SWEEP_GRID,
                                               inputs.PERIOD)
        t_sim = now() - t_sim
        with tr.span("simulator.sweep_csv"):
            alpha_csv = eaopt.alpha_sweep_to_csv(alpha_points, catalog)
            budget_csv = eaopt.sweep_to_csv(budget_points, catalog)
        seconds = now() - t0
        decisions = len(budgets) * len(inputs.SWEEP_ALPHAS) + len(budget_points)
        return SweepOut(seconds, decisions, len(trace.times), budgets, alpha_points,
                        budget_points, alpha_csv, budget_csv, t_sim)

    def layer_counts(self, out: SweepOut) -> dict:
        return {"harvest.samples": out.samples, "harvest.periods": len(out.budgets),
                "catalog.dps": len(self.catalog),
                "simulator.allocations": out.decisions * (1 + len(self.catalog)),
                "simulator.report_bytes": len(out.alpha_csv.encode()) + len(out.budget_csv.encode())}

    def cases(self, out: SweepOut) -> list[Case]:
        trace_budgets = out.budgets.budgets.tolist()
        cases = [Case(self.catalog, self.models[a], b)
                 for a in inputs.SWEEP_ALPHAS for b in trace_budgets]
        grid = eaopt.budget_grid(*inputs.SWEEP_GRID).tolist()
        return cases + [Case(self.catalog, self.models[self.grid_alpha], b) for b in grid]

    def check_pipeline(self, out: SweepOut) -> None:
        checker = self.checker
        days = inputs.SWEEP_DAYS
        expected_j = float(np.sum(eaopt.synth_trace(days, noise=inputs.SWEEP_NOISE,
                                                    seed=self.synth_seed).values))
        panel = PanelModel()
        expected_j *= 3600.0 * panel.area * panel.efficiency
        total_j = float(out.budgets.budgets.sum())
        checker.record(f"{self.name} harvest", [] if (
            out.samples == days * 24 and len(out.budgets) == days * 24
            and abs(total_j - expected_j) <= RTOL * max(expected_j, 1.0)
        ) else [f"{len(out.budgets)} periods, {total_j!r} J (expected {expected_j!r} J)"])
        # sweep_alpha: every aggregate recomputed from checked decisions.
        budgets = out.budgets.budgets.tolist()
        for point in out.alpha_points:
            op = f"{self.name} sweep_alpha alpha={point.alpha}"
            with checker.guard(op):
                model = self.models[point.alpha]
                opt = [self.verified_objective(Case(self.catalog, model, b)) for b in budgets]
                if None in opt:
                    continue
                statics = {s.ids[0]: [static_objective(s, b) for b in budgets]
                           for s in model.singles}
                checker.record(op, stats_problems(point.ratio_stats, ratio_stats(opt, statics)))
        # sweep_budget: every grid point's optimum and static baselines.
        grid = eaopt.budget_grid(*inputs.SWEEP_GRID).tolist()
        model = self.models[self.grid_alpha]
        checker.record(f"{self.name} sweep_budget grid", [] if (
            [p.budget for p in out.budget_points] == grid
        ) else [f"{len(out.budget_points)} points != {len(grid)}"])
        for point in out.budget_points:
            case = Case(self.catalog, model, point.budget)
            if self.check_decision(case, point.optimized):
                op = f"{self.name} sweep_budget statics budget={point.budget!r}"
                checker.record(op, static_set_problems(point.statics, model, point.budget))
        self._csv_matches(out, out.alpha_csv, out.budget_csv, "pipeline csv")

    def verified_objective(self, case: Case) -> float | None:
        """The checked optimum of one decision, solving it if no earlier
        decision loop did; None if it fails its checks."""
        key = (case.model.alpha, case.budget)
        if key not in self.verified:
            alloc = optimize_allocation(case.problem())
            if not self.check_decision(case, alloc):
                return None
            self.verified[key] = alloc.objective
        return self.verified[key]

    def _csv_matches(self, out: SweepOut, alpha_csv: str | None, budget_csv: str | None,
                     what: str) -> None:
        """The alpha CSV against the sweep's own aggregates, the budget CSV
        against the grid points, and each against the pipeline's text."""
        if alpha_csv is not None:
            rows = parse_csv(alpha_csv)
            ok = len(rows) == len(out.alpha_points) + 1 and all(
                float(r[0]) == p.alpha and _cell(r[1]) == p.ratio_stats[self.catalog.ids[0]].mean
                for r, p in zip(rows[1:], out.alpha_points))
            self.checker.record(f"{self.name} {what} alpha", csv_problems(alpha_csv, out.alpha_csv)
                                if ok else ["alpha sweep CSV does not match the sweep"])
        if budget_csv is not None:
            rows = parse_csv(budget_csv)
            ok = len(rows) == len(out.budget_points) + 1 and all(
                float(r[0]) == p.budget and float(r[1]) == p.optimized.objective
                for r, p in zip(rows[1:], out.budget_points))
            self.checker.record(f"{self.name} {what} budget", csv_problems(budget_csv, out.budget_csv)
                                if ok else ["budget sweep CSV does not match the sweep"])

    def cli_commands(self, round_no):
        alphas = ",".join(f"{a:g}" for a in inputs.SWEEP_ALPHAS)
        start, stop, step = inputs.SWEEP_GRID
        return [
            ["sweep", "--trace", f"synth:{inputs.SWEEP_DAYS}d", "--synth-noise",
             repr(inputs.SWEEP_NOISE), "--synth-seed", str(self.synth_seed),
             "--alpha-list", alphas, "--output", str(self.alpha_out)],
            ["sweep", "--budget-range", f"{start!r}:{stop!r}:{step!r}", "--alpha",
             repr(self.grid_alpha), "--output", str(self.budget_out)],
        ]

    def check_cli(self, round_no, index, args, out: SweepOut) -> None:
        if index == 0:
            self._csv_matches(out, self.alpha_out.read_text(), None, "cli csv")
        else:
            self._csv_matches(out, None, self.budget_out.read_text(), "cli csv")

    def embedded_allocator_calls(self, out: SweepOut, tr) -> float | None:
        budgets = out.budgets.budgets.tolist()
        grid = eaopt.budget_grid(*inputs.SWEEP_GRID).tolist()
        groups = [(a, budgets) for a in inputs.SWEEP_ALPHAS] + [(self.grid_alpha, grid)]
        return allocator_calls(tr, self.catalog, groups)


# --------------------------------------------------------------------------
# wide-catalog


@dataclass
class WideOut:
    seconds: float
    decisions: int
    catalogs: list
    objectives: list
    blocks: list  # (decisions, seconds) per catalog file: load, decide, serialize


class WideCatalog(Workload):
    """Single decisions on 1000-point catalogs; the simulator, harvest and
    report serialization do no work."""

    name = "wide-catalog"

    latency_from_pipeline = True

    def __init__(self, scratch, seed, checker, spawner):
        super().__init__(scratch, seed, checker, spawner)
        rng = self.rng
        self.files = [inputs.write_wide_catalog(scratch / f"wide{k}.csv", rng)
                      for k in range(inputs.WIDE_CATALOGS)]
        self.spec = [(k, alpha, budget)
                     for k, f in enumerate(self.files)
                     for alpha in inputs.WIDE_ALPHAS
                     for budget in inputs.wide_budgets(f, alpha, rng)]
        # One CLI decision per alpha per round, drawn ahead for 64 rounds.
        per_alpha = inputs.WIDE_CATALOGS * inputs.WIDE_BUDGETS_PER_ALPHA
        self.cli_picks = rng.integers(per_alpha, size=(64, len(inputs.WIDE_ALPHAS))).tolist()
        # Decisions run catalog by catalog, in a seeded shuffled order within
        # each, so every window of consecutive decisions mixes all alphas.
        per_catalog = len(self.spec) // len(self.files)
        self.order = [[k * per_catalog + j for j in rng.permutation(per_catalog).tolist()]
                      for k in range(len(self.files))]
        self.reproducers = [
            (name, inputs.write_catalog(scratch / f"{name}.csv", [r[0] for r in rows],
                                        [r[1] for r in rows], off), budget, alpha)
            for name, rows, off, budget, alpha in inputs.REPRODUCERS
        ]
        self.models: dict = {}
        self.oracle: dict = {}  # spec index -> checked reference objective
        self.setup_resolve = f"eaopt.load_catalog({str(self.files[0].path)!r})"
        self.cli_out = scratch / "optimize.json"

    def model(self, catalog, k: int, alpha: float) -> Model:
        key = (k, alpha)
        if key not in self.models:
            self.models[key] = Model.of(catalog, alpha, inputs.PERIOD)
        return self.models[key]

    def pipeline(self, tr) -> WideOut:
        """Per catalog file: load it, then decide and serialize each of its
        decisions.  Only those calls are timed; the block's outputs are
        checked after it, as in Workload.decisions."""
        lat = self.samples.latency_ns
        catalogs, blocks = [], []
        objectives = [None] * len(self.spec)
        for k, f in enumerate(self.files):
            t0 = now()
            with tr.span("catalog.load"):
                catalog = eaopt.load_catalog(f.path)
            seconds = now() - t0
            catalogs.append(catalog)
            results = []
            for index in self.order[k]:
                _, alpha, budget = self.spec[index]
                t0 = time.perf_counter_ns()
                with tr.span("allocator.AllocationProblem"):
                    problem = AllocationProblem(inputs.PERIOD, budget, alpha, catalog)
                with tr.span("allocator.optimize_allocation"):
                    alloc = optimize_allocation(problem)
                t1 = time.perf_counter_ns()
                with tr.span("allocator.to_dict_json"):
                    text = json.dumps(alloc.to_dict(), indent=2) + "\n"
                t2 = time.perf_counter_ns()
                if isinstance(tr, NullTracer):
                    lat.append(t1 - t0)
                seconds += (t2 - t0) / 1e9
                results.append((index, alloc, text))
            blocks.append((len(results), seconds))
            for index, alloc, text in results:
                objectives[index] = alloc.objective
                self._check_wide(index, catalog, alloc, text)
            del results
        total = sum(b[1] for b in blocks)
        return WideOut(total, len(self.spec), catalogs, objectives, blocks)

    def _check_wide(self, index: int, catalog, alloc, text: str) -> None:
        k, alpha, budget = self.spec[index]
        case = Case(catalog, self.model(catalog, k, alpha), budget)
        if index not in self.oracle:
            with self.checker.guard(f"{self.name} oracle #{index}"):
                self.oracle[index] = self.checker.oracle(case.problem(), case.model)
        if index in self.oracle and self.check_decision(case, alloc, self.oracle[index]):
            op = f"{self.name} json #{index}"
            with self.checker.guard(op):
                data = json.loads(text)
                self.checker.record(op, [] if (
                    data["objective"] == alloc.objective and len(data["times"]) == len(catalog)
                ) else ["allocation JSON does not match the allocation"])

    def check_pipeline(self, out: WideOut) -> None:
        for f, catalog in zip(self.files, out.catalogs):
            self.checker.record(f"{self.name} catalog {f.path.name}", [] if (
                len(catalog) == len(f.accuracy)
                and [dp.accuracy for dp in catalog] == (f.accuracy).tolist()
                and [dp.power for dp in catalog] == (f.power).tolist()
                and catalog.off_power == f.off_power
            ) else ["parsed catalog differs from the generated values"])

    def layer_counts(self, out: WideOut) -> dict:
        return {"harvest.samples": 0, "harvest.periods": 0,
                "catalog.dps": len(out.catalogs[0]),
                "simulator.allocations": 0, "simulator.report_bytes": 0}

    def cases(self, out: WideOut) -> list[Case]:
        return [Case(out.catalogs[k], self.model(out.catalogs[k], k, alpha), budget)
                for k, alpha, budget in self.spec]

    def _cli_index(self, round_no: int, a: int) -> int:
        """Spec index of round round_no's CLI decision for alpha number a."""
        pick = self.cli_picks[round_no % len(self.cli_picks)][a]
        k, j = divmod(pick, inputs.WIDE_BUDGETS_PER_ALPHA)
        return (k * len(inputs.WIDE_ALPHAS) + a) * inputs.WIDE_BUDGETS_PER_ALPHA + j

    def cli_commands(self, round_no):
        cmds = []
        for a in range(len(inputs.WIDE_ALPHAS)):
            k, alpha, budget = self.spec[self._cli_index(round_no, a)]
            cmds.append(["optimize", "--catalog", str(self.files[k].path), "--budget",
                         repr(budget), "--alpha", repr(alpha), "--output", str(self.cli_out)])
        return cmds

    def check_cli(self, round_no, index, args, out: WideOut) -> None:
        spec_index = self._cli_index(round_no, index)
        data = json.loads(self.cli_out.read_text())
        want = out.objectives[spec_index]
        catalog = out.catalogs[self.spec[spec_index][0]]
        self.checker.record(f"{self.name} cli optimize #{spec_index}", [] if (
            data["objective"] == want and data["status"] == "optimal"
            and list(data["times"]) == [str(dp.id) for dp in catalog]
        ) else [f"objective {data['objective']!r} != in-process {want!r}"])

    def once(self) -> None:
        """ROADMAP item 4's small-utility catalogs: in process, and through
        the CLI.  Their shortfall is a known seed defect, reported apart."""
        for name, cat_file, budget, alpha in self.reproducers:
            op = f"{self.name} reproducer {name}"
            with self.checker.guard(op):
                catalog = eaopt.load_catalog(cat_file.path)
                model = Model.of(catalog, alpha, inputs.PERIOD)
                problem = AllocationProblem(inputs.PERIOD, budget, alpha, catalog)
                alloc = optimize_allocation(problem)
                oracle = envelope_oracle(problem)
                highs = highs_objective(model, budget)
                run = run_cli(self.spawner, ["optimize", "--catalog", str(cat_file.path), "--budget",
                               repr(budget), "--alpha", repr(alpha), "--output",
                               str(self.cli_out)], self.scratch)
                cli_objective = json.loads(self.cli_out.read_text())["objective"] if run.code == 0 else None
                problems = allocation_problems(alloc, model, budget)
                problems += objective_problems(oracle, highs, model.scale, HIGHS_RTOL, "HiGHS")
                if cli_objective != alloc.objective:
                    problems.append(f"cli exit {run.code}, objective {cli_objective!r} "
                                    f"!= in-process {alloc.objective!r}")
                if problems:  # not the documented defect: an ordinary failure
                    self.checker.record(op, problems)
                    continue
                fixed = not objective_problems(alloc.objective, oracle, model.scale)
                self.checker.known_defect(
                    f"lp-{name}",
                    "solve_lp compares reduced costs with the absolute REDUCED_COST_TOL "
                    "(1e-12) on the unscaled objective accuracy**alpha / T, so it stops "
                    "early and reports optimal when every utility is tiny",
                    status="fixed" if fixed else "reproduced",
                    detail=f"alpha={alpha:g}, {budget:g} J: optimize_allocation "
                           f"{alloc.objective:.6g} ({alloc.status}), envelope_oracle "
                           f"{oracle:.6g}, HiGHS {highs:.6g}",
                )


WORKLOADS = {w.name: w for w in (YearHourly, WideCatalog, AlphaSweep)}
