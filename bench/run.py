"""eaopt benchmark: one seeded workload, checked outputs, named metrics.

Run from the repository root:

    python3 bench/run.py --workload year-hourly --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-module
metrics and the tracing overhead.  The human-readable report comes
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {  # name -> unit; each has a bound in BENCHMARK.json
    "setup_s": "s",
    "cli_s": "s",
    "cli_peak_rss_mb": "MB",
    "periods_per_s": "1/s",
    "solve_p50_us": "us",
    "report_mb": "MB",
}
# Printed with the end-to-end metrics but left out of the result line: on
# a shared 2-core machine the p99 of a sub-millisecond call moves with the
# neighbours' load by more than any allowed bound, so it has none.
UNBOUNDED = {"solve_p99_us": "us"}

PER_LAYER = {
    "harvest.load_trace_s": "s",
    "harvest.to_budgets_s": "s",
    "harvest.synth_s": "s",
    "harvest.samples": "count",
    "harvest.periods": "count",
    "catalog.load_s": "s",
    "catalog.validate_us": "us",
    "catalog.dps": "count",
    "allocator.problem_us": "us",
    "allocator.build_problem_us": "us",
    "allocator.optimize_us": "us",
    "allocator.optimize_p99_us": "us",
    "allocator.self_us": "us",
    "allocator.static_us": "us",
    "allocator.envelope_us": "us",
    "allocator.envelope_errors": "count",
    "lp_core.solve_us": "us",
    "lp_core.solve_p99_us": "us",
    "lp_core.pivots_mean": "count",
    "lp_core.pivots_max": "count",
    "lp_core.phase1_pivots": "count",
    "lp_core.bland_pivots": "count",
    "simulator.simulate_s": "s",
    "simulator.self_s": "s",
    "simulator.sweep_alpha_s": "s",
    "simulator.sweep_budget_s": "s",
    "simulator.report_json_s": "s",
    "simulator.sweep_csv_s": "s",
    "simulator.allocations": "count",
    "simulator.report_bytes": "count",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["year-hourly", "wide-catalog", "alpha-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; whole rounds only, at least one")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def provenance(args, rounds: int, sample_counts: dict) -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "eaopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "samples": sample_counts,
    }


# solve_p99_us is taken in each window of this many consecutive decisions
# (so at least ten samples lie beyond it), then the median over windows:
# a burst of load on the machine moves one window, not the result.
P99_WINDOW = 1000


def end_to_end(w) -> tuple[dict, dict]:
    from spans import median, percentile

    s = w.samples
    values, counts = {}, {}

    def put(name, samples, fn, n=None):
        if samples:
            values[name] = fn(samples)
            counts[name] = len(samples) if n is None else n

    put("setup_s", s.setup_s, median)
    # Each distinct command (its set of flags) counts once, at its median.
    runs = list(s.cli_runs.values())
    n_cli = sum(len(r) for r in runs)
    put("cli_s", runs, lambda rs: sum(median([x[0] for x in r]) for r in rs), n_cli)
    put("cli_peak_rss_mb", runs, lambda rs: max(median([x[1] for x in r]) for r in rs), n_cli)
    put("report_mb", runs, lambda rs: sum(median([x[2] for x in r]) for r in rs) / 1e6, n_cli)
    put("periods_per_s", [d / t for d, t in zip(s.pipeline_decisions, s.pipeline_s)], median)
    lat = s.latency_ns
    put("solve_p50_us", lat, lambda v: percentile(v, 50).value / 1e3)
    windows = [lat[i:i + P99_WINDOW] for i in range(0, len(lat) - P99_WINDOW + 1, P99_WINDOW)]
    put("solve_p99_us", windows, lambda ws: median([percentile(x, 99).value for x in ws]) / 1e3,
        len(lat))
    counts["solve_p99_windows"] = len(windows)
    counts["solve_below_floor_decisions"] = s.floor_decisions
    return values, counts


def per_layer(w, tracer) -> tuple[dict, dict]:
    from spans import median, percentile

    s = w.samples
    durations: dict[str, list[int]] = {}
    for span in tracer.spans:
        durations.setdefault(span.name, []).append(span.duration_ns)
    values, counts = {}, {}

    def span_stat(metric, name, scale, q=50):
        """A layer left idle by this workload reads 0 over 0 samples."""
        samples = durations.get(name, [])
        values[metric] = percentile(samples, q).value / scale if samples else 0.0
        counts[metric] = len(samples)

    def sample_stat(metric, samples, fn=median):
        values[metric] = float(fn(samples)) if samples else 0.0
        counts[metric] = len(samples)

    for metric, name in (("harvest.load_trace_s", "harvest.load_trace"),
                         ("harvest.to_budgets_s", "harvest.trace_to_budgets"),
                         ("harvest.synth_s", "harvest.synth_trace"),
                         ("catalog.load_s", "catalog.load"),
                         ("simulator.simulate_s", "simulator.simulate"),
                         ("simulator.sweep_alpha_s", "simulator.sweep_alpha"),
                         ("simulator.sweep_budget_s", "simulator.sweep_budget"),
                         ("simulator.report_json_s", "simulator.report_to_json"),
                         ("simulator.sweep_csv_s", "simulator.sweep_csv")):
        span_stat(metric, name, 1e9)
    for metric, name in (("catalog.validate_us", "catalog.validate_catalog"),
                         ("allocator.problem_us", "allocator.AllocationProblem"),
                         ("allocator.build_problem_us", "allocator.build_problem"),
                         ("allocator.optimize_us", "allocator.optimize_allocation"),
                         ("allocator.static_us", "allocator.static_dp_allocation"),
                         ("allocator.envelope_us", "allocator.envelope_oracle"),
                         ("lp_core.solve_us", "lp_core.solve_lp")):
        span_stat(metric, name, 1e3)
    span_stat("allocator.optimize_p99_us", "allocator.optimize_allocation", 1e3, 99)
    span_stat("lp_core.solve_p99_us", "lp_core.solve_lp", 1e3, 99)
    sample_stat("allocator.self_us", s.self_us)
    sample_stat("allocator.envelope_errors", s.envelope_errors)
    sample_stat("lp_core.pivots_mean", s.pivots, lambda v: sum(v) / len(v))
    sample_stat("lp_core.pivots_max", s.pivots, max)
    sample_stat("lp_core.phase1_pivots", s.phase1_pivots)
    sample_stat("lp_core.bland_pivots", s.bland_pivots)
    sample_stat("simulator.self_s", s.simulator_self_s)
    sample_stat("cli.import_s", s.import_s)
    sample_stat("cli.main_s", s.cli_main_s)
    sample_stat("trace.overhead_s", [t - u for t, u in zip(s.traced_s, s.untraced_s)])
    sample_stat("trace.spans", s.spans_per_round)
    for metric, value in s.counts.items():
        values[metric] = value
        counts[metric] = 1
    return values, counts


def span_table(tracer) -> list[str]:
    from spans import percentile, self_times_ns

    rows: dict[str, list] = {}
    for span, own in zip(tracer.spans, self_times_ns(tracer.spans)):
        entry = rows.setdefault(span.name, [[], 0])
        entry[0].append(span.duration_ns)
        entry[1] += own
    lines = [f"  {'span':34} {'calls':>7} {'median':>12} {'p99':>12} {'self total':>12}"]
    for name, (durs, own) in sorted(rows.items()):
        p50 = percentile(durs, 50).value / 1e3
        p99 = percentile(durs, 99).value / 1e3
        lines.append(f"  {name:34} {len(durs):7d} {p50:10.1f}us {p99:10.1f}us {own / 1e9:11.4f}s")
    return lines


def report(header: str, metrics: dict, units: dict, counts: dict, checker) -> list[str]:
    lines = [header]
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"  {name:28} {shown:>14} {unit:6} (n={counts.get(name, 0)})")
    summary = checker.summary()
    frac = summary["fail_frac"]
    lines.append(f"  {'fail_frac':28} {0.0 if frac is None else frac:>14.6g} {'':6} "
                 f"({summary['failed']} failed of {summary['attempted']} attempted)")
    for failure in summary["first_failures"]:
        lines.append(f"  FAILED {failure}")
    if summary["known_defects"]:
        lines.append("known seed defects (run every time, reported apart from the counts above):")
        for name, info in summary["known_defects"].items():
            lines.append(f"  {name}: {info['status']}, {info['occurrences']} occurrence(s)")
            lines.append(f"    cause: {info['cause']}")
            lines.append(f"    seen: {info['detail']}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eaopt" / "__init__.py").is_file():
        print(f"bench: no eaopt package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    from spawner import Spawner

    spawner = Spawner()  # first, while this process is still small
    sys.path.insert(0, str(SRC))
    from checker import Checker
    from spans import Tracer
    from workloads import SETUP_PROCESSES, WORKLOADS

    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        checker = Checker()
        w = WORKLOADS[args.workload](scratch, args.seed, checker, spawner)
        w.setup(SETUP_PROCESSES[0])
        w.once()
        tracer = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
        # Rounds run back to back while the next one, judged by the last,
        # still fits in --seconds; the first always runs.
        start = time.perf_counter()
        rounds = 0
        last = 0.0
        while rounds == 0 or time.perf_counter() - start + last <= args.seconds:
            began = time.perf_counter()
            if args.trace:
                w.trace_round(rounds, tracer)
            else:
                w.e2e_round(rounds)
            last = time.perf_counter() - began
            w.samples.round_s.append(last)
            rounds += 1
        w.setup(SETUP_PROCESSES[1])
        if args.trace:
            values, counts = per_layer(w, tracer)
            units = shown = PER_LAYER
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            values, counts = end_to_end(w)
            units = END_TO_END
            shown = {**END_TO_END, **UNBOUNDED}
    finally:
        spawner.close()
        shutil.rmtree(scratch, ignore_errors=True)

    header = (f"eaopt benchmark: workload={args.workload} seed={args.seed} "
              f"trace={args.trace} rounds={rounds}")
    lines = report(header, values, shown, counts, checker)
    if args.trace:
        lines += ["spans (all rounds):", *span_table(tracer)]
    info = provenance(args, rounds, counts)
    info["round_s"] = [round(x, 3) for x in w.samples.round_s]
    info["known_defects"] = checker.summary()["known_defects"]
    lines.append("provenance: " + json.dumps(info, sort_keys=True))
    print("\n".join(lines))
    complete = all(name in values for name in units)
    result = {
        "correct": checker.failed == 0 and complete,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
