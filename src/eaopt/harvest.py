"""Harvested-energy traces and their conversion to per-period budgets.

Traces are piecewise-constant time series: each sample holds from its
timestamp until the next one, and the last sample holds for as long as
the previous gap (or one period when the trace has a single sample).
Two trace modes are supported:

* ``irradiance``: values in W/m2, converted to electrical power through
  a PanelModel and integrated into per-period energy budgets.
* ``budget``: values already in joules per sample period, re-binned
  onto the requested period grid.  budget_series_to_csv writes a
  BudgetSeries in this mode, one sample per period start, and
  load_trace plus trace_to_budgets at the series' period length read it
  back exactly.

Trace CSV format::

    #mode: irradiance
    #units: W/m2
    timestamp,value
    0,412.5

``#mode`` is required; ``#units`` is optional but must match the mode
(W/m2 for irradiance, J for budget) when present.

load_trace reads a path without holding its lines: it counts them on the
file's bytes, reads up to the header through read_table, and gives the open
file to np.loadtxt, whose (N, 2) table the trace's times and values are
column views of.  A file np.loadtxt cannot vouch for that way goes to the
read_table loop; one with a '\\r' outside a '\\r\\n', or a pipe, is read as a
list of lines, the form file-like objects and lists always take.

trace_to_budgets integrates an irradiance trace one block of
_BLOCK_PERIODS periods at a time, so that its cut arrays hold one block's
samples and edges, not the whole trace's.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._table import read_table, write_table
from ._tolerance import COUNT_SLACK
from .allocator import _check_budget

IRRADIANCE = "irradiance"
BUDGET = "budget"
TRACE_HEADER = "timestamp,value"

_MODE_UNITS = {IRRADIANCE: "W/m2", BUDGET: "J"}


class TraceError(ValueError):
    """Unparseable or invalid trace data."""


@dataclass(frozen=True)
class HarvestTrace:
    times: np.ndarray  # seconds, strictly increasing
    values: np.ndarray  # W/m2 (irradiance mode) or joules (budget mode)
    mode: str


@dataclass(frozen=True)
class PanelModel:
    """Irradiance-to-power conversion: power = irradiance * area * efficiency.

    budget_cap, when set, clips each period's budget in joules (storage
    limit of the harvesting front end).
    """

    area: float = 2e-3  # m2
    efficiency: float = 0.15
    budget_cap: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.area) and self.area > 0):
            raise ValueError(f"panel area {self.area!r} must be finite and > 0")
        if not (math.isfinite(self.efficiency) and 0 < self.efficiency <= 1):
            raise ValueError(f"panel efficiency {self.efficiency!r} outside (0, 1]")
        if self.budget_cap is not None and not (
            math.isfinite(self.budget_cap) and self.budget_cap >= 0
        ):
            raise ValueError(f"budget cap {self.budget_cap!r} must be finite and >= 0")


@dataclass(frozen=True)
class BudgetSeries:
    """Per-period energy budgets on a contiguous grid of equal periods."""

    period_length: float
    starts: np.ndarray  # seconds, starts[k] = starts[0] + k * period_length
    budgets: np.ndarray  # joules

    def __len__(self) -> int:
        return len(self.budgets)


def _parse_pair(parts: list[str]) -> tuple[float, float]:
    return float(parts[0]), float(parts[1])


def _read_pairs(source):
    """Read a two-column numeric trace CSV from a path, a file-like object
    or a list of lines.  Returns (meta, first column, second column, line
    number of each row), as read_table does.

    The read_table loop reads each file up to its header, and np.loadtxt
    reads the rest.  Its result is kept when it holds one row of two values
    per remaining line, with no error and no no-data warning.  loadtxt
    skips blank lines, so that proves there were none, and row i sits on
    the header's line plus 1 + i.  A path is parsed from its open handle,
    so its lines are never held at once.  Any other file (metadata after
    the header, an inline '#', a repeated header, a wrong field count, a
    spelling such as 1_000 that float() reads and loadtxt does not, a
    blank line in the body, no rows) goes to the read_table loop, which
    decides both the values and the error text.  A path that is a pipe, or
    that holds a '\\r' outside a '\\r\\n', is read as the list of its lines
    first, and np.loadtxt tries that list before the loop does.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            total = _count_lines(fh) if fh.seekable() else None  # None for a pipe
            if total is not None:
                fast = _loadtxt_pairs(fh, total)
                if fast is not None:
                    return fast
                fh.seek(0)
                return _loop_pairs(fh)
            lines = list(fh)
    else:
        lines = list(source)
    fast = _loadtxt_pairs(iter(lines), len(lines))
    return _loop_pairs(lines) if fast is None else fast


def _loop_pairs(lines):
    """_read_pairs through the read_table loop alone."""
    meta, rows, row_lines = read_table(lines, TRACE_HEADER, _parse_pair, TraceError)
    return meta, np.array([a for a, _ in rows]), np.array([b for _, b in rows]), row_lines


# Bytes per read when counting a trace file's lines.
_SCAN_BYTES = 1 << 20


def _count_lines(fh):
    """The lines of an open text file, counted on its bytes as the newlines
    plus an unterminated last line, with the file rewound; or None when a
    '\\r' is not followed by '\\n', since text mode ends a line there too."""
    total = lone = 0
    last = b"\n"
    while chunk := fh.buffer.read(_SCAN_BYTES):
        total += chunk.count(b"\n")
        if b"\r" in chunk:
            lone += chunk.count(b"\r") - chunk.count(b"\r\n")
        lone -= last == b"\r" and chunk[:1] == b"\n"  # a '\r\n' split between reads
        last = chunk[-1:]
    fh.seek(0)
    return None if lone else total + (last != b"\n")


def _loadtxt_pairs(lines, total: int):
    """_read_pairs through read_table up to the header and np.loadtxt after
    it, or None where only the read_table loop can tell.  lines is an
    iterator over the file's total lines; an open file is its own.  A
    first data line that is not the header raises read_table's error for
    that line, as the loop would.  The two columns are views of loadtxt's
    table."""
    head = []
    for raw in lines:
        head.append(raw)
        if raw.strip()[:1] not in ("", "#"):
            break
    else:
        return None
    meta, _, _ = read_table(head, TRACE_HEADER, _parse_pair, TraceError)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except (ValueError, UserWarning):
        return None
    if table.shape != (total - len(head), 2):
        return None
    first, second = table.T
    return meta, first, second, range(len(head) + 1, total + 1)


def _reject(bad: np.ndarray, lines, message, unit: str = "line") -> None:
    """Raise TraceError naming the line (or other unit) of the first row
    flagged in bad; message(i) describes row i."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        i = int(flagged[0])
        raise TraceError(f"{unit} {lines[i]}: {message(i)}")


def _check_samples(times: np.ndarray, values: np.ndarray, lines, unit: str = "line") -> None:
    """Raise TraceError unless the trace has samples, all finite, with
    non-negative values and strictly increasing times; the message names
    unit lines[i] of the first bad sample i."""
    if not len(lines):
        raise TraceError("trace has no samples")
    _reject(~(np.isfinite(times) & np.isfinite(values)), lines,
            lambda i: f"non-finite value in row {(float(times[i]), float(values[i]))!r}", unit)
    _reject(values < 0, lines, lambda i: f"negative value {float(values[i])!r}", unit)
    not_after = np.zeros(len(times), dtype=bool)
    np.less_equal(times[1:], times[:-1], out=not_after[1:])
    _reject(not_after, lines,
            lambda i: f"timestamp {float(times[i])!r} not after previous "
                      f"{float(times[i - 1])!r}", unit)


def load_trace(source) -> HarvestTrace:
    """Parse a trace CSV from a path or file-like object."""
    meta, times, values, lines = _read_pairs(source)
    mode = None
    units = None
    for lineno, body in meta:
        if body.startswith("mode:"):
            mode = body[len("mode:"):].strip()
            if mode not in _MODE_UNITS:
                raise TraceError(f"line {lineno}: unknown trace mode {mode!r}")
        elif body.startswith("units:"):
            units = body[len("units:"):].strip()
    if mode is None:
        raise TraceError("missing '#mode: irradiance|budget' metadata line")
    if units is not None and units != _MODE_UNITS[mode]:
        raise TraceError(
            f"units {units!r} do not match mode {mode!r} (expected {_MODE_UNITS[mode]!r})"
        )
    _check_samples(times, values, lines)
    return HarvestTrace(times, values, mode)


# Periods trace_to_budgets integrates at a time in irradiance mode.
_BLOCK_PERIODS = 1024


def trace_to_budgets(
    trace: HarvestTrace, panel: PanelModel, period_length: float
) -> BudgetSeries:
    """Convert either trace mode to a BudgetSeries on the period grid
    that starts at the first sample.

    Irradiance is turned into power through the panel and integrated
    exactly over each period.  Each sample holds until the next one;
    the last sample holds for as long as the previous gap, or for one
    period when the trace has a single sample.  The periods are integrated
    _BLOCK_PERIODS at a time, so the work arrays hold one block's samples
    and edges, and the trace's arrays, which load_trace gives as column
    views of one table, are never copied whole; a period's pieces are
    summed in the same order as over the whole trace at once, so the
    budgets do not depend on the block size.
    Budget-mode samples are summed into the period containing their
    timestamp; grid periods with no samples get a zero budget.
    budget_cap, when set, clips every period's budget.  A trace load_trace
    would reject raises TraceError naming the sample index, and a period
    too short to count or lay out raises it naming the period length.
    """
    if trace.mode not in _MODE_UNITS:
        raise TraceError(f"unknown trace mode {trace.mode!r}")
    if not (math.isfinite(period_length) and period_length > 0):
        raise TraceError(f"period length {period_length!r} must be finite and > 0")
    times = trace.times
    _check_samples(times, trace.values, range(len(times)), "sample")
    t0 = float(times[0])
    try:
        if trace.mode == IRRADIANCE:
            last_hold = float(times[-1]) - float(times[-2]) if len(times) > 1 else period_length
            end = float(times[-1]) + last_hold
            n = max(1, math.ceil((end - t0) / period_length - COUNT_SLACK))
        else:
            # The floor is off by at most one, so one start past it is enough.
            n = int((float(times[-1]) - t0) // period_length) + 2
        starts = t0 + period_length * np.arange(n)
    except (OverflowError, ValueError, MemoryError):
        raise TraceError(f"period length {period_length!r}: too many periods") from None
    if trace.mode == IRRADIANCE:
        budgets = _integrate(times, trace.values, panel, starts, end)
    else:
        # Bin against the reported starts themselves: (times - t0) // T can
        # round a sample at a period start into the period before.
        index = np.searchsorted(starts, times, side="right") - 1
        budgets = np.bincount(index, weights=trace.values)
    if panel.budget_cap is not None:
        budgets = np.minimum(budgets, panel.budget_cap)
    return BudgetSeries(period_length, starts[:len(budgets)], budgets)


def _integrate(times, values, panel: PanelModel, starts: np.ndarray, end: float) -> np.ndarray:
    """Energy of the irradiance holds in each period of the grid, which
    ends at end.

    Every hold is cut at the period edges it crosses, its last one at end,
    and each piece's energy is credited to the period it starts in; an
    edge that is also a sample time makes a zero-width piece, which adds
    nothing.  A block of periods [lo, hi) gets exactly the pieces that
    start in [starts[lo], starts[hi]): its own samples and clipped edges,
    closed by its right edge, clipped to end."""
    edges = starts[1:]
    clipped = np.minimum(edges, end)
    lefts = starts[_BLOCK_PERIODS::_BLOCK_PERIODS]  # every block's but the first
    first_sample = np.concatenate([[0], np.searchsorted(times, lefts), [len(times)]])
    first_edge = np.concatenate([[0], np.searchsorted(clipped, lefts), [len(clipped)]])
    rights = np.append(np.minimum(lefts, end), end)
    n = len(starts)
    budgets = np.empty(n)
    for b, lo in enumerate(range(0, n, _BLOCK_PERIODS)):
        hi = min(lo + _BLOCK_PERIODS, n)
        s0, s1 = first_sample[b : b + 2]
        held = times[s0:s1]
        cuts = np.sort(np.concatenate([
            held, clipped[first_edge[b] : first_edge[b + 1]], rights[b : b + 1],
        ]))
        pieces = cuts[:-1]
        sample = np.searchsorted(held, pieces, side="right") + (s0 - 1)
        period = np.searchsorted(edges[lo : hi - 1], pieces, side="right")
        power = values[sample] * panel.area * panel.efficiency  # watts
        budgets[lo:hi] = np.bincount(period, weights=power * np.diff(cuts), minlength=hi - lo)
    return budgets


def synth_trace(
    days: int,
    peak_irradiance: float = 10.0,
    day_length_fraction: float = 0.5,
    noise: float = 0.0,
    seed: int | None = None,
) -> HarvestTrace:
    """Synthetic hourly irradiance: a half-sine day, zero at night.

    Each day has 24 hourly samples evaluated at the hour midpoint; the
    half-sine spans the first day_length_fraction of the day, so the
    default leaves exactly 12 zero samples per day.  The default peak of
    10 W/m2 models a small indoor/desk-facing panel; pass ~1000 for full
    outdoor sun.  noise multiplies each daytime sample by a uniform
    factor in [1 - noise, 1 + noise] drawn from a seeded generator.
    """
    if days <= 0:
        raise TraceError(f"days {days!r} must be > 0")
    if not (0 < day_length_fraction <= 1):
        raise TraceError(f"day length fraction {day_length_fraction!r} outside (0, 1]")
    if not (0 <= noise < 1):
        raise TraceError(f"noise {noise!r} outside [0, 1)")
    hours = np.arange(24 * days)
    mid = (hours % 24 + 0.5) / 24.0  # day phase at the hour midpoint
    phase = mid / day_length_fraction
    values = np.where(phase < 1.0, peak_irradiance * np.sin(np.pi * phase), 0.0)
    if noise > 0:
        rng = np.random.default_rng(seed)
        values = values * rng.uniform(1.0 - noise, 1.0 + noise, size=len(values))
    return HarvestTrace(hours * 3600.0, values, IRRADIANCE)


def _check_series(starts: np.ndarray, budgets: np.ndarray) -> None:
    """Raise ValueError unless every budget is finite and >= 0 and there
    is one finite start per budget, naming the first bad budget, then a
    length mismatch, then the first bad start."""
    bad = ~(np.isfinite(budgets) & (budgets >= 0))
    if bad.any():
        _check_budget(budgets[bad.argmax()])
    if starts.shape != budgets.shape:
        raise ValueError(f"budget series has {starts.size} starts for {budgets.size} budgets")
    bad = ~np.isfinite(starts)
    if bad.any():
        raise ValueError(f"start {starts[bad.argmax()].item()!r} must be finite")


def budget_series_to_csv(series: BudgetSeries) -> str:
    """The series as a budget-mode trace: one sample per period start."""
    columns = [np.asarray(c, dtype=float) for c in (series.starts, series.budgets)]
    _check_series(*columns)
    return write_table(TRACE_HEADER, columns, ("mode: budget", "units: J"))
