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

One conversion turns samples into budgets, _Periods: it takes the samples
a block of _BLOCK_ROWS at a time and closes _BLOCK_PERIODS periods at a
time, so its work arrays hold one block's samples and edges, not the whole
trace's, and the budgets are bit for bit the same at any block sizes.
trace_to_budgets feeds it slices of a trace's arrays.  _file_budgets, which
the CLI reads a trace file through, feeds it each block of rows np.loadtxt
parses from the open file, and so never holds the trace; a file it cannot
vouch for that way goes to trace_to_budgets(load_trace(path)), which
decides its values and its error text.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._table import read_table, write_table
from ._tolerance import COUNT_SLACK
from .allocator import _check_budget, _check_start

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


def _read_head(lines):
    """The metadata of a trace from lines, an iterator over its lines read
    up to and including its first data line, which should be the header,
    and the number of lines read; None when no data line comes.  A first
    data line that is not the header raises read_table's error for that
    line, as the loop would."""
    head = []
    for raw in lines:
        head.append(raw)
        if raw.strip()[:1] not in ("", "#"):
            break
    else:
        return None
    return read_table(head, TRACE_HEADER, _parse_pair, TraceError)[0], len(head)


def _loadtxt_block(lines, rows: int):
    """The (rows, 2) table np.loadtxt reads from lines, an iterator over
    exactly rows lines, or None where it cannot: an error, no data, or any
    other row count or shape, as a blank line or a third field gives."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except (ValueError, UserWarning):
        return None
    return table if table.shape == (rows, 2) else None


def _loadtxt_pairs(lines, total: int):
    """_read_pairs through read_table up to the header and np.loadtxt after
    it, or None where only the read_table loop can tell.  lines is an
    iterator over the file's total lines; an open file is its own.  The two
    columns are views of loadtxt's table."""
    head = _read_head(lines)
    if head is None:
        return None
    meta, skipped = head
    table = _loadtxt_block(lines, total - skipped)
    if table is None:
        return None
    first, second = table.T
    return meta, first, second, range(skipped + 1, total + 1)


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


def _trace_mode(meta) -> str:
    """The mode the '#mode:' and '#units:' metadata lines give a trace;
    TraceError if there is none, or they disagree."""
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
    return mode


def load_trace(source) -> HarvestTrace:
    """Parse a trace CSV from a path or file-like object."""
    meta, times, values, lines = _read_pairs(source)
    mode = _trace_mode(meta)
    _check_samples(times, values, lines)
    return HarvestTrace(times, values, mode)


def _period_count(mode: str, t0: float, t_end: float, period_length: float) -> int:
    """How many periods the grid from t0 has for a trace that ends at
    t_end: the end of its last hold in irradiance mode, its last sample in
    budget mode.  It never falls as t_end grows, so the count for the
    samples so far is a floor for the final one (_Periods.series checks
    that it held)."""
    if mode == IRRADIANCE:
        return max(1, math.ceil((t_end - t0) / period_length - COUNT_SLACK))
    # The floor is off by at most one, so one start past it is enough.
    return int((t_end - t0) // period_length) + 2


def _trace_end(times, period_length: float) -> float:
    """Where the last hold of the trace ends; times holds its last two
    samples' times, or its only one."""
    last_hold = float(times[-1]) - float(times[-2]) if len(times) > 1 else period_length
    return float(times[-1]) + last_hold


def trace_to_budgets(
    trace: HarvestTrace, panel: PanelModel, period_length: float
) -> BudgetSeries:
    """Convert either trace mode to a BudgetSeries on the period grid
    that starts at the first sample.

    Irradiance is turned into power through the panel and integrated
    exactly over each period.  Each sample holds until the next one;
    the last sample holds for as long as the previous gap, or for one
    period when the trace has a single sample.
    Budget-mode samples are summed into the period containing their
    timestamp; grid periods with no samples get a zero budget.
    Both modes go through _Periods, _BLOCK_PERIODS periods at a time, so
    the trace's arrays, which load_trace gives as column views of one
    table, are never copied whole, and the budgets do not depend on the
    block size.
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
    periods = _Periods(trace.mode, panel, float(times[0]), period_length)
    end = _trace_end(times[-2:], period_length)
    try:
        n = _period_count(trace.mode, periods.t0,
                          end if trace.mode == IRRADIANCE else float(times[-1]), period_length)
        starts = periods.starts(0, n)
    except (OverflowError, ValueError, MemoryError):
        raise TraceError(f"period length {period_length!r}: too many periods") from None
    for lo in range(0, len(times), _BLOCK_ROWS):
        periods.feed(times[lo : lo + _BLOCK_ROWS], trace.values[lo : lo + _BLOCK_ROWS], n - 1)
    return periods.series(starts, end)


# Periods _Periods closes at a time.
_BLOCK_PERIODS = 1024

# Samples fed to _Periods at a time: the rows np.loadtxt parses at a time
# when _file_budgets streams a file, and the slices trace_to_budgets feeds.
_BLOCK_ROWS = 1 << 14


class _Periods:
    """The budgets of one trace's periods, built from its samples as they
    arrive.

    Samples are fed in time order, a block at a time.  A period is closed
    once a sample at or past its right edge has arrived, since no later
    sample can change its budget.  Only the samples from the last one held
    at the first open period's start on are kept, plus at least the last
    two, for the final hold.  Periods are closed at most _BLOCK_PERIODS at
    a time, and every block of periods ends on a period edge, so each
    period's pieces (or, in budget mode, samples) are summed by one
    bincount in time order, whatever the blocks: the budgets are bit for
    bit the ones integrated over the whole trace at once.
    """

    def __init__(self, mode: str, panel: PanelModel, t0: float, period_length: float):
        self.mode = mode
        self.panel = panel
        self.t0 = t0
        self.period_length = period_length
        self.lo = 0  # the first open period
        self.times = self.values = np.empty(0)
        self.closed: list[np.ndarray] = []

    def starts(self, lo: int, hi: int) -> np.ndarray:
        """starts[lo:hi] of the grid, each as the whole grid lays it out."""
        return self.t0 + self.period_length * np.arange(lo, hi)

    def feed(self, times: np.ndarray, values: np.ndarray, limit: int) -> None:
        """Take the next samples, then close every period before limit
        whose samples have all arrived."""
        if len(self.times):
            times = np.concatenate([self.times, times])
            values = np.concatenate([self.values, values])
        self.times, self.values = times, values
        t_max = float(times[-1])
        while self.lo < limit:
            hi = min(self.lo + _BLOCK_PERIODS, limit)
            starts = self.starts(self.lo, hi + 1)
            if starts[-1] <= t_max:
                self._close(starts[:-1], float(starts[-1]))
                continue
            # A sample before starts[hi] may still come: close up to the
            # last start at or before t_max, and wait for more samples.
            last = int(np.searchsorted(starts, t_max, side="right")) - 1
            if last > 0:
                self._close(starts[:last], float(starts[last]))
            return

    def series(self, starts: np.ndarray, end: float) -> BudgetSeries | None:
        """Close the open periods of the grid starts, whose last hold ends
        at end, and return the budgets as a BudgetSeries; None if a period
        past the grid's last was closed."""
        n = len(starts)
        if self.lo >= n:
            return None
        if self.mode == IRRADIANCE:
            # Pieces past the grid's last edge, up to end, are the last period's.
            for lo in range(self.lo, n - 1, _BLOCK_PERIODS):
                hi = min(lo + _BLOCK_PERIODS, n - 1)
                self._close(starts[lo:hi], min(float(starts[hi]), end))
            self._close(starts[n - 1:], end)
        else:
            # The last sample's period is the series' last.
            self._close(starts[self.lo:], math.inf, minlength=0)
        budgets = np.concatenate(self.closed)
        if self.panel.budget_cap is not None:
            budgets = np.minimum(budgets, self.panel.budget_cap)
        return BudgetSeries(self.period_length, starts[:len(budgets)], budgets)

    def _close(self, starts: np.ndarray, right: float, minlength: int | None = None) -> None:
        """Close the periods that start at starts, the last one ending at
        right: each gets the pieces (or budget samples) that start in it.

        An irradiance hold is cut at every period edge it crosses, and at
        right, and each piece's energy is credited to the period it starts
        in; an edge that is also a sample time makes a zero-width piece,
        which adds nothing.  The sample held at starts[0] is the last one
        before it, kept from the block before."""
        times, values = self.times, self.values
        k0, k1 = np.searchsorted(times, [starts[0], right]).tolist()
        edges = starts[1:]
        if self.mode == IRRADIANCE:
            cuts = np.sort(np.concatenate([times[k0:k1], np.minimum(starts, right), [right]]))
            pieces = cuts[:-1]
            sample = np.searchsorted(times[k0:k1], pieces, side="right") + (k0 - 1)
            power = values[sample] * self.panel.area * self.panel.efficiency  # watts
            weights = power * np.diff(cuts)
        else:
            # Bin against the reported starts themselves: (times - t0) // T
            # can round a sample at a period start into the period before.
            pieces = times[k0:k1]
            weights = values[k0:k1]
        period = np.searchsorted(edges, pieces, side="right")
        self.closed.append(np.bincount(
            period, weights=weights, minlength=len(starts) if minlength is None else minlength))
        self.lo += len(starts)
        keep = max(min(k1 - 1, len(times) - 2), 0)
        self.times, self.values = times[keep:], values[keep:]


# The most periods _file_budgets streams a grid of.  A grid this large is
# left to trace_to_budgets, which lays it out whole or finds it too large
# to: streamed, it would be stepped through a block at a time before the
# end of the trace told its size.
_STREAM_PERIODS = 1 << 26


def _file_budgets(path, panel: PanelModel, period_length: float) -> BudgetSeries:
    """trace_to_budgets(load_trace(path), panel, period_length), without
    holding the trace: the file is parsed _BLOCK_ROWS rows at a time and
    each block goes straight into the budgets.

    A file that cannot be vouched for this way goes to trace_to_budgets
    and load_trace, which decide its values and its error text: a pipe,
    which is read once as load_trace reads it, a '\\r' outside a '\\r\\n', a
    block np.loadtxt rejects, warns on or reads another number of rows from
    than it was given lines (a blank line, say), a bad '#mode' or '#units',
    a failed value check in any block, or a grid too large to stream."""
    with open(path) as fh:
        if not fh.seekable():
            return trace_to_budgets(load_trace(fh), panel, period_length)
        try:
            series = _stream_budgets(fh, panel, period_length)
        except (ValueError, OverflowError, MemoryError):  # TraceError and decoding too
            series = None
    if series is None:
        series = trace_to_budgets(load_trace(path), panel, period_length)
    return series


def _stream_budgets(fh, panel: PanelModel, period_length: float) -> BudgetSeries | None:
    """_file_budgets on an open file that can seek, or None where it
    cannot vouch for the file; a ValueError, OverflowError or MemoryError
    raised here means the same."""
    if not (math.isfinite(period_length) and period_length > 0):
        return None
    total = _count_lines(fh)
    head = None if total is None else _read_head(fh)
    if head is None:
        return None
    meta, rows = head[0], total - head[1]
    mode = _trace_mode(meta)
    periods = None
    last = -math.inf
    while rows:
        count = min(rows, _BLOCK_ROWS)
        rows -= count
        table = _loadtxt_block(itertools.islice(fh, count), count)
        if table is None:
            return None
        times, values = table.T
        _check_samples(times, values, range(count))
        if not times[0] > last:
            return None
        last = float(times[-1])
        if periods is None:
            periods = _Periods(mode, panel, float(times[0]), period_length)
        limit = _period_count(mode, periods.t0, last, period_length) - 1
        if limit > _STREAM_PERIODS:
            return None
        periods.feed(times, values, limit)
    if periods is None:
        return None
    end = _trace_end(periods.times[-2:], period_length)
    n = _period_count(mode, periods.t0, end if mode == IRRADIANCE else last, period_length)
    return periods.series(periods.starts(0, n), end)


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
        _check_start(starts[bad.argmax()])


def budget_series_to_csv(series: BudgetSeries) -> str:
    """The series as a budget-mode trace: one sample per period start."""
    columns = [np.asarray(c, dtype=float) for c in (series.starts, series.budgets)]
    _check_series(*columns)
    return write_table(TRACE_HEADER, columns, ("mode: budget", "units: J"))
