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
file to np.loadtxt.  A file that np.loadtxt cannot vouch for that way is
read again as a list of lines, the form file-like objects and lists always
take.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._table import read_table, write_table
from ._tolerance import COUNT_SLACK

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
    blank line in the body, no rows, and for a path any '\\r' or a pipe)
    goes to the list of its lines, and where loadtxt cannot vouch for that
    list either, to the read_table loop, which decides both the values and
    the error text.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            if fh.seekable():  # not a pipe
                fast = _stream_pairs(fh)
                if fast is not None:
                    return fast
                fh.seek(0)
            lines = list(fh)
    else:
        lines = list(source)
    fast = _loadtxt_pairs(iter(lines), len(lines))
    if fast is not None:
        return fast
    meta, rows, row_lines = read_table(lines, TRACE_HEADER, _parse_pair, TraceError)
    return meta, np.array([a for a, _ in rows]), np.array([b for _, b in rows]), row_lines


# Bytes per read when counting a trace file's lines.
_SCAN_BYTES = 1 << 20


def _stream_pairs(fh):
    """_loadtxt_pairs on an open text file, or None where it cannot vouch.
    The lines are counted on the bytes, as the newlines plus an
    unterminated last line.  Text mode also ends a line at a '\\r', so a
    file with any '\\r' is left to the list path."""
    total, last = 0, b"\n"
    while chunk := fh.buffer.read(_SCAN_BYTES):
        if b"\r" in chunk:
            return None
        total += chunk.count(b"\n")
        last = chunk[-1:]
    fh.seek(0)
    return _loadtxt_pairs(fh, total + (last != b"\n"))


def _loadtxt_pairs(lines, total: int):
    """_read_pairs through read_table up to the header and np.loadtxt after
    it, or None where only the read_table loop can tell.  lines is an
    iterator over the file's total lines; an open file is its own.  A
    first data line that is not the header raises read_table's error for
    that line, as the loop would."""
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
    first, second = table.T.copy()
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
    _reject(np.diff(times, prepend=-np.inf) <= 0, lines,
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


def trace_to_budgets(
    trace: HarvestTrace, panel: PanelModel, period_length: float
) -> BudgetSeries:
    """Convert either trace mode to a BudgetSeries on the period grid
    that starts at the first sample.

    Irradiance is turned into power through the panel and integrated
    exactly over each period.  Each sample holds until the next one;
    the last sample holds for as long as the previous gap, or for one
    period when the trace has a single sample.  Budget-mode samples are
    summed into the period containing their timestamp; grid periods with
    no samples get a zero budget.  budget_cap, when set, clips every
    period's budget.  A trace load_trace would reject raises TraceError
    naming the sample index, and a period too short to count or lay out
    raises it naming the period length.
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
        power = trace.values * panel.area * panel.efficiency  # watts
        # Cut every hold at the period edges it crosses, then credit each
        # piece's energy to the period it starts in.  An edge that is also
        # a sample time makes a zero-width piece, which adds nothing.
        edges = starts[1:]
        cuts = np.sort(np.concatenate([times, [end], np.minimum(edges, end)]))
        sample = np.searchsorted(times, cuts[:-1], side="right") - 1
        period = np.searchsorted(edges, cuts[:-1], side="right")
        budgets = np.bincount(period, weights=power[sample] * np.diff(cuts), minlength=n)
    else:
        # Bin against the reported starts themselves: (times - t0) // T can
        # round a sample at a period start into the period before.
        index = np.searchsorted(starts, times, side="right") - 1
        budgets = np.bincount(index, weights=trace.values)
    if panel.budget_cap is not None:
        budgets = np.minimum(budgets, panel.budget_cap)
    return BudgetSeries(period_length, starts[:len(budgets)], budgets)


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


def _check_budget(budget) -> None:
    """Raise ValueError unless budget is finite and >= 0."""
    if not (math.isfinite(budget) and budget >= 0):
        raise ValueError(f"budget {np.asarray(budget).item()!r} must be finite and >= 0")


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
