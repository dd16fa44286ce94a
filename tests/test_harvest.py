"""Trace parsing, budget conversion, and synthetic-trace tests."""

import io
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaopt import harvest
from eaopt.harvest import (
    BUDGET,
    IRRADIANCE,
    BudgetSeries,
    HarvestTrace,
    PanelModel,
    TraceError,
    budget_series_to_csv,
    load_trace,
    synth_trace,
    trace_to_budgets,
)
from oracles import one_shot_budgets, one_shot_rebin

PANEL = PanelModel(area=2e-3, efficiency=0.15)
HOUR = 3600.0


def trace_text(mode, rows, units=None):
    lines = [f"#mode: {mode}"]
    if units:
        lines.append(f"#units: {units}")
    lines.append("timestamp,value")
    lines += [f"{t},{v}" for t, v in rows]
    return "\n".join(lines) + "\n"


class TestLoadTrace:
    def test_irradiance_with_units(self):
        text = trace_text("irradiance", [(0, 100.0), (3600, 200.0)], units="W/m2")
        trace = load_trace(io.StringIO(text))
        assert trace.mode == IRRADIANCE
        assert list(trace.times) == [0.0, 3600.0]
        assert list(trace.values) == [100.0, 200.0]

    def test_budget_mode(self):
        text = trace_text("budget", [(0, 5.0)], units="J")
        assert load_trace(io.StringIO(text)).mode == BUDGET

    def test_missing_mode(self):
        text = "timestamp,value\n0,1\n"
        with pytest.raises(TraceError, match="mode"):
            load_trace(io.StringIO(text))

    def test_unknown_mode(self):
        with pytest.raises(TraceError, match="unknown trace mode"):
            load_trace(io.StringIO(trace_text("wind", [(0, 1.0)])))

    def test_units_mismatch(self):
        text = trace_text("irradiance", [(0, 1.0)], units="J")
        with pytest.raises(TraceError, match="units"):
            load_trace(io.StringIO(text))

    def test_non_increasing_timestamps(self):
        text = trace_text("irradiance", [(0, 1.0), (0, 2.0)])
        with pytest.raises(TraceError, match="line 4"):
            load_trace(io.StringIO(text))

    def test_negative_value(self):
        text = trace_text("irradiance", [(0, -1.0)])
        with pytest.raises(TraceError, match="negative"):
            load_trace(io.StringIO(text))

    def test_data_before_header(self):
        text = "#mode: irradiance\n0,1\n"
        with pytest.raises(TraceError, match="header"):
            load_trace(io.StringIO(text))

    def test_empty(self):
        with pytest.raises(TraceError, match="no samples"):
            load_trace(io.StringIO("#mode: irradiance\ntimestamp,value\n"))

    def test_loads_from_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(trace_text("irradiance", [(0, 1.0)]))
        assert load_trace(path).mode == IRRADIANCE


@pytest.mark.parametrize(
    "text, message",
    [
        (trace_text("irradiance", [(0, 1.0), ("nan", 2.0)]),
         "line 4: non-finite value in row (nan, 2.0)"),
        (trace_text("irradiance", [(0, 1.0), (60, "inf")]),
         "line 4: non-finite value in row (60.0, inf)"),
        (trace_text("budget", [(0, 1.0), (60, -0.5)]),
         "line 4: negative value -0.5"),
        (trace_text("irradiance", [(0, 1.0), (60, 2.0), (60, 3.0)]),
         "line 5: timestamp 60.0 not after previous 60.0"),
    ],
    ids=["nan-timestamp", "inf-value", "negative-value", "equal-timestamp"],
)
def test_loader_value_check_names_the_line(text, message):
    with pytest.raises(TraceError) as excinfo:
        load_trace(io.StringIO(text))
    assert str(excinfo.value) == message


def test_trace_file_is_parsed_without_its_lines(tmp_path):
    """load_trace on a path of 100k rows never holds the list of its
    lines: tracemalloc's peak stays below three times the bytes of the
    arrays it returns (about twice, for loadtxt's table and its copy)."""
    rng = np.random.default_rng(3)
    rows = 100_000
    day = np.arange(rows) % 1440 < 720
    path = tmp_path / "trace.csv"
    path.write_text(trace_text("irradiance", zip(60 * np.arange(rows), rng.uniform(0, 12, rows) * day)))
    tracemalloc.start()
    try:
        trace = load_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.times) == rows
    assert peak < 3 * (trace.times.nbytes + trace.values.nbytes)


@pytest.mark.parametrize(
    "times, values, mode, message",
    [
        ([], [], IRRADIANCE, "trace has no samples"),
        ([3600.0, 0.0], [1.0, 1.0], IRRADIANCE,
         "sample 1: timestamp 0.0 not after previous 3600.0"),
        ([0.0, 60.0], [1.0, -1.0], IRRADIANCE, "sample 1: negative value -1.0"),
        ([0.0], [1.0], "solar", "unknown trace mode 'solar'"),
    ],
    ids=["empty", "decreasing-times", "negative-irradiance", "unknown-mode"],
)
def test_trace_to_budgets_checks_traces_built_in_python(times, values, mode, message):
    trace = HarvestTrace(np.array(times), np.array(values), mode)
    with pytest.raises(TraceError) as excinfo:
        trace_to_budgets(trace, PANEL, HOUR)
    assert str(excinfo.value) == message


class TestIrradianceIntegration:
    def test_two_samples_one_period(self):
        # 100 W/m2 for 1800 s then 200 W/m2 held for the same gap:
        # power is irradiance * 2e-3 * 0.15 = irradiance * 3e-4 W.
        trace = load_trace(
            io.StringIO(trace_text("irradiance", [(0, 100.0), (1800, 200.0)]))
        )
        series = trace_to_budgets(trace, PANEL, HOUR)
        assert len(series) == 1
        assert series.budgets[0] == pytest.approx(100 * 3e-4 * 1800 + 200 * 3e-4 * 1800)

    def test_single_sample_spans_one_period(self):
        trace = load_trace(io.StringIO(trace_text("irradiance", [(0, 50.0)])))
        series = trace_to_budgets(trace, PANEL, HOUR)
        assert len(series) == 1
        assert series.budgets[0] == pytest.approx(50 * 3e-4 * HOUR)

    def test_sample_spanning_two_periods_is_split(self):
        # One sample at t=0 held for 3600 s, next at 3600: period 1800 s
        # splits the first hold across two periods.
        trace = load_trace(
            io.StringIO(trace_text("irradiance", [(0, 100.0), (3600, 0.0)]))
        )
        series = trace_to_budgets(trace, PANEL, 1800.0)
        assert len(series) == 4
        assert series.budgets[0] == pytest.approx(100 * 3e-4 * 1800)
        assert series.budgets[1] == pytest.approx(100 * 3e-4 * 1800)
        assert series.budgets[2] == pytest.approx(0.0)

    def test_cap_clips_each_period(self):
        trace = load_trace(
            io.StringIO(trace_text("irradiance", [(0, 100.0), (3600, 200.0)]))
        )
        panel = PanelModel(area=2e-3, efficiency=0.15, budget_cap=50.0)
        series = trace_to_budgets(trace, panel, HOUR)
        assert list(series.budgets) == [50.0, 50.0]

    def test_bad_period(self):
        trace = load_trace(io.StringIO(trace_text("irradiance", [(0, 1.0)])))
        with pytest.raises(TraceError, match="period"):
            trace_to_budgets(trace, PANEL, 0.0)

    @pytest.mark.parametrize("period", [5e-324, 1e-300])
    @pytest.mark.parametrize("trace", [
        synth_trace(1), HarvestTrace(np.array([0.0, 60.0]), np.array([1.0, 2.0]), BUDGET),
    ], ids=[IRRADIANCE, BUDGET])
    def test_period_too_short_for_the_grid(self, trace, period):
        # Too many periods to count or to lay out: neither value allocates.
        with pytest.raises(TraceError, match=f"^period length {period!r}: too many periods$"):
            trace_to_budgets(trace, PANEL, period)

    def test_start_off_the_period_grid(self):
        # 10.1 + 60 rounds so that (70.1 - 10.1) / 60 < 1: each hold must
        # still be cut exactly at the period edges it crosses.
        trace = load_trace(
            io.StringIO(trace_text("irradiance", [(10.1, 100.0), (190.1, 0.0)]))
        )
        series = trace_to_budgets(trace, PANEL, 60.0)
        assert series.budgets.tolist() == pytest.approx([1.8, 1.8, 1.8, 0.0, 0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_energy_is_conserved(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        t0 = data.draw(st.floats(min_value=0.0, max_value=1e6))
        gaps = data.draw(
            st.lists(
                st.floats(min_value=60.0, max_value=7200.0),
                min_size=n - 1, max_size=n - 1,
            )
        )
        values = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1000.0),
                min_size=n, max_size=n,
            )
        )
        times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
        trace = HarvestTrace(times, np.array(values), IRRADIANCE)
        series = trace_to_budgets(trace, PANEL, HOUR)
        durations = np.concatenate([np.diff(times), np.diff(times)[-1:]]) if n > 1 else np.array([HOUR])
        total = float((np.array(values) * 3e-4 * durations).sum())
        assert float(series.budgets.sum()) == pytest.approx(total, rel=1e-9, abs=1e-9)
        span = times[-1] + durations[-1] - times[0]
        assert len(series) == max(1, int(np.ceil(span / HOUR - 1e-9)))
        # Brute force: each period gets every hold's overlap with it.  The
        # 1e-9 slack in the period count can leave a sliver of the last
        # hold past the grid; it belongs to the last period.
        ends = series.starts + HOUR
        ends[-1] = np.inf
        expected = [
            sum(
                v * 3e-4 * max(0.0, min(t + d, end) - max(t, start))
                for t, v, d in zip(times, values, durations)
            )
            for start, end in zip(series.starts, ends)
        ]
        assert series.budgets.tolist() == pytest.approx(expected, rel=1e-9, abs=1e-9)


@st.composite
def blocked_cases(draw):
    """A trace of either mode, a panel and a period: samples on period
    edges (t0 + T * k, as the grid lays them out) and between them, a
    single sample, short and long last holds, zero values, and the cap on
    or off."""
    t0 = draw(st.sampled_from([0.0, -5000.0, 123.456, 1e9]))
    period = draw(st.one_of(st.sampled_from([3600.0, 900.0, 61.3, 1.0]),
                            st.floats(0.5, 1e4)))
    spots = draw(st.lists(
        st.tuples(st.integers(0, 1100),
                  st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))),
        min_size=1, max_size=30,
    ))
    positions = np.unique([0.0] + [k if f == 0.0 else k + f for k, f in spots])
    times = np.unique(t0 + period * positions)
    values = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1500.0)), min_size=len(times), max_size=len(times),
    )))
    cap = draw(st.one_of(st.none(), st.floats(0.0, 50.0)))
    panel = PanelModel(area=draw(st.sampled_from([2e-3, 0.37])), budget_cap=cap)
    mode = draw(st.sampled_from([IRRADIANCE, BUDGET]))
    return HarvestTrace(times, values, mode), panel, period


def one_shot(trace, panel, period):
    """The budgets of the trace over the whole trace at once, in its mode."""
    return (one_shot_budgets if trace.mode == IRRADIANCE else one_shot_rebin)(trace, panel, period)


# starts = t0 + T * k rounds to the same value for runs of k.
ROUNDED_GRID = (np.array([1e9, 1e9 + 3.6e-7]), np.array([5.0, 7.0]))
# The last hold ends a sliver (within COUNT_SLACK) past the grid's last
# edge: the last period, which takes it, must stay open to the end.
SLIVER = (np.array([0.0, HOUR, HOUR + 1e-7]), np.array([3.0, 1.0, 2.0]))


@settings(max_examples=60, deadline=None)
@given(case=blocked_cases())
@example(case=(HarvestTrace(*ROUNDED_GRID, IRRADIANCE), PANEL, 1e-9))
@example(case=(HarvestTrace(*ROUNDED_GRID, BUDGET), PANEL, 1e-9))
@example(case=(HarvestTrace(np.array([0.0]), np.array([3.0]), IRRADIANCE), PANEL, 7.0))
@example(case=(HarvestTrace(np.array([0.0]), np.array([3.0]), BUDGET), PANEL, 7.0))
@example(case=(HarvestTrace(*SLIVER, IRRADIANCE), PANEL, HOUR))
def test_blocked_integration_is_the_one_shot_integration(case):
    """Fed a block of samples and closed a block of periods at a time,
    every budget is bit for bit the one found over the whole trace at
    once, in either mode, at any block sizes."""
    trace, panel, period = case
    expected = one_shot(trace, panel, period)
    for size, rows in [(1, 1), (2, 3), (1, harvest._BLOCK_ROWS), (harvest._BLOCK_PERIODS, 1),
                       (harvest._BLOCK_PERIODS, harvest._BLOCK_ROWS)]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harvest, "_BLOCK_PERIODS", size)
            patch.setattr(harvest, "_BLOCK_ROWS", rows)
            series = trace_to_budgets(trace, panel, period)
        assert series.budgets.tobytes() == expected.tobytes()
        assert len(series.starts) == len(expected)


def test_year_is_integrated_in_blocks_as_at_once():
    """Minute samples over 90 days at several periods: many blocks of the
    default size, the same budgets as the one-shot integration."""
    trace = synth_trace(90, noise=0.3, seed=4)
    minutes = HarvestTrace(np.arange(len(trace.times) * 60) * 60.0,
                           np.repeat(trace.values, 60), IRRADIANCE)
    for period, cap in [(3600.0, None), (900.0, 0.2), (61.3, None), (25_200.0, 1.0)]:
        panel = PanelModel(budget_cap=cap)
        series = trace_to_budgets(minutes, panel, period)
        assert len(series) > harvest._BLOCK_PERIODS or period == 25_200.0
        assert series.budgets.tobytes() == one_shot_budgets(minutes, panel, period).tobytes()


@pytest.mark.parametrize("mode", [IRRADIANCE, BUDGET])
def test_integration_holds_one_block_at_a_time(mode):
    """trace_to_budgets on 100k minute samples at ten samples a period (ten
    blocks): tracemalloc's peak stays below the bytes of the trace's own
    arrays.  Integrating the whole trace at once holds its cuts, their sort
    and their sample and period indices, about three times those bytes;
    re-binning it at once holds a sample index and a copy of each column.
    The times and values are the column views of one table that load_trace
    gives."""
    rng = np.random.default_rng(3)
    rows = 100_000
    day = np.arange(rows) % 1440 < 720
    table = np.column_stack([60.0 * np.arange(rows), rng.uniform(0, 12, rows) * day])
    trace = HarvestTrace(*table.T, mode)
    tracemalloc.start()
    try:
        series = trace_to_budgets(trace, PANEL, 600.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == rows // 10
    assert peak < trace.times.nbytes + trace.values.nbytes


def write_trace_file(path, trace):
    """The trace as a CSV file with every float spelled by repr, so that
    it reads back exactly."""
    rows = zip(map(repr, trace.times.tolist()), map(repr, trace.values.tolist()))
    path.write_text(trace_text(trace.mode, rows))
    return path


def no_fallback(*args):
    raise AssertionError("the file went to load_trace")


@settings(max_examples=60, deadline=None)
@given(case=blocked_cases())
@example(case=(HarvestTrace(np.array([5.0]), np.array([3.0]), IRRADIANCE), PANEL, 7.0))
@example(case=(HarvestTrace(np.array([5.0]), np.array([3.0]), BUDGET), PANEL, 7.0))
@example(case=(HarvestTrace(np.array([0.0, 3600.0]), np.array([3.0, 1.0]), IRRADIANCE),
               PanelModel(budget_cap=1.0), HOUR))
@example(case=(HarvestTrace(np.array([0.0, 3600.0]), np.array([3.0, 1.0]), BUDGET),
               PanelModel(budget_cap=1.0), HOUR))
@example(case=(HarvestTrace(*ROUNDED_GRID, IRRADIANCE), PANEL, 1e-9))
@example(case=(HarvestTrace(*SLIVER, IRRADIANCE), PANEL, HOUR))
def test_trace_file_streams_into_the_budgets_of_its_trace(case, tmp_path_factory):
    """A trace file parsed a block of rows at a time, each block fed
    straight into the budgets, gives the starts and budgets of
    trace_to_budgets(load_trace(path)) bit for bit, at any parse block
    size, and a clean file never falls back to load_trace."""
    trace, panel, period = case
    path = write_trace_file(tmp_path_factory.getbasetemp() / "streamed.csv", trace)
    expected = trace_to_budgets(load_trace(path), panel, period)
    for rows in (1, 2, 7, harvest._BLOCK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harvest, "_BLOCK_ROWS", rows)
            patch.setattr(harvest, "load_trace", no_fallback)
            series = harvest._file_budgets(path, panel, period)
        assert series.period_length == period
        assert series.starts.tobytes() == expected.starts.tobytes()
        assert series.budgets.tobytes() == expected.budgets.tobytes()


@pytest.mark.parametrize("period", [5e-324, 1e-300])
@pytest.mark.parametrize("mode", [IRRADIANCE, BUDGET])
def test_file_period_too_short_for_the_grid(mode, period, tmp_path):
    """A grid too large to count, or to stream, is left to trace_to_budgets,
    which names the period length."""
    path = write_trace_file(tmp_path / "trace.csv",
                            HarvestTrace(np.array([0.0, 60.0]), np.array([1.0, 2.0]), mode))
    with pytest.raises(TraceError, match=f"^period length {period!r}: too many periods$"):
        harvest._file_budgets(path, PANEL, period)


def minute_rows(count):
    """count one-minute irradiance rows, day and night, as text pairs."""
    values = np.where(np.arange(count) % 1440 < 720, 5.0 + np.arange(count) % 7, 0.0)
    return [(str(60 * i), repr(v)) for i, v in enumerate(values.tolist())]


LATE = 2 * harvest._BLOCK_ROWS + 123  # a row in the third parse block
BOUNDARY = harvest._BLOCK_ROWS  # the first row of the second parse block


@pytest.mark.parametrize(
    "fault, message",
    [(lambda rows: rows.__setitem__(LATE, (rows[LATE][0], "nan")),
      f"line {LATE + 3}: non-finite value in row ({60.0 * LATE!r}, nan)"),
     (lambda rows: rows.__setitem__(LATE, (rows[LATE][0], "-1.5")),
      f"line {LATE + 3}: negative value -1.5"),
     (lambda rows: rows.__setitem__(BOUNDARY, (rows[BOUNDARY - 1][0], "2.0")),
      f"line {BOUNDARY + 3}: timestamp {60.0 * (BOUNDARY - 1)!r} not after previous "
      f"{60.0 * (BOUNDARY - 1)!r}")],
    ids=["nan", "negative-value", "equal-timestamp-across-blocks"],
)
def test_fault_in_a_late_block_raises_load_traces_error(fault, message, tmp_path):
    rows = minute_rows(3 * harvest._BLOCK_ROWS)
    fault(rows)
    path = tmp_path / "trace.csv"
    path.write_text(trace_text(IRRADIANCE, rows))
    for read in (lambda: load_trace(path), lambda: harvest._file_budgets(path, PANEL, HOUR)):
        with pytest.raises(TraceError) as excinfo:
            read()
        assert str(excinfo.value) == message


FILE_SPELLINGS = {
    # Only the read_table loop reads these: _file_budgets falls back.
    "blank-line": lambda text: text.replace("\n600,", "\n\n600,"),
    "inline-comment": lambda text: text.replace("\n600,", " # noon\n600,"),
    "underscore": lambda text: text.replace("\n600,", "\n6_00,"),
    "underscore-only-row": lambda text: text[: text.index("\n0,")] + "\n0,1_000\n",
    "lone-cr": lambda text: text.replace("\n600,", "\r600,"),
    "bad-units": lambda text: text.replace("#mode: irradiance", "#mode: irradiance\n#units: J"),
    # np.loadtxt reads a CRLF file a block at a time: it streams.
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("name", list(FILE_SPELLINGS))
def test_file_spellings_give_load_traces_budgets(name, tmp_path, monkeypatch):
    """Every file gives the budgets, or the error text, of
    trace_to_budgets(load_trace(path)), streamed or through the fallback."""
    path = tmp_path / "trace.csv"
    path.write_bytes(FILE_SPELLINGS[name](trace_text(IRRADIANCE, minute_rows(40))).encode())
    monkeypatch.setattr(harvest, "_BLOCK_ROWS", 7)
    try:
        expected = trace_to_budgets(load_trace(path), PANEL, 900.0).budgets.tobytes()
    except TraceError as exc:
        expected = str(exc)
    if name == "crlf":
        monkeypatch.setattr(harvest, "load_trace", no_fallback)
    try:
        got = harvest._file_budgets(path, PANEL, 900.0).budgets.tobytes()
    except TraceError as exc:
        got = str(exc)
    assert got == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_is_read_once_into_budgets(tmp_path):
    """A path that cannot seek is read once, as load_trace reads it."""
    text = trace_text(IRRADIANCE, minute_rows(40))
    pipe = tmp_path / "trace.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        series = harvest._file_budgets(pipe, PANEL, 900.0)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    expected = trace_to_budgets(load_trace(io.StringIO(text)), PANEL, 900.0)
    assert series.budgets.tobytes() == expected.budgets.tobytes()


def test_streamed_peak_does_not_grow_with_the_trace(tmp_path):
    """tracemalloc's peak while a file of 400k rows is streamed into
    budgets stays below 1.5 times the peak for 50k rows: only a block of
    rows and the budgets are held, never the trace (6.4 MB of arrays at
    400k rows)."""
    peaks = []
    for count in (50_000, 400_000):
        path = tmp_path / f"trace{count}.csv"
        path.write_text(trace_text(IRRADIANCE, minute_rows(count)))
        tracemalloc.start()
        try:
            series = harvest._file_budgets(path, PANEL, HOUR)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(series) == -(-count // 60)
    assert peaks[1] < 1.5 * peaks[0], peaks


class TestBudgetRebin:
    def test_hourly_passthrough(self):
        trace = load_trace(
            io.StringIO(trace_text("budget", [(0, 1.0), (3600, 2.0), (7200, 3.0)]))
        )
        series = trace_to_budgets(trace, PANEL, HOUR)
        assert list(series.budgets) == [1.0, 2.0, 3.0]
        assert list(series.starts) == [0.0, 3600.0, 7200.0]

    def test_sub_period_samples_sum(self):
        trace = load_trace(
            io.StringIO(trace_text("budget", [(0, 1.0), (1800, 2.0), (3600, 4.0)]))
        )
        series = trace_to_budgets(trace, PANEL, HOUR)
        assert list(series.budgets) == [3.0, 4.0]

    def test_gaps_become_zero_budget(self):
        trace = load_trace(io.StringIO(trace_text("budget", [(0, 1.0), (7200, 3.0)])))
        series = trace_to_budgets(trace, PANEL, HOUR)
        assert list(series.budgets) == [1.0, 0.0, 3.0]

    def test_samples_at_offset_period_starts(self):
        # (128.01 - 8.01) / 60 is 1.9999999999999998, yet 128.01 is a period start.
        rows = [(f"{8.01 + 60 * k:.2f}", 1.0) for k in range(6)]
        trace = load_trace(io.StringIO(trace_text("budget", rows)))
        series = trace_to_budgets(trace, PANEL, 60.0)
        assert list(series.budgets) == [1.0] * 6
        assert list(series.starts) == list(trace.times)

    @settings(max_examples=300, deadline=None)
    @given(
        t0=st.floats(0.0, 1e6),
        period=st.floats(1.0, 86400.0),
        count=st.integers(1, 40),
    )
    def test_each_sample_at_a_period_start_fills_that_period(self, t0, period, count):
        times = t0 + period * np.arange(count)
        series = trace_to_budgets(HarvestTrace(times, np.ones(count), BUDGET), PANEL, period)
        assert series.budgets.tolist() == [1.0] * count
        assert series.starts.tolist() == times.tolist()

    def test_cap_applies(self):
        trace = load_trace(io.StringIO(trace_text("budget", [(0, 10.0)])))
        panel = PanelModel(budget_cap=4.0)
        series = trace_to_budgets(trace, panel, HOUR)
        assert list(series.budgets) == [4.0]


class TestSynthTrace:
    def test_thirty_days_is_720_samples_and_periods(self):
        trace = synth_trace(30)
        assert len(trace.times) == 720
        series = trace_to_budgets(trace, PANEL, HOUR)
        assert len(series) == 720

    def test_twelve_night_zeros_per_day(self):
        trace = synth_trace(3)
        per_day = np.asarray(trace.values).reshape(3, 24)
        assert (per_day == 0.0).sum(axis=1).tolist() == [12, 12, 12]
        assert (per_day[:, 12:] == 0.0).all()
        assert (per_day[:, :12] > 0.0).all()

    def test_half_sine_shape(self):
        trace = synth_trace(1, peak_irradiance=10.0)
        values = np.asarray(trace.values)
        # Midpoint sampling puts the symmetric maximum on hours 5 and 6.
        assert values[5] == pytest.approx(values[6], rel=1e-12)
        assert values.max() == pytest.approx(values[5], rel=1e-12)
        assert values.max() <= 10.0
        assert values[0] == pytest.approx(values[11], rel=1e-12)

    def test_noise_is_seeded(self):
        a = synth_trace(2, noise=0.3, seed=42)
        b = synth_trace(2, noise=0.3, seed=42)
        c = synth_trace(2, noise=0.3, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert (np.asarray(a.values) >= 0).all()

    def test_day_length_fraction(self):
        trace = synth_trace(1, day_length_fraction=0.25)
        values = np.asarray(trace.values)
        assert (values[:6] > 0).all()
        assert (values[6:] == 0).all()

    def test_validation(self):
        with pytest.raises(TraceError, match="days"):
            synth_trace(0)
        with pytest.raises(TraceError, match="fraction"):
            synth_trace(1, day_length_fraction=0.0)
        with pytest.raises(TraceError, match="noise"):
            synth_trace(1, noise=1.0)


class TestPanelModel:
    def test_defaults(self):
        panel = PanelModel()
        assert panel.area == 2e-3
        assert panel.efficiency == 0.15
        assert panel.budget_cap is None

    def test_validation(self):
        with pytest.raises(ValueError, match="area"):
            PanelModel(area=0.0)
        with pytest.raises(ValueError, match="efficiency"):
            PanelModel(efficiency=1.5)
        with pytest.raises(ValueError, match="cap"):
            PanelModel(budget_cap=-1.0)


class TestBudgetSeriesCSV:
    def test_header(self):
        series = BudgetSeries(1800.0, np.array([-900.0, 900.0]), np.array([1.5, 0.0]))
        assert budget_series_to_csv(series) == (
            "#mode: budget\n#units: J\ntimestamp,value\n-900.0,1.5\n900.0,0.0\n"
        )

    def test_explicit_period_length(self):
        text = "#mode: budget\n#units: J\ntimestamp,value\n0,1\n1800,2\n"
        half_hours = trace_to_budgets(load_trace(io.StringIO(text)), PanelModel(), 1800.0)
        assert half_hours.period_length == 1800.0
        assert half_hours.budgets.tolist() == [1.0, 2.0]
        hours = trace_to_budgets(load_trace(io.StringIO(text)), PanelModel(), HOUR)
        assert hours.budgets.tolist() == [3.0]

    def test_empty_rejected(self):
        text = budget_series_to_csv(BudgetSeries(HOUR, np.array([]), np.array([])))
        with pytest.raises(TraceError, match="no samples"):
            load_trace(io.StringIO(text))

    @pytest.mark.parametrize(
        "starts, budgets, message",
        [([0.0], [1.0, 5.0, 7.0], "budget series has 1 starts for 3 budgets"),
         ([0.0, float("nan"), float("inf")], [5.0, 5.0, 5.0], "start nan must be finite"),
         # Budgets load_trace would reject, with simulate's message.
         ([0.0, 1.0, 2.0], [5.0, float("inf"), 5.0], "budget inf must be finite and >= 0"),
         ([0.0, 1.0, 2.0], [5.0, float("nan"), -1.0], "budget nan must be finite and >= 0"),
         ([0.0, 1.0, 2.0], [-1.0, 5.0, 5.0], "budget -1.0 must be finite and >= 0")],
        ids=["length-mismatch", "nan-start", "inf-budget", "nan-budget", "negative-budget"],
    )
    def test_malformed_series_rejected(self, starts, budgets, message):
        series = BudgetSeries(HOUR, np.array(starts), np.array(budgets))
        with pytest.raises(ValueError) as raised:
            budget_series_to_csv(series)
        assert str(raised.value) == message

    @settings(max_examples=300, deadline=None)
    @given(
        period=st.floats(0.1, 86_400.0),
        t0=st.sampled_from([-5_000.0, 0.0, 123.456, 1e9]),
        budgets=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=1, max_size=50),
    )
    def test_round_trip_exact(self, period, t0, budgets):
        series = BudgetSeries(period, t0 + period * np.arange(len(budgets)), np.array(budgets))
        trace = load_trace(io.StringIO(budget_series_to_csv(series)))
        loaded = trace_to_budgets(trace, PanelModel(), series.period_length)
        assert loaded.period_length == series.period_length
        assert loaded.starts.tobytes() == series.starts.tobytes()
        assert loaded.budgets.tobytes() == series.budgets.tobytes()
