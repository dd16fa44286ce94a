"""The CLI's budget sweep, rendered in Python floats a chunk at a time
(eaopt._sweep), against the array sweep of the API: the same bytes, the
same errors, and a peak that does not grow with the grid."""

import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaopt._sweep import sweep_chunks
from eaopt.catalog import Catalog, DesignPoint, builtin_table1, load_catalog, serialize_catalog
from eaopt.cli import main
from eaopt.simulator import sweep_budget, sweep_to_csv
from oracles import degenerate_cases, every_scale_cases

CATALOG = builtin_table1()


def _api_text(catalog, alpha, start, stop, step, period) -> str:
    """The array sweep's CSV, or its error as the CLI prints it."""
    try:
        return sweep_to_csv(sweep_budget(catalog, alpha, start, stop, step, period), catalog)
    except ValueError as exc:
        return f"error: {exc}\n"


def _chunks_text(catalog, alpha, start, stop, step, period) -> str:
    try:
        return "".join(sweep_chunks(catalog, alpha, start, stop, step, period))
    except ValueError as exc:
        return f"error: {exc}\n"


@st.composite
def _grid_cases(draw):
    """(catalog, period, alpha, start, stop, step): a grid of up to about
    40 points that starts at 0, at or near the keep-alive floor, at or
    near a design point's saturation budget, or a little below 0."""
    catalog, period, _, alpha = draw(st.one_of(degenerate_cases(), every_scale_cases()))
    floor = catalog.off_power * period
    marks = [floor, *(dp.power * period for dp in catalog)]
    start = draw(st.one_of(
        st.just(0.0),
        st.sampled_from(marks),
        st.sampled_from(marks).map(lambda m: m * (1 + 1e-8)),
        st.tuples(st.sampled_from(marks), st.floats(0.5, 1.5)).map(lambda t: t[0] * t[1]),
        st.floats(-1.0, 0.0).map(lambda f: f * floor),
    ))
    top = max(marks)
    step = top * draw(st.floats(1e-3, 0.5))
    stop = start + step * draw(st.floats(0.0, 40.0))
    return catalog, period, alpha, start, stop, step


class TestBytes:
    @settings(max_examples=300, deadline=None)
    @given(case=_grid_cases())
    @example(case=(CATALOG, 3600.0, 1.0, 0.18, 10.0, 0.01))  # the README's grid
    @example(case=(CATALOG, 3600.0, 1.0, -0.0, 1.0, 0.25))  # -0.0 + 0.0 is 0.0
    @example(case=(CATALOG, 3600.0, 1.0, -0.5, 1.0, 0.25))  # a negative start
    @example(  # every utility underflows to 0: the all-off branch
        case=(Catalog((DesignPoint(1, "P1", 1e-6, 1e-3), DesignPoint(2, "P2", 2e-6, 2e-3)), 1e-4),
              3600.0, 64.0, 0.0, 8.0, 0.36)
    )
    def test_chunks_equal_the_array_sweep(self, case):
        """sweep_chunks gives sweep_to_csv(sweep_budget(...))'s bytes, or
        the error it raises."""
        assert _chunks_text(*case) == _api_text(*case)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 8.0])
    def test_cli_prints_the_array_sweep(self, alpha, capsys):
        assert main(["sweep", "--budget-range", "0.18:10:0.01", "--alpha", str(alpha)]) == 0
        out = capsys.readouterr().out
        assert out == _api_text(CATALOG, alpha, 0.18, 10.0, 0.01, 3600.0)
        assert len(out.splitlines()) == 1 + 983

    def test_period_off_power_and_file_catalog(self, capsys, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text(serialize_catalog(CATALOG))
        path_out = tmp_path / "sweep.csv"
        code = main(["sweep", "--budget-range", "0:3:0.05", "--catalog", str(path),
                     "--off-power", "1e-5", "--period", "900", "--alpha", "2",
                     "--output", str(path_out)])
        assert code == 0 and capsys.readouterr().out == ""
        catalog = Catalog(load_catalog(path).design_points, 1e-5)
        assert path_out.read_text() == _api_text(catalog, 2.0, 0.0, 3.0, 0.05, 900.0)

    def test_rows_span_several_chunks(self):
        text = "".join(sweep_chunks(CATALOG, 1.0, 0.0, 10.0, 0.001, 3600.0))
        assert text == _api_text(CATALOG, 1.0, 0.0, 10.0, 0.001, 3600.0)
        assert len(text.splitlines()) == 1 + 10001


class TestErrors:
    """Each bad input prints the array sweep's error, and --output is
    never created."""

    @pytest.mark.parametrize("args, err", [
        (["--budget-range", "0:10:0"], "budget range 0.0:10.0:0.0: step must be > 0"),
        (["--budget-range", "5:1:1"], "budget range 5.0:1.0:1.0: stop must be >= start"),
        (["--budget-range", "0:1e9:1e-9"],
         "budget range 0.0:1000000000.0:1e-09: too many points at this step"),
        (["--budget-range=-1:10:1"], "budget -1.0 must be finite and >= 0"),
        (["--budget-range", "0:10:1", "--alpha", "-1"], "alpha -1.0 must be finite and >= 0"),
        (["--budget-range", "0:10:1", "--period", "1e308"], "start inf must be finite"),
        (["--budget-range", "0:10:1", "--period", "0"], "period 0.0 must be finite and > 0"),
    ])
    def test_error_text_and_no_output(self, args, err, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(["sweep", *args, "--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")
        assert not path.exists()

    @pytest.mark.parametrize("case", [
        (CATALOG, -1.0, 0.0, 10.0, 1.0, 3600.0),
        (CATALOG, 1.0, 0.0, 10.0, 1.0, 1e308),
        (CATALOG, 1.0, -2.0, 10.0, 1.0, 1e308),  # the budget is named before the start
        # The last budget, 2 * step, overflows to inf.
        (CATALOG, 1.0, 0.0, 1.7976931348623157e308, 8.988465674761003e307, 3600.0),
        (Catalog((DesignPoint(1, "A", 1.5, 1e-3),), 0.0), 1.0, 0.0, 1.0, 0.5, 3600.0),
    ])
    def test_same_error_as_the_array_sweep(self, case):
        expected = _api_text(*case)
        assert expected.startswith("error: ")
        assert _chunks_text(*case) == expected

    def test_errors_are_raised_before_the_first_piece(self):
        with pytest.raises(ValueError, match="alpha"):
            sweep_chunks(CATALOG, -1.0, 0.0, 1.0, 0.5, 3600.0)


def test_peak_does_not_grow_with_the_grid(tmp_path):
    """tracemalloc's peak while the CLI writes a 50,000-point sweep is
    within 1.5 times its peak for 5,000 points: one chunk of rows is held
    at a time.  A one-point catalog keeps the traced run short."""
    catalog = tmp_path / "catalog.csv"
    catalog.write_text(serialize_catalog(Catalog(CATALOG.design_points[:1], CATALOG.off_power)))
    path = tmp_path / "sweep.csv"

    def peak(points: int) -> int:
        argv = ["sweep", "--budget-range", f"0:{points - 1}e-4:1e-4", "--catalog", str(catalog),
                "--output", str(path)]
        gc.collect()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5_000)  # the first run fills the module's caches
    small, large = peak(5_000), peak(50_000)
    assert len(path.read_text().splitlines()) == 1 + 50_000
    assert large < 1.5 * small
