"""Catalog parsing, validation, serialization, and dominance tests."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaopt.catalog import (
    Catalog,
    CatalogError,
    DesignPoint,
    builtin_table1,
    dominates,
    load_catalog,
    pareto_filter,
    pareto_partition,
    serialize_catalog,
    validate_catalog,
)


def test_builtin_values():
    catalog = builtin_table1()
    assert catalog.off_power == 5.0e-5
    table = {dp.id: (dp.accuracy, dp.power, dp.energy_per_activity) for dp in catalog}
    assert table == {
        1: (0.94, 2.76e-3, 4.48e-3),
        2: (0.93, 2.30e-3, 3.72e-3),
        3: (0.92, 1.82e-3, 2.94e-3),
        4: (0.90, 1.64e-3, 2.66e-3),
        5: (0.76, 1.20e-3, 1.93e-3),
    }
    assert catalog.labels == ("DP1", "DP2", "DP3", "DP4", "DP5")
    assert validate_catalog(catalog) == []
    assert all(dp.description for dp in catalog)


class TestValidation:
    def test_empty(self):
        problems = validate_catalog(Catalog((), 1e-5))
        assert any("no design points" in p for p in problems)

    def test_duplicate_ids(self):
        catalog = Catalog(
            (DesignPoint(1, "A", 0.9, 2e-3), DesignPoint(1, "B", 0.8, 1e-3)), 1e-5
        )
        problems = validate_catalog(catalog)
        assert any("duplicate id 1" in p and "A" in p and "B" in p for p in problems)

    def test_accuracy_range(self):
        for bad in (0.0, -0.1, 1.5, float("nan")):
            catalog = Catalog((DesignPoint(1, "A", bad, 2e-3),), 1e-5)
            assert any("accuracy" in p for p in validate_catalog(catalog))

    def test_power_positive(self):
        catalog = Catalog((DesignPoint(1, "A", 0.9, 0.0),), 1e-5)
        assert any("power" in p for p in validate_catalog(catalog))

    def test_off_power_bounds(self):
        catalog = Catalog((DesignPoint(1, "A", 0.9, 2e-3),), -1.0)
        assert any("off_power" in p for p in validate_catalog(catalog))

    def test_off_power_below_lowest(self):
        catalog = Catalog(
            (DesignPoint(1, "A", 0.9, 2e-3), DesignPoint(2, "B", 0.8, 1e-3)), 1.5e-3
        )
        problems = validate_catalog(catalog)
        assert any("off_power" in p and "B" in p for p in problems)


class TestDominance:
    def test_strictly_better(self):
        better = DesignPoint(1, "A", 0.95, 1e-3)
        worse = DesignPoint(2, "B", 0.90, 2e-3)
        assert dominates(better, worse)
        assert not dominates(worse, better)

    def test_equal_points_do_not_dominate(self):
        a = DesignPoint(1, "A", 0.9, 1e-3)
        b = DesignPoint(2, "B", 0.9, 1e-3)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_weak_dominance_one_axis(self):
        a = DesignPoint(1, "A", 0.9, 1e-3)
        b = DesignPoint(2, "B", 0.9, 2e-3)
        assert dominates(a, b)

    def test_builtin_is_already_pareto(self):
        kept, removed = pareto_partition(builtin_table1())
        assert len(kept) == 5
        assert removed == ()

    def test_added_point_removed_with_dominator(self):
        base = builtin_table1()
        extra = DesignPoint(6, "DP6", 0.91, 2.0e-3)
        catalog = Catalog(base.design_points + (extra,), base.off_power)
        kept, removed = pareto_partition(catalog)
        assert [dp.label for dp in kept] == ["DP1", "DP2", "DP3", "DP4", "DP5"]
        assert [(dp.label, dom.label) for dp, dom in removed] == [("DP6", "DP3")]

    def test_exact_twin_keeps_first(self):
        catalog = Catalog(
            (DesignPoint(1, "A", 0.9, 1e-3), DesignPoint(2, "B", 0.9, 1e-3)), 1e-5
        )
        kept, removed = pareto_partition(catalog)
        assert [dp.label for dp in kept] == ["A"]
        assert [(dp.label, dom.label) for dp, dom in removed] == [("B", "A")]

    def test_single_point_unchanged(self):
        catalog = Catalog((DesignPoint(1, "A", 0.9, 1e-3),), 1e-5)
        assert pareto_filter(catalog) == catalog

    def test_filter_idempotent_and_order_preserving(self):
        base = builtin_table1()
        extra = DesignPoint(6, "DP6", 0.91, 2.0e-3)
        catalog = Catalog(base.design_points[::-1] + (extra,), base.off_power)
        once = pareto_filter(catalog)
        assert pareto_filter(once) == once
        assert [dp.label for dp in once] == ["DP5", "DP4", "DP3", "DP2", "DP1"]


class TestLoad:
    def test_percent_milliwatt_units(self):
        text = (
            "#units: accuracy=percent, power=mW\n"
            "#off_power=0.05\n"
            "id,label,accuracy,power\n"
            "1,DP1,94,2.76\n"
        )
        catalog = load_catalog(io.StringIO(text))
        dp = catalog.design_points[0]
        assert dp.accuracy == pytest.approx(0.94)
        assert dp.power == pytest.approx(2.76e-3)
        assert catalog.off_power == pytest.approx(5.0e-5)

    def test_fraction_watt_units(self):
        text = (
            "#units: accuracy=fraction, power=W\n"
            "#off_power=5e-05\n"
            "id,label,accuracy,power\n"
            "1,DP1,0.94,0.00276\n"
        )
        catalog = load_catalog(io.StringIO(text))
        assert catalog.design_points[0].power == 0.00276

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# a note\n\n#units: accuracy=fraction,, power=W,\n"
            "#off_power=1e-5\n"
            "id,label,accuracy,power\n"
            "# another note\n"
            "1,A,0.9,0.002\n\n"
        )
        assert len(load_catalog(io.StringIO(text))) == 1

    def test_missing_units(self):
        text = "#off_power=0.05\nid,label,accuracy,power\n1,A,0.9,0.002\n"
        with pytest.raises(CatalogError, match="units"):
            load_catalog(io.StringIO(text))

    def test_missing_off_power(self):
        text = (
            "#units: accuracy=fraction, power=W\n"
            "id,label,accuracy,power\n1,A,0.9,0.002\n"
        )
        with pytest.raises(CatalogError, match="off_power"):
            load_catalog(io.StringIO(text))

    def test_unknown_unit(self):
        text = (
            "#units: accuracy=fraction, power=kW\n#off_power=0.05\n"
            "id,label,accuracy,power\n1,A,0.9,0.002\n"
        )
        with pytest.raises(CatalogError, match="unknown power unit"):
            load_catalog(io.StringIO(text))

    @pytest.mark.parametrize(
        "units, off_power, message",
        [
            ("accuracy=fraction, power", "1e-5", "line 1: bad units entry 'power'"),
            ("accuracy=fraction, power=W", "lots", "line 2: bad off_power value"),
            ("accuracy=ratio, power=W", "1e-5", "line 1: unknown accuracy unit 'ratio'"),
        ],
        ids=["units-entry-without-equals", "unparsable-off-power", "unknown-accuracy-unit"],
    )
    def test_bad_metadata_names_its_line(self, units, off_power, message):
        text = f"#units: {units}\n#off_power={off_power}\nid,label,accuracy,power\n1,A,0.9,0.002\n"
        with pytest.raises(CatalogError) as raised:
            load_catalog(io.StringIO(text))
        assert str(raised.value) == message

    def test_data_before_header(self):
        text = (
            "#units: accuracy=fraction, power=W\n#off_power=1e-5\n"
            "1,A,0.9,0.002\n"
        )
        with pytest.raises(CatalogError, match="line 3.*header"):
            load_catalog(io.StringIO(text))

    def test_bad_field_count_with_line_number(self):
        text = (
            "#units: accuracy=fraction, power=W\n#off_power=1e-5\n"
            "id,label,accuracy,power\n1,A,0.9\n"
        )
        with pytest.raises(CatalogError, match="line 4"):
            load_catalog(io.StringIO(text))

    def test_bad_number_with_line_number(self):
        text = (
            "#units: accuracy=fraction, power=W\n#off_power=1e-5\n"
            "id,label,accuracy,power\n1,A,high,0.002\n"
        )
        with pytest.raises(CatalogError, match="line 4"):
            load_catalog(io.StringIO(text))

    def test_empty_is_no_design_points(self):
        with pytest.raises(CatalogError, match="no design points"):
            load_catalog(io.StringIO(""))

    def test_validation_failures_surface(self):
        text = (
            "#units: accuracy=fraction, power=W\n#off_power=0.01\n"
            "id,label,accuracy,power\n1,A,0.9,0.002\n"
        )
        with pytest.raises(CatalogError, match="off_power"):
            load_catalog(io.StringIO(text))

    def test_loads_from_path(self, tmp_path):
        path = tmp_path / "catalog.csv"
        path.write_text(serialize_catalog(builtin_table1()))
        assert len(load_catalog(path)) == 5


class TestSerialize:
    def test_canonical_header(self):
        text = serialize_catalog(builtin_table1())
        lines = text.splitlines()
        assert lines[0] == "#units: accuracy=fraction, power=W"
        assert lines[1] == "#off_power=5e-05"
        assert lines[2] == "id,label,accuracy,power"
        assert lines[3] == "1,DP1,0.94,0.00276"
        assert text.endswith("\n")

    def test_builtin_round_trip_exact(self):
        catalog = builtin_table1()
        loaded = load_catalog(io.StringIO(serialize_catalog(catalog)))
        for original, parsed in zip(catalog, loaded):
            assert parsed.id == original.id
            assert parsed.label == original.label
            assert parsed.accuracy == original.accuracy
            assert parsed.power == original.power
        assert loaded.off_power == catalog.off_power

    def test_label_with_comma_rejected(self):
        catalog = Catalog((DesignPoint(1, "a,b", 0.9, 1e-3),), 1e-5)
        with pytest.raises(CatalogError, match="label"):
            serialize_catalog(catalog)


def _nine_digits(x: float) -> float:
    return float(format(x, ".9g"))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_trip_random_catalogs(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    accuracies = data.draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    powers = data.draw(
        st.lists(
            st.floats(min_value=1e-5, max_value=10.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    off_scale = data.draw(st.floats(min_value=0.0, max_value=0.99))
    dps = tuple(
        DesignPoint(i + 1, f"P{i + 1}", _nine_digits(a), _nine_digits(p))
        for i, (a, p) in enumerate(zip(accuracies, powers))
    )
    catalog = Catalog(dps, _nine_digits(min(dp.power for dp in dps) * off_scale))
    loaded = load_catalog(io.StringIO(serialize_catalog(catalog)))
    assert loaded == catalog
