"""What the package imports, in fresh interpreters: one decision, the
Pareto split, the budget sweep and loading or writing a catalog run
without numpy, and the package's public names resolve lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eaopt

SRC = Path(__file__).resolve().parent.parent / "src"

CATALOG = """#units: accuracy=percent, power=mW
#off_power=0.05
id,label,accuracy,power
1,DP1,94,2.76
2,DP2,76,1.2
"""


def _imported(args: list[str], cwd: Path) -> list[str]:
    """The modules a fresh python with these arguments imports, read off
    its -X importtime report; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    rows = [line.split("|") for line in done.stderr.splitlines()
            if line.startswith("import time:")]
    return [row[-1].strip() for row in rows[1:]]  # the first row is the column header


def _numpy(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "numpy" or m.startswith("numpy.")]


@pytest.mark.parametrize("command", [["optimize", "--budget", "5"], ["pareto"]])
def test_single_decision_commands_import_no_numpy(command, tmp_path):
    modules = _imported(["-m", "eaopt", *command], tmp_path)
    assert "eaopt.allocator" in modules
    assert _numpy(modules) == []


def test_budget_sweep_imports_no_numpy(tmp_path):
    """sweep --budget-range decides each budget in Python floats."""
    modules = _imported(["-m", "eaopt", "sweep", "--budget-range", "0.18:10:0.1"], tmp_path)
    assert "eaopt._sweep" in modules
    assert _numpy(modules) == []


def test_loading_a_catalog_imports_no_numpy(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(CATALOG)
    code = f"import eaopt; eaopt.builtin_table1(); eaopt.load_catalog({str(path)!r})"
    modules = _imported(["-c", code], tmp_path)
    assert "eaopt._table" in modules  # imported by eaopt.catalog
    assert _numpy(modules) == []


def test_writing_a_catalog_imports_no_numpy(tmp_path):
    """serialize_catalog writes text columns only, through the same row
    writer as the reports."""
    code = ("import sys, eaopt; text = eaopt.serialize_catalog(eaopt.builtin_table1()); "
            "assert text.startswith('#'), text; assert 'numpy' not in sys.modules")
    modules = _imported(["-c", code], tmp_path)
    assert "eaopt._table" in modules
    assert _numpy(modules) == []


def test_simulate_imports_numpy(tmp_path):
    """The guard above can fail: a command that needs arrays shows numpy."""
    assert _numpy(_imported(["-m", "eaopt", "simulate", "--trace", "synth:1d"], tmp_path))


def test_trace_sweep_imports_numpy(tmp_path):
    """sweep over a trace still solves arrays of budgets."""
    command = ["sweep", "--trace", "synth:1d", "--alpha-list", "1"]
    assert _numpy(_imported(["-m", "eaopt", *command], tmp_path))


class TestLazyPackage:
    def test_every_public_name_resolves(self):
        for name in eaopt.__all__:
            assert getattr(eaopt, name) is not None

    def test_dir_covers_all(self):
        assert set(eaopt.__all__) <= set(dir(eaopt))
        assert "__version__" in dir(eaopt)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from eaopt import *", namespace)
        for name in eaopt.__all__:
            assert namespace[name] is getattr(eaopt, name)

    def test_names_are_their_modules_objects(self):
        from eaopt import allocator, lp_core

        assert eaopt.optimize_allocation is allocator.optimize_allocation
        assert eaopt.OPTIMAL is lp_core.OPTIMAL is allocator.OPTIMAL
        assert eaopt.INFEASIBLE is lp_core.INFEASIBLE is allocator.INFEASIBLE

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            eaopt.nonesuch  # noqa: B018
        assert not hasattr(eaopt, "nonesuch")
