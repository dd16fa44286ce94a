"""Runtime energy-accuracy optimization for energy-harvesting devices.

Given a catalog of operating modes (design points) with accuracy and
power figures, a per-period energy budget, and a trade-off exponent
alpha, the allocator computes the time split across modes that
maximizes accuracy-weighted utility.  Harvest traces turn irradiance or
stored-energy measurements into budgets, and the simulator compares the
optimizer against every static single-mode baseline over many periods.

The package imports its modules lazily (PEP 562): each public name is
imported from its module on first use, so that loading a catalog or
solving one period never imports numpy.
"""

import importlib

# The module that defines each public name.
_MODULES = {
    "allocator": (
        "Allocation",
        "AllocationProblem",
        "build_problem",
        "envelope_oracle",
        "optimize_allocation",
        "regime_map",
        "static_dp_allocation",
    ),
    "catalog": (
        "Catalog",
        "CatalogError",
        "DesignPoint",
        "builtin_table1",
        "dominates",
        "load_catalog",
        "pareto_filter",
        "pareto_partition",
        "serialize_catalog",
        "validate_catalog",
    ),
    "harvest": (
        "BudgetSeries",
        "HarvestTrace",
        "PanelModel",
        "TraceError",
        "budget_series_to_csv",
        "load_trace",
        "synth_trace",
        "trace_to_budgets",
    ),
    "lp_core": (
        "EQ",
        "INFEASIBLE",
        "ITERATION_LIMIT",
        "LE",
        "OPTIMAL",
        "UNBOUNDED",
        "LPSolution",
        "StandardFormLP",
        "solve_lp",
    ),
    "simulator": (
        "AlphaPoint",
        "PeriodColumns",
        "PeriodRecord",
        "RatioStats",
        "SimulationReport",
        "alpha_sweep_to_csv",
        "budget_grid",
        "report_to_csv",
        "report_to_json",
        "simulate",
        "sweep_alpha",
        "sweep_budget",
        "sweep_to_csv",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name from its module on first use, and keep it."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
