"""Runtime energy-accuracy optimization for energy-harvesting devices.

Given a catalog of operating modes (design points) with accuracy and
power figures, a per-period energy budget, and a trade-off exponent
alpha, the allocator computes the time split across modes that
maximizes accuracy-weighted utility.  Harvest traces turn irradiance or
stored-energy measurements into budgets, and the simulator compares the
optimizer against every static single-mode baseline over many periods.
"""

from .allocator import (
    Allocation,
    AllocationProblem,
    build_problem,
    envelope_oracle,
    optimize_allocation,
    regime_map,
    static_dp_allocation,
)
from .catalog import (
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
from .harvest import (
    BudgetSeries,
    HarvestTrace,
    PanelModel,
    TraceError,
    budget_series_to_csv,
    load_trace,
    synth_trace,
    trace_to_budgets,
)
from .lp_core import (
    EQ,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LPSolution,
    StandardFormLP,
    solve_lp,
)
from .simulator import (
    AlphaPoint,
    PeriodColumns,
    PeriodRecord,
    RatioStats,
    SimulationReport,
    alpha_sweep_to_csv,
    budget_grid,
    report_to_csv,
    report_to_json,
    simulate,
    sweep_alpha,
    sweep_budget,
    sweep_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationProblem",
    "AlphaPoint",
    "BudgetSeries",
    "Catalog",
    "CatalogError",
    "DesignPoint",
    "EQ",
    "HarvestTrace",
    "INFEASIBLE",
    "ITERATION_LIMIT",
    "LE",
    "LPSolution",
    "OPTIMAL",
    "PanelModel",
    "PeriodColumns",
    "PeriodRecord",
    "RatioStats",
    "SimulationReport",
    "StandardFormLP",
    "TraceError",
    "UNBOUNDED",
    "alpha_sweep_to_csv",
    "budget_grid",
    "budget_series_to_csv",
    "build_problem",
    "builtin_table1",
    "dominates",
    "envelope_oracle",
    "load_catalog",
    "load_trace",
    "optimize_allocation",
    "pareto_filter",
    "pareto_partition",
    "regime_map",
    "report_to_csv",
    "report_to_json",
    "serialize_catalog",
    "simulate",
    "solve_lp",
    "static_dp_allocation",
    "sweep_alpha",
    "sweep_budget",
    "sweep_to_csv",
    "synth_trace",
    "trace_to_budgets",
    "validate_catalog",
]
