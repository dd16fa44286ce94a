"""Every tolerance in eaopt, each with the rule it serves and what it is
relative to.  No other module defines or spells one.

Feasibility is one rule behind one constant.  A budget covers the
keep-alive floor off_power * T unless it falls short of it by more than
FLOOR_RTOL of the floor:

    allocator:  budget < off_power * T * (1 - FLOOR_RTOL)  is infeasible
    lp_core:    phase 1 ends with an artificial residual
                > FLOOR_RTOL * sum of |rhs| over the rows that carry an
                artificial  is infeasible

For the allocation LP the only row with an artificial is the time row
(rhs T), and the residual phase 1 leaves is the time no budget can pay
for, T - budget / off_power, so the two verdicts are the same inequality.
"""

# Feasibility, relative: to the keep-alive floor in the allocator, and to
# the summed |rhs| of the artificial rows in the simplex's phase 1.
FLOOR_RTOL = 1e-9

# Simplex pivoting (lp_core).  Phase 2 prices on c / max|c|, so the two
# objective-row tests below are relative to the largest objective
# coefficient there; the rest are absolute on the tableau's entries.
#
# Reduced costs at or below this are non-improving.
REDUCED_COST_TOL = 1e-12
# Objective gains below this count as degenerate steps for the cycling guard.
DEGENERATE_TOL = 1e-12
# Column entries must exceed this to join the ratio test.
RATIO_TOL = 1e-9
# Ratios within this fraction of the smallest one tie in the ratio test.
TIE_RTOL = 1e-9
# A pivot element smaller than this in magnitude is numerically unusable.
PIVOT_TOL = 1e-12
# Right-hand sides in (-DUST_ATOL, 0) after a pivot are rounding dust and
# are set to 0; a more negative one is a bug.
DUST_ATOL = 1e-11

# Counting, in units of one period (trace_to_budgets) or one step
# (budget_grid): a quotient within this of a whole number counts as that
# number, so rounding in start, stop and step adds or drops no period or
# grid point.
COUNT_SLACK = 1e-9
