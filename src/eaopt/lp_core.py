"""Dense two-phase simplex for small maximization LPs.

Solves

    maximize   c . x
    subject to a_k . x (= | <=) b_k   for each constraint row,
               x >= 0

on a classic tableau: constraint rows first, objective row last, right-hand
side column last.  Inequality rows receive slack variables; equality rows
receive artificial variables that a phase-1 solve drives to zero, which
doubles as the infeasibility check: the LP is infeasible when the
artificials keep more than FLOOR_RTOL of their starting sum, the
allocator's keep-alive floor rule (see _tolerance).  The entering rule is the largest
positive reduced cost with lowest-index tie-breaking, the leaving rule is
the minimum-ratio test with lowest-row tie-breaking, and after a long run
of degenerate pivots the solver falls back to Bland's rule so degenerate
instances cannot cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tolerance import (
    DEGENERATE_TOL,
    DUST_ATOL,
    FLOOR_RTOL,
    PIVOT_TOL,
    RATIO_TOL,
    REDUCED_COST_TOL,
    TIE_RTOL,
)
from .allocator import INFEASIBLE, OPTIMAL

LE = "le"
EQ = "eq"

UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class StandardFormLP:
    """maximize objective . x over rows (coeffs, sense, rhs) with x >= 0."""

    objective: np.ndarray
    constraints: list

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.constraints = [
            (np.asarray(coeffs, dtype=float), sense, float(rhs))
            for coeffs, sense, rhs in self.constraints
        ]

    @property
    def n(self) -> int:
        return int(self.objective.size)

    def validate(self) -> None:
        if self.objective.ndim != 1 or self.n == 0:
            raise ValueError("objective must be a non-empty vector")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective has non-finite entries")
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        for k, (coeffs, sense, rhs) in enumerate(self.constraints):
            if coeffs.shape != (self.n,):
                raise ValueError(
                    f"constraint {k}: row length {coeffs.size} != {self.n}"
                )
            if sense not in (LE, EQ):
                raise ValueError(f"constraint {k}: unknown sense {sense!r}")
            if not (math.isfinite(rhs) and np.all(np.isfinite(coeffs))):
                raise ValueError(f"constraint {k}: non-finite data")


@dataclass
class LPSolution:
    """values is None unless the status carries a feasible iterate."""

    status: str
    values: np.ndarray | None
    objective: float
    iterations: int


@dataclass
class Tableau:
    """Constraint rows then objective row; rhs column last.

    Columns [0, n_structural) are problem variables, [slack_start,
    art_start) slacks/surpluses, [art_start, n_cols) artificials.
    Artificial columns never re-enter the basis.  The rhs cell of the
    objective row holds minus the current objective value.
    """

    matrix: np.ndarray
    basis: list
    n_structural: int
    slack_start: int
    art_start: int
    iterations: int = 0

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1] - 1

    def objective_value(self) -> float:
        return -float(self.matrix[-1, -1])

    def basic_solution(self) -> np.ndarray:
        x = np.zeros(self.n_cols)
        for i, col in enumerate(self.basis):
            x[col] = self.matrix[i, -1]
        return x


def add_slacks(lp: StandardFormLP) -> Tableau:
    """Build the initial tableau: slacks for <= rows, artificials for = rows.

    Rows with negative rhs are negated first, so a <= row may become a >=
    row needing both a surplus column and an artificial.  The starting
    basis (slacks plus artificials) is feasible by construction; whether
    the artificials can actually be driven to zero is decided by phase 1
    inside solve_lp.
    """
    lp.validate()
    n = lp.n
    rows = []
    for coeffs, sense, rhs in lp.constraints:
        if rhs < 0:
            coeffs, rhs = -coeffs, -rhs
            sense = "ge" if sense == LE else EQ
        rows.append((coeffs, sense, rhs))
    n_slack = sum(1 for _, sense, _ in rows if sense in (LE, "ge"))
    n_art = sum(1 for _, sense, _ in rows if sense in (EQ, "ge"))
    width = n + n_slack + n_art + 1
    matrix = np.zeros((len(rows) + 1, width))
    basis = []
    scol, acol = n, n + n_slack
    for i, (coeffs, sense, rhs) in enumerate(rows):
        matrix[i, :n] = coeffs
        matrix[i, -1] = rhs
        if sense == LE:
            matrix[i, scol] = 1.0
            basis.append(scol)
            scol += 1
        elif sense == "ge":
            matrix[i, scol] = -1.0
            scol += 1
            matrix[i, acol] = 1.0
            basis.append(acol)
            acol += 1
        else:
            matrix[i, acol] = 1.0
            basis.append(acol)
            acol += 1
    return Tableau(matrix, basis, n, n, n + n_slack)


def find_pivot_col(tableau: Tableau, bland: bool = False):
    """Entering column, or None when every reduced cost is <= REDUCED_COST_TOL.

    Default rule: largest positive objective-row entry, ties to the lowest
    column index.  Bland mode: lowest-index positive entry.  Artificial
    columns are never candidates.
    """
    row = tableau.matrix[-1, : tableau.art_start]
    if bland:
        improving = np.nonzero(row > REDUCED_COST_TOL)[0]
        return int(improving[0]) if improving.size else None
    col = int(np.argmax(row))
    if row[col] <= REDUCED_COST_TOL:
        return None
    return col


def find_pivot_row(tableau: Tableau, col: int, bland: bool = False):
    """Minimum-ratio leaving row, or None when the column is unbounded.

    Ties go to the lowest row index; in Bland mode, to the row whose basic
    variable has the lowest column index.
    """
    column = tableau.matrix[:-1, col]
    rhs = tableau.matrix[:-1, -1]
    eligible = column > RATIO_TOL
    if not np.any(eligible):
        return None
    ratios = np.full(column.shape, np.inf)
    ratios[eligible] = rhs[eligible] / column[eligible]
    best = float(np.min(ratios))
    ties = np.nonzero(ratios <= best + TIE_RTOL * abs(best))[0]
    if bland:
        return int(min(ties, key=lambda i: tableau.basis[i]))
    return int(ties[0])


def pivot(tableau: Tableau, row: int, col: int) -> Tableau:
    """Gauss-Jordan step making column `col` the unit column of `row`."""
    matrix = tableau.matrix
    element = matrix[row, col]
    if abs(element) < PIVOT_TOL:
        raise ValueError(f"pivot magnitude {abs(element)!r} below {PIVOT_TOL}")
    matrix[row] /= element
    factors = matrix[:, col].copy()
    factors[row] = 0.0
    matrix -= np.outer(factors, matrix[row])
    matrix[:, col] = 0.0
    matrix[row, col] = 1.0
    tableau.basis[row] = col
    rhs = matrix[:-1, -1]
    rhs[(rhs < 0.0) & (rhs > -DUST_ATOL)] = 0.0  # fp dust; real negatives are bugs
    return tableau


def _install_phase1_objective(tableau: Tableau) -> None:
    # Reduced costs for maximizing minus the artificial sum: the sum of the
    # artificial-basic rows, with the artificial columns themselves zeroed.
    obj = tableau.matrix[-1]
    obj[:] = 0.0
    for i, col in enumerate(tableau.basis):
        if col >= tableau.art_start:
            obj += tableau.matrix[i]
    obj[tableau.art_start : -1] = 0.0


def _install_phase2_objective(tableau: Tableau, c: np.ndarray) -> None:
    obj = tableau.matrix[-1]
    obj[:] = 0.0
    obj[: tableau.n_structural] = c
    for i, col in enumerate(tableau.basis):
        coef = obj[col]
        if coef != 0.0:
            obj -= coef * tableau.matrix[i]


def _drive_out_artificials(tableau: Tableau) -> None:
    # Any artificial still basic after a feasible phase 1 sits at zero; swap
    # it for a real column when one is available.  An all-zero row is a
    # redundant constraint and may keep its zero-level artificial.
    for i, col in enumerate(tableau.basis):
        if col < tableau.art_start:
            continue
        row = tableau.matrix[i, : tableau.art_start]
        candidates = np.nonzero(np.abs(row) > RATIO_TOL)[0]
        if candidates.size:
            pivot(tableau, i, int(candidates[0]))


def _run_phase(tableau, max_iterations, pivot_log, phase):
    guard = 2 * (tableau.matrix.shape[0] + tableau.matrix.shape[1])
    degenerate_run = 0
    bland = False
    while True:
        rule = "bland" if bland else "largest"
        col = find_pivot_col(tableau, bland=bland)
        if col is None:
            return OPTIMAL
        if tableau.iterations >= max_iterations:
            return ITERATION_LIMIT
        row = find_pivot_row(tableau, col, bland=bland)
        if row is None:
            return UNBOUNDED
        before = tableau.objective_value()
        pivot(tableau, row, col)
        tableau.iterations += 1
        if pivot_log is not None:
            pivot_log.append(
                f"iter={tableau.iterations} phase={phase} col={col} row={row} "
                f"rule={rule} objective={tableau.objective_value():.12g}"
            )
        if tableau.objective_value() - before < DEGENERATE_TOL:
            degenerate_run += 1
            if degenerate_run >= guard:
                bland = True  # sticky: stay cycle-proof for the rest of the phase
        else:
            degenerate_run = 0


def solve_lp(lp: StandardFormLP, max_iterations=None, pivot_log=None) -> LPSolution:
    """Two-phase simplex solve.

    max_iterations counts pivots across both phases and defaults to
    50 * (n + number of constraints).  pivot_log, when a list, receives one
    text line per pivot (iteration, phase, pivot column/row, rule,
    objective value; in phase 2 the value of c / max|c|).
    """
    lp.validate()
    if max_iterations is None:
        max_iterations = 50 * (lp.n + len(lp.constraints))
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    tableau = add_slacks(lp)
    if tableau.art_start < tableau.n_cols:
        _install_phase1_objective(tableau)
        # The phase-1 objective starts at the summed rhs of the artificial rows.
        start = float(tableau.matrix[-1, -1])
        status = _run_phase(tableau, max_iterations, pivot_log, phase=1)
        if status == ITERATION_LIMIT:
            # Ran out of pivots before reaching feasibility: no iterate to report.
            return LPSolution(ITERATION_LIMIT, None, float("nan"), tableau.iterations)
        if status == UNBOUNDED:
            raise ArithmeticError("phase-1 objective reported unbounded; numerical breakdown")
        if float(tableau.matrix[-1, -1]) > FLOOR_RTOL * start:
            return LPSolution(INFEASIBLE, None, float("nan"), tableau.iterations)
        _drive_out_artificials(tableau)
    # Price on c / max|c|, so the reduced-cost and degeneracy tests are
    # relative to the objective's own scale rather than absolute.
    c_scale = float(np.max(np.abs(lp.objective), initial=0.0))
    priced = lp.objective / c_scale if c_scale > 0.0 else lp.objective
    _install_phase2_objective(tableau, priced)
    status = _run_phase(tableau, max_iterations, pivot_log, phase=2)
    if status == UNBOUNDED:
        return LPSolution(UNBOUNDED, None, float("nan"), tableau.iterations)
    x = tableau.basic_solution()[: lp.n]
    return LPSolution(status, x, float(lp.objective @ x), tableau.iterations)
