"""Independent slow oracles and instance generators for the test suite.

brute_force_lp enumerates candidate vertices of small LPs directly from
the constraint geometry, with none of the tableau machinery under test,
so agreement with the simplex solver is meaningful evidence.
"""

from __future__ import annotations

import itertools

import numpy as np

_FEAS_TOL = 1e-9


def brute_force_lp(objective, constraints):
    """Best vertex of {x >= 0, constraints} for tiny LPs, or None.

    A vertex activates n planes chosen from the constraint hyperplanes
    and the coordinate planes x_i = 0; equality rows are always active.
    Suitable only for feasible bounded instances (the optimum of such an
    LP lies at a vertex).  Returns (objective_value, x).
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    rows = [
        (np.asarray(coeffs, dtype=float), sense, float(rhs))
        for coeffs, sense, rhs in constraints
    ]
    planes = [(coeffs, rhs) for coeffs, _, rhs in rows]
    for i in range(n):
        axis = np.zeros(n)
        axis[i] = 1.0
        planes.append((axis, 0.0))
    eq_rows = {k for k, (_, sense, _) in enumerate(rows) if sense == "eq"}
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        if not eq_rows.issubset(combo):
            continue
        a_mat = np.array([planes[k][0] for k in combo])
        b_vec = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(a_mat, b_vec)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(a_mat @ x - b_vec)) > 1e-6:
            continue  # near-singular system, not a trustworthy vertex
        if np.min(x) < -_FEAS_TOL:
            continue
        if not _feasible(rows, x):
            continue
        value = float(c @ x)
        if best is None or value > best[0]:
            best = (value, x)
    return best


def _feasible(rows, x) -> bool:
    for coeffs, sense, rhs in rows:
        lhs = float(coeffs @ x)
        slack = _FEAS_TOL * max(1.0, abs(rhs))
        if sense == "le" and lhs > rhs + slack:
            return False
        if sense == "eq" and abs(lhs - rhs) > slack:
            return False
    return True


def random_feasible_bounded_lp(rng: np.random.Generator):
    """(objective, constraints, feasible_point) with a bounded region.

    Family A is all-inequality with nonnegative right-hand sides, so the
    origin is feasible; family B pins an equality through a known point
    and relaxes inequalities around it.  Both add a simplex-bounding row
    so the maximum is finite.
    """
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    objective = rng.uniform(-1.0, 1.0, size=n)
    constraints = []
    if rng.random() < 0.5:
        feasible_point = np.zeros(n)
        for _ in range(m):
            constraints.append((rng.uniform(-1.0, 1.0, size=n), "le", rng.uniform(0.0, 5.0)))
        constraints.append((np.ones(n), "le", rng.uniform(1.0, 10.0)))
    else:
        feasible_point = rng.uniform(0.0, 2.0, size=n)
        coeffs = rng.uniform(-1.0, 1.0, size=n)
        constraints.append((coeffs, "eq", float(coeffs @ feasible_point)))
        for _ in range(m - 1):
            row = rng.uniform(-1.0, 1.0, size=n)
            constraints.append((row, "le", float(row @ feasible_point) + rng.uniform(0.0, 3.0)))
        constraints.append((np.ones(n), "le", float(feasible_point.sum()) + rng.uniform(1.0, 5.0)))
    return objective, constraints, feasible_point


def random_catalog(rng: np.random.Generator, max_points: int = 100):
    """Random valid catalog data: (accuracies, powers, off_power)."""
    n = int(rng.integers(1, max_points + 1))
    accuracies = rng.uniform(0.05, 1.0, size=n)
    powers = rng.uniform(1e-4, 1e-2, size=n)
    off_power = float(powers.min()) * float(rng.uniform(0.0, 0.9))
    return accuracies, powers, off_power


def highs_objective(catalog, period: float, budget: float, alpha: float) -> float:
    """Optimum from SciPy's HiGHS on the allocation LP rescaled to unit
    magnitudes: time as a share of the period, utility over the largest
    utility, power over the largest power.  0 when the budget cannot
    cover the keep-alive floor."""
    from scipy.optimize import linprog

    accuracy = np.array([dp.accuracy for dp in catalog])
    power = np.array([dp.power for dp in catalog])
    utility = accuracy**alpha
    scale = float(utility.max())
    if scale == 0.0:
        return 0.0
    p_ref = float(power.max())
    res = linprog(
        -np.append(utility / scale, 0.0),
        A_ub=[np.append(power, catalog.off_power) / p_ref],
        b_ub=[budget / (p_ref * period)],
        A_eq=[np.ones(power.size + 1)],
        b_eq=[1.0],
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 2:  # infeasible
        return 0.0
    if res.status != 0:
        raise ArithmeticError(f"HiGHS status {res.status}: {res.message}")
    return -float(res.fun) * scale
