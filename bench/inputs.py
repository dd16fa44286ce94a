"""Seeded input generators for the benchmark workloads.

Every input a workload hands to eaopt is drawn here from one
``numpy.random.Generator`` seeded by the benchmark's ``--seed``, so the
same seed always produces the same files and values.  The program only
ever sees the generated files (trace and catalog CSVs) or plain numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PERIOD = 3600.0  # seconds per harvest period, the CLI default

# year-hourly: minute-resolution irradiance for a whole year.
YEAR_DAYS = 365
YEAR_PEAK_W_M2 = 10.0  # the CLI's synthetic default: a small indoor panel
YEAR_NOISE = 0.3

# wide-catalog: single decisions on large generated catalogs.
WIDE_ALPHAS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0)
WIDE_CATALOGS = 4
WIDE_DPS = 1000
WIDE_BUDGETS_PER_ALPHA = 64  # per catalog: 4 * 8 * 64 = 2048 decisions
WIDE_OFF_POWER_MW = 0.01
WIDE_ACCURACY_PERCENT = (5.0, 99.9)
WIDE_POWER_MW = (0.05, 50.0)  # drawn log-uniformly

# alpha-sweep: the README's trace sweep and budget grid.
SWEEP_DAYS = 30
SWEEP_NOISE = 0.3
SWEEP_ALPHAS = (0.5, 1.0, 2.0, 4.0, 8.0)
SWEEP_GRID = (0.18, 10.0, 0.01)  # start, stop, step in joules; 983 points
SWEEP_GRID_ALPHA = 1.0

# The two small-utility catalogs of ROADMAP item 4, on which the simplex
# stops early and still reports "optimal".  Rows are (accuracy %, mW).
REPRODUCERS = (
    # name, rows, off power (mW), budget (J), alpha
    ("small-utility-2dp", ((50.0, 1.0), (60.0, 2.0)), 0.01, 5.0, 40.0),
    ("small-utility-3dp", ((5.0, 1.0), (10.0, 2.0), (20.0, 3.0)), 0.01, 5.0, 12.0),
)


@dataclass(frozen=True)
class CatalogFile:
    """A generated catalog CSV and the values written into it (SI units)."""

    path: Path
    accuracy: np.ndarray  # fractions
    power: np.ndarray  # watts
    off_power: float  # watts


def _sig4(values: np.ndarray) -> np.ndarray:
    """Round to the 4 significant digits the CSV carries."""
    return np.array([float(f"{v:.4g}") for v in values.tolist()])


def write_catalog(path: Path, accuracy_pct, power_mw, off_power_mw: float) -> CatalogFile:
    """Write a percent/mW catalog CSV with ids 1..N and labels DP1..DPN."""
    lines = ["#units: accuracy=percent, power=mW", f"#off_power={off_power_mw!r}",
             "id,label,accuracy,power"]
    for i, (acc, pw) in enumerate(zip(list(map(float, accuracy_pct)), list(map(float, power_mw))), start=1):
        lines.append(f"{i},DP{i},{acc!r},{pw!r}")
    path.write_text("\n".join(lines) + "\n")
    return CatalogFile(
        path,
        np.asarray(accuracy_pct, dtype=float) * 1e-2,
        np.asarray(power_mw, dtype=float) * 1e-3,
        off_power_mw * 1e-3,
    )


def write_wide_catalog(path: Path, rng: np.random.Generator) -> CatalogFile:
    """1000 design points with accuracies spread from 5% to 99.9%."""
    accuracy = _sig4(rng.uniform(*WIDE_ACCURACY_PERCENT, size=WIDE_DPS))
    lo, hi = (math.log(p) for p in WIDE_POWER_MW)
    power = _sig4(np.exp(rng.uniform(lo, hi, size=WIDE_DPS)))
    return write_catalog(path, accuracy, power, WIDE_OFF_POWER_MW)


def saturation_power(cat: CatalogFile, alpha: float) -> float:
    """Power of the highest-utility design point (cheapest on ties): past
    this mean power the optimum stops improving."""
    utility = cat.accuracy**alpha
    best = np.flatnonzero(utility == utility.max())
    return float(cat.power[best].min())


def wide_budgets(cat: CatalogFile, alpha: float, rng: np.random.Generator) -> list[float]:
    """Budgets spread between just above the keep-alive floor and saturation."""
    floor = cat.off_power * PERIOD * 1.001
    top = saturation_power(cat, alpha) * PERIOD
    return rng.uniform(floor, top, size=WIDE_BUDGETS_PER_ALPHA).tolist()


def write_year_trace(path: Path, rng: np.random.Generator) -> tuple[int, float]:
    """One-minute irradiance for a year: half-sine days, zero nights.

    Each sunlit sample carries multiplicative noise in [0.7, 1.3].
    Returns the number of samples written (525,600) and the irradiance
    integral in J/m2, the total that trace_to_budgets must conserve.
    """
    per_day = 1440
    phase = 2.0 * (np.arange(per_day * YEAR_DAYS) % per_day + 0.5) / per_day  # < 1 by day
    values = np.where(phase < 1.0, YEAR_PEAK_W_M2 * np.sin(np.pi * np.minimum(phase, 1.0)), 0.0)
    values = values * rng.uniform(1.0 - YEAR_NOISE, 1.0 + YEAR_NOISE, size=values.size)
    with open(path, "w") as fh:
        fh.write("#mode: irradiance\n#units: W/m2\ntimestamp,value\n")
        fh.writelines(f"{60 * i},{v!r}\n" for i, v in enumerate(values.tolist()))
    return int(values.size), float(values.sum()) * 60.0
