"""Design-point catalogs: a device's discrete operating modes.

A catalog lists the configurations a device can run in, each with a
classification accuracy and an average power draw, plus the keep-alive
power burned while the device is off.  This module owns CSV ingestion,
validation, canonical serialization, and Pareto-dominance filtering.

Catalog CSV format::

    #units: accuracy=percent, power=mW
    #off_power=0.05
    id,label,accuracy,power
    1,DP1,94,2.76

``#units`` declares the column units (``accuracy=percent|fraction``,
``power=mW|W``) and is required; ``#off_power`` is given in the declared
power unit and is also required.  Lines starting with ``#`` that are not
metadata are treated as comments.  Canonical serialization is fraction
accuracy and watt power at 9 significant digits.

A Catalog is immutable, so what depends on it alone is computed once per
instance and kept on it by ``functools.cached_property``: the validation
result (``validate_catalog`` copies it into a new list on each call), the
``ids`` tuple and the allocator's mode table, which in turn keeps each
alpha's utilities and envelope.  Equality, hash, repr, pickles and
copies cover the fields only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from ._table import read_table, write_table

HEADER = "id,label,accuracy,power"

_ACCURACY_SCALE = {"percent": 1e-2, "fraction": 1.0}
_POWER_SCALE = {"mW": 1e-3, "W": 1.0}


class CatalogError(ValueError):
    """Unparseable or invalid catalog data."""


@dataclass(frozen=True)
class DesignPoint:
    """One operating mode: accuracy as a fraction, power in watts.

    energy_per_activity and description are informational metadata; the
    optimizer consumes only accuracy and power.
    """

    id: int
    label: str
    accuracy: float
    power: float
    energy_per_activity: float = 0.0
    description: str = ""


@dataclass(frozen=True)
class Catalog:
    design_points: tuple[DesignPoint, ...]
    off_power: float  # watts drawn in the off (keep-alive) state

    def __len__(self) -> int:
        return len(self.design_points)

    def __iter__(self):
        return iter(self.design_points)

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(dp.id for dp in self.design_points)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(dp.label for dp in self.design_points)

    def __getstate__(self) -> dict:
        """Pickle and deepcopy take the fields only; the copy builds its
        own caches on first use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """validate_catalog's result, found once per instance."""
        return _find_problems(self)

    @cached_property
    def _modes(self):
        """The allocator's read-only mode table, built once per instance."""
        from .allocator import _Modes

        return _Modes(self)


def builtin_table1() -> Catalog:
    """Built-in five-mode wearable catalog with a 0.18 J/hour keep-alive."""
    rows = (
        (1, "DP1", 0.94, 2.76e-3, 4.48e-3,
         "3-axis accelerometer over the full 1.6 s window; statistical + 16-FFT stretch features"),
        (2, "DP2", 0.93, 2.30e-3, 3.72e-3,
         "y-axis accelerometer plus stretch sensor over the full window"),
        (3, "DP3", 0.92, 1.82e-3, 2.94e-3,
         "x/y accelerometer sampled for 0.8 s plus stretch sensor"),
        (4, "DP4", 0.90, 1.64e-3, 2.66e-3,
         "x/y accelerometer sampled for 0.6 s plus stretch sensor"),
        (5, "DP5", 0.76, 1.20e-3, 1.93e-3,
         "stretch sensor only"),
    )
    return Catalog(tuple(DesignPoint(*row) for row in rows), off_power=5.0e-5)


def validate_catalog(catalog: Catalog) -> list[str]:
    """Invariant violations as human-readable strings; empty when valid.

    The checks run once per catalog object; each call returns a new list."""
    return list(catalog._problems)


def _find_problems(catalog: Catalog) -> tuple[str, ...]:
    problems = []
    dps = catalog.design_points
    if not dps:
        problems.append("catalog has no design points")
    if not math.isfinite(catalog.off_power) or catalog.off_power < 0:
        problems.append(f"off_power {catalog.off_power!r} W must be finite and >= 0")
    seen: dict[int, str] = {}
    for dp in dps:
        if dp.id in seen:
            problems.append(f"duplicate id {dp.id} ({seen[dp.id]}, {dp.label})")
        else:
            seen[dp.id] = dp.label
        if not (math.isfinite(dp.accuracy) and 0.0 < dp.accuracy <= 1.0):
            problems.append(f"{dp.label}: accuracy {dp.accuracy!r} outside (0, 1]")
        if not (math.isfinite(dp.power) and dp.power > 0.0):
            problems.append(f"{dp.label}: power {dp.power!r} W must be > 0")
    valid_powers = [dp for dp in dps if math.isfinite(dp.power) and dp.power > 0]
    if valid_powers and math.isfinite(catalog.off_power):
        lowest = min(valid_powers, key=lambda dp: dp.power)
        if catalog.off_power >= lowest.power:
            problems.append(
                f"off_power {catalog.off_power!r} W is not below the lowest "
                f"design-point power ({lowest.label} at {lowest.power!r} W)"
            )
    return tuple(problems)


def dominates(a: DesignPoint, b: DesignPoint) -> bool:
    """Weak dominance: a is no worse on power and accuracy, better on one."""
    return (
        a.power <= b.power
        and a.accuracy >= b.accuracy
        and (a.power < b.power or a.accuracy > b.accuracy)
    )


def pareto_partition(catalog: Catalog):
    """Split design points into (kept, removed-with-dominator), order kept.

    Exact (power, accuracy) duplicates keep the first occurrence; later
    copies are removed and report the first copy as their dominator.
    """
    dps = catalog.design_points
    kept = []
    removed = []
    for i, dp in enumerate(dps):
        dominator = next((o for o in dps if o is not dp and dominates(o, dp)), None)
        if dominator is not None:
            removed.append((dp, dominator))
            continue
        twin = next(
            (o for o in dps[:i] if o.power == dp.power and o.accuracy == dp.accuracy),
            None,
        )
        if twin is not None:
            removed.append((dp, twin))
            continue
        kept.append(dp)
    return tuple(kept), tuple(removed)


def pareto_filter(catalog: Catalog) -> Catalog:
    """Catalog restricted to non-dominated design points, order preserved."""
    kept, _ = pareto_partition(catalog)
    return Catalog(kept, catalog.off_power)


def _parse_row(parts: list[str]) -> tuple[int, str, float, float]:
    return int(parts[0]), parts[1], float(parts[2]), float(parts[3])


def load_catalog(source) -> Catalog:
    """Parse a catalog CSV from a path or file-like object.

    Raises CatalogError with a line number on malformed rows and with the
    full violation list when the parsed catalog breaks an invariant.
    """
    meta, rows, _ = read_table(source, HEADER, _parse_row, CatalogError)
    units: dict[str, str] = {}
    units_line = None
    off_power_raw = None
    for lineno, body in meta:
        if body.startswith("units:"):
            units_line = lineno
            for item in body[len("units:"):].split(","):
                item = item.strip()
                if not item:
                    continue
                key, sep, value = item.partition("=")
                if not sep:
                    raise CatalogError(f"line {lineno}: bad units entry {item!r}")
                units[key.strip()] = value.strip()
        elif body.startswith("off_power="):
            try:
                off_power_raw = float(body[len("off_power="):])
            except ValueError:
                raise CatalogError(f"line {lineno}: bad off_power value") from None
        # other #-lines are comments
    if not rows:
        raise CatalogError("no design points")
    if "accuracy" not in units or "power" not in units:
        raise CatalogError("missing '#units: accuracy=..., power=...' metadata line")
    if units["accuracy"] not in _ACCURACY_SCALE:
        raise CatalogError(f"line {units_line}: unknown accuracy unit {units['accuracy']!r}")
    if units["power"] not in _POWER_SCALE:
        raise CatalogError(f"line {units_line}: unknown power unit {units['power']!r}")
    if off_power_raw is None:
        raise CatalogError("missing '#off_power=<value>' metadata line")
    acc_scale = _ACCURACY_SCALE[units["accuracy"]]
    pow_scale = _POWER_SCALE[units["power"]]
    dps = tuple(
        DesignPoint(dp_id, label, accuracy * acc_scale, power * pow_scale)
        for dp_id, label, accuracy, power in rows
    )
    catalog = Catalog(dps, off_power_raw * pow_scale)
    problems = validate_catalog(catalog)
    if problems:
        raise CatalogError("; ".join(problems))
    return catalog


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def serialize_catalog(catalog: Catalog) -> str:
    """Canonical CSV: fraction accuracy, watt power, 9 significant digits."""
    dps = catalog.design_points
    for dp in dps:
        if "," in dp.label or "\n" in dp.label or dp.label.startswith("#"):
            raise CatalogError(f"label {dp.label!r} cannot be written to CSV")
    meta = ("units: accuracy=fraction, power=W", f"off_power={_fmt(catalog.off_power)}")
    columns = [[dp.id for dp in dps], [dp.label for dp in dps],
               [_fmt(dp.accuracy) for dp in dps], [_fmt(dp.power) for dp in dps]]
    return write_table(HEADER, columns, meta)
