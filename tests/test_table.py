"""The shared '#'-metadata CSV reader, through each loader that uses it."""

import io

import pytest

from eaopt.catalog import CatalogError, load_catalog
from eaopt.harvest import TraceError, load_budget_series, load_trace

# loader, its error type, metadata lines, header, a good row, a row with
# one field too many or too few, and a row with a non-numeric field.
LOADERS = {
    "catalog": (
        load_catalog, CatalogError,
        ["#units: accuracy=fraction, power=W", "#off_power=1e-5"],
        "id,label,accuracy,power", "1,A,0.9,0.002", "2,B,0.8", "2,B,high,0.001",
    ),
    "trace": (
        load_trace, TraceError,
        ["#mode: irradiance"],
        "timestamp,value", "0,1", "60,1,2", "60,x",
    ),
    "budget series": (
        load_budget_series, TraceError,
        ["# hourly budgets"],
        "period_start,budget_joules", "0,1", "3600,1,2", "3600,x",
    ),
}


@pytest.mark.parametrize("fault", ["data before header", "field count", "non-numeric"])
@pytest.mark.parametrize("name", list(LOADERS))
def test_malformed_rows_name_their_line(name, fault):
    load, error, meta, header, good, short, bad = LOADERS[name]
    if fault == "data before header":
        lines = meta + [good, header]
        lineno, message = len(meta) + 1, "expected header"
    else:
        # The blank line still counts towards the line number.
        lines = meta + [header, good, "", short if fault == "field count" else bad]
        lineno = len(meta) + 4
        message = "expected . fields" if fault == "field count" else "bad numeric field"
    with pytest.raises(error, match=f"^line {lineno}: {message}"):
        load(io.StringIO("\n".join(lines) + "\n"))
