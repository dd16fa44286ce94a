"""Reader and writer for the package's CSV files: '#' metadata lines, one
header row, then comma-separated data rows.  Blank lines are skipped, and a
line equal to the header is skipped wherever it appears.

read_table reads every CSV's metadata and header: a catalog's whole file,
because it has a string column, and a trace's up to its header.  load_trace
gives the rest to np.loadtxt, straight from the open file when it reads a
path, and sends the whole file through the loop only where that fast path
cannot vouch for the body.  write_table renders every CSV the package
writes: catalogs, budget traces, reports and sweeps; the report's CSV is
written a chunk of rows at a time through write_rows.

float_words is the one speller of float arrays for every writer, CSV and
JSON: it spells each distinct bit pattern once and gathers the words back
into place.  Half the periods of a simulated year are the same zero-budget
night, so most cells repeat.

numpy is imported by float_words only, when it is called: read_table, and
so loading a catalog, runs without it, and so does write_rows when no
column is a numpy array, as in a catalog's text.
"""

from __future__ import annotations

import os
import sys


def read_table(source, header: str, parse, error: type[Exception]):
    """Split a CSV from a path, or from a file-like object or list of
    lines, into metadata and parsed data rows.

    parse maps one row's stripped fields to a row value and
    raises ValueError on a bad field.  Data before the header, a field
    count other than the header's, or a field parse rejects raise error
    naming the line.  Returns (meta, rows, lines): meta holds (line
    number, text after '#') for every '#' line, rows the parsed rows, and
    lines each row's line number.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            return read_table(fh, header, parse, error)
    names = header.split(",")
    meta: list[tuple[int, str]] = []
    rows = []
    lines: list[int] = []
    header_seen = False
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta.append((lineno, line[1:].strip()))
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts == names:
            header_seen = True
            continue
        if not header_seen:
            raise error(f"line {lineno}: expected header {header!r} before data rows")
        if len(parts) != len(names):
            raise error(f"line {lineno}: expected {len(names)} fields, got {len(parts)}")
        try:
            rows.append(parse(parts))
        except ValueError:
            raise error(f"line {lineno}: bad numeric field in {line!r}") from None
        lines.append(lineno)
    return meta, rows, lines


def float_words(values: np.ndarray, nonfinite=repr) -> np.ndarray:
    """Each value of a float64 array as repr spells it, or as nonfinite
    spells it when NaN or infinite, in an object array of the same shape.

    Values are keyed on their bit patterns, not compared as floats:
    np.unique would merge -0.0 with 0.0.  The distinct patterns are spelled
    by one repr of their list, split on ", ".
    """
    import numpy as np

    values = np.ascontiguousarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
    distinct = keys.view(np.float64)
    words = repr(distinct.tolist())[1:-1].split(", ")
    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
        words[i] = nonfinite(distinct[i].item())
    return np.array(words, dtype=object)[inverse].reshape(values.shape)


def write_table(header: str, columns: list, meta: tuple[str, ...] = ()) -> str:
    """A '#' line for each entry of meta, the header row, then write_rows
    of the columns."""
    return "".join([f"#{line}\n" for line in meta] + [header + "\n", write_rows(columns)])


def write_rows(columns: list) -> str:
    """One line per index of the equal-length columns, each ending in a
    newline.

    The float64 array columns are spelled together by float_words, as repr
    spells each value.  Any other column's cells go through %s: an int as
    its str, a word, a label or "" as itself.  No column can be an array
    before numpy is loaded, so this imports numpy only through float_words."""
    np = sys.modules.get("numpy")
    columns = list(columns)
    floats = [] if np is None else [k for k, c in enumerate(columns)
                                    if isinstance(c, np.ndarray) and c.dtype == np.float64]
    if floats:
        words = float_words(np.stack([columns[k] for k in floats])).tolist()
        for k, column in zip(floats, words):
            columns[k] = column
    template = ",".join(["%s"] * len(columns)) + "\n"
    return "".join([template % row for row in zip(*columns)])
