"""Reader and writer for the package's CSV files: '#' metadata lines, one
header row, then comma-separated data rows.  Blank lines are skipped, and a
line equal to the header is skipped wherever it appears.

load_catalog reads every file through this loop, because a catalog has a
string column.  load_trace parses a clean file with np.loadtxt and comes
here only for a file that fast path cannot vouch for; the loop then decides
both the values and the error text.  Every CSV the package writes (catalogs,
budget traces, reports and sweeps) is rendered by write_table.
"""

from __future__ import annotations

import os


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


def write_table(header: str, columns: list, meta: tuple[str, ...] = ()) -> str:
    """A '#' line for each entry of meta, the header row, then one row per
    index of the equal-length columns.  %s spells a float as its repr and
    an int as its str; a blank cell is ""."""
    template = ",".join(["%s"] * len(columns))
    lines = [f"#{line}" for line in meta] + [header]
    lines += [template % row for row in zip(*columns)]
    return "\n".join(lines) + "\n"
