"""The shared '#'-metadata CSV reader, through each loader that uses it,
the np.loadtxt fast path of the trace loader against it, on lists of lines
and on files, and the float speller every writer uses."""

import io
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eaopt._table import float_words, read_table
from eaopt.catalog import CatalogError, load_catalog
from eaopt import harvest
from eaopt.harvest import (
    TRACE_HEADER,
    TraceError,
    _count_lines,
    _loadtxt_pairs,
    _parse_pair,
    _read_pairs,
    load_trace,
)

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


def loop_pairs(source):
    """_read_pairs as the line loop alone: the reference for its fast path."""
    meta, rows, lines = read_table(source, TRACE_HEADER, _parse_pair, TraceError)
    return meta, np.array([a for a, _ in rows]), np.array([b for _, b in rows]), lines


def outcome(read, source):
    """What read gives for source, a text read through io.StringIO or a
    Path: its four results with each array as its dtype, shape and bytes
    (so NaN payloads and -0.0 count), or the TraceError text."""
    try:
        meta, first, second, lines = read(io.StringIO(source) if isinstance(source, str) else source)
    except TraceError as exc:
        return str(exc)
    columns = [(a.dtype.str, a.shape, a.tobytes()) for a in (first, second)]
    return meta, columns, list(lines)


def write_trace(directory: Path, text: str) -> Path:
    """text in a file, written as bytes so that '\\r\\n', a lone '\\r' and a
    missing last newline reach the disk as they are."""
    path = directory / "trace.csv"
    path.write_bytes(text.encode())
    return path


# Field spellings float() and np.loadtxt may read differently, or not at all.
FIELDS = ["0", "-0.0", "1.5", "+4", ".5", "5.", "1e400", "-1e-320", "nan", "-nan",
          "inf", "-Infinity", "iNf", " 3 ", "\t7", "\xa08\xa0", "1_000", "0x10", "", "x",
          "1 2", "1\x1c", "٣", '"1"', "1 # note", "#9", "\x00"]
field = st.one_of(st.sampled_from(FIELDS), st.floats().map(repr))
clean_field = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def pair_csv(draw):
    """A two-column trace CSV: '#' and blank lines, a header, then rows.
    Most files are clean numeric rows; the rest mix in stray lines and
    fields."""
    clean = draw(st.booleans())
    head = draw(st.lists(st.sampled_from(["#mode: irradiance", "# note", "", "  "]),
                         max_size=3))
    lines = head + [draw(st.sampled_from([TRACE_HEADER, "timestamp , value"]))]
    cells = clean_field if clean else field
    rows = st.lists(cells, min_size=2, max_size=2).map(",".join)
    if not clean:
        rows = st.one_of(rows, st.sampled_from([TRACE_HEADER, "", " ", "#mode: budget",
                                                "1", "1,2,3", "1,2 # x", "0,1\r2,3"]))
    lines += draw(st.lists(rows, max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=300, deadline=None)
@given(text=pair_csv())
def test_read_pairs_matches_the_line_loop(text, tmp_path_factory):
    assert outcome(_read_pairs, text) == outcome(loop_pairs, text)
    # A path is parsed from its open file, and text mode reads its newlines.
    path = write_trace(tmp_path_factory.getbasetemp(), text)
    assert outcome(_read_pairs, path) == outcome(loop_pairs, path)


H = "#mode: irradiance\ntimestamp,value\n"


# Files only the read_table loop can read, then files np.loadtxt reads.
FALLBACK = {
    "meta-after-header": H + "0,1\n#mode: budget\n60,2\n",
    "inline-comment": H + "0,1 # first\n60,2\n",
    "repeated-header": H + "0,1\ntimestamp,value\n60,2\n",
    "three-fields": H + "0,1\n60,2,3\n",
    "one-field": H + "0,1\n60\n",
    "underscore": H + "0,1_000\n",  # float() reads it, the C parser does not
    "blank-line": H + "0,1\n\n60,2\n",
    "whitespace-line": H + "0,1\n   \n60,2\n",
    "empty-body": H + "\n\n",
    "data-before-header": "0,1\n" + H,
    "header-only": H,
    "no-header": "#mode: irradiance\n",
    "empty-file": "",
    # A lone '\r' ends a line in a file, not in a list of lines.
    "lone-cr": H + "0,1\r60,2\n",
    "lone-cr-in-head": "#mode: irradiance\rtimestamp,value\n0,1\n",
    "cr-before-crlf": H + "0,1\r\r\n60,2\r\n",
    "short-last-row-unterminated": H + "0,1\n60",
    "header-unterminated": H[:-1],
}
FAST = {
    "crlf": H + "0,1\r\n60,2\r\n",
    "crlf-unterminated": H.replace("\n", "\r\n") + "0,1\r\n60,2",
    "crlf-then-lone-cr": H + "0,1\r\n60,2\r",  # a file leaves it to the list path
    "no-trailing-newline": H + "0,1\n60,2",
    "one-row-unterminated": H + "0,1",
    "one-row": H + "0,1\n",
    "padded": "\n" + H + " 0 , 1 \n60,\tnan\n",
}


def fast_path(read, *args):
    """What a fast path gives: its result, None, or the TraceError text."""
    try:
        return read(*args)
    except TraceError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(FALLBACK) + list(FAST))
def test_read_pairs_matches_the_line_loop_on(name, tmp_path):
    text = {**FALLBACK, **FAST}[name]
    expected = outcome(loop_pairs, text)
    assert outcome(_read_pairs, text) == expected
    lines = io.StringIO(text).readlines()
    fast = fast_path(_loadtxt_pairs, iter(lines), len(lines))
    path = write_trace(tmp_path, text)
    expected_from_file = outcome(loop_pairs, path)
    assert outcome(_read_pairs, path) == expected_from_file
    with open(path) as fh:
        total = _count_lines(fh)
        streamed = None if total is None else fast_path(_loadtxt_pairs, fh, total)
    if name in FAST:
        assert isinstance(fast, tuple)
        # A file with a '\r' outside a '\r\n' is left to the list of its lines.
        assert isinstance(streamed, tuple) == ("\r" not in text.replace("\r\n", ""))
    else:
        # None, or the loop's own error for a data line before the header.
        assert fast is None or fast == expected
        assert streamed is None or streamed == expected_from_file


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_path_is_read_as_its_lines(tmp_path):
    """A path that cannot seek, such as a named pipe or /dev/stdin, is
    read once, as the list of its lines."""
    text = H + "0,1\n60,2\n"
    pipe = tmp_path / "trace.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        assert outcome(_read_pairs, pipe) == outcome(loop_pairs, text)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.mark.parametrize("at", [0, 40, 9000, 30_000])
def test_file_that_does_not_decode_reads_as_the_loop_reads_it(tmp_path, at):
    """A byte UTF-8 rejects, in the head, in the first block of the body
    or far past it, raises the loop's UnicodeDecodeError (or, in another
    locale encoding, reads as the loop reads it)."""
    text = bytearray((H + "".join(f"{60 * i},{i % 7}.5\n" for i in range(3000))).encode())
    text[at] = 0xFF
    path = tmp_path / "trace.csv"
    path.write_bytes(bytes(text))
    results = []
    for read in (_read_pairs, loop_pairs):
        try:
            results.append(outcome(read, path))
        except UnicodeDecodeError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


@pytest.mark.parametrize("scan", [1, 2, 3, 5, 1 << 20])
def test_line_count_pairs_a_crlf_split_between_reads(scan, tmp_path, monkeypatch):
    """_count_lines reads _SCAN_BYTES at a time: a '\\r\\n' split between two
    reads still counts as one line end, and a '\\r' that ends a read and is
    not followed by '\\n' still sends the file to the list of its lines."""
    monkeypatch.setattr(harvest, "_SCAN_BYTES", scan)
    crlf = (H + "0,1\n60,2\n120,3").replace("\n", "\r\n")
    for text, expected in [(crlf, 5), (crlf + "\r\n", 5), (crlf + "\r", None),
                           (crlf.replace("\r\n60", "\r60"), None), ("\r", None),
                           ("\r\n", 1), ("", 0)]:
        with open(write_trace(tmp_path, text)) as fh:
            assert _count_lines(fh) == expected
            assert fh.read() == io.StringIO(text, newline=None).read()  # rewound


def test_failing_body_is_parsed_by_np_loadtxt_once(tmp_path, monkeypatch):
    """A file whose body np.loadtxt rejects goes from the streamed parse
    straight to the read_table loop, which gives its error."""
    text = H + "".join(f"{60 * i},1\n" for i in range(2000)) + "120000,x\n"
    path = write_trace(tmp_path, text)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))
    assert outcome(_read_pairs, path) == "line 2003: bad numeric field in '120000,x'"
    assert len(calls) == 1
    assert outcome(loop_pairs, path) == outcome(_read_pairs, path)


def test_value_check_counts_blank_body_lines():
    text = H + "0,1\n\n60,-2\n"
    with pytest.raises(TraceError) as excinfo:
        load_trace(io.StringIO(text))
    assert str(excinfo.value) == "line 5: negative value -2.0"


# Bit patterns that float comparisons get wrong: -0.0 beside 0.0, NaNs
# with other signs and payloads, infinities and the smallest subnormal.
TRAPS = [0, -(2**63), 0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001,
         0x7FF0000000000000, -0x0010000000000000, 1, -(2**63) + 1, 0x7FEFFFFFFFFFFFFF]


@settings(max_examples=200, deadline=None)
@given(columns=st.integers(1, 4),
       bits=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=48))
@example(columns=2, bits=TRAPS)
@example(columns=3, bits=[7, 7, 7, 7, -(2**63), 0])
def test_float_words_spell_each_value(columns, bits):
    """Every word of a 2-D array is its value's repr, or its json.dumps
    with json.dumps as the non-finite speller, whatever the bit pattern."""
    bits = bits[: len(bits) // columns * columns]
    values = np.array(bits, dtype=np.int64).reshape(-1, columns).view(np.float64)
    floats = values.tolist()
    assert float_words(values).tolist() == [[repr(v) for v in row] for row in floats]
    assert float_words(values, json.dumps).tolist() == [
        [json.dumps(v) for v in row] for row in floats
    ]
