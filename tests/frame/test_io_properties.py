"""CSV round-trip and chunked-scan property tests.

Three invariants, fuzzed with hypothesis:

* ``read_csv(write_csv(frame))`` reproduces the frame (values, missingness
  and dtypes), including strings containing quotes, delimiters, embedded
  newlines and non-ASCII text;
* concatenating the chunks of ``scan_csv`` reproduces ``read_csv`` of the
  same file for any chunk size — i.e. the quote-aware layout scanner never
  splits a record, even when quoted fields span physical lines;
* the layout pass ends records where ``csv.reader`` does, whatever block
  size it reads the file in.

Dtypes are pinned explicitly on re-read: CSV carries no type information, so
"the same frame back" is only well-defined relative to a declared schema
(write ∘ read with inferred dtypes may legally widen, e.g. the strings
``["1", "2"]`` rendering identically to the integers ``[1, 2]``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame.frame import DataFrame, concat_rows
from repro.frame.io import read_csv, scan_csv, write_csv

# Strings exercising the CSV quoting machinery: delimiters, double quotes,
# embedded newlines (LF and CRLF), unicode, leading/trailing spaces.  Empty
# strings are excluded — they render as the missing token by design.
tricky_text = st.text(
    alphabet=st.sampled_from(list('abzZ09µλ中 ,;"\'\n\r')),
    min_size=1, max_size=12,
)

finite_floats = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)


@st.composite
def frames(draw):
    """A DataFrame with int, float and tricky-string columns plus missing."""
    n_rows = draw(st.integers(min_value=0, max_value=40))

    def column(value_strategy):
        return draw(st.lists(st.one_of(st.none(), value_strategy),
                             min_size=n_rows, max_size=n_rows))

    return DataFrame({
        "ints": column(st.integers(min_value=-10**9, max_value=10**9)),
        "floats": column(finite_floats),
        "words": column(tricky_text),
    })


def assert_frames_equal(left: DataFrame, right: DataFrame) -> None:
    assert left.columns == right.columns
    assert len(left) == len(right)
    for name in left.columns:
        first, second = left.column(name), right.column(name)
        assert first.dtype is second.dtype, name
        np.testing.assert_array_equal(first.isna(), second.isna(), err_msg=name)
        for a, b in zip(first.to_list(), second.to_list()):
            if a is None or b is None:
                assert a is b, name
            elif isinstance(a, float):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12), name
            else:
                assert a == b, name


@given(frame=frames())
@settings(max_examples=60, deadline=None)
def test_write_read_round_trip(frame, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("roundtrip") / "frame.csv")
    write_csv(frame, path)
    back = read_csv(path, dtypes=frame.dtypes)
    assert_frames_equal(back, frame)


@given(frame=frames(), chunk_rows=st.integers(min_value=1, max_value=17))
@settings(max_examples=60, deadline=None)
def test_scan_chunks_concat_equals_read(frame, chunk_rows, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("scan") / "frame.csv")
    write_csv(frame, path)
    eager = read_csv(path, dtypes=frame.dtypes)
    scan = scan_csv(path, chunk_rows=chunk_rows, dtypes=frame.dtypes)

    assert scan.n_rows == len(eager)
    assert scan.columns == eager.columns
    chunks = list(scan.chunks())
    assert all(len(chunk) <= chunk_rows for chunk in chunks)
    streamed = concat_rows([chunk for chunk in chunks if len(chunk)]) \
        if any(len(chunk) for chunk in chunks) else chunks[0]
    assert_frames_equal(streamed, eager)
    # Row boundaries from the layout scan must match the parsed chunk sizes.
    for chunk, (start, stop) in zip(chunks, scan.boundaries):
        assert len(chunk) == stop - start


def test_scan_handles_ragged_and_blank_lines(tmp_path):
    """Hand-written CSV with ragged rows and blank lines: scan == read."""
    text = ('a,b,c\n'
            '1,2,3\n'
            '\n'                      # blank line is skipped
            '4,5\n'                   # short row padded
            '6,7,8,9\n'               # long row truncated
            '10,11,12\n')
    path = tmp_path / "ragged.csv"
    path.write_text(text, encoding="utf-8")
    eager = read_csv(str(path))
    scan = scan_csv(str(path), chunk_rows=2, dtypes=eager.dtypes)
    assert scan.n_rows == len(eager) == 4
    assert_frames_equal(scan.to_frame(), read_csv(str(path), dtypes=eager.dtypes))


def test_scan_quoted_newlines_across_chunk_boundaries(tmp_path):
    """Records with embedded newlines must never be split between chunks."""
    rows = []
    for index in range(25):
        rows.append(f'line1-{index}\nline2-{index}' if index % 3 == 0
                    else f'plain-{index}')
    frame = DataFrame({"x": list(range(25)), "text": rows})
    path = tmp_path / "quoted.csv"
    write_csv(frame, str(path))
    for chunk_rows in (1, 2, 3, 7, 25, 100):
        scan = scan_csv(str(path), chunk_rows=chunk_rows, dtypes=frame.dtypes)
        assert scan.n_rows == 25
        assert_frames_equal(scan.to_frame(), frame)


def test_scan_empty_data_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n", encoding="utf-8")
    scan = scan_csv(str(path))
    assert scan.columns == ["a", "b"]
    assert scan.n_rows == 0
    assert len(scan.to_frame()) == 0


def test_scan_budget_caps_chunk_size(tmp_path):
    frame = DataFrame({"x": list(range(5_000)),
                       "y": [float(i) * 1.5 for i in range(5_000)]})
    path = tmp_path / "big.csv"
    write_csv(frame, str(path))
    tight = scan_csv(str(path), chunk_rows=5_000, budget_bytes=64 * 1024)
    assert tight.layouts[0].chunk_rows < 5_000
    assert tight.n_chunks > 1
    assert_frames_equal(tight.to_frame(), read_csv(str(path),
                                                   dtypes=tight.dtypes))


def test_scan_parses_leniently_past_the_inference_preview(tmp_path):
    """A value contradicting the preview-inferred dtype must degrade to a
    missing cell (as documented), never abort the scan."""
    lines = ["x,label"] + [f"{i},ok" for i in range(50)]
    lines.insert(40, "not_a_number,ok")      # past an inference_rows=20 preview
    path = tmp_path / "dirty.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scan = scan_csv(str(path), chunk_rows=8, inference_rows=20)
    assert scan.dtypes["x"].value == "int"
    frame = scan.to_frame()
    assert len(frame) == 51
    assert frame.column("x").missing_count() == 1


def test_scan_with_explicit_dtypes_is_lenient_in_the_preview(tmp_path):
    """Explicit dtypes are the documented remedy for late-typed columns; a
    conflicting value in the preview rows must become missing, not raise."""
    from repro.frame.dtypes import DType
    path = tmp_path / "latetype.csv"
    path.write_text("a,b\nabc,1\n1.5,2\n2.5,3\n", encoding="utf-8")
    scan = scan_csv(str(path), dtypes={"a": DType.FLOAT})
    assert scan.dtypes["a"] is DType.FLOAT
    frame = scan.to_frame()
    assert frame.column("a").missing_count() == 1
    assert scan.preview.column("a").missing_count() == 1


def test_scan_counts_final_unterminated_quoted_record(tmp_path):
    """A trailing record with an unclosed quote still parses as a row; the
    layout scan must count it so n_rows matches what the chunks parse."""
    path = tmp_path / "unterminated.csv"
    path.write_text('a,b\n1,x\n2,y\n3,"oops\n', encoding="utf-8")
    eager = read_csv(str(path))
    scan = scan_csv(str(path), chunk_rows=2, dtypes=eager.dtypes)
    assert scan.n_rows == len(eager) == 3
    assert_frames_equal(scan.to_frame(), read_csv(str(path), dtypes=eager.dtypes))


def test_scan_detects_non_rfc_quoting_instead_of_skewing_stats(tmp_path):
    """A stray unpaired quote in an unquoted field desyncs the layout's
    record counter; chunk parsing must raise, not return wrong row counts."""
    path = tmp_path / "stray.csv"
    path.write_text('a,b\n1,say "hi\n2,x\n3,y\n', encoding="utf-8")
    scan = scan_csv(str(path), chunk_rows=2)
    with pytest.raises(Exception, match="quoting"):
        scan.to_frame()


@pytest.mark.parametrize("payload, chunk, cause", [
    (b"a,b\r1,x\r2,y\r3,z\r", False, "bare"),    # every record
    (b"a,b\n1,x\n2,y\rq\n3,z\n", True, "bare"),    # one, inside a chunk
    # A field over csv.field_size_limit(), past the preview rows, fails
    # its chunk for its own reason: no word about a bare '\r'.
    (b"a,b\n1,x\n2,y\n3," + b"q" * 200_000 + b"\n", True, "field limit"),
])
def test_scan_rejects_a_bare_carriage_return_naming_the_file(
        tmp_path, payload, chunk, cause):
    """``read_csv`` splits records on a bare ``\\r``; the scan splits on
    ``\\n`` only, so it must raise a FrameError naming the file (and the
    chunk's byte range), never a raw ``csv.Error``.  Only a record that ran
    on past a ``\\r`` blames the ``\\r``."""
    from repro.errors import FrameError
    path = tmp_path / "cr.csv"
    path.write_bytes(payload)
    if cause == "bare":
        assert len(read_csv(str(path))) >= 3
    with pytest.raises(FrameError, match="cr.csv") as raised:
        scan_csv(str(path), chunk_rows=2, inference_rows=2).to_frame()
    message = str(raised.value)
    assert ("bytes [" in message) is chunk
    assert cause in message
    assert ("bare '\\r' record separator" in message) is (cause == "bare")


def test_default_config_streaming_call_never_rescans_layout(tmp_path):
    """With no memory.* overrides, EDA calls must trust the scan's own
    chunking — no second full-file layout pass, cold or warm."""
    import repro.frame.io as fio
    from repro.eda import plot

    frame = DataFrame({"x": [float(i) for i in range(4000)]})
    path = tmp_path / "noscan.csv"
    write_csv(frame, str(path))
    scan = scan_csv(str(path), chunk_rows=500)
    calls = {"n": 0}
    original = fio.scan_layout

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    fio.scan_layout = counting
    try:
        plot(scan, mode="intermediates", config={"cache.enabled": False})
        plot(scan, "x", mode="intermediates", config={"cache.enabled": False})
    finally:
        fio.scan_layout = original
    assert calls["n"] == 0


def test_explicit_scan_chunk_rows_not_overridden_by_config_default(tmp_path):
    """scan_csv(chunk_rows=N) must win: the user set it on the handle
    deliberately, and the chunking of the handle is the call's."""
    from repro.eda import plot

    frame = DataFrame({"x": [float(i) for i in range(3000)]})
    path = tmp_path / "explicit.csv"
    write_csv(frame, str(path))
    scan = scan_csv(str(path), chunk_rows=1_000)
    result = plot(scan, mode="intermediates", config={"cache.enabled": False})
    report = result.meta["execution_reports"][0]
    # 3 chunks -> 3 parse tasks feeding the first stage; a silent rechunk to
    # another granularity would change the task count.
    assert result["overview"]["n_rows"] == 3000
    assert report.full_parses == 3
    # And a finer scan of the same file is what re-chunks.
    finer = plot(scan_csv(str(path), chunk_rows=300), mode="intermediates",
                 config={"cache.enabled": False})
    assert finer["overview"]["n_rows"] == 3000
    assert finer.meta["execution_reports"][0].full_parses == 10


def test_scan_csv_chunks_are_quote_aware(tmp_path):
    frame = DataFrame({"x": [1, 2, 3, 4],
                       "text": ["one\ntwo", "plain", "three\nfour", "end"]})
    path = tmp_path / "quoted_chunks.csv"
    write_csv(frame, str(path))
    scan = scan_csv(str(path), chunk_rows=2)
    columns, boundaries, byte_ranges = \
        scan.columns, scan.boundaries, scan.byte_ranges
    assert columns == ["x", "text"]
    assert boundaries == [(0, 2), (2, 4)]
    # Each byte range parses cleanly on its own (no split records).
    from repro.frame.io import parse_csv_range
    for (start, stop), (row_start, row_stop) in zip(byte_ranges, boundaries):
        chunk = parse_csv_range(str(path), start, stop, columns, frame.dtypes)
        assert len(chunk) == row_stop - row_start


def test_scan_rechunk_is_memoized(tmp_path):
    frame = DataFrame({"x": list(range(200))})
    path = tmp_path / "memo.csv"
    write_csv(frame, str(path))
    scan = scan_csv(str(path), chunk_rows=100, dtypes=frame.dtypes)
    first = scan.rechunk(13)
    assert scan.rechunk(13) is first
    assert scan.rechunk(100) is scan


def test_scan_rechunk_preserves_content(tmp_path):
    frame = DataFrame({"x": list(range(100)), "w": ["v"] * 100})
    path = tmp_path / "rechunk.csv"
    write_csv(frame, str(path))
    scan = scan_csv(str(path), chunk_rows=40, dtypes=frame.dtypes)
    finer = scan.rechunk(7)
    assert finer.n_rows == scan.n_rows == 100
    assert finer.n_chunks == 15
    assert_frames_equal(finer.to_frame(), scan.to_frame())


# --------------------------------------------------------------------------- #
# The numpy layout pass finds the records csv.reader finds.
# --------------------------------------------------------------------------- #
plain_field = st.text(alphabet=st.sampled_from(list("ab9 .")), max_size=4)
quoted_field = st.lists(
    st.sampled_from(["x", " ", ",", '""', "\n", "\r\n", "\n\n"]),
    max_size=5).map(lambda parts: '"' + "".join(parts) + '"')
csv_record = st.lists(st.one_of(plain_field, quoted_field), min_size=1,
                      max_size=3).map(",".join)


@st.composite
def csv_bodies(draw):
    """Records, blank lines between them, LF or CRLF endings; the end is a
    newline, none, or a quoted field that is never closed."""
    pieces = []
    for record in draw(st.lists(csv_record, max_size=8)):
        pieces.append(record + draw(st.sampled_from(["\n", "\r\n"])))
        pieces.append(draw(st.sampled_from(["", "", "\n", "\r\n", "\n\n"])))
    ending = draw(st.sampled_from(["newline", "none", "open-quote"]))
    if ending == "none" and pieces:
        pieces[-1] = ""
        pieces[-2] = pieces[-2].rstrip("\r\n") or "a"
    elif ending == "open-quote":
        pieces.append('1,"unterminated' + draw(st.sampled_from(
            ["", "\n", "\nmore\r\n"])))
    return "".join(pieces).encode("utf-8")


def _reader_record_ends(data: bytes):
    """Byte offsets just past each non-blank record ``csv.reader`` yields."""
    import csv

    consumed = [0]

    def lines():
        for line in data.splitlines(keepends=True):
            consumed[0] += len(line)
            yield line.decode("utf-8")

    # splitlines would also split on a bare '\r'; these bodies hold none.
    assert b"\r" not in data.replace(b"\r\n", b"")
    return [consumed[0] for row in csv.reader(lines()) if row]


@given(data=csv_bodies(), block=st.integers(min_value=1, max_value=9),
       chunk_rows=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_layout_finds_the_records_csv_reader_finds(data, block, chunk_rows,
                                                   tmp_path_factory):
    import zlib

    from repro.frame import layout as layout_module

    path = str(tmp_path_factory.mktemp("layout") / "body.csv")
    with open(path, "wb") as handle:
        handle.write(data)
    ends = _reader_record_ends(data)
    original = layout_module.STAMP_BLOCK_BYTES
    layout_module.STAMP_BLOCK_BYTES = block          # records straddle blocks
    try:
        layout, prefix = layout_module.scan_layout(
            path, chunk_rows, 0, (len(data), 0), 1.0, prefix_stop=len(data))
    finally:
        layout_module.STAMP_BLOCK_BYTES = original
    stops = [stop for _, stop in layout.byte_ranges]
    assert layout.n_rows == len(ends)
    expected = ends[chunk_rows - 1::chunk_rows]
    if len(ends) % chunk_rows or not ends:
        expected.append(len(data))        # the last chunk runs to EOF
    assert stops == expected
    assert layout.clean_eof == (data.count(b'"') % 2 == 0)
    assert layout.chunk_stamps == tuple(
        (zlib.crc32(data[start:stop]), stop - start)
        for start, stop in layout.byte_ranges)
    assert prefix == (zlib.crc32(data), len(data))
