"""CSV round-trip and chunked-scan property tests.

Two invariants, fuzzed with hypothesis:

* ``read_csv(write_csv(frame))`` reproduces the frame (values, missingness
  and dtypes), including strings containing quotes, delimiters, embedded
  newlines and non-ASCII text;
* concatenating the chunks of ``scan_csv`` reproduces ``read_csv`` of the
  same file for any chunk size — i.e. the quote-aware layout scanner never
  splits a record, even when quoted fields span physical lines.

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
    assert tight.chunk_rows < 5_000
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
    original = fio._scan_csv_layout

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    fio._scan_csv_layout = counting
    try:
        plot(scan, mode="intermediates", config={"cache.enabled": False})
        plot(scan, "x", mode="intermediates", config={"cache.enabled": False})
    finally:
        fio._scan_csv_layout = original
    assert calls["n"] == 0


def test_explicit_scan_chunk_rows_not_overridden_by_config_default(tmp_path):
    """scan_csv(chunk_rows=N) larger than the memory.chunk_rows default must
    win: the user set it on the handle deliberately."""
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
    assert report.tasks_executed > 0
    # And an explicit config override still applies.
    finer = plot(scan, mode="intermediates",
                 config={"cache.enabled": False, "memory.chunk_rows": 300})
    assert finer["overview"]["n_rows"] == 3000


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
