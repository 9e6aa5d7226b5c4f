"""Zone-map property tests: pruning soundness and sidecar persistence.

Three invariants, fuzzed with hypothesis:

* **Soundness** — a chunk the zone map skips for a predicate provably
  contains zero matching rows (pruning is one-sided: kept chunks may still
  be empty after the residual filter, skipped chunks never lose a row);
* **Equivalence** — materializing a filtered source with pruning enabled
  yields exactly the rows of the plain boolean-mask filter;
* **Persistence** — per-chunk statistics survive the JSON sidecar round
  trip bit-for-bit, and an entry written under one ``(head_crc, tail_crc)``
  content stamp never answers for another (chunk changed ⇒ rebuild that
  chunk).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame.frame import DataFrame
from repro.frame.io import scan_csv, write_csv
from repro.frame.predicate import Predicate, compile_predicate
from repro.frame.source import FilteredSource
from repro.frame.zonemap import (
    ZoneMap,
    build_zone_map,
    chunk_column_stats,
    chunk_key,
    decode_zone_entry,
    encode_zone_entry,
    load_zone_entries,
    save_zone_entries,
    sidecar_path,
    zone_map_from_stats,
)
from repro.graph.partition import PartitionedFrame

OPS = [">", ">=", "<", "<=", "==", "!="]
WORDS = ["ash", "birch", "cedar", "fir"]

# Literals drawn from a small lattice so == / != hit real values often.
float_literals = st.sampled_from([-50.0, -1.0, 0.0, 1.0, 3.5, 50.0])
float_values = st.one_of(st.none(), float_literals,
                         st.floats(min_value=-100, max_value=100,
                                   allow_nan=False))


@st.composite
def chunked_frames(draw):
    """A two-column frame (floats with missing, words) cut into chunks."""
    n_rows = draw(st.integers(min_value=1, max_value=60))
    chunk_rows = draw(st.integers(min_value=1, max_value=20))
    frame = DataFrame({
        "x": draw(st.lists(float_values, min_size=n_rows, max_size=n_rows)),
        "w": draw(st.lists(st.one_of(st.none(), st.sampled_from(WORDS)),
                           min_size=n_rows, max_size=n_rows)),
    })
    chunks = [frame.slice(start, min(start + chunk_rows, n_rows))
              for start in range(0, n_rows, chunk_rows)]
    return frame, chunks, chunk_rows


@st.composite
def predicates(draw):
    """A 1–2 conjunct predicate over the x (float) and w (word) columns."""
    conjuncts = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        if draw(st.booleans()):
            conjuncts.append(("x", draw(st.sampled_from(OPS)),
                              draw(float_literals)))
        else:
            conjuncts.append(("w", draw(st.sampled_from(OPS)),
                              draw(st.sampled_from(WORDS))))
    return compile_predicate(conjuncts)


@given(data=chunked_frames(), predicate=predicates())
@settings(max_examples=120, deadline=None)
def test_pruning_never_drops_a_matching_row(data, predicate):
    frame, chunks, chunk_rows = data
    zone_map = build_zone_map(chunks, stamp=(1, 2), chunk_rows=chunk_rows)
    flags = zone_map.keep_flags(predicate.spec())
    assert len(flags) == len(chunks)
    for chunk, keep in zip(chunks, flags):
        if not keep:
            assert int(predicate.mask(chunk).sum()) == 0, \
                "zone map skipped a chunk containing a matching row"


@given(data=chunked_frames(), predicate=predicates())
@settings(max_examples=40, deadline=None)
def test_pruned_scan_equals_mask_filter(data, predicate, tmp_path_factory):
    frame, _, chunk_rows = data
    path = str(tmp_path_factory.mktemp("zm-scan") / "data.csv")
    write_csv(frame, path)
    scan = scan_csv(path, chunk_rows=chunk_rows, budget_bytes=2 ** 62)
    filtered = FilteredSource(scan, predicate)
    result = PartitionedFrame.from_source(filtered,
                                          predicate=predicate).compute()
    # Re-derive the expectation from the *parsed* file (CSV round-trips may
    # legally re-infer dtypes), then compare row counts and present values.
    parsed = PartitionedFrame.from_source(scan).compute()
    expected = parsed.filter(predicate.mask(parsed))
    assert len(result) == len(expected)
    for name in expected.columns:
        left, right = result.column(name), expected.column(name)
        np.testing.assert_array_equal(left.isna(), right.isna(), err_msg=name)
        present = ~left.isna()
        np.testing.assert_array_equal(left.to_numpy()[present],
                                      right.to_numpy()[present], err_msg=name)


@given(data=chunked_frames())
@settings(max_examples=40, deadline=None)
def test_sidecar_round_trip(data, tmp_path_factory):
    frame, chunks, chunk_rows = data
    path = str(tmp_path_factory.mktemp("zm-sidecar") / "data.csv")
    write_csv(frame, path)
    stats = [chunk_column_stats(chunk) for chunk in chunks]
    stamps = [(100 + index, 200 + index) for index in range(len(chunks))]
    entries = {chunk_key(index * 10, index * 10 + 10):
               encode_zone_entry(per_chunk, stamps[index])
               for index, per_chunk in enumerate(stats)}
    assert save_zone_entries(path, entries)
    back = load_zone_entries(path)
    revived = [decode_zone_entry(back[chunk_key(index * 10, index * 10 + 10)],
                                 stamps[index])
               for index in range(len(chunks))]
    assert revived == stats
    # Reassembling a ZoneMap from the revived entries matches the direct
    # in-memory build bit-for-bit.
    direct = build_zone_map(chunks, stamp=(123, 456), chunk_rows=chunk_rows)
    rebuilt = zone_map_from_stats(revived, (123, 456), chunk_rows)
    assert rebuilt.columns == direct.columns
    assert rebuilt.n_chunks == direct.n_chunks
    # Entries at other byte ranges merge into the same sidecar without
    # clobbering (a second chunk granularity coexists naturally).
    other = {chunk_key(10 ** 9, 10 ** 9 + 5):
             encode_zone_entry(chunk_column_stats(frame), (7, 8))}
    assert save_zone_entries(path, other)
    merged = load_zone_entries(path)
    assert chunk_key(0, 10) in merged
    assert chunk_key(10 ** 9, 10 ** 9 + 5) in merged
    # Wrong stamp or unknown byte range: no answer.
    assert decode_zone_entry(merged[chunk_key(0, 10)], (999, 999)) is None
    assert decode_zone_entry(merged.get(chunk_key(5, 15)), stamps[0]) is None


DATES = [f"2021-01-{day:02d}" for day in range(1, 29)]


@st.composite
def all_dtype_frames(draw):
    """A frame with one column of every supported DType, cut into chunks.

    Every nullable column mixes missing values in, so the round trip also
    covers all-null chunks (min/max = None) for every dtype.
    """
    n_rows = draw(st.integers(min_value=1, max_value=40))
    chunk_rows = draw(st.integers(min_value=1, max_value=15))

    def rows(elements):
        return draw(st.lists(elements, min_size=n_rows, max_size=n_rows))

    frame = DataFrame({
        "b": rows(st.booleans()),
        "i": rows(st.integers(min_value=-1000, max_value=1000)),
        "f": rows(float_values),
        "s": rows(st.one_of(st.none(), st.sampled_from(WORDS))),
        "t": rows(st.one_of(st.none(), st.sampled_from(DATES))),
    })
    chunks = [frame.slice(start, min(start + chunk_rows, n_rows))
              for start in range(0, n_rows, chunk_rows)]
    return frame, chunks, chunk_rows


@st.composite
def all_dtype_predicates(draw):
    """A 1–2 conjunct spec touching any of the five dtype columns.

    Literals travel in spec form (what the graph ships): plain scalars for
    bool/int/float/string, ISO strings for datetime.
    """
    choices = {
        "b": st.booleans(),
        "i": st.integers(min_value=-1000, max_value=1000),
        "f": float_literals,
        "s": st.sampled_from(WORDS),
        "t": st.sampled_from([d + "T00:00:00" for d in DATES]),
    }
    spec = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        column = draw(st.sampled_from(sorted(choices)))
        spec.append((column, draw(st.sampled_from(OPS)),
                     draw(choices[column])))
    return tuple(spec)


@given(data=all_dtype_frames(), spec=all_dtype_predicates())
@settings(max_examples=60, deadline=None)
def test_sidecar_round_trip_all_dtypes(data, spec, tmp_path_factory):
    """Every supported dtype survives the JSON sidecar: the reloaded map
    makes pruning decisions identical to the in-memory one — datetime
    statistics included, which used to crash the save with a TypeError."""
    frame, chunks, chunk_rows = data
    path = str(tmp_path_factory.mktemp("zm-dtypes") / "data.csv")
    write_csv(frame, path)
    zone_map = build_zone_map(chunks, stamp=(7, 8), chunk_rows=chunk_rows)
    entries = {chunk_key(index, index + 1):
               encode_zone_entry(chunk_column_stats(chunk), (index, index))
               for index, chunk in enumerate(chunks)}
    assert save_zone_entries(path, entries)
    stored = load_zone_entries(path)
    revived = [decode_zone_entry(stored[chunk_key(index, index + 1)],
                                 (index, index))
               for index in range(len(chunks))]
    assert all(stats is not None for stats in revived)
    back = zone_map_from_stats(revived, (7, 8), chunk_rows)
    assert back.columns == zone_map.columns
    datetime_stats = back.columns["t"]["min"]
    assert all(stat is None or isinstance(stat, np.datetime64)
               for stat in datetime_stats)
    assert back.keep_flags(spec) == zone_map.keep_flags(spec)


@given(data=all_dtype_frames(), spec=all_dtype_predicates())
@settings(max_examples=60, deadline=None)
def test_all_dtype_pruning_never_drops_a_matching_row(data, spec,
                                                      tmp_path_factory):
    """Soundness across every dtype, through the persisted sidecar: a
    skipped chunk provably holds no matching row for the residual filter
    (datetime conjuncts compare ISO-string literals against datetime64
    statistics, which used to no-op the pruning)."""
    frame, chunks, chunk_rows = data
    path = str(tmp_path_factory.mktemp("zm-dtypes-sound") / "data.csv")
    write_csv(frame, path)
    entries = {chunk_key(index, index + 1):
               encode_zone_entry(chunk_column_stats(chunk), (index, index))
               for index, chunk in enumerate(chunks)}
    assert save_zone_entries(path, entries)
    stored = load_zone_entries(path)
    back = zone_map_from_stats(
        [decode_zone_entry(stored[chunk_key(index, index + 1)],
                           (index, index))
         for index in range(len(chunks))], (7, 8), chunk_rows)
    predicate = compile_predicate(spec)
    for chunk, keep in zip(chunks, back.keep_flags(spec)):
        if not keep:
            assert int(predicate.mask(chunk).sum()) == 0, \
                "reloaded zone map skipped a chunk with a matching row"


def test_datetime_zone_map_save_does_not_crash(tmp_path):
    """The regression pinned directly: saving statistics that hold
    numpy.datetime64 scalars must succeed (it used to raise TypeError from
    json.dump, aborting the whole filtered scan)."""
    path = str(tmp_path / "data.csv")
    frame = DataFrame({"t": ["2021-01-01", "2021-06-15", None]})
    write_csv(frame, path)
    stats = chunk_column_stats(frame)
    assert isinstance(stats["t"][0], np.datetime64)
    assert save_zone_entries(
        path, {chunk_key(0, 50): encode_zone_entry(stats, (3, 4))}) is True
    revived = decode_zone_entry(load_zone_entries(path)[chunk_key(0, 50)],
                                (3, 4))
    assert revived["t"][0] == stats["t"][0]
    assert revived["t"][1] == stats["t"][1]
    back = zone_map_from_stats([revived], (1, 2), 10)
    # The revived statistics prune: everything is before 2022.
    assert back.keep_flags((("t", ">", "2022-01-01T00:00:00"),)) == [False]
    assert back.keep_flags((("t", "<", "2021-02-01T00:00:00"),)) == [True]


@given(data=chunked_frames())
@settings(max_examples=20, deadline=None)
def test_stamp_change_invalidates_sidecar(data, tmp_path_factory):
    """A chunk whose content stamp changed stops answering — but only that
    chunk: entries for unchanged chunks keep answering (the append-reuse
    property the whole-file stamp could not offer)."""
    frame, chunks, chunk_rows = data
    path = str(tmp_path_factory.mktemp("zm-stamp") / "data.csv")
    write_csv(frame, path)
    stats = chunk_column_stats(frame)
    entries = {chunk_key(0, 10): encode_zone_entry(stats, (10, 20)),
               chunk_key(10, 20): encode_zone_entry(stats, (30, 40))}
    assert save_zone_entries(path, entries)
    stored = load_zone_entries(path)
    # Chunk 0 "changed" (different probe CRCs): its entry is refused.
    assert decode_zone_entry(stored[chunk_key(0, 10)], (11, 21)) is None
    # Chunk 1 is untouched: its entry still answers.
    assert decode_zone_entry(stored[chunk_key(10, 20)], (30, 40)) == stats


def test_scanned_frame_memoizes_and_persists_zone_map(tmp_path):
    """CsvSource.zone_map builds once, persists the sidecar, and a fresh
    scan of the unchanged file loads it instead of rebuilding; overwriting
    the file invalidates the sidecar through the stamp."""
    path = str(tmp_path / "data.csv")
    frame = DataFrame({"x": [float(i) for i in range(30)]})
    write_csv(frame, path)
    scan = scan_csv(path, chunk_rows=10, budget_bytes=2 ** 62)
    zone_map = scan.zone_map()
    assert zone_map.n_chunks == 3
    assert zone_map.columns["x"]["min"] == [0.0, 10.0, 20.0]
    assert scan.zone_map() is zone_map          # memoized on the scan
    import os
    assert os.path.exists(sidecar_path(path))

    fresh = scan_csv(path, chunk_rows=10, budget_bytes=2 ** 62)
    stored = load_zone_entries(path)
    revived = [decode_zone_entry(stored[chunk_key(*byte_range)],
                                 fresh.chunk_stamp(index))
               for index, byte_range in enumerate(fresh.byte_ranges)]
    assert all(stats is not None for stats in revived)
    loaded = zone_map_from_stats(revived, fresh.file_stamp, 10)
    assert loaded.columns == zone_map.columns

    # Overwrite with different content: the chunk stamps no longer match,
    # so the persisted entries are refused and the map rebuilds.
    write_csv(DataFrame({"x": [float(-i) for i in range(40)]}), path)
    changed = scan_csv(path, chunk_rows=10, budget_bytes=2 ** 62)
    stale = load_zone_entries(path)
    assert any(decode_zone_entry(stale.get(chunk_key(*byte_range)),
                                 changed.chunk_stamp(index)) is None
               for index, byte_range in enumerate(changed.byte_ranges))
    rebuilt = changed.zone_map()
    assert rebuilt.columns["x"]["min"] == [-9.0, -19.0, -29.0, -39.0]
