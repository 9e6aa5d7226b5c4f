"""Append-aware refresh of scanned CSV sources.

The incremental contract, exercised end to end:

* appending rows *extends* the chunk layout — old chunks keep their
  per-chunk ``(head_crc, tail_crc)`` content stamps, so their cache keys,
  zone-map entries and binary sidecars stay valid — and the refreshed scan
  is value-identical to a cold scan of the grown file;
* any other change (interior mutation, shrink, dtype drift in the new
  preview) degrades safely to a full rescan;
* the stamp-granularity hazard is closed: a same-size in-place rewrite
  with the mtime restored defeats the old whole-file ``(size, mtime_ns)``
  key, but the per-chunk CRC stamps still invalidate the fingerprint, the
  zone-map entries and the binary sidecar;
* a glob-backed multi-file source absorbs newly matching files as
  appended partitions.
"""

from __future__ import annotations

import glob as glob_module
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame.dtypes import DType
from repro.frame.frame import DataFrame
from repro.frame.io import (
    MultiFileCsvSource,
    compute_chunk_stamps,
    read_csv,
    scan_csv,
    write_csv,
)
from repro.frame.sidecar import SidecarRoute, load_chunk, store_chunk
from repro.frame.source import refresh_input
from repro.frame.zonemap import (
    chunk_column_stats,
    chunk_key,
    decode_zone_entry,
    encode_zone_entry,
)

def assert_frames_equal(left: DataFrame, right: DataFrame) -> None:
    import numpy as np

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


def _write_rows(path, start, stop, header=True, mode="w"):
    with open(path, mode, encoding="utf-8") as handle:
        if header:
            handle.write("x,y,label\n")
        for index in range(start, stop):
            handle.write(f"{index},{index * 0.5},w{index % 5}\n")


def test_append_extends_layout_and_preserves_stamps(tmp_path):
    path = str(tmp_path / "grow.csv")
    _write_rows(path, 0, 1_000)
    scan = scan_csv(path, chunk_rows=100)
    old_stamps = scan.chunk_stamps
    old_fingerprint = scan.fingerprint()

    _write_rows(path, 1_000, 1_050, header=False, mode="a")
    refreshed = scan.refreshed()

    assert refreshed is not scan
    assert refreshed.n_rows == 1_050
    # The old chunks' byte ranges and content stamps survive verbatim, so
    # their partition-task cache keys stay warm after the append.
    assert refreshed.chunk_stamps[:len(old_stamps)] == old_stamps
    assert refreshed.byte_ranges[:scan.n_chunks] == scan.byte_ranges
    assert refreshed.n_chunks > scan.n_chunks
    # The handle's own fingerprint must change (it now covers more rows).
    assert refreshed.fingerprint() != old_fingerprint
    # And the extension is value-identical to a cold scan of the grown file.
    assert_frames_equal(refreshed.to_frame(),
                        read_csv(path, dtypes=refreshed.dtypes))


def test_refresh_of_unchanged_file_returns_self(tmp_path):
    path = str(tmp_path / "same.csv")
    _write_rows(path, 0, 50)
    scan = scan_csv(path, chunk_rows=10)
    assert scan.refreshed() is scan


def test_interior_mutation_triggers_full_rescan(tmp_path):
    path = str(tmp_path / "mutate.csv")
    _write_rows(path, 0, 500)
    scan = scan_csv(path, chunk_rows=50)
    first_stamp = scan.chunk_stamp(0)

    # Rewrite the first data row in place (same byte length) AND append:
    # the size grew, but the prefix CRC probe must catch the mutation.
    with open(path, "r+b") as handle:
        handle.seek(len(b"x,y,label\n"))
        handle.write(b"9,9.9,w9\n"[:4])
    _write_rows(path, 500, 520, header=False, mode="a")

    refreshed = scan.refreshed()
    assert refreshed.n_rows == 520
    assert refreshed.chunk_stamp(0) != first_stamp
    assert_frames_equal(refreshed.to_frame(),
                        read_csv(path, dtypes=refreshed.dtypes))


def test_shrink_triggers_full_rescan(tmp_path):
    path = str(tmp_path / "shrink.csv")
    _write_rows(path, 0, 400)
    scan = scan_csv(path, chunk_rows=50)
    _write_rows(path, 0, 100)    # rewrite smaller
    refreshed = scan.refreshed()
    assert refreshed.n_rows == 100
    assert_frames_equal(refreshed.to_frame(),
                        read_csv(path, dtypes=refreshed.dtypes))


def test_growth_from_empty_file_replaces_placeholder_chunk(tmp_path):
    path = str(tmp_path / "wasempty.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x,y,label\n")
    scan = scan_csv(path, chunk_rows=10)
    assert scan.n_rows == 0
    _write_rows(path, 0, 25, header=False, mode="a")
    refreshed = scan.refreshed()
    assert refreshed.n_rows == 25
    assert_frames_equal(refreshed.to_frame(),
                        read_csv(path, dtypes=refreshed.dtypes))


def test_same_size_rewrite_with_restored_mtime_still_invalidates(tmp_path):
    """Regression for the stamp-granularity hazard: a same-size in-place
    rewrite with the mtime restored is invisible to the old whole-file
    ``(size, mtime_ns)`` stamp, but every per-chunk CRC consumer — the
    fingerprint, the zone map and the binary sidecar — must still notice."""
    path = str(tmp_path / "hazard.csv")
    _write_rows(path, 0, 200)
    before = os.stat(path)
    scan = scan_csv(path, chunk_rows=50)
    old_fingerprint = scan.fingerprint()
    old_stamp = scan.chunk_stamp(0)
    byte_start, byte_stop = scan.byte_ranges[0]

    # Persist chunk 0 through the binary sidecar and a zone-map entry
    # under its content stamp.
    route = tuple(SidecarRoute(directory=str(tmp_path / "side")))
    chunk = scan.read_chunk(0)
    assert store_chunk(path, byte_start, byte_stop, old_stamp, chunk, route)
    stats = chunk_column_stats(chunk)
    entry = encode_zone_entry(stats, old_stamp)
    assert decode_zone_entry(entry, old_stamp) is not None

    # Same-size rewrite: swap two digits in the first data row, then put
    # the original mtime back.
    with open(path, "r+b") as handle:
        data = bytearray(handle.read())
        offset = data.index(b"\n") + 1
        data[offset:offset + 1] = b"7"
        handle.seek(0)
        handle.write(bytes(data))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == \
        (before.st_size, before.st_mtime_ns)      # the hazard is real

    fresh = scan_csv(path, chunk_rows=50)
    new_stamp = fresh.chunk_stamp(0)
    assert new_stamp != old_stamp
    assert fresh.fingerprint() != old_fingerprint
    # The zone-map entry refuses to answer under the new stamp ...
    assert decode_zone_entry(entry, new_stamp) is None
    # ... and so does the sidecar payload.
    assert load_chunk(path, byte_start, byte_stop, new_stamp, fresh.columns,
                      fresh.dtypes, None, route) is None
    # The untouched old stamp still answers (entries are per-chunk).
    assert load_chunk(path, byte_start, byte_stop, old_stamp, scan.columns,
                      scan.dtypes, None, route) is not None


def test_zone_map_entries_survive_append(tmp_path):
    path = str(tmp_path / "zones.csv")
    _write_rows(path, 0, 300)
    scan = scan_csv(path, chunk_rows=100)
    scan.zone_map()      # build + persist per-chunk entries

    from repro.frame.zonemap import load_zone_entries
    before = load_zone_entries(path)
    assert len(before) == scan.n_chunks

    _write_rows(path, 300, 330, header=False, mode="a")
    refreshed = scan.refreshed()
    # Every old chunk's persisted entry still decodes under the refreshed
    # scan's stamps — append did not invalidate the prefix.
    for index in range(scan.n_chunks):
        start, stop = refreshed.byte_ranges[index]
        entry = before[chunk_key(start, stop)]
        assert decode_zone_entry(entry, refreshed.chunk_stamp(index)) is not None


def test_multifile_glob_absorbs_new_files(tmp_path):
    for index in range(2):
        _write_rows(str(tmp_path / f"part{index}.csv"), index * 100,
                    index * 100 + 100)
    pattern = str(tmp_path / "part*.csv")
    source = MultiFileCsvSource.scan(sorted(glob_module.glob(pattern)),
                                     chunk_rows=40, pattern=pattern)
    assert len(source.scans) == 2
    old_fingerprint = source.fingerprint()

    _write_rows(str(tmp_path / "part2.csv"), 200, 260)
    refreshed = source.refreshed()
    assert len(refreshed.scans) == 3
    assert refreshed.fingerprint() != old_fingerprint
    assert sum(scan.n_rows for scan in refreshed.scans) == 260
    # Existing partitions were reused as-is (same stamps), not rescanned.
    for old, new in zip(source.scans, refreshed.scans):
        assert new.chunk_stamps == old.chunk_stamps
    # Unchanged glob → same object back.
    assert refreshed.refreshed() is refreshed


def test_multifile_refresh_extends_grown_member(tmp_path):
    paths = [str(tmp_path / f"m{index}.csv") for index in range(2)]
    for index, path in enumerate(paths):
        _write_rows(path, index * 50, index * 50 + 50)
    source = MultiFileCsvSource.scan(paths, chunk_rows=10)
    old_first_stamps = source.scans[0].chunk_stamps

    _write_rows(paths[0], 50, 70, header=False, mode="a")
    refreshed = refresh_input(source)
    assert refreshed is not source
    assert refreshed.scans[0].n_rows == 70
    assert refreshed.scans[0].chunk_stamps[:len(old_first_stamps)] == \
        old_first_stamps
    assert refreshed.scans[1] is source.scans[1]


@pytest.mark.parametrize("kind", ["file", "list", "glob"])
def test_refresh_of_vanished_file_names_the_path(tmp_path, kind):
    """A handle whose file is gone must not come back from refresh as if
    it were current — the next EDA call would fail deep inside a parse
    task without naming the file."""
    from repro.errors import FrameError

    paths = [str(tmp_path / f"v{index}.csv") for index in range(2)]
    for index, path in enumerate(paths):
        _write_rows(path, index * 50, index * 50 + 50)
    target = {"file": paths[1], "list": paths,
              "glob": str(tmp_path / "v*.csv")}[kind]
    handle = scan_csv(target, chunk_rows=10)
    os.remove(paths[1])
    for stale in (handle, handle[handle["x"] >= 0]):
        with pytest.raises(FrameError, match="v1.csv"):
            refresh_input(stale)


def test_refresh_input_passthrough():
    frame = DataFrame({"x": [1, 2, 3]})
    assert refresh_input(frame) is frame
    assert refresh_input(42) == 42


def test_timezone_values_round_trip_through_sidecar_and_zone_map(tmp_path):
    """Offset-aware timestamps: coerced to UTC at parse time, the values
    survive the binary sidecar round trip and the zone map prunes on the
    normalised UTC instants."""
    import numpy as np

    path = str(tmp_path / "tz.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("ts,v\n")
        handle.write("2021-03-01T12:00:00Z,1\n")
        handle.write("2021-03-01T14:00:00+02:00,2\n")       # same instant
        handle.write("2021-03-02 07:00:00-0500,3\n")        # 12:00 UTC next day
    scan = scan_csv(path, chunk_rows=2)
    assert scan.dtypes["ts"] is DType.DATETIME
    frame = scan.to_frame()
    values = frame.column("ts").to_numpy()
    assert values[0] == values[1] == np.datetime64("2021-03-01T12:00:00", "s")
    assert values[2] == np.datetime64("2021-03-02T12:00:00", "s")

    # Sidecar round trip preserves the normalised values.
    route = tuple(SidecarRoute(directory=str(tmp_path / "side")))
    stamp = scan.chunk_stamp(0)
    start, stop = scan.byte_ranges[0]
    chunk = scan.read_chunk(0)
    assert store_chunk(path, start, stop, stamp, chunk, route)
    loaded = load_chunk(path, start, stop, stamp, scan.columns, scan.dtypes,
                        len(chunk), route)
    assert loaded is not None
    assert_frames_equal(loaded, chunk)

    # Zone-map pruning sees UTC: a predicate on the UTC day boundary keeps
    # only the chunk holding the second day's row.
    zone = scan.zone_map()
    flags = zone.keep_flags([("ts", ">", "2021-03-01T23:00:00")])
    assert flags == [False, True]


append_rows = st.integers(min_value=1, max_value=30)
split_at = st.integers(min_value=0, max_value=60)


@given(total=st.integers(min_value=1, max_value=60), split=split_at,
       chunk_rows=st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_append_split_anywhere_equals_whole_file_scan(total, split, chunk_rows,
                                                      tmp_path_factory):
    """Property: writing a prefix, scanning, appending the rest and
    refreshing is value-identical to scanning the whole file cold — for
    any split point and chunk granularity."""
    split = min(split, total)
    path = str(tmp_path_factory.mktemp("prop") / "grow.csv")
    _write_rows(path, 0, split)
    scan = scan_csv(path, chunk_rows=chunk_rows)
    _write_rows(path, split, total, header=False, mode="a")
    refreshed = scan.refreshed()
    cold = scan_csv(path, chunk_rows=chunk_rows)
    assert refreshed.n_rows == cold.n_rows == total
    assert refreshed.dtypes == cold.dtypes
    assert_frames_equal(refreshed.to_frame(), cold.to_frame())


def test_refresh_preserves_explicit_dtypes(tmp_path):
    path = str(tmp_path / "typed.csv")
    _write_rows(path, 0, 120)
    scan = scan_csv(path, chunk_rows=40, dtypes={"x": DType.FLOAT})
    _write_rows(path, 120, 140, header=False, mode="a")
    refreshed = scan.refreshed()
    assert refreshed.dtypes["x"] is DType.FLOAT
    assert refreshed.n_rows == 140


def test_write_csv_then_refresh_detects_replacement(tmp_path):
    """write_csv replaces the file wholesale; refresh must fall back to a
    rescan and reflect the new contents."""
    path = str(tmp_path / "replace.csv")
    _write_rows(path, 0, 80)
    scan = scan_csv(path, chunk_rows=20)
    frame = DataFrame({"x": [1.5] * 200, "y": [2.5] * 200,
                       "label": ["q"] * 200})
    write_csv(frame, path)
    refreshed = scan.refreshed()
    assert refreshed.n_rows == 200
    assert_frames_equal(refreshed.to_frame(),
                        read_csv(path, dtypes=refreshed.dtypes))


def test_appended_stamps_match_recomputation(tmp_path):
    """compute_chunk_stamps over the refreshed layout reproduces the stored
    stamps — i.e. the extension records real content CRCs, not stale ones."""
    path = str(tmp_path / "crc.csv")
    _write_rows(path, 0, 150)
    scan = scan_csv(path, chunk_rows=40)
    _write_rows(path, 150, 180, header=False, mode="a")
    refreshed = scan.refreshed()
    assert compute_chunk_stamps(path, refreshed.byte_ranges) == \
        refreshed.chunk_stamps


@pytest.mark.parametrize("growth", [1, 37])
def test_refresh_is_idempotent(tmp_path, growth):
    path = str(tmp_path / "idem.csv")
    _write_rows(path, 0, 100)
    scan = scan_csv(path, chunk_rows=30)
    _write_rows(path, 100, 100 + growth, header=False, mode="a")
    once = scan.refreshed()
    assert once.refreshed() is once
