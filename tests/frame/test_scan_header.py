"""A warm ``scan_csv`` reads its preview's verdicts instead of parsing them.

A scan of a CSV's first file writes a scan header into the file's zone-map
JSON: the scan arguments, the resolved dtype map, the row size, the preview
row count, whether the preview read to the end of the file and a CRC of
the bytes it read.  A later scan with the same arguments whose layout pass
stamps those bytes to the same CRC parses no preview; the preview itself is
built on first use from the leading chunks' sidecar records, or parsed.

Every case below must equal a cold scan of the same bytes — columns,
dtypes, layouts, the preview's storage and which chunk tasks take preview
rows — however the header got stale, broken or unwritable.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from collections import Counter
from itertools import count

import numpy as np
import pytest

import repro
from repro import create_report
from repro.errors import FrameError
from repro.frame import io as frame_io
from repro.frame.dtypes import DType
from repro.frame.frame import DataFrame
from repro.frame.io import scan_csv, write_csv
from repro.frame.layout import read_header_row
from repro.frame.sidecar import SidecarRoute
from repro.frame.zonemap import (
    SIDECAR_VERSION,
    load_scan_header,
    load_zone_entries,
    sidecar_path,
)
from repro.graph import PartitionedFrame

N_ROWS = 900
OPTIONS = {"chunk_rows": 250, "inference_rows": 600}


def _frame(n: int = N_ROWS) -> DataFrame:
    rng = np.random.default_rng(11)
    return DataFrame({
        "x": [None if rng.random() < 0.2 else float(v)
              for v in rng.normal(10, 2, n)],
        "k": rng.integers(0, 40, n),
        "city": [None if rng.random() < 0.1 else str(city) for city
                 in rng.choice(["oslo", "lima", "pune", "kyiv"], n)],
        "word": [f"w{value}" for value in rng.integers(0, 300, n)],
        "flag": list(rng.random(n) < 0.3),
        "when": [f"2021-{1 + i % 12:02d}-{1 + i % 28:02d}" for i in range(n)],
    })


@pytest.fixture
def data_csv(tmp_path):
    path = str(tmp_path / "data.csv")
    write_csv(_frame(), path)
    return path


def _storage(frame: DataFrame):
    columns = []
    for name in frame.columns:
        column = frame.column(name)
        values = (column.codes.tolist(), column.dictionary.tolist()) \
            if column.dtype is DType.STRING else \
            column.data[~column.mask].tolist()
        columns.append((name, column.dtype, column.mask.tolist(), values))
    return columns


def _facts(scan):
    """What a scan hands the pipeline, minus the file's own path."""
    preview = _storage(scan.preview)        # built first: held rows serve
    tasks = [part.graph[part.key]
             for part in PartitionedFrame.from_source(scan).partitions]
    return {
        "columns": scan.columns,
        "dtypes": scan.dtypes,
        "layouts": [(layout.chunk_rows, layout.boundaries, layout.byte_ranges,
                     layout.chunk_stamps, layout.clean_eof, layout.preview)
                    for layout in scan.layouts],
        "row_bytes": scan._preview.header.row_bytes,
        "preview": preview,
        "served": ["decoded" in task.kwargs for task in tasks],
    }


_COPIES = count()


def _cold(path: str, **options):
    """A cold scan of a copy of *path*: no zone-map file beside it."""
    directory = os.path.join(os.path.dirname(path), f"cold-{next(_COPIES)}")
    os.makedirs(directory)
    copy = os.path.join(directory, os.path.basename(path))
    shutil.copyfile(path, copy)
    return scan_csv(copy, **options)


def _assert_equals_cold(scan, **options):
    assert _facts(scan) == _facts(_cold(scan.path, **options))


@pytest.fixture
def tokenised(monkeypatch):
    """Every pass over CSV text: the preview (its ``max_rows``) and chunks."""
    calls = []
    stream, parse = frame_io._read_csv_stream, frame_io.parse_csv_range

    def counted_stream(*args, **kwargs):
        calls.append(("preview", args[5]))
        return stream(*args, **kwargs)

    def counted_parse(*args, **kwargs):
        calls.append(("chunk", args[1]))
        return parse(*args, **kwargs)

    monkeypatch.setattr(frame_io, "_read_csv_stream", counted_stream)
    monkeypatch.setattr(frame_io, "parse_csv_range", counted_parse)
    return calls


@pytest.fixture
def layout_passes(monkeypatch):
    """Every layout pass and every on-disk row-size probe of a scan."""
    calls = Counter()
    layout, probe = frame_io.scan_layout, frame_io.estimate_csv_row_bytes

    def counted_layout(*args, **kwargs):
        calls["scan_layout"] += 1
        return layout(*args, **kwargs)

    def counted_probe(*args, **kwargs):
        calls["estimate_csv_row_bytes"] += 1
        return probe(*args, **kwargs)

    monkeypatch.setattr(frame_io, "scan_layout", counted_layout)
    monkeypatch.setattr(frame_io, "estimate_csv_row_bytes", counted_probe)
    return calls


def _report_html(report) -> str:
    """The report's HTML minus its timings and per-render element ids."""
    html = re.sub(r'<div class="repro-progress">.*?</div>', "",
                  report.to_html())
    return re.sub(r"repro-\d+", "repro-N", html)


# --------------------------------------------------------------------------- #
# A warm scan decodes no byte.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("options", [OPTIONS, {"chunk_rows": 250}],
                         ids=["cut-preview", "whole-file-preview"])
def test_a_second_scan_tokenises_nothing(data_csv, tmp_path, tokenised,
                                         options):
    config = {"compute.scheduler": "synchronous",
              "cache.disk_dir": str(tmp_path / "side")}
    cold = scan_csv(data_csv, **options)
    create_report(cold, config=config)               # fills the sidecar
    del tokenised[:]

    warm = scan_csv(data_csv, **options)
    preview = warm.schema_preview(sidecar=SidecarRoute(str(tmp_path / "side")))
    assert tokenised == []
    assert _storage(preview) == _storage(cold.preview)
    assert _facts(warm) == _facts(cold)
    del tokenised[:]
    warm_report = create_report(scan_csv(data_csv, **options), config=config)
    assert tokenised == []
    assert warm_report.sidecar_stats["sidecar_misses"] == 0


def test_a_warm_preview_without_records_is_parsed(data_csv, tokenised):
    scan_csv(data_csv, **OPTIONS)
    assert load_scan_header(data_csv, [600, ",", None],
                            *read_header_row(data_csv, ",")) is not None
    del tokenised[:]
    warm = scan_csv(data_csv, **OPTIONS)
    assert tokenised == []
    _assert_equals_cold(warm, **OPTIONS)
    # Once for the warm scan's preview, once for the cold copy's.
    assert tokenised == [("preview", OPTIONS["inference_rows"])] * 2


# --------------------------------------------------------------------------- #
# A stale header is never read.
# --------------------------------------------------------------------------- #
def _ids(path, rows, first="00"):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("k,v\n" + "".join(f"{first if i == 3 else f'{i:02d}'},"
                                       f"{i}\n" for i in range(rows)))


def test_a_same_size_rewrite_of_the_preview_bytes(tmp_path, tokenised,
                                                 layout_passes):
    path = str(tmp_path / "ids.csv")
    _ids(path, 60, first="03")
    before = os.stat(path)
    old = scan_csv(path, chunk_rows=25)
    assert old.dtypes["k"] is DType.INT
    _ids(path, 60, first="ab")                      # same size, new dtype
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    del tokenised[:]
    layout_passes.clear()
    warm = scan_csv(path, chunk_rows=25)
    assert ("preview", 10_000) in tokenised
    # The stale header costs no layout pass of its own.
    assert layout_passes == {"scan_layout": 1, "estimate_csv_row_bytes": 1}
    assert warm.dtypes["k"] is DType.STRING
    _assert_equals_cold(warm, chunk_rows=25)


def test_a_warm_preview_of_bytes_rewritten_since_the_scan_raises(tmp_path):
    path = str(tmp_path / "ids.csv")
    _ids(path, 60, first="03")
    scan_csv(path, chunk_rows=25)
    warm = scan_csv(path, chunk_rows=25)           # the preview is not read
    _ids(path, 60, first="04")
    with pytest.raises(FrameError, match="repro.refresh"):
        warm.preview
    assert _facts(repro.refresh(warm)) == _facts(_cold(path, chunk_rows=25))


def test_an_append_to_a_short_file_that_changes_a_dtype(tmp_path,
                                                       layout_passes):
    path = str(tmp_path / "ids.csv")
    _ids(path, 60, first="03")
    assert scan_csv(path, chunk_rows=25, inference_rows=100).dtypes["k"] \
        is DType.INT
    with open(path, "a", encoding="utf-8", newline="") as handle:
        handle.write("1.5,60\n")
    layout_passes.clear()
    warm = scan_csv(path, chunk_rows=25, inference_rows=100)
    assert layout_passes == {"scan_layout": 1, "estimate_csv_row_bytes": 1}
    assert warm.dtypes["k"] is DType.FLOAT and warm.n_rows == 61
    _assert_equals_cold(warm, chunk_rows=25, inference_rows=100)


def test_an_append_to_a_whole_file(data_csv):
    cold = scan_csv(data_csv, chunk_rows=250)
    assert all(_facts(cold)["served"])
    tail = data_csv + ".tail"
    write_csv(_frame(20), tail)
    with open(tail, "rb") as rows, open(data_csv, "ab") as handle:
        rows.readline()                             # the header
        handle.write(rows.read())
    os.remove(tail)
    warm = scan_csv(data_csv, chunk_rows=250)
    assert warm.n_rows == len(warm.preview) == N_ROWS + 20
    assert all(_facts(warm)["served"])
    _assert_equals_cold(warm, chunk_rows=250)


# --------------------------------------------------------------------------- #
# Each layout that uses the preview rows checks their bytes in its own pass.
# --------------------------------------------------------------------------- #
def _keys(path, prefix, rows=600):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("k,v\n" + "".join(f"{prefix}{i},{i}\n"
                                        for i in range(rows)))


def _items(intermediates):
    return {name: intermediates[name] for name in intermediates}


@pytest.mark.parametrize("scheduler", ["synchronous", "threaded"])
def test_a_rechunk_after_a_same_size_rewrite_serves_and_stores_no_old_rows(
        tmp_path, scheduler):
    path = str(tmp_path / "keys.csv")
    _keys(path, "x")
    scan = scan_csv(path, chunk_rows=300)          # the preview is the file
    before = os.stat(path)
    _keys(path, "y")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    config = {"compute.scheduler": scheduler,
              "cache.disk_dir": str(tmp_path / "side")}
    rechunked = repro.plot(scan.rechunk(200), "k", config=config,
                           mode="intermediates")
    assert rechunked["stats"]["top"] == "y0"
    fresh = scan_csv(path, chunk_rows=200)
    assert _items(repro.plot(fresh, "k", config=config,
                             mode="intermediates")) == \
        _items(repro.plot(fresh.to_frame(), "k", mode="intermediates"))


@pytest.mark.parametrize("inference_rows", [400, 10_000],
                         ids=["cut-preview", "whole-file-preview"])
def test_refreshed_and_rechunked_layouts_vouch_for_an_unchanged_preview(
        tmp_path, inference_rows):
    path = str(tmp_path / "keys.csv")
    _keys(path, "x")
    scan = scan_csv(path, chunk_rows=300, inference_rows=inference_rows)
    rechunked = scan.rechunk(200)
    with open(path, "a", encoding="utf-8", newline="") as handle:
        handle.write("x600,600\n")
    refreshed = scan.refreshed()
    assert refreshed.layouts[0].byte_ranges[:2] == scan.layouts[0].byte_ranges
    for source in (rechunked, refreshed):
        assert source._preview.vouched(source.layouts[0])
        served = _facts(source)["served"]
        assert served == [inference_rows > 600] * len(served)


@pytest.mark.parametrize("change", [
    {"inference_rows": 300},
    {"dtypes": {"k": DType.FLOAT, "when": DType.STRING}},
    {"delimiter": ";"},
    {"chunk_rows": 100},
], ids=["inference_rows", "dtypes", "delimiter", "chunk_rows"])
def test_changed_scan_arguments(data_csv, tokenised, change):
    scan_csv(data_csv, **OPTIONS)
    options = {**OPTIONS, **change}
    del tokenised[:]
    warm = scan_csv(data_csv, **options)
    # Only a new chunk size keeps the header: dtypes do not depend on it.
    assert (tokenised == []) == ("chunk_rows" in change)
    _assert_equals_cold(warm, **options)


# A preview's verdicts under each zone-map version.  A stored header answers
# with the dtypes and row size it was written with for as long as the
# version stays, so a change to dtype inference or to the row-size estimate
# must bump SIDECAR_VERSION and add its own row here.
VERDICTS = {
    3: ({"i": "int", "f": "float", "b": "bool", "d": "datetime"}, 29.0),
}


def test_a_change_to_the_preview_verdicts_bumps_the_version(tmp_path):
    path = str(tmp_path / "kinds.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        # No text column: its row size is the interpreter's string size.
        handle.write("i,f,b,d\n1,1.5,true,2021-01-02\n"
                     "2,,false,2021-03-04\n,2.5,,\n")
    scan = scan_csv(path)
    verdicts = ({name: dtype.value for name, dtype in scan.dtypes.items()},
                scan._preview.header.row_bytes)
    assert VERDICTS.get(SIDECAR_VERSION) == verdicts, (
        "dtype inference or the row-size estimate changed: bump "
        "repro.frame.zonemap.SIDECAR_VERSION so stored scan headers are "
        "dropped, and pin the new verdicts under it")


# --------------------------------------------------------------------------- #
# A broken or unwritable zone-map file is a cold scan.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong-version"])
def test_a_damaged_zone_map_file(data_csv, damage):
    scan_csv(data_csv, **OPTIONS)
    zones = sidecar_path(data_csv)
    with open(zones, "rb") as handle:
        content = handle.read()
    if damage == "truncated":
        content = content[:len(content) // 2]
    elif damage == "garbage":
        content = b"\x00\xff" + os.urandom(64)
    else:
        payload = json.loads(content)
        payload["version"] -= 1
        content = json.dumps(payload).encode("utf-8")
    with open(zones, "wb") as handle:
        handle.write(content)
    _assert_equals_cold(scan_csv(data_csv, **OPTIONS), **OPTIONS)
    with open(zones, "rb") as handle:
        assert json.load(handle)["scan"]["args"] == [600, ",", None]


def test_a_read_only_directory(data_csv, monkeypatch):
    directory = os.path.dirname(data_csv)
    replace = os.replace

    def refused(source, target):
        if os.path.dirname(target) == directory:
            raise PermissionError(13, "Permission denied", target)
        return replace(source, target)

    monkeypatch.setattr(os, "replace", refused)
    os.chmod(directory, 0o555)
    try:
        first = scan_csv(data_csv, **OPTIONS)
        second = scan_csv(data_csv, **OPTIONS)
        assert not os.path.exists(sidecar_path(data_csv))
        assert sorted(os.listdir(directory)) == ["data.csv"]
    finally:
        os.chmod(directory, 0o755)
    monkeypatch.undo()
    assert _facts(first) == _facts(second)
    _assert_equals_cold(second, **OPTIONS)


def test_zone_map_and_header_writes_keep_each_other(data_csv):
    columns, start = read_header_row(data_csv, ",")
    scan = scan_csv(data_csv, **OPTIONS)
    scan.zone_map()
    assert load_scan_header(data_csv, [600, ",", None], columns, start) \
        is not None
    entries = load_zone_entries(data_csv)
    assert len(entries) == 4
    scan_csv(data_csv, **{**OPTIONS, "inference_rows": 300})
    assert load_zone_entries(data_csv) == entries
    assert load_scan_header(data_csv, [300, ",", None], columns, start) \
        is not None
    assert load_scan_header(data_csv, [600, ",", None], columns, start) \
        is None


def test_a_report_with_the_disk_cache_off(data_csv, tmp_path, monkeypatch):
    # Under the process-wide default scheduler: a process or remote default
    # runs the warm report's chunk tasks on its workers.
    config = {"cache.enabled": False, "cache.disk_dir": str(tmp_path / "side")}
    cold = create_report(scan_csv(data_csv, **OPTIONS), config=config)
    calls = Counter()
    preview = frame_io._scan_preview

    def counted(*args):
        calls["_scan_preview"] += 1
        return preview(*args)

    monkeypatch.setattr(frame_io, "_scan_preview", counted)
    warm = create_report(scan_csv(data_csv, **OPTIONS),
                         config={**config, "cache.disk_enabled": False})
    assert calls == {"_scan_preview": 1}
    assert _report_html(warm) == _report_html(cold)
