"""A scan whose preview read the whole file serves its chunks from it.

``scan_csv`` decodes up to ``inference_rows`` rows to infer dtypes.  When
that parse reached the end of the first file and counted exactly the
records the layout scan did, the preview holds every decoded row, and the
graph hands each chunk task of that file its slice (the non-semantic
``decoded=`` keyword) instead of parsing the bytes a second time.  The
contract under test:

* a served chunk equals the parsed chunk column for column — dtype, mask,
  storage, STRING codes and a dictionary compacted to the chunk's own
  values — under projection, predicate and dtype overrides;
* a cold report over such a file decodes each byte once (one preview,
  zero chunk parses) and still fills the sidecar, which a fresh process
  then hits on every chunk;
* hostile files either raise the parse path's ``FrameError`` or return
  its frame and report, whichever backend runs the graph.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
import warnings
from collections import Counter

import numpy as np
import pytest

from repro import clear_cache, create_report
from repro.eda.config import Config
from repro.errors import FrameError, SchedulerError
from repro.frame import io as frame_io
from repro.frame.dtypes import DType
from repro.frame.frame import DataFrame, concat_rows
from repro.frame.io import scan_csv, write_csv
from repro.graph import PartitionedFrame
from repro.graph.scheduler import SynchronousScheduler, ThreadedScheduler

N_ROWS = 900
CHUNK_ROWS = 250


def _frame(n: int = N_ROWS) -> DataFrame:
    rng = np.random.default_rng(5)
    return DataFrame({
        "x": [None if rng.random() < 0.2 else float(v)
              for v in rng.normal(10, 2, n)],
        "k": rng.integers(0, 40, n),
        "city": [None if rng.random() < 0.1 else str(city) for city
                 in rng.choice(["oslo", "lima", "pune", "kyiv", "baku"], n)],
        "word": [f"w{value}" for value in rng.integers(0, 300, n)],
        "flag": list(rng.random(n) < 0.3),
        "when": [f"2021-{1 + i % 12:02d}-{1 + i % 28:02d}" for i in range(n)],
    })


@pytest.fixture
def data_csv(tmp_path):
    path = str(tmp_path / "data.csv")
    write_csv(_frame(), path)
    return path


def _tasks(partitioned: PartitionedFrame):
    return [part.graph[part.key] for part in partitioned.partitions]


def _assert_same_storage(served: DataFrame, parsed: DataFrame) -> None:
    assert served.columns == parsed.columns
    for name in parsed.columns:
        left, right = served.column(name), parsed.column(name)
        assert left.dtype is right.dtype, name
        assert np.array_equal(left.mask, right.mask), name
        if right.dtype is DType.STRING:
            assert np.array_equal(left.codes, right.codes), name
            assert left.dictionary.tolist() == right.dictionary.tolist(), name
        else:
            assert np.array_equal(left.data, right.data,
                                  equal_nan=right.dtype is DType.FLOAT), name


# --------------------------------------------------------------------------- #
# A served chunk is the parsed chunk.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("columns, predicate, dtypes", [
    (None, None, None),
    (("city",), None, None),
    (("x", "word"), None, None),
    (("x",), (("city", "==", "lima"),), None),
    (None, (("k", ">=", 20),), None),
    (("k", "x"), None, {"k": DType.FLOAT, "city": DType.INT}),
    (("when",), (("x", ">", 10.0),), {"when": DType.STRING}),
], ids=["full", "string", "projected", "filtered-projected", "filtered",
        "overrides", "overrides-filtered"])
def test_a_served_chunk_equals_the_parsed_chunk(data_csv, columns, predicate,
                                                dtypes):
    scan = scan_csv(data_csv, chunk_rows=CHUNK_ROWS, dtypes=dtypes)
    partitioned = PartitionedFrame.from_source(scan, columns=columns,
                                               predicate=predicate)
    tasks = _tasks(partitioned)
    assert len(tasks) == 4 and all("decoded" in task.kwargs for task in tasks)
    for task, part in zip(tasks, scan.partitions()):
        payload = task.kwargs["decoded"]
        for _, _, _, _, dictionary in payload:
            # Compacted: a chunk carries only the texts its rows use.
            assert dictionary is None or len(dictionary) < len(
                scan.preview.column("word").dictionary)
        _assert_same_storage(task.execute({}),
                             part.materialize(columns, predicate))


def test_a_served_string_chunk_carries_its_own_dictionary(data_csv):
    scan = scan_csv(data_csv, chunk_rows=CHUNK_ROWS)
    whole = scan.preview.column("word")
    for part in scan.partitions():
        (_, _, mask, codes, dictionary), = part.decoded(("word",), None)
        assert dictionary.tolist() == sorted(
            set(whole.data[part.start:part.stop].tolist()))
        assert codes.dtype == np.int32 and not mask.any()
        assert np.array_equal(dictionary[codes],
                              whole.data[part.start:part.stop])


def test_only_the_previewed_file_and_only_the_graph_are_served(tmp_path,
                                                               monkeypatch):
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(_frame(), first)
    write_csv(_frame(), second)
    scan = scan_csv([first, second], chunk_rows=CHUNK_ROWS)
    served = ["decoded" in task.kwargs
              for task in _tasks(PartitionedFrame.from_source(scan))]
    assert served == [True] * 4 + [False] * 4

    calls = Counter()
    parse = frame_io.parse_csv_range

    def counted(*args, **kwargs):
        calls[args[0]] += 1
        return parse(*args, **kwargs)

    monkeypatch.setattr(frame_io, "parse_csv_range", counted)
    assert scan.to_frame() == concat_rows([_frame(), _frame()])
    scan.read_chunk(0)
    assert calls == {first: 5, second: 4}


@pytest.mark.parametrize("inference_rows", [N_ROWS - 1, N_ROWS, N_ROWS + 1])
def test_a_preview_cut_short_is_never_served(data_csv, inference_rows):
    scan = scan_csv(data_csv, chunk_rows=CHUNK_ROWS,
                    inference_rows=inference_rows)
    served = any("decoded" in task.kwargs
                 for task in _tasks(PartitionedFrame.from_source(scan)))
    # A preview of exactly every record that reached the end of the file
    # is the whole file too.
    assert served == (inference_rows >= N_ROWS)


def test_a_grown_file_is_served_only_while_the_preview_holds_it(data_csv):
    scan = scan_csv(data_csv, chunk_rows=CHUNK_ROWS, inference_rows=1_000)
    rows = "".join(f"{i}.5,{i},lima,w1,true,2021-01-01\r\n" for i in range(50))
    with open(data_csv, "a", newline="") as handle:
        handle.write(rows)
    grown = scan.refreshed()
    partitioned = PartitionedFrame.from_source(grown)
    assert len(grown.preview) == grown.n_rows == N_ROWS + 50
    assert all("decoded" in task.kwargs for task in _tasks(partitioned))
    assert partitioned.compute() == grown.to_frame()
    with open(data_csv, "a", newline="") as handle:
        handle.write(rows * 2)
    regrown = grown.refreshed()
    assert regrown.n_rows == N_ROWS + 150
    assert not any("decoded" in task.kwargs for task
                   in _tasks(PartitionedFrame.from_source(regrown)))


# --------------------------------------------------------------------------- #
# A cold report decodes each byte once; a fresh process hits every chunk.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheduler", ["synchronous", "threaded"])
def test_a_cold_report_decodes_each_byte_once(data_csv, tmp_path, monkeypatch,
                                              scheduler):
    calls = Counter()
    parse, preview = frame_io.parse_csv_range, frame_io._scan_preview

    def counted_parse(*args, **kwargs):
        calls["parse_csv_range"] += 1
        return parse(*args, **kwargs)

    def counted_preview(*args, **kwargs):
        calls["_scan_preview"] += 1
        return preview(*args, **kwargs)

    monkeypatch.setattr(frame_io, "parse_csv_range", counted_parse)
    monkeypatch.setattr(frame_io, "_scan_preview", counted_preview)
    clear_cache()
    report = create_report(scan_csv(data_csv, chunk_rows=CHUNK_ROWS), config={
        "compute.scheduler": scheduler,
        "cache.disk_dir": str(tmp_path / "disk")})
    assert calls == {"_scan_preview": 1}
    # Every chunk still misses the sidecar once, and is written to it.
    assert report.sidecar_stats["sidecar_misses"] >= 4

    child = textwrap.dedent(f"""
        from repro import create_report
        from repro.frame.io import scan_csv
        report = create_report(scan_csv({data_csv!r}, chunk_rows={CHUNK_ROWS}),
                               config={{"compute.scheduler": "synchronous",
                                        "cache.disk_dir": {str(tmp_path / "disk")!r}}})
        stats = report.sidecar_stats
        assert stats["sidecar_misses"] == 0, stats
        assert stats["sidecar_hits"] >= 4, stats
        print("child-warm-ok")
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SCHEDULER", None)
    completed = subprocess.run([sys.executable, "-c", child], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert "child-warm-ok" in completed.stdout


# --------------------------------------------------------------------------- #
# Hostile files: the parse path's error, or its frame and report.
# --------------------------------------------------------------------------- #
HOSTILE = {
    # The layout counts 2 records, the preview's reader 3 rows (it splits
    # on the bare \r) and stops at inference_rows=2: without the
    # end-of-file condition the preview would serve "2,y" and drop "q".
    "bare-cr-preview-cut": (b"a,b\n1,x\n2,y\rq\n", {"inference_rows": 2}),
    "bare-cr": (b"a,b\n1,x\n2,y\rq\n3,z\n", {}),
    "stray-quote": (b"a,b\n1,x\"y\n2,z\n3,w\n", {}),
    "balanced-stray-quotes": (b"a,b\n1,x\"y\n2,z\"w\n3,v\n4,u\n",
                              {"chunk_rows": 1}),
    # Reader and layout both count 3 records, but the reader's first one
    # spans the layout's first chunk boundary: only the quotes the reader
    # kept as text give it away.
    "stray-quotes-across-a-boundary": (
        b'a,b\nx"y,"abc\ndef"\n1,a"b\n2,c\n', {"chunk_rows": 1}),
    "escaped-quotes": (b'a,b\n1,"say ""hi"""\n2,"x\ny"\n3,z\n',
                       {"chunk_rows": 2}),
    "stray-quotes-hidden-by-override": (
        b"a,b\n1\",x\n\n2\",y\n3,z\n",
        {"inference_rows": 3, "dtypes": {"a": DType.INT}}),
    "exactly-inference-rows": (
        b"a,b\n1,x\n2,y\n3,z\n4,w\n5,v\n", {"inference_rows": 5,
                                            "chunk_rows": 2}),
    "quoted-newline-at-boundary": (
        b'a,b\n1,"x\ny"\n2,"p\r\nq"\n3,z\n4,"m\n\nn"\n5,v\n',
        {"chunk_rows": 2}),
    "blank-and-whitespace-lines": (
        b"a,b\n1,x\n\n   \n2,y\r\n\r\n3, \n \t\n4,w\n\n", {"chunk_rows": 2}),
    "blank-lines-preview-cut": (b"a,b\n1,x\n\n\n2,y\n3,z\n",
                                {"inference_rows": 3}),
    "lenient-overrides": (
        b"a,b,c\n1,x,2021-01-01\nfoo,y,never\n3,,2021-02-03\n2.5,z,\n",
        {"dtypes": {"a": DType.INT, "c": DType.DATETIME}, "chunk_rows": 2}),
}


def _outcome(run):
    """``("frame", value)`` of *run*, or ``("error", message)`` of the
    ``FrameError`` it raised (a scheduler wraps it with the task's key)."""
    try:
        return "frame", run()
    except (FrameError, SchedulerError) as error:
        cause = getattr(error, "cause", error)
        assert isinstance(cause, FrameError), repr(error)
        return "error", str(cause)


def _parse_only_scan(monkeypatch, path, options):
    """The scan as it would be if no preview ever read the whole file."""
    preview = frame_io._scan_preview
    with monkeypatch.context() as patch:
        patch.setattr(frame_io, "_scan_preview",
                      lambda *args: preview(*args)[:2] + (False,))
        return scan_csv(path, **options)


def _report_html(report) -> str:
    """The report's HTML minus its timings and per-render element ids."""
    html = re.sub(r'<div class="repro-progress">.*?</div>', "",
                  report.to_html())
    return re.sub(r"repro-\d+", "repro-N", html)


@pytest.mark.parametrize("case", list(HOSTILE))
def test_a_hostile_file_reads_as_the_parse_path_reads_it(tmp_path, monkeypatch,
                                                         case):
    content, options = HOSTILE[case]
    path = str(tmp_path / f"{case}.csv")
    with open(path, "wb") as handle:
        handle.write(content)
    options = {"chunk_rows": 100, **options}
    scan = scan_csv(path, **options)
    parsed = _parse_only_scan(monkeypatch, path, options)

    expected = _outcome(scan.to_frame)
    assert _outcome(parsed.to_frame) == expected
    if expected[0] == "error":
        assert repr(path) in expected[1] and "at bytes [" in expected[1]
    for scheduler in (SynchronousScheduler(), ThreadedScheduler(2)):
        graph = _outcome(lambda: PartitionedFrame.from_source(scan).compute(
            scheduler=scheduler))
        assert graph == expected

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for scheduler in ("synchronous", "threaded"):
            reports = [_outcome(lambda: _report_html(create_report(
                source, config={"compute.scheduler": scheduler,
                                "cache.enabled": False,
                                "cache.disk_dir": str(tmp_path / name)})))
                       for source, name in ((scan, "a"), (parsed, "b"))]
            assert reports[0] == reports[1]
            assert reports[0][0] == expected[0]
            if expected[0] == "error":
                assert reports[0][1] == expected[1]


def test_the_served_report_equals_the_parsed_report(data_csv, tmp_path,
                                                    monkeypatch):
    # Under the process-wide default scheduler, so a process or remote
    # default ships the served tasks through worker bundles.
    options = {"chunk_rows": CHUNK_ROWS}
    served = create_report(scan_csv(data_csv, **options), config={
        "cache.enabled": False, "cache.disk_dir": str(tmp_path / "a")})
    parsed = create_report(_parse_only_scan(monkeypatch, data_csv, options),
                           config={"cache.enabled": False,
                                   "cache.disk_dir": str(tmp_path / "b")})
    assert _report_html(served) == _report_html(parsed)
    assert served.sidecar_stats == parsed.sidecar_stats
    shipped = sum(report.shipped for report in served.execution_reports)
    pooled = Config.from_user().get("compute.scheduler") in ("process",
                                                             "remote")
    assert (shipped > 0) == pooled
