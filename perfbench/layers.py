"""The staged layer pass: each module's public functions, timed from outside.

One pass per traced run drives every layer on the workload's own input and
records a span around each call, so a later change can say *which* layer it
moved.  Module names are the layer names.  Times are totals over the
workload's chunks / columns; a layer the workload never enters reports 0 —
the predicted "flat on" control made explicit.
"""

from __future__ import annotations

import csv
import os
import socket
import threading
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.frame import sidecar, zonemap
from repro.frame.dtypes import DType, coerce_values, encode_string_codes
from repro.frame.fingerprint import fingerprint_frame
from repro.frame.frame import concat_rows
from repro.frame.io import parse_csv_range
from repro.graph import TaskCache, wire
from repro.stats import (
    DistinctSketch,
    MomentsSketch,
    StreamingHistogram,
    categorical_summary_of,
    correlation_matrix,
    merge_all,
    numeric_summary_of,
)
from repro.stats.sketches import DuplicateSketch

from perfbench.trace import Recorder
from perfbench.workloads import Session, release_cpus

SCHEDULERS = ("synchronous", "threaded", "process")
_HISTOGRAM_BINS = 512     # the program's compute.histogram_bins_internal


class _Timer:
    """Times calls as spans and accumulates them into named metrics."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.metrics: Dict[str, float] = {}

    def call(self, metric: str, function: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        with self.recorder.span(metric) as record:
            value = function(*args, **kwargs)
        self.metrics[metric] = self.metrics.get(metric, 0.0) + \
            record["end"] - record["start"]
        return value


def staged_pass(session: Session, recorder: Recorder,
                report: Any) -> Dict[str, float]:
    """Drive every layer once on *session*'s input; returns the metrics.

    *report* is a ``Report`` an iteration computed on the same input: its
    rendering is the one layer that needs a finished result to run on.
    """
    timer = _Timer(recorder)
    metrics = timer.metrics
    recorder.iteration = None          # staged spans belong to no iteration
    with recorder.span("layers"):
        metrics["render.html_bytes"] = float(len(
            timer.call("render.report_html_s", report.to_html)))
        if session.paths:
            scans = [timer.call("frame.io.layout_s", session.scan, path)
                     for path in session.paths]
            chunks = _decode(timer, scans)
            _dtypes(timer, scans)
            _sidecar(timer, session, scans, chunks)
            _zonemap(timer, session, scans, chunks)
            for scan in scans:
                timer.call("frame.fingerprint.frame_s", scan.fingerprint)
            whole = concat_rows(chunks)
        else:
            whole = session.frame
            bounds = range(0, len(whole), session.chunk_rows)
            chunks = [whole.slice(start, min(start + session.chunk_rows, len(whole)))
                      for start in bounds]
            whole.invalidate_fingerprint()      # columns memoise theirs
            timer.call("frame.fingerprint.frame_s", fingerprint_frame, whole)
        sketches = _stats(timer, whole, chunks)
        _task_cache(timer, chunks)
        _wire(timer, chunks, sketches)
        _schedulers(timer, session)
    return metrics


# --------------------------------------------------------------------------- #
# frame.*
# --------------------------------------------------------------------------- #
def _decode(timer: _Timer, scans: List[Any]) -> List[Any]:
    chunks = []
    decoded = 0
    for scan in scans:
        columns, dtypes = scan.columns, scan.dtypes
        for start, stop in scan.byte_ranges:
            chunks.append(timer.call("frame.io.decode_s", parse_csv_range,
                                     scan.path, start, stop, columns, dtypes))
            timer.call("frame.io.decode_projected_s", parse_csv_range,
                       scan.path, start, stop, columns, dtypes,
                       usecols=["num_0"])
            decoded += stop - start
    timer.metrics["frame.io.decode_mb_per_s"] = \
        decoded / 1e6 / timer.metrics["frame.io.decode_s"]
    return chunks


def _dtypes(timer: _Timer, scans: List[Any]) -> None:
    """Coercion and dictionary encoding on cells the harness tokenises."""
    for scan in scans:
        with open(scan.path, "r", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        for name, cells in zip(scan.columns, zip(*rows)):
            dtype = scan.dtypes[name]
            values, mask = timer.call("frame.dtypes.coerce_s", coerce_values,
                                      list(cells), dtype, lenient=True)
            if dtype is DType.STRING:
                timer.call("frame.dtypes.encode_s", encode_string_codes,
                           values, mask)


def _chunk_ranges(scans: List[Any]) -> List[Tuple[Any, int, int, int]]:
    """``(scan, chunk index, byte start, byte stop)`` in chunk order."""
    return [(scan, index, start, stop) for scan in scans
            for index, (start, stop) in enumerate(scan.byte_ranges)]


def _sidecar(timer: _Timer, session: Session, scans: List[Any],
             chunks: List[Any]) -> None:
    directory = os.path.join(session.dir, "staged-sidecar")
    route = sidecar.SidecarRoute(directory=directory)
    for (scan, index, start, stop), chunk in zip(_chunk_ranges(scans), chunks):
        timer.call("frame.sidecar.store_s", sidecar.store_chunk, scan.path,
                   start, stop, scan.chunk_stamp(index), chunk, route)
    for (scan, index, start, stop), chunk in zip(_chunk_ranges(scans), chunks):
        loaded = timer.call("frame.sidecar.load_s", sidecar.load_chunk,
                            scan.path, start, stop, scan.chunk_stamp(index),
                            scan.columns, scan.dtypes, len(chunk), route)
        if loaded is None:
            raise RuntimeError("staged sidecar load missed a chunk it stored")
    stored = sum(os.path.getsize(os.path.join(root, name))
                 for root, _, names in os.walk(directory) for name in names)
    timer.metrics["frame.sidecar.bytes_per_csv_byte"] = \
        stored / session.csv_bytes


def _zonemap(timer: _Timer, session: Session, scans: List[Any],
             chunks: List[Any]) -> None:
    entries: Dict[str, Dict[str, Any]] = {}
    for (scan, index, start, stop), chunk in zip(_chunk_ranges(scans), chunks):
        stats = timer.call("frame.zonemap.stats_s",
                           zonemap.chunk_column_stats, chunk)
        entries.setdefault(scan.path, {})[zonemap.chunk_key(start, stop)] = \
            zonemap.encode_zone_entry(stats, scan.chunk_stamp(index))
    for number, per_file in enumerate(entries.values()):
        # The zone file lands next to the name it is given; a staged name
        # keeps the workload's own zone maps untouched.
        staged = os.path.join(session.dir, f"staged-{number}.csv")
        timer.call("frame.zonemap.save_s", zonemap.save_zone_entries,
                   staged, per_file)
        loaded = timer.call("frame.zonemap.load_s",
                            zonemap.load_zone_entries, staged)
        if len(loaded) != len(per_file):
            raise RuntimeError("staged zone map did not round-trip")


# --------------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------------- #
def _stats(timer: _Timer, whole: Any, chunks: List[Any]) -> List[Any]:
    """Exact summaries on whole columns, sketches per chunk, then merges."""
    numeric = [name for name, dtype in whole.dtypes.items() if dtype.is_numeric]
    strings = [name for name, dtype in whole.dtypes.items()
               if dtype is DType.STRING]
    for name in numeric:
        timer.call("stats.summary_s", numeric_summary_of, whole.column(name))
    for name in strings:
        timer.call("stats.summary_s", categorical_summary_of, whole.column(name))

    ranges = {name: (float(np.nanmin(values)), float(np.nanmax(values)))
              for name in numeric
              for values in [whole.column(name).to_numpy().astype(np.float64)]}
    per_kind: Dict[Tuple[str, str], List[Any]] = {}
    for chunk in chunks:
        for name in numeric:
            values = chunk.column(name).to_numpy()
            per_kind.setdefault(("moments", name), []).append(timer.call(
                "stats.sketch_update_s", MomentsSketch.from_values, values))
            per_kind.setdefault(("histogram", name), []).append(timer.call(
                "stats.sketch_update_s", StreamingHistogram.from_values,
                values, _HISTOGRAM_BINS, *ranges[name]))
        for name in strings:
            per_kind.setdefault(("distinct", name), []).append(timer.call(
                "stats.sketch_update_s", DistinctSketch.from_values,
                chunk.column(name).to_numpy(drop_missing=True)))
        per_kind.setdefault(("duplicates", ""), []).append(timer.call(
            "stats.sketch_update_s", DuplicateSketch.from_frame, chunk))
    merged = [timer.call("stats.sketch_merge_s", merge_all, parts)
              for parts in per_kind.values()]

    matrix = np.column_stack([whole.column(name).to_numpy().astype(np.float64)
                              for name in numeric])
    for method in ("pearson", "spearman", "kendall"):
        timer.call("stats.corr_s", correlation_matrix, matrix, method)
    return merged


# --------------------------------------------------------------------------- #
# graph
# --------------------------------------------------------------------------- #
def _task_cache(timer: _Timer, chunks: List[Any]) -> None:
    cache = TaskCache()
    for index, chunk in enumerate(chunks):
        timer.call("graph.cache.put_s", cache.put, f"chunk-{index}", chunk)
    for index in range(len(chunks)):
        hit, _ = timer.call("graph.cache.get_s", cache.lookup, f"chunk-{index}")
        if not hit:
            raise RuntimeError("staged task cache lost an entry")


def _wire(timer: _Timer, chunks: List[Any], sketches: List[Any]) -> None:
    """Payload (de)serialisation and framed transport over a socket pair."""
    blobs = [timer.call("graph.wire.dump_s", wire.dump_payload, value)
             for value in chunks + [sketches]]
    for blob in blobs:
        timer.call("graph.wire.load_s", wire.load_payload, blob)
    timer.metrics["graph.wire.bytes_per_chunk"] = \
        sum(len(blob) for blob in blobs[:-1]) / len(chunks)

    left, right = socket.socketpair()
    received: List[int] = []

    def drain() -> None:
        for _ in blobs:
            received.append(len(wire.recv_frame(right)[1]))

    # A frame can exceed the socket buffer, so the peer must read while
    # the sender writes; the span covers send + receive of every frame.
    reader = threading.Thread(target=drain)
    try:
        with timer.recorder.span("graph.wire.roundtrip_s") as record:
            reader.start()
            for blob in blobs:
                wire.send_frame(left, wire.MSG_RESULT, blob)
            reader.join(timeout=60)
    finally:
        left.close()
        right.close()
    if received != [len(blob) for blob in blobs]:
        raise RuntimeError("staged wire round trip lost a frame")
    timer.metrics["graph.wire.roundtrip_s"] = record["end"] - record["start"]


def _schedulers(timer: _Timer, session: Session) -> None:
    """The same cold ``report`` op under each in-process backend."""
    for backend in SCHEDULERS:
        config = dict(session.config, **{"compute.scheduler": backend})
        if backend == "process" and session.workload.scheduler != "process":
            # The last backend measured: a threaded workload's process is
            # confined to one CPU, which a pool's workers must not inherit.
            release_cpus()
            session.reset()                       # start the pool untimed
            session.run_op("report", None, 0, config=config)
        session.reset()
        metric = f"graph.sched.{'sync' if backend == 'synchronous' else backend}_report_s"
        with timer.recorder.span(metric):
            outcome = session.run_op("report", None, 0, config=config)
        if outcome.problems:
            raise RuntimeError(f"staged {backend} report: {outcome.problems}")
        timer.metrics[metric] = outcome.seconds
