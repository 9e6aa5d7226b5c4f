"""A plan is a value: ``plan_batch`` builds, ``run_batch`` runs.

``ComputeContext.resolve`` is plan, then run, then append.  The plan of a
batch is a frozen :class:`BatchPlan` — bound values, the partition sets
after the batch, the planner's own counters and the rows audit — that can
be built, compared and tested without a scheduler.  These tests pin that
planning executes nothing and is deterministic, that the per-call views
read from the plans and reports are unchanged, that each report section's
views describe its own batches, and that a filtered report decodes each
surviving chunk once.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from repro import DataFrame, create_report, plot, plot_correlation, plot_missing
from repro.eda.compute import base
from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config
from repro.frame import io as frame_io
from repro.frame.io import scan_csv, write_csv
from repro.frame.sidecar import stats_snapshot
from repro.frame.source import FilteredSource
from repro.graph import (
    PartitionedFrame,
    TaskCache,
    get_global_cache,
    set_global_cache,
)
from repro.graph.delayed import Delayed
from repro.graph.scheduler import RunStats

N_ROWS = 1_200
CHUNK_ROWS = 200
VIEWS = ("projection", "predicate", "sidecar", "incremental")


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = get_global_cache()
    set_global_cache(TaskCache())
    yield
    set_global_cache(previous)


def _frame(n_rows: int = N_ROWS) -> DataFrame:
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 1.0, n_rows)
    x[rng.random(n_rows) < 0.1] = np.nan
    return DataFrame({
        "ts": np.arange(n_rows, dtype=np.float64),
        "x": x,
        "y": rng.normal(5.0, 2.0, n_rows),
        "city": list(rng.choice(["a", "b", "c"], n_rows)),
    })


def _sources(directory):
    path = str(directory / "data.csv")
    write_csv(_frame(), path)
    scan = scan_csv(path, chunk_rows=CHUNK_ROWS)
    return {"memory": _frame(), "scan": scan, "filtered": scan[scan.ts >= 900]}


# --------------------------------------------------------------------------- #
# plan_batch executes nothing, twice the same way.
# --------------------------------------------------------------------------- #
def _report_batch(context: ComputeContext):
    """The overview's stage-1 request of ``create_report``."""
    requested = {"n_rows": context.row_count(),
                 "duplicates": context.duplicate_rows(10 ** 6)}
    numerical = context.numerical_columns()
    for name in context.column_names:
        requested[name] = context.numeric_summary(name) if name in numerical \
            else context.categorical_summary(name)
    return requested


def _keys(plan: base.BatchPlan):
    return {key: value.key for key, value in plan.values.items()
            if isinstance(value, Delayed)}


def test_planning_executes_nothing_and_is_deterministic(tmp_path, monkeypatch):
    filtered = _sources(tmp_path)["filtered"]
    filtered.source.zone_map()            # the pruning facts, built up front
    context = ComputeContext(filtered, Config.from_user(
        {"cache.disk_dir": str(tmp_path / "disk")}))
    requested = _report_batch(context)

    def no_decode(*args, **kwargs):
        raise AssertionError("planning decoded a chunk")

    monkeypatch.setattr(frame_io, "parse_csv_range", no_decode)
    sidecar = stats_snapshot()
    first = base.plan_batch(context.call, context.source, {}, requested)
    second = base.plan_batch(context.call, context.source, {}, requested)
    assert stats_snapshot() == sidecar
    assert context.scheduler.last_run is None and context.reports == []

    assert list(first.partitions) == list(second.partitions) == [None]
    assert first.planned == second.planned
    assert (first.planned.chunks_skipped, first.planned.columns_pruned) == (4, 0)
    assert _keys(first) == _keys(second) and set(_keys(first)) == set(requested)
    assert first.audit is not None and second.audit is not None
    assert first.audit[0].key == second.audit[0].key
    assert first.audit[1] == second.audit[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.audit = None


def test_the_audit_rides_only_a_filtered_calls_first_batch(tmp_path):
    sources = _sources(tmp_path)
    config = Config.from_user({"cache.disk_dir": str(tmp_path / "disk")})
    filtered = ComputeContext(sources["filtered"], config)
    first = base.plan_batch(filtered.call, filtered.source, {},
                            {"s": filtered.numeric_summary("x")})
    kept_task, planned_rows = first.audit
    assert isinstance(kept_task, Delayed)
    assert planned_rows == 2 * CHUNK_ROWS          # rows 800.. of the file
    later = base.plan_batch(filtered.call, filtered.source, first.partitions,
                            {"h": filtered.histogram("x", 4, 0.0, 1.0)})
    assert later.audit is None and later.planned.chunks_skipped == 0
    assert later.partitions[("x",)] is first.partitions[("x",)]

    scan = ComputeContext(sources["scan"], config)
    unfiltered = base.plan_batch(scan.call, scan.source, {},
                                 {"s": scan.numeric_summary("x")})
    assert unfiltered.audit is None
    assert unfiltered.planned.chunks_skipped == 0
    assert unfiltered.planned.columns_pruned == 3 * N_ROWS // CHUNK_ROWS
    # Plain values pass through and build nothing.
    assert base.plan_batch(scan.call, scan.source, {}, {"n": 7}) == \
        base.BatchPlan({"n": 7}, {}, RunStats())


# --------------------------------------------------------------------------- #
# The four per-call views, pinned.
# --------------------------------------------------------------------------- #
CALLS = {
    "plot": lambda source, config: plot(
        source, mode="intermediates", config=config),
    "plot_x": lambda source, config: plot(
        source, "x", mode="intermediates", config=config),
    "plot_correlation": lambda source, config: plot_correlation(
        source, mode="intermediates", config=config),
    "plot_missing": lambda source, config: plot_missing(
        source, mode="intermediates", config=config),
    "create_report": lambda source, config: create_report(source, config=config),
}

#: Recorded before plans were values.  Per (call, source): the enabled flags
#: of the projection / predicate / sidecar / incremental views, then
#: projected_parse_tasks, full_parse_tasks, columns_pruned, chunks_skipped,
#: rows_filtered, sidecar_hits, sidecar_misses, bytes_decoded_avoided,
#: chunks_reused, chunks_new, bytes_reparsed.
VIEW_TABLE = {
    ("plot", "memory"): ("0000", 0, 6, 0, 0, 0, 0, 0, 0, 0, 12, 0),
    ("plot", "scan"): ("1010", 0, 6, 0, 0, 0, 6, 6, 51707, 0, 12, 103414),
    ("plot", "filtered"): ("1110", 0, 2, 0, 4, 100, 2, 2, 17523, 0, 4, 35046),
    ("plot_x", "memory"): ("0000", 0, 6, 0, 0, 0, 0, 0, 0, 0, 12, 0),
    ("plot_x", "scan"): ("1010", 6, 0, 18, 0, 0, 6, 6, 51707, 0, 12, 103414),
    ("plot_x", "filtered"): ("1110", 2, 0, 6, 4, 100, 2, 2, 17523, 0, 4, 35046),
    ("plot_correlation", "memory"): ("0000", 0, 6, 0, 0, 0, 0, 0, 0, 0, 6, 0),
    ("plot_correlation", "scan"): ("1010", 6, 0, 6, 0, 0, 0, 6, 0, 0, 6, 51707),
    ("plot_correlation", "filtered"): ("1110", 2, 0, 2, 4, 100, 0, 2, 0, 0, 2,
                                       17523),
    ("plot_missing", "memory"): ("0000", 0, 6, 0, 0, 0, 0, 0, 0, 0, 6, 0),
    ("plot_missing", "scan"): ("1010", 0, 6, 0, 0, 0, 0, 6, 0, 0, 6, 51707),
    ("plot_missing", "filtered"): ("1110", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ("create_report", "memory"): ("0000", 0, 6, 0, 0, 0, 0, 0, 0, 0, 30, 0),
    ("create_report", "scan"): ("1010", 0, 6, 0, 0, 0, 24, 6, 206828, 0, 30,
                                258535),
    ("create_report", "filtered"): ("1110", 0, 2, 0, 4, 100, 6, 2, 52569, 0, 8,
                                    70092),
}


def _expected_views(row, predicate):
    flags, *counts = row
    (projected_tasks, full_tasks, columns_pruned, chunks_skipped, rows_filtered,
     hits, misses, avoided, reused, new, reparsed) = counts
    enabled = [flag == "1" for flag in flags]
    return {
        "projection": {"enabled": enabled[0],
                       "projected_parse_tasks": projected_tasks,
                       "full_parse_tasks": full_tasks,
                       "columns_pruned": columns_pruned,
                       "chunks_skipped": chunks_skipped,
                       "rows_filtered": rows_filtered},
        "predicate": {"enabled": enabled[1], "predicate": predicate,
                      "chunks_skipped": chunks_skipped,
                      "rows_filtered": rows_filtered},
        "sidecar": {"enabled": enabled[2], "sidecar_hits": hits,
                    "sidecar_misses": misses, "bytes_decoded_avoided": avoided},
        "incremental": {"enabled": enabled[3], "chunks_reused": reused,
                        "chunks_new": new, "bytes_reparsed": reparsed},
    }


@pytest.mark.parametrize("call, kind", sorted(VIEW_TABLE))
def test_the_per_call_views_are_unchanged(tmp_path, call, kind):
    source = _sources(tmp_path)[kind]
    config = {"compute.scheduler": "synchronous", "cache.enabled": False,
              "cache.disk_dir": str(tmp_path / "disk"),
              "compute.use_graph": "always",
              "compute.partition_rows": CHUNK_ROWS}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # filtered Missing
        result = CALLS[call](source, config)
    views = {view: getattr(result, f"{view}_stats") if call == "create_report"
             else result.meta[view] for view in VIEWS}
    predicate = (("ts", ">=", 900),) if kind == "filtered" else None
    assert views == _expected_views(VIEW_TABLE[call, kind], predicate)


# --------------------------------------------------------------------------- #
# Every report section's views describe its own batches.
# --------------------------------------------------------------------------- #
def _views_over(reports, facts):
    """*facts*' call-plan entries, each counter summed over *reports*."""
    counters = {spec.name for spec in dataclasses.fields(RunStats)}
    return {name: sum(getattr(report, name) for report in reports)
            if name in counters else value for name, value in facts.items()}


@pytest.mark.parametrize("kind", ["memory", "scan", "filtered"])
def test_each_report_section_views_its_own_batches(tmp_path, kind):
    path = str(tmp_path / "data.csv")
    write_csv(_frame(), path)
    scan = scan_csv(path, chunk_rows=N_ROWS // 2)
    assert scan.n_chunks == 2
    source = {"memory": _frame(), "scan": scan,
              "filtered": scan[scan.ts >= 900]}[kind]
    config = {"compute.scheduler": "synchronous",
              "cache.disk_dir": str(tmp_path / "disk"),
              "compute.use_graph": "always",
              "compute.partition_rows": N_ROWS // 2}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # filtered Missing
        report = create_report(source, config=config)
    whole = {view: getattr(report, f"{view}_stats") for view in VIEWS}
    for view, stats in whole.items():
        assert stats == _views_over(report.execution_reports, stats), view
    assert "Correlations" in report.sections
    for name, section in report.sections.items():
        reports = section.meta["execution_reports"]
        for view, stats in whole.items():
            assert section.meta[view] == _views_over(reports, stats), \
                f"{name}: meta[{view!r}]"


# --------------------------------------------------------------------------- #
# A warm filtered report decodes no chunk: its sidecar holds each survivor.
# --------------------------------------------------------------------------- #
def test_a_warm_filtered_report_decodes_each_surviving_chunk_once(
        tmp_path, monkeypatch):
    # 20 k sorted timestamps in five 4 k-row chunks; the filter keeps the
    # last chunk, far past the scan's 10 k-row preview.  Before plans were
    # values the report asked the filtered source for its preview five
    # times (one decode each) and the Missing section decoded all five
    # chunks to materialize the frame: ten decodes with warm sidecars.  The
    # preview's fallback and the Missing section's materialization both read
    # the surviving chunk's record over the call's sidecar route.
    path = str(tmp_path / "log.csv")
    write_csv(_frame(20_000), path)
    scan = scan_csv(path, chunk_rows=4_000)
    config = {"compute.scheduler": "synchronous",
              "cache.disk_dir": str(tmp_path / "disk")}
    where = ("ts", ">=", 18_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        create_report(scan, config=config, where=where)        # warm-up
        counts = Counter()
        parse, preview = frame_io.parse_csv_range, FilteredSource.schema_preview

        def counted_parse(*args, **kwargs):
            counts["parse_csv_range"] += 1
            return parse(*args, **kwargs)

        def counted_preview(self, **kwargs):
            counts["schema_preview"] += 1
            return preview(self, **kwargs)

        monkeypatch.setattr(frame_io, "parse_csv_range", counted_parse)
        monkeypatch.setattr(FilteredSource, "schema_preview", counted_preview)
        report = create_report(scan, config=config, where=where)
    assert counts["schema_preview"] == 1
    assert counts["parse_csv_range"] == 0
    assert report.sidecar_stats["sidecar_misses"] == 0
    assert report.predicate_stats["chunks_skipped"] == 4


# --------------------------------------------------------------------------- #
# The streaming sample's chunks draw independent rows.
# --------------------------------------------------------------------------- #
def _chunk_reservoirs(source):
    """The per-chunk reservoirs of the streaming sample plan, column ``ts``."""
    plan = base.REDUCTION_KINDS["sample"].sketch
    partitioned = PartitionedFrame.from_source(source)
    args = plan.chunk_args(["ts"], (("ts",), 1_000, 0), partitioned.n_rows)
    return partitioned.reduction(plan.chunk, list, chunk_args=args,
                                 indexed=plan.indexed).compute()


def test_equal_chunks_keep_independent_reservoir_rows(tmp_path):
    # Each chunk seeds its draw with its start row: two 4000-row chunks at
    # capacity 1000 keep different row offsets, as the exact merge assumes.
    path = str(tmp_path / "data.csv")
    write_csv(_frame(8_000), path)
    scan = scan_csv(path, chunk_rows=4_000)
    sketches = _chunk_reservoirs(scan)
    offsets = [sketch.frame.column("ts").to_numpy() - start
               for sketch, start in zip(sketches, (0, 4_000))]
    assert [len(rows) for rows in offsets] == [1_000, 1_000]
    assert not np.array_equal(*offsets)
    # A filtered partition keeps its pre-filter start, so a filter that
    # keeps every row keeps every draw.
    for kept, sketch in zip(_chunk_reservoirs(scan[scan.ts >= 0]), sketches):
        np.testing.assert_array_equal(kept.frame.column("ts").to_numpy(),
                                      sketch.frame.column("ts").to_numpy())
