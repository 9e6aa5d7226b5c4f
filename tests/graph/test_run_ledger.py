"""The run ledger: ``RunStats`` is the one counter record.

Each execution report is a scheduler's ``last_run``, several runs merge
with ``+=``, and the per-call ``meta[...]`` stats dicts are views over the
sum of the call's reports — so a counter added to ``RunStats`` reaches
every public result without another edit, and no view can drift from the
reports it summarises.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import fields

import numpy as np
import pytest

from repro import DataFrame, plot, plot_missing
from repro.frame.io import scan_csv, write_csv
from repro.frame.source import InMemorySource
from repro.graph import (
    TaskCache,
    compute,
    delayed,
    get_global_cache,
    get_scheduler,
    set_global_cache,
)
from repro.graph.delayed import merge_graphs
from repro.graph.scheduler import RunStats

N_ROWS = 1_200
CHUNK_ROWS = 200

#: Entries of the ``meta[...]`` stats dicts that only the planner knows;
#: every other entry must be a ledger counter.
PLANNER_ONLY = {"enabled", "predicate", "projected_parse_tasks",
                "full_parse_tasks"}


@pytest.fixture(autouse=True)
def fresh_cache():
    previous = get_global_cache()
    set_global_cache(TaskCache())
    yield
    set_global_cache(previous)


def test_merge_adds_integers_and_keeps_the_busiest_run_per_worker():
    total = RunStats(executed=2, shipped=1, worker_utilization={"a": 0.5})
    run = RunStats(executed=3, released=4,
                   worker_utilization={"a": 0.25, "b": 0.75})
    total += run
    assert (total.executed, total.shipped, total.released) == (5, 1, 4)
    assert total.worker_utilization == {"a": 0.5, "b": 0.75}
    assert run.worker_utilization == {"a": 0.25, "b": 0.75}


def test_run_stats_has_no_subclass_in_the_library():
    # Importing every layer that builds execution reports registers any
    # subclass it defines; there must be none — the run record is the report.
    import repro.eda.compute  # noqa: F401
    import repro.graph.remote  # noqa: F401
    import repro.report  # noqa: F401
    library = [cls for cls in RunStats.__subclasses__()
               if cls.__module__.split(".")[0] == "repro"]
    assert library == []


@pytest.mark.parametrize("cached", [False, True])
def test_plan_records_the_unions_shared_tasks(cached):
    # Graph union is the sharing pass; planning copies its count into the
    # run record whether or not a cache is attached.  The two bases are
    # built apart but compute the same thing, so the union keeps one.
    values = [delayed(operator.mul)(21, 2).then(operator.add, 0),
              delayed(operator.mul)(21, 2).then(operator.mul, 2)]
    graph, _ = merge_graphs(values)
    backend = get_scheduler("synchronous",
                            cache=TaskCache() if cached else None)
    assert compute(*values, scheduler=backend) == [42, 84]
    run = backend.last_run
    assert run.shared_tasks == graph.shared >= 1
    assert run.planned == run.tasks_executed == len(graph)
    assert run.tasks_before_optimization == len(graph) + graph.shared
    assert compute(*values, scheduler=backend) == [42, 84]
    replay = backend.last_run
    assert replay.shared_tasks == graph.shared
    if cached:
        # Both outputs hit; their shared ancestor is never visited.
        assert (replay.cache_hits, replay.tasks_skipped_by_cache,
                replay.tasks_executed) == (2, 1, 0)
    else:
        assert (replay.cache_hits, replay.tasks_executed) == (0, len(graph))


@pytest.mark.parametrize("scheduler", ["threaded", "process"])
def test_summed_runs_are_the_fieldwise_merge(scheduler):
    base = delayed(operator.mul)(21, 2)
    values = [base.then(operator.add, 0), base.then(operator.mul, 2),
              delayed(operator.mul)(3, 4)]
    backend = get_scheduler(scheduler, max_workers=2)
    results, runs, report = [], [], RunStats()
    try:
        for value in values:
            results += compute(value, scheduler=backend)
            runs.append(backend.last_run)
            report += backend.last_run
    finally:
        backend.close()
    assert results == [42, 84, 12]
    assert len({id(run) for run in runs}) == len(values)   # one record per run
    for spec in fields(RunStats):
        merged = getattr(report, spec.name)
        per_run = [getattr(run, spec.name) for run in runs]
        if spec.name == "worker_utilization":
            workers = {worker for run in per_run for worker in run}
            assert merged == {worker: max(run.get(worker, 0.0)
                                          for run in per_run)
                              for worker in workers}
        else:
            assert merged == sum(per_run), spec.name
    assert report.planned == report.tasks_executed == 5
    if scheduler == "process":
        # Each chain runs as one bundle inside a worker: nothing comes back
        # to the coordinator to be released.
        assert report.shipped == 5 and report.released == 0
    else:
        assert report.shipped == 0 and report.released > 0


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """The same rows as a frame, one scanned CSV and a two-file scan."""
    rng = np.random.default_rng(7)
    price = rng.normal(250_000, 60_000, N_ROWS)
    price[rng.random(N_ROWS) < 0.1] = np.nan
    frame = DataFrame({
        "ts": np.arange(N_ROWS, dtype=np.float64),
        "price": price,
        "size": rng.normal(1_800, 400, N_ROWS),
        "city": list(rng.choice(["vancouver", "toronto", "montreal"], N_ROWS)),
    })
    directory = tmp_path_factory.mktemp("ledger")
    whole = str(directory / "houses.csv")
    write_csv(frame, whole)
    parts = []
    for index, (start, stop) in enumerate([(0, 700), (700, N_ROWS)]):
        parts.append(str(directory / f"part-{index}.csv"))
        write_csv(frame.slice(start, stop), parts[-1])
    return {
        "memory": lambda: frame,
        "csv": lambda: scan_csv(whole, chunk_rows=CHUNK_ROWS),
        "multifile": lambda: scan_csv(parts, chunk_rows=CHUNK_ROWS),
    }


@pytest.mark.parametrize("scheduler, ships", [("process", True),
                                              ("threaded", False)])
def test_shipped_reaches_the_execution_reports(sources, scheduler, ships):
    result = plot(sources["csv"](), mode="intermediates",
                  config={"compute.scheduler": scheduler,
                          "compute.max_workers": 2})
    shipped = sum(report.shipped
                  for report in result.meta["execution_reports"])
    assert (shipped > 0) == ships


#: The in-memory frame takes the graph path too, in more than one partition.
CONFIG = {"compute.use_graph": "always", "compute.partition_rows": CHUNK_ROWS}

CALLS = {
    "plot": lambda source: plot(source, mode="intermediates", config=CONFIG),
    "plot_filtered": lambda source: plot(
        source, "price", mode="intermediates", config=CONFIG,
        where=("ts", ">=", 0.75 * N_ROWS)),
    "plot_missing": lambda source: plot_missing(
        source, mode="intermediates", config=CONFIG),
}

@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("kind", ["memory", "csv", "multifile"])
def test_meta_stats_are_views_of_the_summed_reports(sources, kind, call):
    meta = CALLS[call](sources[kind]()).meta
    reports = meta["execution_reports"]
    assert reports
    assert all(type(report) is RunStats for report in reports)
    counters = {spec.name for spec in fields(RunStats)}
    for view in ("projection", "predicate", "sidecar", "incremental"):
        assert set(meta[view]) - counters <= PLANNER_ONLY, view
        for name in set(meta[view]) & counters:
            assert meta[view][name] == \
                sum(getattr(report, name) for report in reports), \
                f"meta[{view!r}][{name!r}]"
    if kind != "memory":
        parses = sum(report.projected_parses + report.full_parses
                     for report in reports)
        assert meta["incremental"]["chunks_new"] == parses > 0
    if kind == "csv" and call == "plot_filtered":
        # Rows 900.. of 200-row chunks: four chunks never read, one cut.
        assert meta["predicate"]["chunks_skipped"] == 4
        assert meta["predicate"]["rows_filtered"] == 100
        assert meta["projection"]["columns_pruned"] > 0


# --------------------------------------------------------------------------- #
# Counters come from what a task declares, not from what it looks like.
# --------------------------------------------------------------------------- #
def partition(path, start, stop):
    """A user function that merely shares a partition task's name and shape."""
    return stop - start


def read_csv_partition(path, start, stop):
    return stop - start


class _RowsSource(InMemorySource):
    """The stock in-memory source, its partitions labelled ``rows``."""

    def partitions(self):
        return [dataclasses.replace(part, prefix="rows")
                for part in super().partitions()]

    def with_partitioning(self, chunk_rows=None, concurrency=1):
        inner = super().with_partitioning(chunk_rows, concurrency)
        return self if inner is self else _RowsSource(inner.frame, chunk_rows)


@pytest.mark.parametrize("scheduler", ["synchronous", "process"])
def test_a_lookalike_user_function_declares_nothing(scheduler):
    # Fails at the parent commit: the key prefix plus the (str, int, int)
    # arguments read as two CSV byte-range parses of 4990 + 7 bytes.
    backend = get_scheduler(scheduler, max_workers=2, cache=TaskCache())
    try:
        for _ in range(2):          # cold, then served from the cache
            values = [delayed(partition)("notes.txt", 10, 5000),
                      delayed(read_csv_partition)("notes.txt", 0, 7)]
            assert compute(*values, scheduler=backend) == [4990, 7]
            run = backend.last_run
            assert (run.full_parses, run.projected_parses, run.chunks_new,
                    run.chunks_reused, run.bytes_reparsed) == (0, 0, 0, 0, 0)
        assert run.cache_hits == 2
    finally:
        backend.close()


@pytest.mark.parametrize("scheduler", ["synchronous", "process"])
def test_a_custom_prefix_counts_like_the_stock_source(sources, scheduler):
    # Fails at the parent commit: only the prefixes "partition" and
    # "read_csv_partition" counted, so a source labelling its partitions
    # anything else reported zero parses and zero reuse.
    frame = sources["memory"]()
    config = {**CONFIG, "compute.scheduler": scheduler, "compute.max_workers": 2}
    counted = {}
    for make in (InMemorySource, _RowsSource):
        set_global_cache(TaskCache())
        source = make(frame, CHUNK_ROWS)
        totals = RunStats()
        for _ in range(2):          # the second call reuses the first's chunks
            for report in plot(source, mode="intermediates",
                               config=config).meta["execution_reports"]:
                totals += report
        counted[make] = (totals.full_parses, totals.chunks_new,
                         totals.chunks_reused)
    assert counted[_RowsSource] == counted[InMemorySource]
    full_parses, chunks_new, chunks_reused = counted[InMemorySource]
    assert full_parses == chunks_new >= N_ROWS // CHUNK_ROWS
    assert chunks_reused > 0


def test_declared_counts_are_added_when_the_task_runs_and_must_name_counters():
    from repro.errors import GraphError
    for unknown in ("full_parse", "worker_utilization"):
        with pytest.raises(GraphError, match=unknown):
            delayed(operator.mul, counts={unknown: 1})
    backend = get_scheduler("synchronous", cache=TaskCache())
    for expected in ((2, 10, 0), (0, 0, 1)):     # runs, then is reused
        value = delayed(operator.mul, counts={
            "full_parses": 2, "bytes_reparsed": 10, "chunks_new": 1})(3, 4)
        assert compute(value, scheduler=backend) == [12]
        run = backend.last_run
        assert (run.full_parses, run.bytes_reparsed, run.chunks_reused) == expected
