"""Tests for the multiprocess scheduler and the executor layer.

The process backend's contract has three parts that the threaded scheduler
never had to honour, and each gets pinned here:

* **hybrid dispatch** — value-picklable, dependency-free tasks ship to
  worker processes as bundles (root + its single-dependency consumers);
  everything else (combines, closures, big in-memory payloads) runs on the
  coordinator thread, so results stay identical to the synchronous backend;
* **failure semantics** — a task raising inside a worker propagates as a
  ``SchedulerError`` naming that task; a worker process dying mid-task
  surfaces as a ``SchedulerError`` too (never a hang), and the scheduler
  recovers with a fresh pool on the next run;
* **cache interplay** — the cross-call cache plan applies before dispatch,
  so warm runs ship nothing.
"""

from __future__ import annotations

import functools
import operator
import os
import threading

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.frame import DataFrame, DType
from repro.graph import (
    ProcessScheduler,
    SynchronousScheduler,
    Task,
    TaskCache,
    TaskGraph,
    TaskRef,
    ThreadedScheduler,
    available_schedulers,
    delayed,
    get_scheduler,
)
from repro.graph.executor import run_task_bundle
from repro.graph.task import MAX_SHIP_PAYLOAD_BYTES


# --------------------------------------------------------------------------- #
# Module-level task functions (the picklability contract requires them).
# --------------------------------------------------------------------------- #
def make_values(n):
    return list(range(n))


def square_sum(values):
    return sum(v * v for v in values)


def worker_pid(values):
    return os.getpid()


def combine_sum(parts):
    return sum(parts)


def boom(values):
    raise ValueError("boom in worker")


def kill_worker(values):
    os._exit(3)


@pytest.fixture
def scheduler():
    instance = ProcessScheduler(max_workers=2)
    yield instance
    instance.close()


def _task(value):
    """The task a Delayed value stands for."""
    return value.graph[value.key]


def chunked_graph(n_chunks=4, chunk_func=square_sum):
    """A reduction-shaped graph: chunk roots -> per-chunk work -> combine."""
    chunks = [delayed(make_values, prefix="chunk")(10 + i)
              for i in range(n_chunks)]
    partials = [chunk.then(chunk_func) for chunk in chunks]
    return delayed(combine_sum, prefix="combine")(partials)


class TestProcessSchedulerBasics:
    def test_registered(self):
        assert "process" in available_schedulers()
        assert isinstance(get_scheduler("process"), ProcessScheduler)

    def test_agrees_with_synchronous(self, scheduler):
        total = chunked_graph()
        expected = total.compute(scheduler=SynchronousScheduler())
        assert total.compute(scheduler=scheduler) == expected

    def test_simple_graph(self, scheduler):
        graph = TaskGraph()
        graph.add(Task("a", int, (2,), {}))
        graph.add(Task("b", operator.add, (TaskRef("a"), 3), {}))
        graph.add(Task("c", operator.mul, (TaskRef("a"), TaskRef("b")), {}))
        assert scheduler.execute(graph, ["b", "c"]) == {"b": 5, "c": 10}

    def test_synchronous_accepts_max_workers(self):
        # The compute context constructs every registered scheduler with one
        # uniform signature; "synchronous" must tolerate (and ignore) it.
        scheduler = get_scheduler("synchronous", max_workers=4)
        assert isinstance(scheduler, SynchronousScheduler)

    def test_pool_is_reused_across_executes(self, scheduler):
        first = chunked_graph(2).compute(scheduler=scheduler)
        executor = scheduler._executor
        second = chunked_graph(2).compute(scheduler=scheduler)
        assert first == second
        assert scheduler._executor is executor

    def test_worker_pool_is_shared_across_schedulers(self):
        # Engines are rebuilt per EDA call; respawning workers each time
        # would dominate interactive sessions, so pools are process-wide
        # (keyed by worker count).  With one worker, two schedulers must
        # land their tasks on the same process.
        first = ProcessScheduler(max_workers=1)
        second = ProcessScheduler(max_workers=1)
        try:
            chunk_a = delayed(make_values, prefix="chunk")(5)
            chunk_b = delayed(make_values, prefix="chunk")(6)
            pid_a = chunk_a.then(worker_pid).compute(scheduler=first)
            pid_b = chunk_b.then(worker_pid).compute(scheduler=second)
            assert pid_a == pid_b != os.getpid()
        finally:
            first.close()
            second.close()


class TestHybridDispatch:
    def test_chunk_work_runs_in_worker_processes(self, scheduler):
        chunks = [delayed(make_values, prefix="chunk")(5 + i) for i in range(3)]
        pids = delayed(combine_sum, prefix="combine")(
            [chunk.then(worker_pid) for chunk in chunks])
        # worker_pid returns the executing PID; summing three of them from
        # the coordinator's PID is astronomically unlikely, but we assert
        # the stronger per-run counter instead.
        pids.compute(scheduler=scheduler)
        assert scheduler.last_run.shipped >= 6      # 3 roots + 3 members

    def test_member_pids_differ_from_coordinator(self, scheduler):
        chunk = delayed(make_values, prefix="chunk")(5)
        pid = chunk.then(worker_pid)
        value = pid.compute(scheduler=scheduler)
        assert value != os.getpid()

    def test_combines_stay_on_coordinator(self, scheduler):
        # A combine has many TaskRef dependencies, so it must run inline;
        # its PID is the coordinator's.
        chunks = [delayed(make_values, prefix="chunk")(4) for _ in range(2)]
        combined = delayed(worker_pid, prefix="combine")(
            [c.then(square_sum) for c in chunks])
        assert combined.compute(scheduler=scheduler) == os.getpid()

    def test_closures_run_on_coordinator(self, scheduler):
        captured = []

        def closure_task(values):            # not module-level: unshippable
            captured.append(threading.get_ident())
            return len(values)

        chunk = delayed(make_values, prefix="chunk")(7)
        result = chunk.then(closure_task).compute(scheduler=scheduler)
        assert result == 7
        assert captured, "closure must have run in this process"

    def test_oversized_payload_is_not_shippable(self):
        small = Task("small", square_sum, (tuple(range(10)),), {})
        assert small.shippable
        big_array = np.zeros(MAX_SHIP_PAYLOAD_BYTES // 8 + 16, dtype=np.float64)
        big = Task("big", square_sum, (big_array,), {})
        assert not big.shippable
        # The same walk decides for tasks recorded by delayed().
        assert _task(delayed(square_sum)(tuple(range(10)))).shippable
        assert not _task(delayed(square_sum)(big_array)).shippable

    def test_live_object_payload_is_not_shippable(self):
        class Opaque:
            pass

        assert not Task("t", square_sum, (Opaque(),), {}).shippable
        assert not _task(delayed(square_sum)([Opaque()])).shippable
        # A frame is named by content, so cacheable — but a live object.
        frame = DataFrame({"a": [1.0, 2.0]})
        task = _task(delayed(square_sum)(frame))
        assert task.cacheable and not task.shippable

    def test_lambda_is_not_shippable(self):
        assert not Task("t", lambda: 1, (), {}).shippable
        assert not _task(delayed(lambda: 1)()).shippable
        assert not _task(delayed(functools.partial(square_sum))((1,))).shippable

    def test_plain_values_of_every_kind_ship(self):
        chunk = delayed(make_values)(3)
        task = _task(delayed(square_sum)(
            chunk, 1.5, 2 + 3j, b"raw", np.int64(4), DType.FLOAT,
            {"k": (None, True)}, frozenset({1, 2}), np.arange(4), sidecar=("d", 1)))
        assert task.shippable and task.deps == (chunk.key,)
        assert not _task(delayed(square_sum)({"k": object()})).shippable
        assert not _task(delayed(square_sum)({object(): 1})).shippable
        assert not _task(delayed(square_sum)(1, sidecar=object())).shippable

    def test_declared_facts_stay_on_the_coordinator(self):
        import pickle
        task = _task(delayed(make_values, counts={"full_parses": 1},
                             affinity="a.csv")(3))
        shipped = pickle.loads(pickle.dumps(task))
        assert (shipped.key, shipped.func, shipped.args, shipped.deps) == \
            (task.key, task.func, task.args, task.deps)
        assert shipped.counts == {} and shipped.affinity is None

    def test_run_task_bundle_withholds_root_when_asked(self):
        root = Task("root", make_values, (4,), {})
        member = Task("member", square_sum, (TaskRef("root"),), {})
        outcome = run_task_bundle(root, [member], False)
        assert outcome.root is None
        assert outcome.members == {"member": 14}
        outcome = run_task_bundle(root, [member], True)
        assert outcome.root == [0, 1, 2, 3]


class TestFailureSemantics:
    def test_worker_task_exception_names_the_task(self, scheduler):
        chunk = delayed(make_values, prefix="chunk")(5)
        bad = chunk.then(boom)
        with pytest.raises(SchedulerError) as excinfo:
            bad.compute(scheduler=scheduler)
        assert excinfo.value.key == bad.key
        assert isinstance(excinfo.value.cause, ValueError)
        assert "boom in worker" in str(excinfo.value.cause)

    def test_coordinator_task_exception_names_the_task(self, scheduler):
        graph = TaskGraph()
        graph.add(Task("a", int, (2,), {}))
        graph.add(Task("bad", boom, ((TaskRef("a"), TaskRef("a")),), {}))
        with pytest.raises(SchedulerError) as excinfo:
            scheduler.execute(graph, ["bad"])
        assert excinfo.value.key == "bad"

    def test_worker_crash_raises_instead_of_hanging(self, scheduler):
        chunk = delayed(make_values, prefix="chunk")(5)
        fatal = chunk.then(kill_worker)
        with pytest.raises(SchedulerError):
            fatal.compute(scheduler=scheduler)

    def test_scheduler_recovers_after_pool_crash(self, scheduler):
        chunk = delayed(make_values, prefix="chunk")(5)
        with pytest.raises(SchedulerError):
            chunk.then(kill_worker).compute(scheduler=scheduler)
        # The broken pool was discarded; a fresh one serves the next run.
        assert chunked_graph(2).compute(scheduler=scheduler) == \
            chunked_graph(2).compute(scheduler=SynchronousScheduler())


class TestCacheInterplay:
    def test_warm_run_ships_nothing(self):
        cache = TaskCache()
        scheduler = ProcessScheduler(max_workers=2, cache=cache)
        try:
            cold = chunked_graph().compute(scheduler=scheduler)
            assert scheduler.last_run.shipped > 0
            warm = chunked_graph().compute(scheduler=scheduler)
            assert warm == cold
            assert scheduler.last_run.executed == 0
            assert scheduler.last_run.shipped == 0
            assert scheduler.last_run.cache_hits > 0
        finally:
            scheduler.close()

    def test_all_three_schedulers_share_cache_semantics(self):
        expected = chunked_graph().compute(scheduler=SynchronousScheduler())
        for name in available_schedulers():
            cache = TaskCache()
            scheduler = get_scheduler(name, cache=cache)
            try:
                assert chunked_graph().compute(scheduler=scheduler) == expected
                assert chunked_graph().compute(scheduler=scheduler) == expected
                assert scheduler.last_run.cache_hits > 0
            finally:
                scheduler.close()


class TestThreadedRefactor:
    """The shared driver must preserve the threaded scheduler's behaviour."""

    def test_threaded_still_agrees(self):
        scheduler = ThreadedScheduler(max_workers=4)
        try:
            expected = chunked_graph().compute(scheduler=SynchronousScheduler())
            assert chunked_graph().compute(scheduler=scheduler) == expected
        finally:
            scheduler.close()

    def test_release_counter_still_reported(self):
        scheduler = ThreadedScheduler(max_workers=2)
        try:
            chunked_graph().compute(scheduler=scheduler)
            assert scheduler.last_run.released > 0
        finally:
            scheduler.close()


class TestProjectedBundles:
    """Projected CSV parses satisfy the picklability contract and ship."""

    def test_projected_parse_tasks_ship_to_workers(self, tmp_path):
        from repro.frame.frame import DataFrame
        from repro.frame.io import scan_csv, write_csv
        from repro.graph.partition import PartitionedFrame

        frame = DataFrame({
            "a": np.arange(600, dtype=np.float64),
            "b": [f"s{i}" for i in range(600)],
            "c": np.arange(600, dtype=np.float64) * 2,
        })
        path = str(tmp_path / "ship.csv")
        write_csv(frame, path)
        source = scan_csv(path, chunk_rows=150)
        projected = PartitionedFrame.from_source(source, columns=("a",))

        for part in projected.partitions:
            assert _task(part).shippable, \
                "a projected parse must stay value-picklable"

        reduction = projected.reduction(_sum_column_a, _sum_floats)
        scheduler = ProcessScheduler(max_workers=2)
        try:
            total = reduction.compute(scheduler=scheduler)
            assert total == pytest.approx(float(np.arange(600).sum()))
            assert scheduler.last_run.shipped > 0
            assert scheduler.last_run.projected_parses == 4
            assert scheduler.last_run.full_parses == 0
        finally:
            scheduler.close()


class TestFilteredBundles:
    """Filtered (predicate-pushdown) CSV parses ship to workers too."""

    def test_filtered_parse_tasks_ship_to_workers(self, tmp_path):
        from repro.frame.frame import DataFrame
        from repro.frame.io import scan_csv, write_csv
        from repro.frame.predicate import compile_predicate
        from repro.graph.partition import PartitionedFrame

        frame = DataFrame({
            "a": np.arange(600, dtype=np.float64),
            "b": [f"s{i}" for i in range(600)],
        })
        path = str(tmp_path / "filtered.csv")
        write_csv(frame, path)
        predicate = compile_predicate(("a", ">=", 300.0))
        # Over the unfiltered scan, so every chunk's filtered parse actually
        # ships (the data is sorted: zone maps would skip half of them).
        filtered = PartitionedFrame.from_source(
            scan_csv(path, chunk_rows=150), columns=("a",), predicate=predicate)

        for part in filtered.partitions:
            task = _task(part)
            assert task.shippable, "a filtered parse must stay value-picklable"
            assert task.kwargs["predicate"] == predicate.spec()
            assert task.counts == {"projected_parses": 1, "chunks_new": 1,
                                   "bytes_reparsed": task.args[2] - task.args[1]}

        reduction = filtered.reduction(_sum_column_a, _sum_floats)
        scheduler = ProcessScheduler(max_workers=2)
        try:
            total = reduction.compute(scheduler=scheduler)
            assert total == pytest.approx(float(np.arange(300, 600).sum()))
            assert scheduler.last_run.shipped > 0
            # A filtered parse still counts by its column coverage.
            assert scheduler.last_run.projected_parses == 4
            assert scheduler.last_run.full_parses == 0
        finally:
            scheduler.close()

    def test_filtered_and_plain_parses_have_distinct_keys(self, tmp_path):
        from repro.frame.frame import DataFrame
        from repro.frame.io import scan_csv, write_csv
        from repro.frame.predicate import compile_predicate
        from repro.graph.partition import PartitionedFrame

        frame = DataFrame({"a": np.arange(100, dtype=np.float64)})
        path = str(tmp_path / "keys.csv")
        write_csv(frame, path)
        predicate = compile_predicate(("a", "<", 10.0))
        plain = PartitionedFrame.from_source(
            scan_csv(path, chunk_rows=50))
        filtered = PartitionedFrame.from_source(
            scan_csv(path, chunk_rows=50), predicate=predicate)
        plain_keys = {part.key for part in plain.partitions}
        filtered_keys = {part.key for part in filtered.partitions}
        assert not plain_keys & filtered_keys, \
            "filtered parses must never collide with unfiltered cache keys"


def _sum_column_a(partition):
    assert partition.columns == ["a"], "worker must receive the projection"
    return float(np.nansum(partition.column("a").to_numpy()))


def _sum_floats(values):
    return float(sum(values))
