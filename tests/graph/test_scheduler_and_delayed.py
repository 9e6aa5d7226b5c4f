"""Tests for the schedulers and the delayed API."""

import operator
import threading
import time

import pytest

from repro.errors import SchedulerError
from repro.graph import (
    SynchronousScheduler,
    Task,
    TaskGraph,
    TaskRef,
    ThreadedScheduler,
    compute,
    delayed,
    get_scheduler,
)
from repro.graph.delayed import merge_graphs


def failing(_value):
    raise ValueError("boom")


class TestSchedulers:
    def build_graph(self):
        graph = TaskGraph()
        graph.add(Task("a", int, (2,), {}))
        graph.add(Task("b", operator.add, (TaskRef("a"), 3), {}))
        graph.add(Task("c", operator.mul, (TaskRef("a"), TaskRef("b")), {}))
        return graph

    @pytest.mark.parametrize("scheduler", [SynchronousScheduler(),
                                           ThreadedScheduler(max_workers=4)])
    def test_schedulers_agree(self, scheduler):
        results = scheduler.execute(self.build_graph(), ["b", "c"])
        assert results == {"b": 5, "c": 10}

    def test_get_returns_values_in_order(self):
        assert SynchronousScheduler().get(self.build_graph(), ["c", "b"]) == [10, 5]

    @pytest.mark.parametrize("scheduler", [SynchronousScheduler(),
                                           ThreadedScheduler(max_workers=2)])
    def test_task_failure_is_wrapped(self, scheduler):
        graph = self.build_graph()
        graph.add(Task("bad", failing, (TaskRef("a"),), {}))
        with pytest.raises(SchedulerError) as excinfo:
            scheduler.execute(graph, ["bad"])
        assert excinfo.value.key == "bad"
        assert isinstance(excinfo.value.cause, ValueError)

    def test_threaded_scheduler_runs_independent_tasks_concurrently(self):
        barrier = threading.Barrier(2, timeout=5)

        def wait_at_barrier(tag):
            barrier.wait()
            return tag

        graph = TaskGraph()
        graph.add(Task("x", wait_at_barrier, ("x",), {}))
        graph.add(Task("y", wait_at_barrier, ("y",), {}))
        results = ThreadedScheduler(max_workers=2).execute(graph, ["x", "y"])
        assert results == {"x": "x", "y": "y"}

    def test_get_scheduler_factory(self):
        assert isinstance(get_scheduler("synchronous"), SynchronousScheduler)
        assert isinstance(get_scheduler("threaded", max_workers=2), ThreadedScheduler)
        with pytest.raises(SchedulerError):
            get_scheduler("quantum")

    def test_dispatch_latency_slows_synchronous_scheduler(self):
        graph = self.build_graph()
        fast = SynchronousScheduler()
        slow = SynchronousScheduler(dispatch_latency=0.01)
        started = time.perf_counter()
        fast.execute(graph, ["c"])
        fast_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        slow.execute(graph, ["c"])
        slow_elapsed = time.perf_counter() - started
        assert slow_elapsed > fast_elapsed


class TestDelayed:
    def test_delayed_defers_execution(self):
        calls = []

        def record(value):
            calls.append(value)
            return value * 2

        lazy = delayed(record)(21)
        assert calls == []
        assert lazy.compute() == 42
        assert calls == [21]

    def test_delayed_composition(self):
        add = delayed(operator.add)
        total = add(add(1, 2), add(3, 4))
        assert total.compute() == 10

    def test_then_chains_a_call(self):
        value = delayed(int)(21).then(operator.mul, 2)
        assert value.compute() == 42

    def test_compute_shares_identical_pure_calls(self):
        counter = {"calls": 0}

        def expensive(value):
            counter["calls"] += 1
            return value + 1

        first = delayed(expensive)(10)
        second = delayed(expensive)(10)
        results = compute(first, second)
        assert results == [11, 11]
        assert counter["calls"] == 1

    def test_impure_calls_are_not_shared(self):
        counter = {"calls": 0}

        def tick(_ignored):
            counter["calls"] += 1
            return counter["calls"]

        first = delayed(tick, pure=False)(0)
        second = delayed(tick, pure=False)(0)
        results = compute(first, second)
        assert sorted(results) == [1, 2]
        assert counter["calls"] == 2

    def test_compute_passes_plain_values_through(self):
        lazy = delayed(operator.add)(1, 2)
        results = compute("plain", lazy, 7)
        assert results == ["plain", 3, 7]

    def test_merging_counts_the_shared_task(self):
        lazy_a = delayed(operator.add)(1, 2)
        lazy_b = delayed(operator.add)(1, 2)
        assert lazy_a.key == lazy_b.key
        merged, _ = merge_graphs([lazy_a, lazy_b])
        assert (len(merged), merged.shared) == (1, 1)
        assert compute(lazy_a, lazy_b) == [3, 3]

    def test_delayed_arguments_inside_containers(self):
        lazy_values = [delayed(int)(index) for index in range(5)]
        total = delayed(sum)(lazy_values)
        assert total.compute() == 10
