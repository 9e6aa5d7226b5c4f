"""Tests for the cross-call intermediate cache (repro.graph.cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.frame import DataFrame
from repro.graph import (
    SynchronousScheduler,
    TaskCache,
    ThreadedScheduler,
    compute,
    delayed,
)
from repro.graph.cache import estimate_size
from repro.graph.delayed import merge_graphs


def _double(value):
    return value * 2


def _add(first, second):
    return first + second


def _total(frame: DataFrame, column: str) -> float:
    values = frame.column(column).to_numpy(drop_missing=True)
    return float(values.sum())


def _task(value):
    return value.graph[value.key]


class TestCacheKeys:
    """The cache is addressed by task keys: equal work, equal key, across builds."""

    def test_same_structure_same_keys_across_builds(self):
        first = delayed(_add)(delayed(_double)(21), 1)
        second = delayed(_add)(delayed(_double)(21), 1)
        assert set(first.graph.keys()) == set(second.graph.keys())
        assert first.key == second.key

    def test_different_arguments_different_keys(self):
        assert delayed(_double)(21).key != delayed(_double)(22).key

    def test_frame_arguments_keyed_by_content(self):
        def key_of(frame):
            return delayed(_total)(frame, "x").key

        assert key_of(DataFrame({"x": [1.0, 2.0, 3.0]})) == \
            key_of(DataFrame({"x": [1.0, 2.0, 3.0]}))
        assert key_of(DataFrame({"x": [1.0, 2.0, 3.0]})) != \
            key_of(DataFrame({"x": [1.0, 2.0, 4.0]}))

    def test_closures_and_impure_tasks_are_uncacheable(self):
        def closure(value):
            return value

        assert _task(delayed(_double)(21)).cacheable
        assert not _task(delayed(closure)(1)).cacheable
        assert not _task(delayed(_double, pure=False)(21)).cacheable

    def test_uncacheable_dependency_propagates(self):
        impure = delayed(_double, pure=False)(21)
        assert not _task(impure.then(_add, 1)).cacheable

    def test_only_cacheable_tasks_reach_the_store(self):
        cache = TaskCache()
        scheduler = SynchronousScheduler(cache=cache)
        stable = delayed(_double)(21)
        unstable = delayed(lambda value: value + 1)(stable)
        assert compute(unstable, scheduler=scheduler) == [43]
        assert cache.keys() == [stable.key]
        assert cache.stats.misses == 1      # the lambda task was never looked up

    def test_csv_partition_keys_change_when_file_is_overwritten(self, tmp_path):
        import time as time_module

        from repro.frame.io import scan_csv
        from repro.graph import PartitionedFrame

        path = tmp_path / "data.csv"
        path.write_text("x\n" + "\n".join(str(i) for i in range(10)) + "\n")

        def partition_key(csv_path):
            partitioned = PartitionedFrame.from_source(
                scan_csv(str(csv_path), chunk_rows=100))
            part = partitioned.partitions[0]
            assert _task(part).cacheable
            return part.key

        first = partition_key(path)
        assert partition_key(path) == first
        # Same-length overwrite: identical byte boundaries, different content.
        time_module.sleep(0.01)  # ensure a new mtime
        path.write_text("x\n" + "\n".join(str(9 - i if i < 10 else i)
                                          for i in range(10)) + "\n")
        assert partition_key(path) != first


class TestTaskCache:
    def test_lookup_and_stats(self):
        cache = TaskCache(max_bytes=1 << 20)
        hit, _ = cache.lookup("missing")
        assert not hit
        cache.put("k", 42)
        hit, value = cache.lookup("k")
        assert hit and value == 42
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_lru_eviction_respects_max_bytes(self):
        payload = np.zeros(1000, dtype=np.float64)  # ~8 KB each
        entry_size = estimate_size(payload)
        cache = TaskCache(max_bytes=entry_size * 3)
        for index in range(5):
            cache.put(f"k{index}", payload.copy())
        assert cache.stats.current_bytes <= cache.max_bytes
        assert cache.stats.evictions >= 2
        # The oldest entries were evicted, the newest survive.
        assert "k0" not in cache
        assert "k4" in cache

    def test_lookup_refreshes_lru_position(self):
        payload = np.zeros(1000, dtype=np.float64)
        cache = TaskCache(max_bytes=estimate_size(payload) * 2)
        cache.put("a", payload.copy())
        cache.put("b", payload.copy())
        cache.lookup("a")               # refresh "a": "b" is now the LRU entry
        cache.put("c", payload.copy())
        assert "a" in cache
        assert "b" not in cache

    def test_oversized_value_rejected(self):
        cache = TaskCache(max_bytes=64)
        assert not cache.put("big", np.zeros(1000))
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_resize_evicts(self):
        payload = np.zeros(1000, dtype=np.float64)
        cache = TaskCache(max_bytes=estimate_size(payload) * 4)
        for index in range(4):
            cache.put(f"k{index}", payload.copy())
        cache.resize(estimate_size(payload) * 2)
        assert len(cache) <= 2
        assert cache.stats.current_bytes <= cache.max_bytes

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            TaskCache(max_bytes=0)

    def test_views_are_detached_on_store(self):
        base = np.arange(1000, dtype=np.float64)
        view = base[100:200]
        cache = TaskCache()
        cache.put("slice", view)
        _, stored = cache.lookup("slice")
        # The entry owns its memory: it no longer pins the parent buffer.
        assert stored.base is None
        np.testing.assert_array_equal(stored, base[100:200])

    def test_sliced_frame_detached_on_store(self):
        frame = DataFrame({"x": np.arange(1000.0)})
        part = frame.slice(0, 100)
        assert part.column("x").data.base is not None  # a view going in
        cache = TaskCache()
        cache.put("part", part)
        _, stored = cache.lookup("part")
        assert stored.column("x").data.base is None
        assert stored == part


@pytest.mark.parametrize("scheduler_factory",
                         [SynchronousScheduler, ThreadedScheduler])
class TestSchedulerCacheIntegration:
    def test_second_run_executes_nothing(self, scheduler_factory):
        cache = TaskCache()
        scheduler = scheduler_factory(cache=cache)

        cold = delayed(_add)(delayed(_double)(21), 1)
        graph, outputs = merge_graphs([cold])
        assert scheduler.execute(graph, outputs) == {outputs[0]: 43}
        assert scheduler.last_run.executed == 2
        assert scheduler.last_run.cache_hits == 0

        warm = delayed(_add)(delayed(_double)(21), 1)  # rebuilt from scratch
        graph, outputs = merge_graphs([warm])
        assert scheduler.execute(graph, outputs) == {outputs[0]: 43}
        assert scheduler.last_run.executed == 0
        assert scheduler.last_run.cache_hits == 1
        assert scheduler.last_run.skipped == 1  # the _double ancestor

    def test_partial_overlap_runs_only_new_work(self, scheduler_factory):
        cache = TaskCache()
        scheduler = scheduler_factory(cache=cache)

        shared = delayed(_double)(21)
        graph, outputs = merge_graphs([shared])
        scheduler.execute(graph, outputs)

        extended = delayed(_add)(delayed(_double)(21), 8)
        graph, outputs = merge_graphs([extended])
        assert scheduler.execute(graph, outputs)[outputs[0]] == 50
        assert scheduler.last_run.cache_hits == 1   # the shared _double node
        assert scheduler.last_run.executed == 1     # only the new _add node

    def test_without_cache_everything_runs(self, scheduler_factory):
        scheduler = scheduler_factory()
        value = delayed(_add)(delayed(_double)(21), 1)
        graph, outputs = merge_graphs([value])
        scheduler.execute(graph, outputs)
        scheduler.execute(graph, outputs)
        assert scheduler.last_run.executed == 2
        assert scheduler.last_run.cache_hits == 0

    def test_impure_tasks_never_served_from_cache(self, scheduler_factory):
        calls = {"count": 0}

        def impure_payload(value):
            calls["count"] += 1
            return value

        cache = TaskCache()
        scheduler = scheduler_factory(cache=cache)
        for _ in range(2):
            value = delayed(impure_payload, pure=False)(7)
            graph, outputs = merge_graphs([value])
            scheduler.execute(graph, outputs)
        assert calls["count"] == 2
