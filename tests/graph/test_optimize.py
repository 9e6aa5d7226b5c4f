"""Tests for the graph optimization passes."""

import operator

from repro.graph import TaskGraph, Task, TaskRef, cull, common_subexpression_elimination, optimize
from repro.graph.scheduler import SynchronousScheduler


def make_task(key, func, *args):
    return Task(key, func, args, {})


def build_diamond():
    """base -> (left, right) -> top, plus an unused orphan task."""
    graph = TaskGraph()
    graph.add(make_task("base", int, 3))
    graph.add(make_task("left", operator.add, TaskRef("base"), 1))
    graph.add(make_task("right", operator.add, TaskRef("base"), 1))
    graph.add(make_task("top", operator.mul, TaskRef("left"), TaskRef("right")))
    graph.add(make_task("orphan", int, 99))
    return graph


class TestCull:
    def test_cull_removes_unreachable_tasks(self):
        graph = build_diamond()
        culled, stats = cull(graph, ["top"])
        assert "orphan" not in culled
        assert stats.culled == 1
        assert len(culled) == 4

    def test_cull_keeps_everything_needed(self):
        culled, _ = cull(build_diamond(), ["top", "orphan"])
        assert len(culled) == 5


class TestCSE:
    def test_identical_tasks_are_merged(self):
        graph = build_diamond()
        merged, output_map, stats = common_subexpression_elimination(graph, ["top"])
        # left and right compute the same value and collapse into one task.
        assert stats.merged_by_cse == 1
        assert len(merged) == 4

    def test_merged_graph_produces_same_result(self):
        graph = build_diamond()
        merged, output_map, _ = common_subexpression_elimination(graph, ["top"])
        result = SynchronousScheduler().execute(merged, [output_map["top"]])
        assert result[output_map["top"]] == 16

    def test_transitive_merging(self):
        graph = TaskGraph()
        graph.add(make_task("a1", int, 5))
        graph.add(make_task("a2", int, 5))
        graph.add(make_task("b1", operator.add, TaskRef("a1"), 1))
        graph.add(make_task("b2", operator.add, TaskRef("a2"), 1))
        merged, _, stats = common_subexpression_elimination(graph, ["b1", "b2"])
        assert stats.merged_by_cse == 2
        assert len(merged) == 2


class TestOptimizePipeline:
    def test_full_pipeline_correctness(self):
        graph = build_diamond()
        optimized, output_map, stats = optimize(graph, ["top"], enable_cse=True)
        key = output_map["top"]
        result = SynchronousScheduler().execute(optimized, [key])
        assert result[key] == 16
        assert stats.culled == 1
        assert stats.merged_by_cse == 1

    def test_pipeline_with_optimizations_disabled(self):
        graph = build_diamond()
        optimized, output_map, stats = optimize(graph, ["top"], enable_cse=False)
        assert stats.merged_by_cse == 0
        result = SynchronousScheduler().execute(optimized, [output_map["top"]])
        assert result[output_map["top"]] == 16
