"""Graph union is the optimization: equal tasks share a key, unions are culled."""

import operator

from repro.graph import TaskGraph, compute, delayed
from repro.graph.delayed import merge_graphs
from repro.graph.scheduler import SynchronousScheduler


def build_diamond():
    """base -> (left, right) -> top, where left and right are the same call."""
    base = delayed(int)(3)
    left = delayed(operator.add)(base, 1)
    right = delayed(operator.add)(base, 1)
    top = delayed(operator.mul)(left, right)
    orphan = delayed(int)(99)
    return top, orphan


class TestCull:
    def test_a_value_s_graph_is_its_ancestor_closure(self):
        top, orphan = build_diamond()
        assert orphan.key not in top.graph
        assert top.graph.ancestors([top.key]) == set(top.graph)

    def test_union_holds_exactly_what_is_requested(self):
        top, orphan = build_diamond()
        merged, keys = merge_graphs([top])
        assert merged.ancestors(keys) == set(merged) and orphan.key not in merged
        merged, keys = merge_graphs([top, orphan])
        assert merged.ancestors(keys) == set(merged) and len(merged) == 4


class TestSharing:
    def test_identical_tasks_are_merged(self):
        top, _ = build_diamond()
        # left and right compute the same value and collapse into one task.
        assert len(top.graph) == 3
        assert top.graph.shared == 1

    def test_merged_graph_produces_same_result(self):
        top, _ = build_diamond()
        result = SynchronousScheduler().execute(top.graph, [top.key])
        assert result[top.key] == 16

    def test_transitive_merging(self):
        def chain():
            return delayed(operator.add)(delayed(int)(5), 1)
        first, second = chain(), chain()
        merged, keys = merge_graphs([first, second])
        assert keys[0] == keys[1]
        assert len(merged) == 2
        assert merged.shared == 2

    def test_sharing_is_counted_once_however_the_union_is_reached(self):
        top, _ = build_diamond()
        again, _ = build_diamond()
        merged, _ = merge_graphs([top, again, top])
        # 8 tasks were built (two diamonds of four), 3 distinct ones remain.
        assert (len(merged), merged.shared) == (3, 5)
        graph = TaskGraph()
        graph.update(merged)
        graph.update(top.graph)
        assert (len(graph), graph.shared) == (3, 5)


class TestPipeline:
    def test_compute_runs_the_union(self):
        top, orphan = build_diamond()
        assert compute(top, orphan) == [16, 99]

    def test_report_carries_the_merge_s_two_integers(self):
        top, orphan = build_diamond()
        scheduler = SynchronousScheduler()
        assert compute(top, orphan, scheduler=scheduler) == [16, 99]
        report = scheduler.last_run
        assert report.tasks_before_optimization == 5
        assert report.shared_tasks == 1
        assert report.planned == report.executed == 4
