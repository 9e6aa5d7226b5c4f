"""Tests for the execution strategies (Fig. 6a) and the cluster model (Fig. 6c)."""

import operator

import pytest

from repro.errors import GraphError
from repro.graph import (
    ClusterCostModel,
    SynchronousScheduler,
    ThreadedScheduler,
    compute,
    delayed,
)
from repro.graph.delayed import merge_graphs


def build_workload():
    """Three lazy values that share a common expensive sub-computation."""
    counter = {"calls": 0}

    def expensive(value):
        counter["calls"] += 1
        return value * 2

    base = delayed(expensive)(21)
    double = base.then(operator.add, 0)
    squared = base.then(operator.mul, 2)
    other = delayed(expensive)(21)
    return [double, squared, other], counter


class TestStrategies:
    def test_one_merged_graph_shares_work(self):
        values, counter = build_workload()
        scheduler = ThreadedScheduler()
        assert compute(*values, scheduler=scheduler) == [42, 84, 42]
        assert counter["calls"] == 1
        graph, _ = merge_graphs(values)
        run = scheduler.last_run
        assert run.shared_tasks == graph.shared >= 1
        assert run.tasks_before_optimization == len(graph) + graph.shared

    def test_one_compute_per_value_repeats_work(self):
        values, counter = build_workload()
        scheduler = ThreadedScheduler()
        results = []
        for value in values:
            results += compute(value, scheduler=scheduler)
            assert scheduler.last_run.shared_tasks == 0
        assert results == [42, 84, 42]
        assert counter["calls"] == 3

    @pytest.mark.parametrize("strategy", ["lazy", "eager", "rpc"])
    def test_every_fig6a_series_gives_the_same_results(self, strategy):
        # The three series of benchmarks/bench_fig6a_engines.py, composed
        # from compute alone: they differ in work done, never in results.
        # The rpc series' per-unit latency only sleeps, so a plain
        # synchronous scheduler stands in for it.
        values, counter = build_workload()
        if strategy == "eager":
            scheduler = ThreadedScheduler()
            results = [compute(value, scheduler=scheduler)[0]
                       for value in values]
        else:
            scheduler = (ThreadedScheduler() if strategy == "lazy" else
                         SynchronousScheduler())
            results = compute(*values, scheduler=scheduler)
        assert results == [42, 84, 42]
        assert counter["calls"] == (3 if strategy == "eager" else 1)


class TestClusterCostModel:
    def test_more_workers_is_never_slower(self):
        model = ClusterCostModel()
        times = model.sweep(100_000_000, [1, 2, 4, 8])
        assert times == sorted(times, reverse=True)

    def test_overhead_bounds_the_speedup(self):
        model = ClusterCostModel(coordination_overhead_s=100.0)
        assert model.estimate_seconds(1_000_000, 1000) >= 100.0

    def test_invalid_arguments(self):
        model = ClusterCostModel()
        with pytest.raises(GraphError):
            model.estimate_seconds(10, 0)
        with pytest.raises(GraphError):
            model.estimate_seconds(-1, 1)

    def test_calibrate_recovers_synthetic_curve(self):
        # Wall times generated from a known t(w) = c + K/w must be
        # recovered exactly: overhead c, divisible seconds K, and hence
        # every prediction on the measured worker counts.
        overhead, divisible = 3.0, 24.0
        measurements = [(w, overhead + divisible / w) for w in (1, 2, 4, 8)]
        model = ClusterCostModel.calibrate(measurements, n_rows=1_000_000,
                                           bytes_per_row=50.0,
                                           io_fraction=0.25)
        assert model.coordination_overhead_s == pytest.approx(overhead)
        for workers, seconds in measurements:
            assert model.estimate_seconds(1_000_000, workers) == \
                pytest.approx(seconds)
        # io_fraction splits K: 25% scan at 50 B/row, 75% compute.
        assert model.hdfs_bandwidth_bytes_per_s == \
            pytest.approx(1_000_000 * 50.0 / (divisible * 0.25))
        assert model.worker_throughput_rows_per_s == \
            pytest.approx(1_000_000 / (divisible * 0.75))

    def test_calibrate_flat_curve_predicts_no_speedup(self):
        # A machine where extra workers do not help (1 core, contention)
        # must calibrate to an almost-all-overhead model instead of
        # inventing a speedup that the fit's negative slope disproves.
        model = ClusterCostModel.calibrate([(1, 10.0), (2, 11.0), (4, 10.5)],
                                           n_rows=100_000)
        one = model.estimate_seconds(100_000, 1)
        eight = model.estimate_seconds(100_000, 8)
        assert one / eight < 1.15
        assert model.coordination_overhead_s > 0.0

    def test_calibrate_superlinear_curve_clamps_overhead(self):
        # Superlinear scaling (cache effects) would fit a negative
        # overhead; the clamp keeps every component non-negative while
        # still predicting improvement with workers.
        model = ClusterCostModel.calibrate([(1, 20.0), (4, 2.0)],
                                           n_rows=100_000)
        assert model.coordination_overhead_s == 0.0
        times = model.sweep(100_000, [1, 2, 4, 8])
        assert times == sorted(times, reverse=True)

    def test_calibrate_validation(self):
        with pytest.raises(GraphError):
            ClusterCostModel.calibrate([(1, 10.0)], n_rows=100)
        with pytest.raises(GraphError):
            ClusterCostModel.calibrate([(1, 10.0), (1, 11.0)], n_rows=100)
        with pytest.raises(GraphError):
            ClusterCostModel.calibrate([(1, 10.0), (2, -1.0)], n_rows=100)
        with pytest.raises(GraphError):
            ClusterCostModel.calibrate([(0, 10.0), (2, 5.0)], n_rows=100)
        with pytest.raises(GraphError):
            ClusterCostModel.calibrate([(1, 10.0), (2, 6.0)], n_rows=0)
        with pytest.raises(GraphError):
            ClusterCostModel.calibrate([(1, 10.0), (2, 6.0)], n_rows=100,
                                       io_fraction=1.0)
