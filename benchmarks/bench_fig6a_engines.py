"""Figure 6(a): comparing execution engines on the bitcoin-shaped dataset.

The paper computes the intermediates of ``plot(df)`` on the 4.7M-row bitcoin
dataset (loaded with Dask's ``read_csv``) with Dask, Modin, Koalas and
PySpark, and finds the lazy shared-graph execution (Dask) fastest, eager
per-operation execution (Modin) slower, and RPC-style engines slowest on a
single node.

The workload here mirrors that setup: the bitcoin-shaped data sits in a CSV
file, partitions are parsed lazily inside the task graph
(:meth:`PartitionedFrame.from_source` over a ``scan_csv`` handle), and the
requested values are the ``plot(df)`` intermediates (a summary and a histogram per column).  The lazy
strategy computes them in one merged graph, which parses every partition
once and shares it across all intermediates; the eager strategy computes
each value on its own, re-parsing per value; the RPC series is the one
merged graph over a synchronous scheduler that pays a dispatch latency per
task.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Callable, Dict, List

import pytest

from benchmarks.conftest import BITCOIN_ROWS, print_header
from repro.datasets import bitcoin_dataset
from repro.frame.io import scan_csv, write_csv
from repro.graph import (
    Delayed,
    PartitionedFrame,
    SynchronousScheduler,
    ThreadedScheduler,
    compute,
)
from repro.stats.descriptive import NumericSummary
from repro.stats.histogram import Histogram, compute_histogram
from repro.stats.sketches import merge_all

#: Seconds the "rpc" series pays per dispatched task.
RPC_LATENCY_S = 0.01

#: Strategy name -> measured seconds (filled as the benchmarks run).
_RESULTS: Dict[str, float] = {}


class _RpcScheduler(SynchronousScheduler):
    """Synchronous execution paying a fixed dispatch latency per unit.

    Every unit of the synchronous scheduler is one task, so this is the
    per-task driver/executor round trip of an RPC-style engine.
    """

    def _absorb_unit(self, unit, outcome, state):
        time.sleep(RPC_LATENCY_S)
        return super()._absorb_unit(unit, outcome, state)


def _eager(values: List[Delayed]) -> List[Any]:
    """Modin-like: each value computed on its own graph, nothing shared."""
    scheduler = ThreadedScheduler()
    return [compute(value, scheduler=scheduler)[0] for value in values]


#: The strategies compared, in the order of the paper's Figure 6(a) bars.
#: "rpc" models Koalas/PySpark on a single node: lazy overall, but every
#: task dispatch pays a 10 ms driver/executor round trip — deliberately
#: modest, and it still dominates when the data is small, which is the
#: paper's point.
ENGINES: Dict[str, Callable[[List[Delayed]], List[Any]]] = {
    "lazy": lambda values: compute(*values, scheduler=ThreadedScheduler()),
    "eager": _eager,
    "rpc": lambda values: compute(*values, scheduler=_RpcScheduler()),
}

#: Rows per CSV partition.
PARTITION_ROWS = 12_500


def _chunk_summary(partition, column: str) -> NumericSummary:
    return NumericSummary.from_column(partition.column(column))


def _combine_summaries(parts: List[NumericSummary]) -> NumericSummary:
    return merge_all(parts)


def _chunk_histogram(partition, column: str) -> Histogram:
    values = partition.column(column).to_numpy(drop_missing=True)
    return compute_histogram(values.astype(float), 50, (0.0, 1.0e7))


def _combine_histograms(parts: List[Histogram]) -> Histogram:
    return merge_all(parts)


def _plot_df_workload(partitioned: PartitionedFrame) -> List[Delayed]:
    """The plot(df) intermediates: a summary and a histogram per column."""
    values: List[Delayed] = []
    for column in partitioned.columns:
        values.append(partitioned.reduction(
            _chunk_summary, _combine_summaries, chunk_args=(column,)))
        values.append(partitioned.reduction(
            _chunk_histogram, _combine_histograms, chunk_args=(column,)))
    return values


@pytest.fixture(scope="module")
def bitcoin_csv_path():
    frame = bitcoin_dataset(n_rows=BITCOIN_ROWS, seed=1)
    directory = tempfile.mkdtemp(prefix="repro_fig6a_")
    path = os.path.join(directory, "bitcoin.csv")
    write_csv(frame, path)
    return path


@pytest.mark.parametrize("engine_name", ENGINES)
def test_fig6a_engine(benchmark, bitcoin_csv_path, engine_name):
    """Compute the plot(df) intermediates with one strategy."""
    def run():
        started = time.perf_counter()
        # An effectively unbounded budget: PARTITION_ROWS is this figure's
        # fixed granularity, not something the memory heuristic may shrink.
        partitioned = PartitionedFrame.from_source(scan_csv(
            bitcoin_csv_path, chunk_rows=PARTITION_ROWS,
            budget_bytes=2 ** 62, inference_rows=1000))
        results = ENGINES[engine_name](_plot_df_workload(partitioned))
        _RESULTS[engine_name] = time.perf_counter() - started
        return len(results)

    produced = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert produced == 16  # 8 columns x (summary + histogram)


def test_fig6a_summary(benchmark):
    """Print the Figure 6(a) bars and check the headline ordering."""
    if len(_RESULTS) < len(ENGINES):
        pytest.skip("run the per-engine benchmarks first (whole-file run)")

    def summarize():
        print_header(f"Figure 6(a) — engines computing plot(df) intermediates "
                     f"({BITCOIN_ROWS:,} bitcoin-shaped rows from CSV)")
        labels = {"lazy": "lazy shared graph (Dask / DataPrep.EDA)",
                  "eager": "eager per-operation (Modin-like)",
                  "rpc": "RPC dispatch per task (Koalas/PySpark-like)"}
        for engine_name in ENGINES:
            print(f"{labels[engine_name]:44s} {_RESULTS[engine_name]:8.2f} s")
        return dict(_RESULTS)

    results = benchmark.pedantic(summarize, rounds=1, iterations=1)

    # Paper shape: the lazy shared-graph engine wins clearly.  (The relative
    # order of the two alternatives is framework-specific and is not asserted;
    # see EXPERIMENTS.md.)
    assert results["lazy"] < results["eager"]
    assert results["lazy"] < results["rpc"]
