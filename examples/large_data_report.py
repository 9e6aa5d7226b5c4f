"""Profile reports on larger data: the lazy pipeline and its sharing.

This example mirrors Section 6.2 of the paper on a laptop scale: it builds a
bitcoin-shaped dataset, generates a profile report through the partitioned
lazy pipeline, compares it with the eager baseline profiler, and shows the
intermediates-sharing statistics each graph run reports.  The lazy vs eager
vs RPC-style comparison of Figure 6(a) is
``benchmarks/bench_fig6a_engines.py``.

Run with::

    python examples/large_data_report.py
"""

from __future__ import annotations

import os
import tempfile
import time

import repro
from repro.baselines import eager_profile_report
from repro.datasets import bitcoin_dataset
from repro.eda.compute import ComputeContext, compute_overview
from repro.eda.config import Config


def main() -> None:
    output_dir = tempfile.mkdtemp(prefix="repro_large_data_")
    n_rows = 60_000
    df = bitcoin_dataset(n_rows=n_rows, seed=0)
    print(f"bitcoin-shaped data: {n_rows:,} rows x {df.shape[1]} columns "
          f"({df.memory_bytes() / 1e6:.0f} MB in memory)")

    # 1. DataPrep.EDA report through the partitioned lazy pipeline.
    config = {"compute.use_graph": "always", "compute.partition_rows": 50_000}
    started = time.perf_counter()
    report = repro.create_report(df, config=config, title="Bitcoin report")
    dataprep_seconds = time.perf_counter() - started
    report.save(os.path.join(output_dir, "bitcoin_report.html"))
    print(f"DataPrep.EDA report: {dataprep_seconds:.1f}s "
          f"(section timings: "
          f"{ {name: round(value, 2) for name, value in report.timings.items()} })")

    # 2. The eager baseline profiler on the same data.
    started = time.perf_counter()
    eager_profile_report(df, render=True, kendall_max_rows=50_000)
    baseline_seconds = time.perf_counter() - started
    print(f"eager baseline report: {baseline_seconds:.1f}s "
          f"({baseline_seconds / dataprep_seconds:.1f}x slower)")

    # 3. Work sharing in the plot(df) intermediates: one merged graph per
    # stage.  (The eager one-graph-per-value comparison of Figure 6a is
    # benchmarks/bench_fig6a_engines.py.)
    overview_config = Config.from_user({"compute.use_graph": "always",
                                        "compute.partition_rows": 50_000,
                                        "insight.enabled": False,
                                        "cache.enabled": False})
    context = ComputeContext(df, overview_config)
    started = time.perf_counter()
    compute_overview(df, overview_config, context=context)
    elapsed = time.perf_counter() - started
    shared = sum(report.shared_tasks for report in context.reports)
    executed = sum(report.tasks_executed for report in context.reports)
    print(f"plot(df) intermediates: {elapsed:.2f}s "
          f"({executed} tasks executed, {shared} shared)")
    print(f"all output files are in {output_dir}")


if __name__ == "__main__":
    main()
