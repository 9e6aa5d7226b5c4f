"""Projection pushdown: single-column tasks over a wide scanned CSV.

The paper's promise is task-centric cost: ``plot(df, "x")`` should cost
what *one column* costs.  Before projection pushdown every chunk parse
materialized the whole table, so a single-column plot over a 40-column scan
paid 40 columns of cell collection and dtype coercion per chunk.  This
benchmark pins the two claims of the projection planner, sized so CI can
smoke the counter claim on every push:

1. **Parse work** — ``plot(scan, "x")`` plans and executes *projected*
   parses exclusively (one per chunk, one column wide), where the same
   reductions bound by hand to ``PartitionedFrame.from_source(scan)``
   execute full-width parses.  Asserted via the ``projected_parses`` /
   ``full_parses`` execution-report counters and the planner's
   ``columns_pruned``.
2. **Speedup** — the projected single-column plot is ≥3x faster than that
   full-parse path on a wide (40-column) CSV.
"""

from __future__ import annotations

import csv
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import numeric_plot_stages, print_header
from repro import plot, scan_csv
from repro.graph import PartitionedFrame, TaskCache, set_global_cache

N_COLUMNS = 40
N_ROWS = int(os.environ.get("REPRO_BENCH_PROJECTION_ROWS", "40000"))
CHUNK_ROWS = 4_000

#: Paper-style claim: a single-column plot over a wide scan must beat the
#: full-parse path by at least this factor.
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory) -> str:
    """A 40-column CSV: 39 numeric columns plus one categorical."""
    rng = np.random.default_rng(11)
    path = str(tmp_path_factory.mktemp("projection_bench") / "wide.csv")
    names = [f"x{index}" for index in range(N_COLUMNS - 1)] + ["label"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        block = 10_000
        written = 0
        while written < N_ROWS:
            rows = min(block, N_ROWS - written)
            numeric = rng.normal(0.0, 1.0, (rows, N_COLUMNS - 1)).round(4)
            labels = rng.choice(["alpha", "beta", "gamma"], rows)
            writer.writerows(
                [*row, label] for row, label in zip(numeric.tolist(), labels))
            written += rows
    return path


def _timed_plot(path: str, column: str, projection: bool) -> tuple:
    """Best-of-2 cold runs of ``plot(scan, column)`` (projected), or of its
    stages over full-width partitions; returns the best time, the result
    and its ``(projected, full)`` parse counts."""
    # Both caches off: the claim is about parse cost, and the parsed-chunk
    # disk sidecar (on by default) would serve the second run without
    # decoding any CSV.
    config = {"cache.enabled": False, "cache.disk_enabled": False}
    best = None
    for _ in range(2):
        set_global_cache(TaskCache())
        scan = scan_csv(path, chunk_rows=CHUNK_ROWS)
        started = time.perf_counter()
        if projection:
            result = plot(scan, column, config=config, mode="intermediates")
            runs = result.meta["execution_reports"]
        else:
            result, run = numeric_plot_stages(
                PartitionedFrame.from_source(scan), column)
            runs = [run]
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    parses = (sum(run.projected_parses for run in runs),
              sum(run.full_parses for run in runs))
    return best, result, parses


def test_projection_parse_counts(wide_csv):
    """CI smoke: the projected run parses strictly less than the full run.

    "Parse count" here is measured in column-parses (tasks x columns each
    materializes): the projected single-column plot must execute only
    projected parse tasks, each one column wide, so its column-parse count
    is a ~40th of the full-parse path's.
    """
    projected_seconds, projected, (projected_parses, stray_full) = \
        _timed_plot(wide_csv, "x0", True)
    full_seconds, _, (stray_projected, full_parses) = \
        _timed_plot(wide_csv, "x0", False)

    plan = projected.meta["projection"]
    projected_column_parses = projected_parses * 1
    full_column_parses = full_parses * N_COLUMNS

    print_header(
        f"Projection pushdown — {N_COLUMNS} columns x {N_ROWS} rows, "
        f"chunk_rows={CHUNK_ROWS}")
    print(f"projected run  {projected_seconds:6.2f} s  "
          f"({projected_parses} projected parses, {stray_full} full)")
    print(f"full run       {full_seconds:6.2f} s  "
          f"({full_parses} full parses, {stray_projected} projected)")
    print(f"columns pruned {plan['columns_pruned']}")

    assert projected_parses > 0 and stray_full == 0, \
        "plot(scan, col) must execute projected parses exclusively"
    assert full_parses > 0 and stray_projected == 0, \
        "the unprojected partitions must parse full width"
    assert projected_column_parses < full_column_parses, \
        "the projected run must parse fewer columns than the full run"
    # Every chunk prunes all but the plotted column.
    assert plan["columns_pruned"] == \
        (N_COLUMNS - 1) * plan["projected_parse_tasks"]


def test_projection_single_column_speedup(wide_csv):
    """The headline claim: ≥3x on a wide scan for a single-column plot."""
    projected_seconds, projected, _ = _timed_plot(wide_csv, "x0", True)
    full_seconds, full, _ = _timed_plot(wide_csv, "x0", False)

    speedup = full_seconds / max(projected_seconds, 1e-9)
    print_header("Projection pushdown — single-column plot speedup")
    print(f"full parse     {full_seconds:6.2f} s")
    print(f"projected      {projected_seconds:6.2f} s")
    print(f"speedup        {speedup:6.1f}x  (required ≥ {MIN_SPEEDUP}x)")

    # Both modes must agree before the timing means anything.
    assert projected.stats["count"] == full.count
    assert projected.stats["mean"] == pytest.approx(full.mean)
    assert speedup >= MIN_SPEEDUP
