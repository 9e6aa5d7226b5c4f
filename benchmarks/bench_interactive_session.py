"""Interactive EDA session replay: cold vs. warm intermediate cache.

The paper's user study (Section 6.3 / Figure 7) has participants iterate
fine-grained task calls over one dataset — ``plot(df)``, then ``plot(df,
col)``, then ``plot_correlation(df)`` and so on.  Before the cross-call
intermediate cache, every call re-executed its whole task graph; with the
cache (``cache.enabled``, the default) later calls reuse the partition
slices, summaries and histograms computed by earlier ones.

This benchmark replays one such session twice against a fresh process-wide
cache: the first (cold) replay pays for everything, the second (warm) replay
must execute strictly fewer tasks and report cache hits in its
execution reports.  Wall-clock times are printed per call.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from benchmarks.conftest import print_header
from repro.datasets import delayed_flights_dataset
from repro.eda import plot, plot_correlation, plot_missing
from repro.graph import TaskCache, get_global_cache, set_global_cache
from repro.report import create_report

#: Rows of the session dataset; above compute.small_data_rows so the graph
#: stage (and therefore the cache) is active, split into several partitions.
SESSION_ROWS = 60_000

SESSION_CONFIG = {"compute.partition_rows": 15_000}


def _session_calls(frame) -> List[Tuple[str, Any]]:
    """The replayed session: overview -> drill-down -> report (Figure 7 style)."""
    numeric = frame.numeric_columns()
    col1, col2 = numeric[0], numeric[1]
    return [
        ("plot(df)", lambda: plot(frame, config=SESSION_CONFIG,
                                  mode="intermediates")),
        (f'plot(df, "{col1}")', lambda: plot(frame, col1, config=SESSION_CONFIG,
                                             mode="intermediates")),
        (f'plot(df, "{col1}", "{col2}")',
         lambda: plot(frame, col1, col2, config=SESSION_CONFIG,
                      mode="intermediates")),
        ("plot_correlation(df)",
         lambda: plot_correlation(frame, config=SESSION_CONFIG,
                                  mode="intermediates")),
        ("plot_missing(df)",
         lambda: plot_missing(frame, config=SESSION_CONFIG,
                              mode="intermediates")),
        ("create_report(df)",
         lambda: create_report(frame, config=SESSION_CONFIG)),
    ]


def _execution_reports(result) -> List[Any]:
    if hasattr(result, "execution_reports"):      # Report
        return result.execution_reports
    return result.meta.get("execution_reports", [])  # Intermediates


def replay_session(frame) -> Dict[str, Any]:
    """Run the whole session once; return per-call and total statistics."""
    calls = []
    total_executed = 0
    total_hits = 0
    total_seconds = 0.0
    for label, call in _session_calls(frame):
        started = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - started
        reports = _execution_reports(result)
        executed = sum(report.tasks_executed for report in reports)
        hits = sum(report.cache_hits for report in reports)
        calls.append({"call": label, "seconds": seconds,
                      "tasks_executed": executed, "cache_hits": hits})
        total_executed += executed
        total_hits += hits
        total_seconds += seconds
    return {"calls": calls, "tasks_executed": total_executed,
            "cache_hits": total_hits, "seconds": total_seconds}


def test_interactive_session_cold_vs_warm(benchmark):
    """The warm replay must execute strictly fewer tasks than the cold one."""
    frame = delayed_flights_dataset(n_rows=SESSION_ROWS)

    previous_cache = get_global_cache()
    set_global_cache(TaskCache())
    try:
        def run():
            get_global_cache().clear()
            cold = replay_session(frame)
            warm = replay_session(frame)
            return cold, warm

        cold, warm = benchmark.pedantic(run, rounds=1, iterations=1,
                                        warmup_rounds=0)
    finally:
        set_global_cache(previous_cache)

    print_header(
        f"Interactive session replay — {SESSION_ROWS} rows, cold vs. warm cache")
    print(f"{'call':34s} {'cold s':>8s} {'warm s':>8s} "
          f"{'cold tasks':>11s} {'warm tasks':>11s} {'warm hits':>10s}")
    for cold_call, warm_call in zip(cold["calls"], warm["calls"]):
        print(f"{cold_call['call']:34s} {cold_call['seconds']:8.3f} "
              f"{warm_call['seconds']:8.3f} "
              f"{cold_call['tasks_executed']:11d} "
              f"{warm_call['tasks_executed']:11d} "
              f"{warm_call['cache_hits']:10d}")
    speedup = cold["seconds"] / max(warm["seconds"], 1e-9)
    print(f"{'TOTAL':34s} {cold['seconds']:8.3f} {warm['seconds']:8.3f} "
          f"{cold['tasks_executed']:11d} {warm['tasks_executed']:11d} "
          f"{warm['cache_hits']:10d}")
    print(f"whole-session speedup: {speedup:.2f}x")

    # Acceptance: the warm replay executes strictly fewer tasks and the
    # avoided work is visible as cache hits in the execution reports.
    assert warm["tasks_executed"] < cold["tasks_executed"]
    assert warm["cache_hits"] > 0
    # Even the cold session benefits: calls after the first reuse the
    # partition slices and summaries of their predecessors.
    assert sum(call["cache_hits"] for call in cold["calls"][1:]) > 0
