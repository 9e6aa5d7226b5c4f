"""Figure 5: fraction of fine-grained tasks finishing within a time budget.

The paper runs ``plot()``, ``plot_correlation()`` and ``plot_missing()`` for
every column (and column pair) of the 15 datasets and reports the percentage
of calls that finish within 0.5 / 1 / 2 / 5 seconds; most tasks finish within
one second and ``plot_missing(df, col)`` is the slowest family.

This benchmark runs the same sweep over a representative subset of the
datasets and prints the regenerated Figure 5 series.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List

import pytest

from benchmarks.conftest import TABLE2_ROW_SCALE, print_header
from repro.datasets import load_kaggle_like
from repro.eda import plot, plot_correlation, plot_missing
from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config

#: Datasets covered by the sweep (a spread of sizes and column mixes).
DATASETS = ["heart", "titanic", "women", "suicide", "adult"]

#: The time thresholds of Figure 5, in seconds.
THRESHOLDS = (0.5, 1.0, 2.0, 5.0)

#: Per-function call latencies, collected across datasets.
_LATENCIES: Dict[str, List[float]] = {}

#: Cap on pair tasks per dataset so the sweep finishes quickly.
MAX_PAIRS = 6

#: Figure 5 measures the paper's system, which has no cross-call cache;
#: disable ours so every timed call pays its full cost.
_NO_CACHE = {"cache.enabled": False}


def _timed(function_name: str, callable_) -> None:
    started = time.perf_counter()
    callable_()
    _LATENCIES.setdefault(function_name, []).append(time.perf_counter() - started)


def _sweep_dataset(name: str) -> None:
    frame = load_kaggle_like(name, row_scale=TABLE2_ROW_SCALE)
    numerical = ComputeContext(frame, Config.from_user()).numerical_columns()
    low_cardinality = [column for column in frame.columns
                       if frame.column(column).nunique() <= 100]

    for column in frame.columns:
        _timed("plot(df, col)", lambda c=column: plot(frame, c, config=_NO_CACHE))
        _timed("plot_missing(df, col)", lambda c=column: plot_missing(frame, c, config=_NO_CACHE))
    for column in numerical:
        _timed("plot_correlation(df, col)",
               lambda c=column: plot_correlation(frame, c, config=_NO_CACHE))

    pairs = list(itertools.combinations(
        [column for column in frame.columns if column in low_cardinality or
         column in numerical], 2))[:MAX_PAIRS]
    for first, second in pairs:
        _timed("plot(df, col1, col2)",
               lambda a=first, b=second: plot(frame, a, b, config=_NO_CACHE))
        _timed("plot_missing(df, col1, col2)",
               lambda a=first, b=second: plot_missing(frame, a, b, config=_NO_CACHE))
    numeric_pairs = list(itertools.combinations(numerical, 2))[:MAX_PAIRS]
    for first, second in numeric_pairs:
        _timed("plot_correlation(df, col1, col2)",
               lambda a=first, b=second: plot_correlation(frame, a, b, config=_NO_CACHE))

    _timed("plot(df)", lambda: plot(frame, config=_NO_CACHE))
    _timed("plot_correlation(df)", lambda: plot_correlation(frame, config=_NO_CACHE))
    _timed("plot_missing(df)", lambda: plot_missing(frame, config=_NO_CACHE))


@pytest.mark.parametrize("name", DATASETS)
def test_fig5_task_sweep(benchmark, name):
    """Run every fine-grained task of one dataset and record its latency."""
    benchmark.pedantic(lambda: _sweep_dataset(name), rounds=1, iterations=1,
                       warmup_rounds=0)


def test_fig5_summary(benchmark):
    """Print the Figure 5 series and check the paper's shape claims."""
    if not _LATENCIES:
        pytest.skip("run the sweep benchmarks first (whole-file run)")

    def summarize():
        print_header(f"Figure 5 — task latency distribution "
                     f"(row scale {TABLE2_ROW_SCALE}, {len(DATASETS)} datasets)")
        header = "".join(f"{f'<= {threshold}s':>10s}" for threshold in THRESHOLDS)
        print(f"{'function':32s}{header}{'tasks':>8s}")
        fractions = {}
        for function_name, latencies in sorted(_LATENCIES.items()):
            row = []
            for threshold in THRESHOLDS:
                fraction = sum(1 for value in latencies if value <= threshold) \
                    / len(latencies)
                row.append(fraction)
            fractions[function_name] = dict(zip(THRESHOLDS, row))
            cells = "".join(f"{value:>9.0%} " for value in row)
            print(f"{function_name:32s}{cells}{len(latencies):>7d}")
        return fractions

    fractions = benchmark.pedantic(summarize, rounds=1, iterations=1)

    # Paper shape: the majority of tasks complete within 1 second for every
    # function, and within 5 seconds virtually everything finishes.
    for function_name, row in fractions.items():
        assert row[5.0] >= 0.9, f"{function_name} exceeded the 5s budget too often"
    majority_within_one_second = [name for name, row in fractions.items()
                                  if row[1.0] >= 0.5]
    assert len(majority_within_one_second) >= len(fractions) - 2
