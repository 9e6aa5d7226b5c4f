"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section (see EXPERIMENTS.md for the index).  The synthetic datasets are
row-scaled so a full run finishes on a laptop in minutes; the *shape* of
each result (who wins, by roughly what factor, where crossovers fall) is what
is being reproduced, not the paper's absolute seconds.
"""

from __future__ import annotations

import os

import pytest

from repro.eda.compute.base import (
    _chunk_histogram,
    _chunk_numeric_summary,
    _chunk_reservoir,
    _finalize_reservoir,
)
from repro.eda.compute.univariate import INTERNAL_HISTOGRAM_BINS
from repro.graph import TaskCache, get_global_cache, set_global_cache
from repro.graph.delayed import compute
from repro.graph.scheduler import RunStats, get_scheduler
from repro.stats.sketches import merge_all, merge_reservoirs


@pytest.fixture(autouse=True)
def _fresh_intermediate_cache():
    """Isolate the process-wide intermediate cache per benchmark test.

    The figure benchmarks reproduce a system without a cross-call cache, so
    a cache warmed by an earlier test (or an earlier dataset sweep) must
    never leak into their measurements.  bench_interactive_session, which
    measures the cache itself, installs its own instance on top of this.
    """
    previous = get_global_cache()
    set_global_cache(TaskCache())
    yield
    set_global_cache(previous)


#: Scale factor applied to the Table 2 dataset row counts.  Override with the
#: REPRO_BENCH_SCALE environment variable (1.0 = the published row counts).
TABLE2_ROW_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.2"))

#: Row count used for the bitcoin-shaped dataset (the paper uses 4.7M rows on
#: a server; the default here keeps a laptop run fast).
BITCOIN_ROWS = int(os.environ.get("REPRO_BENCH_BITCOIN_ROWS", "100000"))

#: Row counts for the Figure 6(b) scaling sweep (the paper sweeps 10M-100M).
SCALING_ROWS = [int(value) for value in os.environ.get(
    "REPRO_BENCH_SCALING_ROWS", "25000,50000,100000,200000").split(",")]


def print_header(title: str) -> None:
    """Uniform section header in benchmark output."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def numeric_plot_stages(partitioned, column: str):
    """The two graph stages of ``plot(scan, column)`` on a numeric column,
    bound by hand to *partitioned* instead of the planner's partition sets:
    the summary, then a fine histogram over its range and a reservoir
    sample.  With no cache each stage parses every chunk again, as the plot
    does.  Returns the summary and the two stages' summed ``RunStats``."""
    scheduler = get_scheduler("threaded")
    runs = RunStats()
    summary = partitioned.reduction(
        _chunk_numeric_summary, merge_all, chunk_args=(column,)
    ).compute(scheduler=scheduler)
    runs += scheduler.last_run
    compute(partitioned.reduction(
                _chunk_histogram, merge_all,
                chunk_args=(column, INTERNAL_HISTOGRAM_BINS,
                            summary.minimum, summary.maximum)),
            partitioned.reduction(
                _chunk_reservoir, merge_reservoirs,
                finalize=_finalize_reservoir,
                chunk_args=((column,), 5000, 0), indexed=True),
            scheduler=scheduler)
    runs += scheduler.last_run
    return summary, runs
