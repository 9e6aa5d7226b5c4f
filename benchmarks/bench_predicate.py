"""Predicate pushdown: selective filters over a clustered scanned CSV.

Filtered EDA should cost what the *matching rows* cost, not what the file
costs.  The predicate planner gets there twice over: the pushed-down filter
drops rows inside each chunk's parse (before dtype coercion feeds the
sketches), and the per-chunk zone maps drop whole chunks whose min/max
range cannot contain a match — before a single data byte is read.  On data
clustered by the filtered column (timestamps, auto-increment keys: the
common case for selective filters) the second mechanism dominates.

This benchmark pins both claims, sized so CI can smoke the counter claim on
every push:

1. **Chunk skipping** — a 10%-selective filter on the clustered key skips
   ≥50% of the chunks, observed via ``chunks_skipped`` on the context's
   execution report and via ``meta["predicate"]`` on the API result.
2. **Speedup** — with the zone-map sidecar in place, the pruned run beats
   the same filtered call with pruning disabled (``compute.predicates:
   False``) by ≥1.5x, with identical results.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import print_header
from repro import plot, scan_csv
from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config
from repro.frame.predicate import compile_predicate
from repro.frame.source import FilteredSource
from repro.graph import TaskCache, set_global_cache

N_ROWS = int(os.environ.get("REPRO_BENCH_PREDICATE_ROWS", "40000"))
CHUNK_ROWS = 2_000

#: The filter keeps the top 10% of the clustered key's range.
SELECTIVITY = 0.1

#: CI gate: the selective filter must skip at least half the chunks.
MIN_SKIP_FRACTION = 0.5

#: Paper-style claim: pruning must beat parse-everything-and-filter.
MIN_SPEEDUP = 1.5


def _total_chunks() -> int:
    return math.ceil(N_ROWS / CHUNK_ROWS)


def _threshold() -> float:
    return float(N_ROWS) * (1.0 - SELECTIVITY)


@pytest.fixture(scope="module")
def clustered_csv(tmp_path_factory) -> str:
    """A CSV clustered by ``ts`` (ascending), plus value/label columns."""
    rng = np.random.default_rng(13)
    path = str(tmp_path_factory.mktemp("predicate_bench") / "clustered.csv")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ts", "value", "label"])
        block = 10_000
        written = 0
        while written < N_ROWS:
            rows = min(block, N_ROWS - written)
            ts = np.arange(written, written + rows, dtype=np.float64)
            values = rng.normal(0.0, 1.0, rows).round(4)
            labels = rng.choice(["alpha", "beta", "gamma"], rows)
            writer.writerows(zip(ts.tolist(), values.tolist(), labels))
            written += rows
    return path


def test_predicate_chunk_skipping(clustered_csv):
    """CI smoke: a selective filter skips ≥50% of chunks via zone maps."""
    total = _total_chunks()
    predicate = compile_predicate(("ts", ">=", _threshold()))

    # Context-level: one reduction over the filtered source, counters read
    # off the stage's execution report.
    set_global_cache(TaskCache())
    scan = scan_csv(clustered_csv, chunk_rows=CHUNK_ROWS)
    context = ComputeContext(
        FilteredSource(scan, predicate),
        Config.from_user({"cache.enabled": False}))
    resolved = context.resolve({"summary": context.numeric_summary("value")})
    run = context.reports[-1]
    kept_rows = resolved["summary"].count

    print_header(
        f"Predicate pushdown — {N_ROWS} rows, chunk_rows={CHUNK_ROWS}, "
        f"ts >= {_threshold():.0f} ({SELECTIVITY:.0%} selective)")
    print(f"chunks         {total} total, {run.chunks_skipped} skipped "
          f"({run.chunks_skipped / total:.0%})")
    print(f"rows kept      {kept_rows} "
          f"(filter removed {run.rows_filtered} from parsed chunks)")

    assert kept_rows == int(N_ROWS * SELECTIVITY)
    assert run.chunks_skipped >= MIN_SKIP_FRACTION * total, \
        f"zone maps must skip ≥{MIN_SKIP_FRACTION:.0%} of {total} chunks"

    # API-level: the same claim through plot(where=) execution reports.
    set_global_cache(TaskCache())
    result = plot(scan_csv(clustered_csv, chunk_rows=CHUNK_ROWS), "value",
                  mode="intermediates", where=("ts", ">=", _threshold()),
                  config={"cache.enabled": False})
    stats = result.meta["predicate"]
    reports = result.meta["execution_reports"]
    print(f"plot(where=)   chunks_skipped={stats['chunks_skipped']}, "
          f"rows_filtered={stats['rows_filtered']}, "
          f"stages={len(reports)}")
    assert stats["enabled"] is True
    assert stats["chunks_skipped"] >= MIN_SKIP_FRACTION * total
    assert sum(report.chunks_skipped for report in reports) == \
        stats["chunks_skipped"]


def _timed_filtered_plot(path: str, pruning: bool) -> tuple:
    """Best-of-2 cold runs of the filtered plot with pruning on or off."""
    # Both caches off: the claim is about parse cost, and the parsed-chunk
    # disk sidecar (on by default) would serve the second run without
    # decoding any CSV.
    config = {"cache.enabled": False, "cache.disk_enabled": False,
              "compute.predicates": pruning}
    best = None
    result = None
    for _ in range(2):
        set_global_cache(TaskCache())
        scan = scan_csv(path, chunk_rows=CHUNK_ROWS)
        started = time.perf_counter()
        result = plot(scan, "value", mode="intermediates",
                      where=("ts", ">=", _threshold()), config=config)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_predicate_selective_speedup(clustered_csv):
    """The headline claim: pruning ≥1.5x over parse-everything-and-filter."""
    # Build the zone-map sidecar up front so both modes pay zero build cost
    # (the realistic steady state: the sidecar persists across processes).
    scan_csv(clustered_csv, chunk_rows=CHUNK_ROWS).zone_map()

    pruned_seconds, pruned = _timed_filtered_plot(clustered_csv, True)
    full_seconds, full = _timed_filtered_plot(clustered_csv, False)

    speedup = full_seconds / max(pruned_seconds, 1e-9)
    print_header("Predicate pushdown — selective filter speedup")
    print(f"parse all      {full_seconds:6.2f} s  "
          f"(chunks_skipped={full.meta['predicate']['chunks_skipped']})")
    print(f"pruned         {pruned_seconds:6.2f} s  "
          f"(chunks_skipped={pruned.meta['predicate']['chunks_skipped']})")
    print(f"speedup        {speedup:6.1f}x  (required ≥ {MIN_SPEEDUP}x)")

    # Both modes must agree before the timing means anything.
    assert pruned.stats["count"] == full.stats["count"]
    assert pruned.stats["mean"] == pytest.approx(full.stats["mean"])
    assert full.meta["predicate"]["chunks_skipped"] == 0
    assert speedup >= MIN_SPEEDUP
