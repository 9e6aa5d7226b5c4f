"""Overview analysis: ``plot(df)`` (row 1 of Figure 2).

Produces dataset statistics plus a histogram for every numerical column and
a bar chart for every categorical column.  All per-column summaries go into
ONE task graph so partition scans are shared across columns — this is the
main computation-sharing win the paper measures against Pandas-profiling.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config
from repro.eda.dtypes import SemanticType
from repro.eda.insights import dataset_insights
from repro.eda.intermediates import Intermediates
from repro.frame.frame import DataFrame
from repro.stats.descriptive import CategoricalSummary, NumericSummary

#: Above this row count the exact duplicate-row scan is skipped for
#: in-memory sources (its worst case sorts every column; the paper's
#: overview does not require it).  Streaming sources count duplicates
#: through a bounded row-hash sketch regardless of length — see
#: ComputeContext.duplicate_rows.
MAX_ROWS_FOR_DUPLICATE_SCAN = 200_000


def compute_overview(frame: DataFrame, config: Config,
                     context: Optional[ComputeContext] = None) -> Intermediates:
    """Compute the intermediates of ``plot(df)``.

    Works unchanged on any :class:`~repro.frame.source.FrameSource` (e.g. a
    ``scan_csv`` handle): every summary below is a mergeable reduction, so
    streaming sources flow through chunk by chunk.  The duplicate-row hash
    reads whole rows, so the projection planner correctly collapses this
    task's stage-1 batch onto full-width parses (the per-column summaries
    union to the whole table anyway); stage 2's histograms then reuse those
    parses instead of fragmenting them per column.
    """
    context = context or ComputeContext(frame, config)
    semantic_types = context.semantic_types()
    numerical = context.numerical_columns()
    categorical = [name for name in context.column_names if name not in numerical]

    # Stage 1 (graph): every per-column summary in one shared graph, plus
    # the duplicate-row count (exact scan or hash sketch, planner's choice).
    requested: Dict[str, Any] = {
        "n_rows": context.row_count(),
        "duplicates": context.duplicate_rows(MAX_ROWS_FOR_DUPLICATE_SCAN),
    }
    for name in numerical:
        requested[f"numeric::{name}"] = context.numeric_summary(name)
    for name in categorical:
        requested[f"categorical::{name}"] = context.categorical_summary(name)
    stage1 = context.resolve(requested, stage="graph")

    numeric_summaries: Dict[str, NumericSummary] = {
        name: stage1[f"numeric::{name}"] for name in numerical}
    categorical_summaries: Dict[str, CategoricalSummary] = {
        name: stage1[f"categorical::{name}"] for name in categorical}

    # Stage 2 (graph): per-column histograms over the now-known ranges.
    bins = config.get("hist.bins")
    stage2_request: Dict[str, Any] = {}
    for name, summary in numeric_summaries.items():
        if summary.count:
            stage2_request[f"hist::{name}"] = context.histogram(
                name, bins, summary.minimum, summary.maximum)
    stage2 = context.resolve(stage2_request, stage="graph") if stage2_request else {}

    # Local stage: assemble dataset statistics and per-column chart data.
    started = time.perf_counter()
    n_rows = int(stage1["n_rows"])
    n_columns = context.n_columns
    missing_cells = sum(summary.missing for summary in numeric_summaries.values())
    missing_cells += sum(summary.missing for summary in categorical_summaries.values())
    total_cells = max(n_rows * n_columns, 1)

    # Exact scan (in-memory, below the cutoff), sketch count (streaming,
    # exact while distinct rows fit the sketch capacity), or None.
    duplicate_rows = stage1["duplicates"]
    if duplicate_rows is not None:
        duplicate_rows = int(duplicate_rows)

    dataset_stats = {
        "n_rows": n_rows,
        "n_columns": n_columns,
        "n_numerical": len(numerical),
        "n_categorical": len(categorical),
        "missing_cells": int(missing_cells),
        "missing_cells_rate": missing_cells / total_cells,
        "duplicate_rows": duplicate_rows,
        # In-memory footprint of a frame, or on-disk size of a scan.
        "memory_bytes": context.source.footprint_bytes(),
    }

    variables: Dict[str, Dict[str, Any]] = {}
    items: Dict[str, Any] = {"overview": dataset_stats}
    for name in context.column_names:
        if name in numeric_summaries:
            summary = numeric_summaries[name]
            entry: Dict[str, Any] = {
                "type": SemanticType.NUMERICAL.value,
                "stats": summary.as_dict(),
            }
            histogram = stage2.get(f"hist::{name}")
            if histogram is not None and config.wants("histogram"):
                entry["histogram"] = {
                    "counts": histogram.counts.tolist(),
                    "edges": histogram.edges.tolist(),
                }
        else:
            summary = categorical_summaries[name]
            top = summary.top_values(config.get("bar.top_words"))
            entry = {
                "type": semantic_types[name].value,
                "stats": summary.as_dict(),
            }
            if config.wants("bar_chart"):
                entry["bar_chart"] = {
                    "categories": [value for value, _ in top],
                    "counts": [count for _, count in top],
                    "total_categories": summary.distinct,
                }
        variables[name] = entry
    items["variables"] = variables

    missing_rates = {name: entry["stats"]["missing_rate"]
                     for name, entry in variables.items()}
    intermediates = Intermediates(
        task="overview", columns=[], items=items, stats=dataset_stats,
        meta={"semantic_types": {name: semantic.value
                                 for name, semantic in semantic_types.items()}})
    intermediates.add_insights(dataset_insights(
        n_rows, duplicate_rows or 0, missing_rates, config))
    context.record_local_stage(time.perf_counter() - started)
    return context.finish(intermediates)
