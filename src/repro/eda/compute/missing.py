"""Missing-value analysis: ``plot_missing(...)`` (rows 7-9 of Figure 2).

* ``plot_missing(df)``            -> missing bar chart, missing spectrum,
  nullity correlation heat map, nullity dendrogram.
* ``plot_missing(df, col1)``       -> the impact of dropping rows where
  ``col1`` is missing on the distribution of every other column (histogram
  or bar chart, before vs after).
* ``plot_missing(df, col1, col2)`` -> the impact of dropping ``col1``-missing
  rows on ``col2``: histogram, PDF, CDF and box plot, before vs after.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config
from repro.eda.dtypes import SemanticType
from repro.eda.insights import Insight, _missing_insight, similarity_insight
from repro.eda.intermediates import Intermediates
from repro.errors import EDAError
from repro.frame.column import Column
from repro.frame.frame import DataFrame
from repro.stats.association import nullity_dendrogram_from_distances
from repro.stats.descriptive import CategoricalSummary
from repro.stats.histogram import Histogram, compute_histogram
from repro.stats.qq import box_plot_from_values
from repro.stats.sketches import NullitySketch


def compute_missing_overview(frame: DataFrame, config: Config,
                             context: Optional[ComputeContext] = None
                             ) -> Intermediates:
    """Intermediates of ``plot_missing(df)``.

    One :class:`NullitySketch` reduction serves every source kind: the
    sketch's closed-form finalizers reproduce the mask-based statistics
    exactly (pinned by the streaming-equivalence suite), the O(rows x
    columns) mask is never materialized, and streaming sources flow through
    with chunk-bounded memory.  The sketch reads every column's nullity, so
    it declares no column projection — the planner keeps this task's chunk
    parses full-width, as the overview genuinely needs.  The bar chart and spectrum come straight
    from the sketch counts, the nullity correlation from the closed-form
    Pearson over ``(n, S_i, S_ij)``, and the dendrogram from the
    count-derived Euclidean distances.
    """
    context = context or ComputeContext(frame, config)
    stage1 = context.resolve({
        "sketch": context.nullity_sketch(config.get("missing.spectrum_bins")),
    })

    sketch: NullitySketch = stage1["sketch"]
    columns = list(sketch.columns)
    n_rows = sketch.n_rows_seen
    has_cells = bool(n_rows and columns)

    missing_per_column = sketch.missing_per_column() if has_cells else \
        {name: 0 for name in columns}
    spectrum_item = None if not has_cells else {
        "columns": columns,
        "bin_edges": sketch.bin_edges.tolist(),
        "densities": sketch.spectrum_densities().tolist(),
    }
    kept, nullity_matrix = sketch.nullity_correlation() if has_cells \
        else ([], np.zeros((0, 0)))
    dendro_labels, dendro_nodes = \
        nullity_dendrogram_from_distances(sketch.nullity_distances(), columns) \
        if has_cells else (columns, [])

    intermediates = _assemble_missing_overview(
        config, columns, n_rows, missing_per_column, spectrum_item,
        kept, nullity_matrix, dendro_labels, dendro_nodes)
    return context.finish(intermediates)


def _assemble_missing_overview(config: Config, columns: List[str], n_rows: int,
                               missing_per_column: Dict[str, int],
                               spectrum_item: Optional[Dict[str, Any]],
                               kept: List[str], nullity_matrix: np.ndarray,
                               dendro_labels: List[str],
                               dendro_nodes: List[Any]) -> Intermediates:
    """Shared stats/items/insights assembly of the missing overview.

    Kept separate from the sketch finalization so the payload shapes and
    insight thresholds have exactly one home — which is what the
    streaming-equivalence suite pins across source kinds.
    """
    total_missing = sum(missing_per_column.values())
    stats = {
        "n_rows": n_rows,
        "n_columns": len(columns),
        "missing_cells": total_missing,
        "missing_rate": total_missing / max(n_rows * len(columns), 1),
        "columns_with_missing": sum(1 for count in missing_per_column.values() if count),
    }

    items: Dict[str, Any] = {
        "stats": stats,
        "missing_bar_chart": {
            "columns": columns,
            "missing_counts": [missing_per_column[name] for name in columns],
            "present_counts": [n_rows - missing_per_column[name] for name in columns],
        },
    }
    if spectrum_item is not None:
        items["missing_spectrum"] = spectrum_item
    items["nullity_correlation"] = {
        "columns": kept,
        "matrix": np.round(nullity_matrix, 6).tolist() if len(kept) else [],
    }
    items["nullity_dendrogram"] = {
        "labels": dendro_labels,
        "linkage": [{"left": node.left, "right": node.right,
                     "distance": node.distance, "size": node.size}
                    for node in dendro_nodes],
    }

    intermediates = Intermediates(
        task="missing", columns=[], items=items, stats=stats,
        meta={"missing_per_column": missing_per_column})
    for name, count in missing_per_column.items():
        intermediates.add_insights(_missing_insight(
            name, count / n_rows if n_rows else 0.0, config,
            "missing_bar_chart"))
    return intermediates


def compute_missing_single(frame: DataFrame, column: str, config: Config,
                           context: Optional[ComputeContext] = None
                           ) -> Intermediates:
    """Intermediates of ``plot_missing(df, col1)``.

    For every *other* column the frequency distribution is computed twice —
    on all rows and on the rows that remain after dropping the rows where
    *column* is missing — which is why the paper reports this as the most
    computationally intensive fine-grained task (Figure 5).

    This fine-grained task aligns rows across columns, so a streaming
    source is materialized here (the overview task streams; this one
    cannot) — announced with a ``UserWarning`` carrying the estimated
    materialization size, since it breaks the bounded-memory guarantee.
    """
    context = context or ComputeContext(frame, config)
    context.column(column)  # raises ColumnNotFoundError with suggestions

    frame = context.frame
    target_missing = frame.column(column).isna()
    dropped = frame.filter(~target_missing)
    types = context.semantic_types()

    impact: Dict[str, Any] = {}
    insights: List[Insight] = []
    for other in frame.columns:
        if other == column:
            continue
        compared = _drop_impact(other, frame.column(other), dropped.column(other),
                                types[other] is SemanticType.NUMERICAL, config)
        if compared is not None:
            impact[other] = compared.item
            insights.extend(compared.insights)

    n_missing = int(target_missing.sum())
    stats = {
        "column": column,
        "missing_rows": n_missing,
        "missing_rate": n_missing / max(len(frame), 1),
        "rows_after_drop": len(dropped),
        "columns_compared": len(impact),
    }
    items = {"stats": stats, "missing_impact": impact}
    intermediates = Intermediates(
        task="missing", columns=[column], items=items, stats=stats,
        meta={"semantic_types": {name: semantic.value for name, semantic in types.items()}})
    intermediates.add_insights(insights)
    return context.finish(intermediates)


def compute_missing_pair(frame: DataFrame, col1: str, col2: str, config: Config,
                         context: Optional[ComputeContext] = None
                         ) -> Intermediates:
    """Intermediates of ``plot_missing(df, col1, col2)``.

    Like :func:`compute_missing_single`, this aligns rows across columns,
    so a streaming source is materialized here (with the same warning).
    On top of the single task's before/after block of *col2*, a numerical
    *col2* gets its PDF, CDF and box plot before and after.
    """
    context = context or ComputeContext(frame, config)
    context.column(col1)  # raises ColumnNotFoundError with suggestions
    semantic = context.semantic_type(col2)

    frame = context.frame
    target_missing = frame.column(col1).isna()
    dropped = frame.filter(~target_missing)
    compared = _drop_impact(col2, frame.column(col2), dropped.column(col2),
                            semantic is SemanticType.NUMERICAL, config)
    if compared is None:
        raise EDAError(f"column {col2!r} has no present values to compare")

    items: Dict[str, Any] = {"missing_impact": compared.item}
    if compared.histograms is not None:
        edges = compared.item["edges"]
        pdf: Dict[str, Any] = {"edges": edges}
        cdf: Dict[str, Any] = {"edges": edges}
        boxes = []
        for side, label, values, histogram in zip(
                ("before", "after"), ("all rows", "after drop"),
                compared.values, compared.histograms):
            pdf[side] = histogram.density().tolist()
            cdf[side] = (np.cumsum(histogram.counts) / max(histogram.total, 1)).tolist()
            if values.size >= 2:
                box = box_plot_from_values(values, config.get("box.whisker"), histogram)
                boxes.append({"label": label, **box.as_dict()})
        items.update(pdf=pdf, cdf=cdf, box_plot={"boxes": boxes, "value_label": col2})

    n_missing = int(target_missing.sum())
    stats = {
        "column": col1,
        "impacted_column": col2,
        "missing_rows": n_missing,
        "missing_rate": n_missing / max(len(frame), 1),
        "rows_after_drop": len(dropped),
    }
    items["stats"] = stats
    intermediates = Intermediates(
        task="missing", columns=[col1, col2], items=items, stats=stats,
        meta={"impacted_type": semantic.value})
    intermediates.add_insights(compared.insights)
    return context.finish(intermediates)


class _Impact(NamedTuple):
    """One column's before/after block.  A numerical block also keeps the
    present values and the histograms it was drawn from, before and after;
    a categorical block keeps neither."""

    item: Dict[str, Any]
    insights: List[Insight]
    values: Optional[Tuple[np.ndarray, np.ndarray]] = None
    histograms: Optional[Tuple[Histogram, Histogram]] = None


def _drop_impact(name: str, before: Column, after: Column, numerical: bool,
                 config: Config) -> Optional[_Impact]:
    """How dropping rows changes column *name*: all rows (*before*) against
    the rows kept (*after*).

    A numerical column compares ``missing.bins``-bin histograms over the
    all-rows [min, max]; a categorical one compares the counts of the
    ``bar.top_words`` most frequent values before.  None for a numerical
    column with no present value.
    """
    if not numerical:
        top = CategoricalSummary.from_column(before).top_values(
            config.get("bar.top_words"))
        after_counts = CategoricalSummary.from_column(after).counts_by_label()
        return _Impact({
            "type": "categorical",
            "categories": [label for label, _ in top],
            "before_counts": [count for _, count in top],
            "after_counts": [after_counts.get(label, 0) for label, _ in top],
        }, [])
    before_values = before.to_numpy(drop_missing=True).astype(np.float64)
    after_values = after.to_numpy(drop_missing=True).astype(np.float64)
    if before_values.size == 0:
        return None
    bins = config.get("missing.bins")
    value_range = (float(before_values.min()), float(before_values.max()))
    before_hist = compute_histogram(before_values, bins, value_range)
    after_hist = compute_histogram(after_values, bins, value_range)
    item = {
        "type": "numerical",
        "edges": before_hist.edges.tolist(),
        "before_counts": before_hist.counts.tolist(),
        "after_counts": after_hist.counts.tolist(),
    }
    insights = similarity_insight(name, "missing_impact", before_values,
                                  after_values, config)
    return _Impact(item, insights, (before_values, after_values),
                   (before_hist, after_hist))
