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

from typing import Any, Dict, List, Optional

import numpy as np

from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config
from repro.eda.dtypes import SemanticType, detect_frame_types, detect_semantic_type
from repro.eda.insights import Insight, similarity_insight
from repro.eda.intermediates import Intermediates
from repro.errors import EDAError
from repro.frame.frame import DataFrame
from repro.stats.association import nullity_dendrogram_from_distances
from repro.stats.histogram import compute_histogram
from repro.stats.qq import box_plot_stats
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

    items: Dict[str, Any] = {"stats": stats}
    if config.wants("missing_bar_chart"):
        items["missing_bar_chart"] = {
            "columns": columns,
            "missing_counts": [missing_per_column[name] for name in columns],
            "present_counts": [n_rows - missing_per_column[name] for name in columns],
        }
    if spectrum_item is not None and config.wants("missing_spectrum"):
        items["missing_spectrum"] = spectrum_item
    if config.wants("nullity_correlation"):
        items["nullity_correlation"] = {
            "columns": kept,
            "matrix": np.round(nullity_matrix, 6).tolist() if len(kept) else [],
        }
    if config.wants("nullity_dendrogram"):
        items["nullity_dendrogram"] = {
            "labels": dendro_labels,
            "linkage": [{"left": node.left, "right": node.right,
                         "distance": node.distance, "size": node.size}
                        for node in dendro_nodes],
        }

    intermediates = Intermediates(
        task="missing", columns=[], items=items, stats=stats,
        meta={"missing_per_column": missing_per_column})
    insights = []
    threshold = config.get("insight.missing.threshold")
    for name, count in missing_per_column.items():
        rate = count / n_rows if n_rows else 0.0
        if rate > threshold:
            insights.append(Insight(
                kind="missing", column=name, item="missing_bar_chart",
                severity="warning", value=rate,
                message=f"{name} has {rate:.1%} missing values"))
    intermediates.add_insights(insights)
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
    if column not in context.column_names:
        context.column(column)  # raises ColumnNotFoundError with suggestions

    frame = context.frame
    target_missing = frame.column(column).isna()
    dropped = frame.filter(~target_missing)
    types = detect_frame_types(frame)

    bins = config.get("missing.bins")
    top = config.get("bar.top_words")
    impact: Dict[str, Any] = {}
    insights: List[Insight] = []
    for other in frame.columns:
        if other == column:
            continue
        before_column = frame.column(other)
        after_column = dropped.column(other)
        if types[other] is SemanticType.NUMERICAL and before_column.dtype.is_numeric:
            before_values = before_column.to_numpy(drop_missing=True).astype(np.float64)
            after_values = after_column.to_numpy(drop_missing=True).astype(np.float64)
            if before_values.size == 0:
                continue
            low, high = float(before_values.min()), float(before_values.max())
            before_hist = compute_histogram(before_values, bins, (low, high))
            after_hist = compute_histogram(after_values, bins, (low, high))
            impact[other] = {
                "type": "numerical",
                "edges": before_hist.edges.tolist(),
                "before_counts": before_hist.counts.tolist(),
                "after_counts": after_hist.counts.tolist(),
            }
            insights.extend(similarity_insight(
                other, "missing_impact", before_values, after_values, config))
        else:
            before_counts = dict(before_column.value_counts()[:top])
            after_counts = dict(after_column.value_counts())
            categories = list(before_counts.keys())
            impact[other] = {
                "type": "categorical",
                "categories": [str(category) for category in categories],
                "before_counts": [int(before_counts[category]) for category in categories],
                "after_counts": [int(after_counts.get(category, 0))
                                 for category in categories],
            }

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
    """
    context = context or ComputeContext(frame, config)
    for name in (col1, col2):
        if name not in context.column_names:
            context.column(name)

    frame = context.frame
    target_missing = frame.column(col1).isna()
    dropped = frame.filter(~target_missing)
    impacted = frame.column(col2)
    impacted_after = dropped.column(col2)
    semantic = detect_semantic_type(impacted)

    items: Dict[str, Any]
    insights: List[Insight] = []
    if semantic is SemanticType.NUMERICAL and impacted.dtype.is_numeric:
        before = impacted.to_numpy(drop_missing=True).astype(np.float64)
        after = impacted_after.to_numpy(drop_missing=True).astype(np.float64)
        if before.size == 0:
            raise EDAError(f"column {col2!r} has no present values to compare")
        low, high = float(before.min()), float(before.max())
        bins = config.get("missing.bins")
        before_hist = compute_histogram(before, bins, (low, high))
        after_hist = compute_histogram(after, bins, (low, high))

        before_density = before_hist.density()
        after_density = after_hist.density()
        before_cdf = np.cumsum(before_hist.counts) / max(before_hist.total, 1)
        after_cdf = np.cumsum(after_hist.counts) / max(after_hist.total, 1)

        boxes = []
        for label, values, histogram in (("all rows", before, before_hist),
                                         ("after drop", after, after_hist)):
            if values.size < 2:
                continue
            quantile_values = np.quantile(values, [0.25, 0.5, 0.75])
            box = box_plot_stats(
                {0.25: float(quantile_values[0]), 0.5: float(quantile_values[1]),
                 0.75: float(quantile_values[2])},
                float(values.min()), float(values.max()), histogram,
                whisker=config.get("box.whisker"))
            boxes.append({"label": label, **box.as_dict()})

        items = {
            "missing_impact": {
                "type": "numerical",
                "edges": before_hist.edges.tolist(),
                "before_counts": before_hist.counts.tolist(),
                "after_counts": after_hist.counts.tolist(),
            },
            "pdf": {"edges": before_hist.edges.tolist(),
                    "before": before_density.tolist(),
                    "after": after_density.tolist()},
            "cdf": {"edges": before_hist.edges.tolist(),
                    "before": before_cdf.tolist(),
                    "after": after_cdf.tolist()},
            "box_plot": {"boxes": boxes, "value_label": col2},
        }
        insights.extend(similarity_insight(col2, "missing_impact", before, after, config))
    else:
        top = config.get("bar.top_words")
        before_counts = dict(impacted.value_counts()[:top])
        after_counts = dict(impacted_after.value_counts())
        categories = [str(category) for category in before_counts]
        items = {
            "missing_impact": {
                "type": "categorical",
                "categories": categories,
                "before_counts": [int(count) for count in before_counts.values()],
                "after_counts": [int(after_counts.get(category, 0))
                                 for category in before_counts],
            },
        }

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
    intermediates.add_insights(insights)
    return context.finish(intermediates)
