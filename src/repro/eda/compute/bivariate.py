"""Bivariate analysis: ``plot(df, col1, col2)`` (row 3 of Figure 2).

* Numerical x Numerical   -> scatter plot, hexbin plot, binned box plot.
* Numerical x Categorical -> categorical box plot, multi-line chart.
* Categorical x Categorical -> nested bar chart, stacked bar chart, heat map.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.eda.compute.base import ComputeContext
from repro.eda.compute.correlation import finite_pair
from repro.eda.config import Config
from repro.eda.dtypes import SemanticType
from repro.eda.insights import Insight
from repro.eda.intermediates import Intermediates
from repro.frame.column import category_labels
from repro.frame.frame import DataFrame
from repro.stats.correlation import PearsonPartial
from repro.stats.qq import box_plot_from_values


def compute_bivariate(frame: DataFrame, col1: str, col2: str, config: Config,
                      context: Optional[ComputeContext] = None) -> Intermediates:
    """Compute the intermediates of ``plot(df, col1, col2)``.

    Source-agnostic: row alignment happens on the planner-chosen sample
    (exact fraction sample in memory, reservoir sketch over a streaming
    source) and the pair-count tables are capacity-bounded on streams, so
    no combination materializes a scanned input.  Every reduction of a
    combination declares ``{col1, col2}`` (or a subset) as its column
    requirement, so a bivariate task over a scanned CSV parses exactly two
    columns per chunk.
    """
    context = context or ComputeContext(frame, config)
    numeric1 = context.semantic_type(col1) is SemanticType.NUMERICAL
    numeric2 = context.semantic_type(col2) is SemanticType.NUMERICAL

    if numeric1 and numeric2:
        return _numerical_numerical(context, col1, col2, config)
    if numeric1 or numeric2:
        categorical, numerical = (col2, col1) if numeric1 else (col1, col2)
        return _categorical_numerical(context, categorical, numerical,
                                      config, [col1, col2])
    return _categorical_categorical(context, col1, col2, config)


# --------------------------------------------------------------------------- #
# Numerical x Numerical
# --------------------------------------------------------------------------- #
def _numerical_numerical(context: ComputeContext, col1: str, col2: str,
                         config: Config) -> Intermediates:
    stage1 = context.resolve({
        "summary1": context.numeric_summary(col1),
        "summary2": context.numeric_summary(col2),
        "pearson": context.pearson_partial([col1, col2]),
        "sample": context.sample([col1, col2], config.get("scatter.sample_size")),
    })

    pearson: PearsonPartial = stage1["pearson"]
    correlation = float(pearson.finalize()[0, 1])
    x, y = finite_pair(stage1["sample"], col1, col2,
                       config.get("scatter.sample_size"))

    hexbin = _hexbin(x, y, config.get("hexbin.gridsize"))
    binned_box = _binned_box(x, y, config.get("binnedbox.bins"),
                             whisker=config.get("box.whisker"))

    stats = {
        "pearson_correlation": correlation,
        f"{col1}_mean": stage1["summary1"].mean,
        f"{col2}_mean": stage1["summary2"].mean,
        "sampled_points": int(x.size),
    }
    items: Dict[str, Any] = {
        "stats": stats,
        "scatter_plot": {"x": x.tolist(), "y": y.tolist(),
                         "x_label": col1, "y_label": col2},
        "hexbin_plot": hexbin,
        "binned_box_plot": binned_box,
    }

    intermediates = Intermediates(
        task="bivariate", columns=[col1, col2], items=items, stats=stats,
        meta={"combination": "NN"})
    if abs(correlation) >= config.get("insight.correlation.threshold"):
        intermediates.add_insights([Insight(
            kind="high_correlation", column=f"{col1} x {col2}", item="scatter_plot",
            value=correlation,
            message=f"{col1} and {col2} are highly correlated "
                    f"(pearson = {correlation:.2f})")])
    return context.finish(intermediates)


def _hexbin(x: np.ndarray, y: np.ndarray, gridsize: int) -> Dict[str, Any]:
    """2-D histogram intermediates used to draw a hexbin-style density plot."""
    if x.size == 0:
        return {"counts": [], "x_edges": [], "y_edges": [], "gridsize": gridsize}
    counts, x_edges, y_edges = np.histogram2d(x, y, bins=gridsize)
    return {
        "counts": counts.astype(int).tolist(),
        "x_edges": x_edges.tolist(),
        "y_edges": y_edges.tolist(),
        "gridsize": gridsize,
    }


def _binned_box(x: np.ndarray, y: np.ndarray, bins: int,
                whisker: float) -> Dict[str, Any]:
    """Box-plot statistics of ``y`` within equal-width bins of ``x``."""
    if x.size == 0:
        return {"bins": [], "boxes": []}
    edges = np.linspace(x.min(), x.max(), bins + 1)
    labels: List[str] = []
    boxes: List[Dict[str, float]] = []
    for index in range(bins):
        low, high = edges[index], edges[index + 1]
        mask = (x >= low) & (x <= high if index == bins - 1 else x < high)
        values = y[mask]
        if values.size < 2:
            continue
        box = box_plot_from_values(values, whisker)
        labels.append(f"[{low:.2f}, {high:.2f}]")
        boxes.append(box.as_dict())
    return {"bins": labels, "boxes": boxes}


# --------------------------------------------------------------------------- #
# Categorical x Numerical
# --------------------------------------------------------------------------- #
def _categorical_numerical(context: ComputeContext, categorical: str, numerical: str,
                           config: Config, requested_order: List[str]) -> Intermediates:
    stage1 = context.resolve({
        "summary": context.numeric_summary(numerical),
        "categories": context.categorical_summary(categorical),
        "sample": context.sample([categorical, numerical], 50_000),
    })

    sample: DataFrame = stage1["sample"]
    codes, categories = sample.column(categorical).category_codes()
    numbers = sample.column(numerical)
    values = numbers.to_numpy().astype(np.float64)
    # Finite values only, as the NumericSummary beside the boxes counts them.
    keep = (codes >= 0) & numbers.notna() & np.isfinite(values)
    codes, values = codes[keep], values[keep]

    # The summary and the sample are of one column, so the summary's top
    # categories are in the sample's (sorted) category space: one search
    # each, and only their labels are formatted.
    wanted = stage1["categories"].top_categories(config.get("box.max_groups"))
    top_categories = category_labels(wanted).tolist()
    grouped: Dict[str, np.ndarray] = {
        category: values[codes == code] for category, code in
        zip(top_categories, _codes_of(categories, wanted))}

    boxes = []
    for category in top_categories:
        samples = grouped[category]
        if samples.size < 2:
            continue
        box = box_plot_from_values(samples, config.get("box.whisker"))
        boxes.append({"category": category, **box.as_dict()})

    line = _multi_line(grouped, top_categories, config)

    stats = {
        "categories_shown": len(boxes),
        "total_categories": stage1["categories"].distinct,
        f"{numerical}_mean": stage1["summary"].mean,
    }
    items: Dict[str, Any] = {
        "stats": stats,
        "box_plot": {"boxes": boxes, "value_label": numerical,
                     "category_label": categorical},
        "multi_line_chart": line,
    }

    intermediates = Intermediates(
        task="bivariate", columns=requested_order, items=items, stats=stats,
        meta={"combination": "CN", "categorical": categorical, "numerical": numerical})
    return context.finish(intermediates)


def _codes_of(categories: np.ndarray, wanted: np.ndarray) -> List[int]:
    """The code of each *wanted* category among the sorted *categories*
    (``-1`` where absent)."""
    found = np.searchsorted(categories, wanted).tolist()
    return [code if code < categories.size and categories[code] == category
            else -1 for code, category in zip(found, wanted)]


def _multi_line(grouped: Dict[str, np.ndarray], categories: List[str],
                config: Config) -> Dict[str, Any]:
    """Per-category aggregate of the numeric column across value bins."""
    all_values = np.concatenate(list(grouped.values())) if grouped \
        else np.array([])
    if all_values.size == 0:
        return {"bins": [], "series": {}}
    bins = config.get("line.bins")
    edges = np.linspace(all_values.min(), all_values.max(), bins + 1)
    centers = ((edges[:-1] + edges[1:]) / 2).tolist()
    series: Dict[str, List[float]] = {}
    max_groups = config.get("line.max_groups")
    for category in categories[:max_groups]:
        counts, _ = np.histogram(grouped[category], bins=edges)
        series[category] = counts.astype(int).tolist()
    return {"bins": centers, "series": series}


# --------------------------------------------------------------------------- #
# Categorical x Categorical
# --------------------------------------------------------------------------- #
def _categorical_categorical(context: ComputeContext, col1: str, col2: str,
                             config: Config) -> Intermediates:
    stage1 = context.resolve({
        "pairs": context.pair_counts(col1, col2),
        "summary1": context.categorical_summary(col1),
        "summary2": context.categorical_summary(col2),
    })

    pair_counts: Dict[Tuple[str, str], int] = stage1["pairs"]
    limit_nested = config.get("nested.max_categories")
    limit_heat = config.get("heatmap.max_categories")

    top1 = [value for value, _ in stage1["summary1"].top_values(limit_nested)]
    top2 = [value for value, _ in stage1["summary2"].top_values(limit_nested)]
    heat1 = [value for value, _ in stage1["summary1"].top_values(limit_heat)]
    heat2 = [value for value, _ in stage1["summary2"].top_values(limit_heat)]

    nested = _nested_counts(pair_counts, top1, top2)
    heat_matrix = _matrix_counts(pair_counts, heat1, heat2)

    stats = {
        f"{col1}_categories": stage1["summary1"].distinct,
        f"{col2}_categories": stage1["summary2"].distinct,
        "observed_pairs": len(pair_counts),
    }
    items: Dict[str, Any] = {
        "stats": stats,
        "nested_bar_chart": nested,
        "stacked_bar_chart": nested,
        "heat_map": {
            "x_categories": heat1, "y_categories": heat2,
            "counts": heat_matrix.astype(int).tolist(),
            "x_label": col1, "y_label": col2,
        },
    }

    intermediates = Intermediates(
        task="bivariate", columns=[col1, col2], items=items, stats=stats,
        meta={"combination": "CC"})
    return context.finish(intermediates)


def _nested_counts(pair_counts: Dict[Tuple[str, str], int], top1: List[str],
                   top2: List[str]) -> Dict[str, Any]:
    groups = []
    for outer in top1:
        inner_counts = [int(pair_counts.get((outer, inner), 0)) for inner in top2]
        groups.append({"category": outer, "inner_categories": top2,
                       "counts": inner_counts})
    return {"groups": groups, "outer_categories": top1, "inner_categories": top2}


def _matrix_counts(pair_counts: Dict[Tuple[str, str], int], categories1: List[str],
                   categories2: List[str]) -> np.ndarray:
    matrix = np.zeros((len(categories1), len(categories2)), dtype=np.int64)
    index1 = {value: position for position, value in enumerate(categories1)}
    index2 = {value: position for position, value in enumerate(categories2)}
    for (first, second), count in pair_counts.items():
        if first in index1 and second in index2:
            matrix[index1[first], index2[second]] = count
    return matrix
