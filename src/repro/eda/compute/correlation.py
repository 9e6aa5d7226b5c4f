"""Correlation analysis: ``plot_correlation(...)`` (rows 4-6 of Figure 2).

* ``plot_correlation(df)``            -> correlation matrices (Pearson,
  Spearman, Kendall tau).
* ``plot_correlation(df, col1)``       -> correlation vector of ``col1``
  against every other numerical column, for all three methods.
* ``plot_correlation(df, col1, col2)`` -> scatter plot with a regression line.

Pearson is computed in the graph stage from mergeable partial sums; Spearman
and Kendall are rank statistics and are computed in the local stage from a
(possibly sampled) dense matrix — the same Dask-stage / Pandas-stage split
the paper describes for ``plot_correlation(df)``.  Both stages are
source-agnostic: the partial sums merge over any
:class:`~repro.frame.source.FrameSource` partitioning, and the dense matrix
is built from the planner-chosen sample (reservoir sketch on streams), so
correlation never materializes a scanned input.  Both reductions declare
the numerical column tuple as their requirement, so over a scanned CSV the
planner projects every chunk parse onto the numerical columns — string
columns of a mixed table are never parsed here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config
from repro.eda.insights import correlation_insights
from repro.eda.intermediates import Intermediates
from repro.errors import EDAError
from repro.frame.frame import DataFrame
from repro.stats.correlation import (
    kendall_tau_matrix,
    spearman_matrix,
    top_correlated_pairs,
)


def compute_correlation_overview(frame: DataFrame, config: Config,
                                 context: Optional[ComputeContext] = None
                                 ) -> Intermediates:
    """Intermediates of ``plot_correlation(df)``."""
    context = context or ComputeContext(frame, config)
    columns = context.numerical_columns()
    if len(columns) < 2:
        raise EDAError("correlation analysis requires at least two numerical columns")

    methods = config.get("correlation.methods")
    sample_size = max(config.get("correlation.kendall_max_rows"), 10_000)

    stage1 = context.resolve({
        "pearson": context.pearson_partial(columns),
        "sample": context.sample(columns, sample_size),
    })

    matrices: Dict[str, np.ndarray] = {}
    if "pearson" in methods:
        matrices["pearson"] = stage1["pearson"].finalize()

    dense = _dense_matrix(stage1["sample"], columns)
    if "spearman" in methods:
        matrices["spearman"] = spearman_matrix(dense)
    if "kendall" in methods:
        matrices["kendall"] = kendall_tau_matrix(
            dense, max_rows=config.get("correlation.kendall_max_rows"))

    items: Dict[str, Any] = {}
    insights = []
    for method, matrix in matrices.items():
        items[f"correlation_{method}"] = {
            "columns": columns,
            "matrix": np.round(matrix, 6).tolist(),
            "method": method,
        }
        insights.extend(correlation_insights(columns, matrix, method, config))

    top_pairs = top_correlated_pairs(
        matrices.get("pearson", next(iter(matrices.values()))), columns,
        threshold=config.get("insight.correlation.threshold"))
    stats = {
        "columns": len(columns),
        "methods": list(matrices.keys()),
        "highly_correlated_pairs": len(top_pairs),
    }
    items["stats"] = stats
    items["top_pairs"] = [
        {"col1": first, "col2": second, "correlation": value}
        for first, second, value in top_pairs[:config.get("correlation.top_k")]]

    intermediates = Intermediates(
        task="correlation", columns=[], items=items, stats=stats,
        meta={"numerical_columns": columns})
    intermediates.add_insights(insights)
    return context.finish(intermediates)


def compute_correlation_single(frame: DataFrame, column: str, config: Config,
                               context: Optional[ComputeContext] = None
                               ) -> Intermediates:
    """Intermediates of ``plot_correlation(df, col1)``."""
    context = context or ComputeContext(frame, config)
    columns = context.numerical_columns()
    if column not in columns:
        raise EDAError(f"column {column!r} must be numerical for correlation analysis")
    if len(columns) < 2:
        raise EDAError("correlation analysis requires at least two numerical columns")

    overview = compute_correlation_overview(frame, config, context=context)
    others = [name for name in columns if name != column]
    target_index = columns.index(column)

    vectors: Dict[str, Dict[str, float]] = {}
    items: Dict[str, Any] = {}
    for method in config.get("correlation.methods"):
        key = f"correlation_{method}"
        if key not in overview.items:
            continue
        matrix = np.asarray(overview[key]["matrix"])
        vector = {other: float(matrix[target_index, columns.index(other)])
                  for other in others}
        vectors[method] = vector
        items[key] = {
            "column": column,
            "others": others,
            "values": [vector[other] for other in others],
            "method": method,
        }

    first_method = next(iter(vectors), None)
    strongest = None
    if first_method:
        strongest = max(vectors[first_method].items(),
                        key=lambda pair: abs(pair[1]))
    stats = {
        "column": column,
        "compared_against": len(others),
        "strongest_partner": strongest[0] if strongest else None,
        "strongest_correlation": strongest[1] if strongest else None,
    }
    items["stats"] = stats

    intermediates = Intermediates(
        task="correlation", columns=[column], items=items, stats=stats,
        meta={"numerical_columns": columns})
    intermediates.add_insights(overview.insights)
    return context.finish(intermediates)


def compute_correlation_pair(frame: DataFrame, col1: str, col2: str, config: Config,
                             context: Optional[ComputeContext] = None
                             ) -> Intermediates:
    """Intermediates of ``plot_correlation(df, col1, col2)``."""
    context = context or ComputeContext(frame, config)
    for name in (col1, col2):
        if not context.column(name).dtype.is_numeric:
            raise EDAError(f"column {name!r} must be numerical for correlation analysis")

    stage1 = context.resolve({
        "pearson": context.pearson_partial([col1, col2]),
        "sample": context.sample([col1, col2],
                                 config.get("correlation.scatter_sample_size")),
    })

    correlation = float(stage1["pearson"].finalize()[0, 1])
    x, y = finite_pair(stage1["sample"], col1, col2,
                       config.get("correlation.scatter_sample_size"))
    slope, intercept = _least_squares(x, y)
    stats = {
        "pearson_correlation": correlation,
        "regression_slope": slope,
        "regression_intercept": intercept,
        "sampled_points": int(x.size),
    }
    items: Dict[str, Any] = {
        "stats": stats,
        "correlation_scatter": {
            "x": x.tolist(), "y": y.tolist(),
            "x_label": col1, "y_label": col2,
            "slope": slope, "intercept": intercept,
            "correlation": correlation,
        },
    }

    intermediates = Intermediates(
        task="correlation", columns=[col1, col2], items=items, stats=stats,
        meta={"combination": "NN"})
    intermediates.add_insights(correlation_insights(
        [col1, col2], np.array([[1.0, correlation], [correlation, 1.0]]),
        "pearson", config))
    return context.finish(intermediates)


def _dense_matrix(sample: DataFrame, columns: List[str]) -> np.ndarray:
    """Dense float matrix (NaN = missing) of the sampled numeric columns."""
    arrays = []
    for name in columns:
        column = sample.column(name)
        values = column.to_numpy(drop_missing=False).astype(np.float64)
        values[column.isna()] = np.nan
        arrays.append(values)
    return np.column_stack(arrays) if arrays else np.zeros((0, 0))


def finite_pair(sample: DataFrame, col1: str, col2: str,
                limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first *limit* sampled rows finite in both columns, as two float
    arrays — the rows ``spearman_matrix`` / ``PearsonPartial.from_matrix``
    keep, so scatter, density grid and regression line match the coefficient."""
    dense = _dense_matrix(sample, [col1, col2])
    dense = dense[np.isfinite(dense).all(axis=1)][:limit]
    return dense[:, 0], dense[:, 1]


def _least_squares(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Slope and intercept of the least-squares regression line."""
    if x.size < 2:
        return 0.0, float(y.mean()) if y.size else 0.0
    x_mean, y_mean = float(x.mean()), float(y.mean())
    denominator = float(((x - x_mean) ** 2).sum())
    if denominator == 0:
        return 0.0, y_mean
    slope = float(((x - x_mean) * (y - y_mean)).sum()) / denominator
    return slope, y_mean - slope * x_mean
