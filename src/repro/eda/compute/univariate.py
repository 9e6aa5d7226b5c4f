"""Univariate analysis: ``plot(df, col)`` (row 2 of Figure 2).

* Numerical column  -> column statistics, histogram, KDE plot, normal Q-Q
  plot, box plot.
* Categorical column -> column statistics, bar chart, pie chart, word cloud
  weights, word frequencies.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.eda.compute.base import ComputeContext
from repro.eda.config import Config
from repro.eda.dtypes import SemanticType, detect_semantic_type
from repro.eda.insights import (
    categorical_column_insights,
    numeric_column_insights,
    outlier_insight,
)
from repro.eda.intermediates import Intermediates
from repro.frame.frame import DataFrame
from repro.stats.descriptive import CategoricalSummary, NumericSummary
from repro.stats.histogram import Histogram, freedman_diaconis_bins
from repro.stats.kde import gaussian_kde_curve
from repro.stats.qq import box_plot_stats, normal_qq_points, quantiles_from_histogram

_WORD_PATTERN = re.compile(r"[A-Za-z0-9']+")

#: Bins of the fine histogram that quantiles, the Q-Q plot, the KDE and the
#: box plot are read from (the display histogram uses ``hist.bins``).
INTERNAL_HISTOGRAM_BINS = 512


def compute_univariate(frame: DataFrame, column: str, config: Config,
                       context: Optional[ComputeContext] = None) -> Intermediates:
    """Compute the intermediates of ``plot(df, col)``.

    Source-agnostic: every intermediate below is built through the context's
    reduction planner, so a streaming :class:`~repro.frame.source.FrameSource`
    flows through bounded sketches (reservoir sample, bounded value counts)
    while an in-memory frame keeps the exact reductions.  Every reduction
    here declares *column* as its required column set, so over a scanned
    CSV the planner emits single-column projected parses — this task costs
    one column per chunk, not the table width.
    """
    context = context or ComputeContext(frame, config)
    target = context.column(column)
    semantic = detect_semantic_type(target)

    if semantic in (SemanticType.NUMERICAL, SemanticType.DATETIME) and \
            target.dtype.is_numeric:
        return _numerical_univariate(context, column, config)
    return _categorical_univariate(context, column, config, semantic)


# --------------------------------------------------------------------------- #
# Numerical columns
# --------------------------------------------------------------------------- #
def _numerical_univariate(context: ComputeContext, column: str,
                          config: Config) -> Intermediates:
    # Stage 1 (graph): the shared numeric summary.
    stage1 = context.resolve({"summary": context.numeric_summary(column)})
    summary: NumericSummary = stage1["summary"]

    # Stage 2 (graph): histograms over the now-known range plus a sample for
    # the normality insight.  Both histograms, the summary-derived quantiles
    # and the sample are shared by several visualizations downstream.
    low = summary.minimum if summary.count else 0.0
    high = summary.maximum if summary.count else 1.0
    display_bins = _display_bins(summary, config)
    stage2 = context.resolve({
        "histogram": context.histogram(column, display_bins, low, high),
        "fine_histogram": context.histogram(column, INTERNAL_HISTOGRAM_BINS,
                                            low, high),
        "sample": context.sample([column], 5000),
    })

    # Local stage ("Pandas computation"): derive everything plot-ready.
    histogram: Histogram = stage2["histogram"]
    fine: Histogram = stage2["fine_histogram"]
    sample_frame: DataFrame = stage2["sample"]
    sample = sample_frame.column(column).to_numpy(drop_missing=True).astype(np.float64)

    quantile_probabilities = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
    quantile_values = quantiles_from_histogram(fine, quantile_probabilities)
    quantiles = dict(zip(quantile_probabilities, map(float, quantile_values)))

    qq_probabilities = np.linspace(0.01, 0.99, config.get("qq.points"))
    qq_sample = quantiles_from_histogram(fine, qq_probabilities)
    theoretical, sample_q = normal_qq_points(qq_sample, summary.mean, summary.std,
                                             qq_probabilities)

    kde_grid, kde_density = gaussian_kde_curve(
        fine, summary.std, grid_points=config.get("kde.grid_points"))

    box = box_plot_stats(quantiles, summary.minimum, summary.maximum, fine,
                         whisker=config.get("box.whisker"))

    stats = summary.as_dict()
    stats.update({
        "q1": quantiles[0.25],
        "median": quantiles[0.5],
        "q3": quantiles[0.75],
        "iqr": quantiles[0.75] - quantiles[0.25],
        "p5": quantiles[0.05],
        "p95": quantiles[0.95],
    })

    items: Dict[str, Any] = {}
    if config.wants("stats"):
        items["stats"] = stats
    if config.wants("histogram"):
        items["histogram"] = {
            "counts": histogram.counts.tolist(),
            "edges": histogram.edges.tolist(),
            "bins": histogram.n_bins,
        }
    if config.wants("kde_plot"):
        items["kde_plot"] = {
            "grid": kde_grid.tolist(),
            "density": kde_density.tolist(),
            "histogram_density": histogram.density().tolist(),
            "edges": histogram.edges.tolist(),
        }
    if config.wants("qq_plot"):
        items["qq_plot"] = {
            "theoretical": theoretical.tolist(),
            "sample": sample_q.tolist(),
            "mean": summary.mean,
            "std": summary.std,
        }
    if config.wants("box_plot"):
        items["box_plot"] = box.as_dict() | {"outlier_samples": box.outlier_samples}

    intermediates = Intermediates(
        task="univariate", columns=[column], items=items, stats=stats,
        meta={"semantic_type": SemanticType.NUMERICAL.value,
              "n_rows": context.known_n_rows})
    intermediates.add_insights(numeric_column_insights(
        column, summary, histogram, config, sample=sample))
    intermediates.add_insights(outlier_insight(
        column, box.outlier_count, summary.count, config))
    return context.finish(intermediates)


def _display_bins(summary: NumericSummary, config: Config) -> int:
    if not config.get("hist.auto_bins"):
        return config.get("hist.bins")
    return freedman_diaconis_bins(
        summary.count,
        q25=summary.mean - 0.6745 * summary.std if np.isfinite(summary.std) else summary.mean,
        q75=summary.mean + 0.6745 * summary.std if np.isfinite(summary.std) else summary.mean,
        minimum=summary.minimum, maximum=summary.maximum,
        fallback=config.get("hist.bins"))


# --------------------------------------------------------------------------- #
# Categorical columns
# --------------------------------------------------------------------------- #
def _categorical_univariate(context: ComputeContext, column: str, config: Config,
                            semantic: SemanticType) -> Intermediates:
    stage1 = context.resolve({"summary": context.categorical_summary(column)})
    summary: CategoricalSummary = stage1["summary"]

    top_bar = summary.top_values(config.get("bar.top_words"))
    pie = _pie_slices(summary, config.get("pie.slices"))
    words = _word_frequencies(summary, config)

    stats = summary.as_dict()
    items: Dict[str, Any] = {}
    if config.wants("stats"):
        items["stats"] = stats
    if config.wants("bar_chart"):
        items["bar_chart"] = {
            "categories": [value for value, _ in top_bar],
            "counts": [count for _, count in top_bar],
            "total_categories": summary.distinct,
        }
    if config.wants("pie_chart"):
        items["pie_chart"] = {
            "labels": [label for label, _ in pie],
            "counts": [count for _, count in pie],
        }
    if config.wants("word_frequencies"):
        items["word_frequencies"] = {
            "words": [word for word, _ in words],
            "counts": [count for _, count in words],
        }
    if config.wants("word_cloud"):
        items["word_cloud"] = {
            "words": [word for word, _ in words],
            "weights": _word_weights(words),
        }

    intermediates = Intermediates(
        task="univariate", columns=[column], items=items, stats=stats,
        meta={"semantic_type": semantic.value, "n_rows": context.known_n_rows})
    intermediates.add_insights(categorical_column_insights(column, summary, config))
    return context.finish(intermediates)


def _pie_slices(summary: CategoricalSummary, slices: int) -> List[Tuple[str, int]]:
    top = summary.top_values(slices)
    covered = sum(count for _, count in top)
    remainder = summary.count - covered
    if remainder > 0:
        top = top + [("(other)", remainder)]
    return top


def _word_frequencies(summary: CategoricalSummary, config: Config
                      ) -> List[Tuple[str, int]]:
    lowercase = config.get("wordfreq.lowercase")
    counts: Dict[str, int] = {}
    for value, frequency in summary.counts_by_label().items():
        for word in _WORD_PATTERN.findall(value):
            token = word.lower() if lowercase else word
            counts[token] = counts.get(token, 0) + frequency
    ordered = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    return ordered[:config.get("wordfreq.top_words")]


def _word_weights(words: List[Tuple[str, int]]) -> List[float]:
    if not words:
        return []
    maximum = max(count for _, count in words)
    if maximum == 0:
        return [0.0 for _ in words]
    return [count / maximum for _, count in words]
