"""The auto-insight component (Section 4.2.2).

A data fact becomes an :class:`Insight` when its value crosses a
user-definable threshold.  The Render module shows a badge on the associated
visualization; the report collects all insights into an alerts section.

Insight families implemented here (matching the paper's list):

* data quality — missing values, infinite values, zeros, negatives,
  constant columns, duplicate rows, high cardinality;
* distribution shape — skewness, uniformity, normality, outliers;
* relationships — high correlation, similar distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.eda.config import Config
from repro.stats.descriptive import CategoricalSummary, NumericSummary
from repro.stats.histogram import Histogram
from repro.stats.tests import chi_square_uniformity, ks_similarity, normality_test


@dataclass
class Insight:
    """One discovered insight.

    Attributes
    ----------
    kind:
        Machine-readable insight family, e.g. ``"missing"`` or ``"skewed"``.
    column:
        The column (or ``"col1 x col2"`` pair) the insight is about.
    item:
        The visualization the badge should be attached to.
    message:
        Human-readable one-liner shown in the UI.
    severity:
        ``"info"`` or ``"warning"`` — warnings are highlighted red in the
        stats table, like the distinct-count example in Figure 1.
    value:
        The underlying measured value that crossed the threshold.
    """

    kind: str
    column: str
    item: str
    message: str
    severity: str = "info"
    value: Optional[float] = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


# --------------------------------------------------------------------------- #
# Numeric column insights
# --------------------------------------------------------------------------- #
def numeric_column_insights(name: str, summary: NumericSummary,
                            histogram: Optional[Histogram],
                            config: Config,
                            sample: Optional[np.ndarray] = None) -> List[Insight]:
    """Insights for one numerical column from its shared intermediates."""
    if not config.get("insight.enabled"):
        return []
    insights: List[Insight] = []
    insights.extend(_missing_insight(name, summary.missing_rate, config, "stats"))

    if summary.total and summary.infinite / max(summary.total, 1) > \
            config.get("insight.infinity.threshold"):
        insights.append(Insight(
            kind="infinite", column=name, item="stats", severity="warning",
            value=float(summary.infinite),
            message=f"{name} has {summary.infinite} infinite values"))

    if summary.count:
        zero_rate = summary.zeros / summary.count
        if zero_rate > config.get("insight.zeros.threshold"):
            insights.append(Insight(
                kind="zeros", column=name, item="histogram",
                value=zero_rate,
                message=f"{name} is {zero_rate:.0%} zeros"))
        negative_rate = summary.negatives / summary.count
        if negative_rate > config.get("insight.negatives.threshold") and summary.negatives:
            insights.append(Insight(
                kind="negatives", column=name, item="histogram",
                value=negative_rate,
                message=f"{name} has {summary.negatives} negative values"))

    skewness = summary.skewness
    if np.isfinite(skewness) and abs(skewness) > config.get("insight.skewness.threshold"):
        insights.append(Insight(
            kind="skewed", column=name, item="histogram", value=float(skewness),
            message=f"{name} is skewed (skewness = {skewness:.2f})"))

    if sample is not None and sample.size:
        normal = normality_test(sample, alpha=config.get("insight.normal.alpha"))
        if normal.passed:
            insights.append(Insight(
                kind="normal", column=name, item="histogram", value=normal.p_value,
                message=f"{name} is normally distributed"))
    if histogram is not None and histogram.total:
        uniform = chi_square_uniformity(histogram.counts,
                                        alpha=config.get("insight.uniform.alpha"))
        if uniform.passed:
            insights.append(Insight(
                kind="uniform", column=name, item="histogram", value=uniform.p_value,
                message=f"{name} is uniformly distributed"))
    return insights


def outlier_insight(name: str, outlier_count: int, total: int,
                    config: Config) -> List[Insight]:
    """Outlier insight from box-plot intermediates."""
    if not config.get("insight.enabled") or total == 0:
        return []
    rate = outlier_count / total
    if rate > config.get("insight.outlier.threshold"):
        return [Insight(kind="outliers", column=name, item="box_plot",
                        severity="warning", value=rate,
                        message=f"{name} has {outlier_count} outliers ({rate:.1%})")]
    return []


# --------------------------------------------------------------------------- #
# Categorical column insights
# --------------------------------------------------------------------------- #
def categorical_column_insights(name: str, summary: CategoricalSummary,
                                config: Config) -> List[Insight]:
    """Insights for one categorical column from its shared intermediates."""
    if not config.get("insight.enabled"):
        return []
    insights: List[Insight] = []
    insights.extend(_missing_insight(name, summary.missing_rate, config, "stats"))

    if summary.distinct > config.get("insight.high_cardinality.threshold"):
        insights.append(Insight(
            kind="high_cardinality", column=name, item="bar_chart",
            severity="warning", value=float(summary.distinct),
            message=f"{name} has a high cardinality: {summary.distinct} distinct values"))

    if config.get("insight.constant.enabled") and summary.distinct == 1:
        insights.append(Insight(
            kind="constant", column=name, item="stats", severity="warning",
            value=1.0, message=f"{name} has a constant value"))

    if summary.distinct >= 2:
        counts = [count for _, count in summary.top_values(1000)]
        uniform = chi_square_uniformity(counts, alpha=config.get("insight.uniform.alpha"))
        if uniform.passed:
            insights.append(Insight(
                kind="uniform", column=name, item="bar_chart", value=uniform.p_value,
                message=f"{name} is uniformly distributed over its categories"))
    return insights


# --------------------------------------------------------------------------- #
# Dataset-level insights
# --------------------------------------------------------------------------- #
def dataset_insights(n_rows: int, duplicate_rows: int, missing_rates: Dict[str, float],
                     config: Config) -> List[Insight]:
    """Dataset-wide insights for the overview task and the report."""
    if not config.get("insight.enabled"):
        return []
    insights: List[Insight] = []
    if n_rows:
        duplicate_rate = duplicate_rows / n_rows
        if duplicate_rate > config.get("insight.duplicates.threshold"):
            insights.append(Insight(
                kind="duplicates", column="(dataset)", item="overview",
                severity="warning", value=duplicate_rate,
                message=f"dataset has {duplicate_rows} duplicate rows "
                        f"({duplicate_rate:.1%})"))
    for name, rate in missing_rates.items():
        insights.extend(_missing_insight(name, rate, config, "overview"))
    return insights


def correlation_insights(names: Sequence[str], matrix: np.ndarray, method: str,
                         config: Config) -> List[Insight]:
    """High-correlation insights from a correlation matrix."""
    if not config.get("insight.enabled"):
        return []
    threshold = config.get("insight.correlation.threshold")
    insights: List[Insight] = []
    n_columns = len(names)
    for i in range(n_columns):
        for j in range(i + 1, n_columns):
            value = matrix[i, j]
            if np.isfinite(value) and abs(value) >= threshold:
                insights.append(Insight(
                    kind="high_correlation", column=f"{names[i]} x {names[j]}",
                    item=f"correlation_{method}", severity="info", value=float(value),
                    message=(f"{names[i]} and {names[j]} are highly correlated "
                             f"({method} = {value:.2f})")))
    return insights


def similarity_insight(column: str, item: str, sample_with: np.ndarray,
                       sample_without: np.ndarray, config: Config) -> List[Insight]:
    """Insight on whether dropping missing rows changed a distribution."""
    if not config.get("insight.enabled"):
        return []
    result = ks_similarity(sample_with, sample_without,
                           alpha=config.get("insight.similar_distribution.alpha"))
    if result.passed:
        message = (f"dropping the missing values does not change the "
                   f"distribution of {column}")
        severity = "info"
    else:
        message = (f"dropping the missing values changes the distribution "
                   f"of {column}")
        severity = "warning"
    return [Insight(kind="similar_distribution", column=column, item=item,
                    severity=severity, value=result.p_value, message=message)]


def _missing_insight(name: str, missing_rate: float, config: Config,
                     item: str) -> List[Insight]:
    if missing_rate > config.get("insight.missing.threshold"):
        return [Insight(kind="missing", column=name, item=item, severity="warning",
                        value=missing_rate,
                        message=f"{name} has {missing_rate:.1%} missing values")]
    return []
