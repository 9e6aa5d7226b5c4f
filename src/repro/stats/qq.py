"""Quantile-based statistics: approximate quantiles, normal Q-Q, box plots."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EDAError
from repro.stats.histogram import Histogram, compute_histogram


def quantiles_from_histogram(histogram: Histogram,
                             probabilities: Sequence[float]) -> np.ndarray:
    """Approximate quantiles from a fine-grained histogram.

    Uses linear interpolation of the cumulative distribution across bins.
    With the 512-bin histogram the compute module uses, the error is bounded
    by one bin width — more than adequate for plotting and insights, and it
    keeps the quantile computation mergeable across partitions.
    """
    probabilities = np.asarray(list(probabilities), dtype=np.float64)
    if np.any((probabilities < 0) | (probabilities > 1)):
        raise EDAError("quantile probabilities must be within [0, 1]")
    total = histogram.total
    if total == 0:
        return np.full(probabilities.shape, np.nan)
    cumulative = np.concatenate([[0], np.cumsum(histogram.counts)]) / total
    return np.interp(probabilities, cumulative, histogram.edges)


def normal_qq_points(quantiles: np.ndarray, mean: float, std: float,
                     probabilities: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Points of a normal Q-Q plot.

    *quantiles* are the sample quantiles at *probabilities*; the theoretical
    axis is the normal distribution with the sample's mean and std, whose
    quantiles are ``statistics.NormalDist.inv_cdf`` (Wichura's AS241, the
    precision of ``scipy.stats.norm.ppf``); p = 0 and 1 map to ∓inf and a
    p outside [0, 1] to NaN, as scipy does.  Returns ``(theoretical,
    sample)`` arrays.
    """
    probabilities = np.asarray(list(probabilities), dtype=np.float64)
    if not np.isfinite(std) or std <= 0:
        std = 1.0
    if not np.isfinite(mean):
        mean = 0.0
    inverse = NormalDist(float(mean), float(std)).inv_cdf
    inside = (probabilities > 0) & (probabilities < 1)
    theoretical = np.full(probabilities.shape, np.nan)
    theoretical[inside] = [inverse(p) for p in probabilities[inside].tolist()]
    theoretical[probabilities == 0] = -np.inf
    theoretical[probabilities == 1] = np.inf
    return theoretical, np.asarray(quantiles, dtype=np.float64)


@dataclass
class BoxPlotStats:
    """The five-number summary plus outlier info for a box plot."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    lower_whisker: float
    upper_whisker: float
    outlier_count: int
    outlier_samples: List[float]

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.q3 - self.q1

    def as_dict(self) -> Dict[str, float]:
        """Dictionary form used by the render layer."""
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "lower_whisker": self.lower_whisker,
            "upper_whisker": self.upper_whisker,
            "iqr": self.iqr,
            "outliers": self.outlier_count,
        }


def box_plot_stats(quantiles: Dict[float, float], minimum: float, maximum: float,
                   histogram: Histogram, whisker: float = 1.5,
                   max_outlier_samples: int = 100) -> BoxPlotStats:
    """Box-plot statistics from shared quantile / histogram intermediates.

    *quantiles* must contain the 0.25, 0.5 and 0.75 probabilities.  The
    outlier count is estimated from the histogram mass outside the whiskers;
    representative outlier sample positions are taken at the affected bin
    centers (enough for plotting dots on the box plot).
    """
    for needed in (0.25, 0.5, 0.75):
        if needed not in quantiles:
            raise EDAError(f"box_plot_stats requires the {needed} quantile")
    q1, median, q3 = quantiles[0.25], quantiles[0.5], quantiles[0.75]
    iqr = q3 - q1
    lower = q1 - whisker * iqr
    upper = q3 + whisker * iqr
    if not math.isfinite(minimum):
        minimum = lower
    if not math.isfinite(maximum):
        maximum = upper
    lower_whisker = max(lower, minimum)
    upper_whisker = min(upper, maximum)

    centers = histogram.centers
    below = centers < lower
    above = centers > upper
    outlier_count = int(histogram.counts[below].sum() + histogram.counts[above].sum())
    outlier_positions = centers[below | above]
    outlier_samples = outlier_positions[:max_outlier_samples].tolist()
    return BoxPlotStats(
        minimum=float(minimum), q1=float(q1), median=float(median), q3=float(q3),
        maximum=float(maximum), lower_whisker=float(lower_whisker),
        upper_whisker=float(upper_whisker), outlier_count=outlier_count,
        outlier_samples=[float(value) for value in outlier_samples])


def box_plot_from_values(values: np.ndarray, whisker: float = 1.5,
                         histogram: Optional[Histogram] = None) -> BoxPlotStats:
    """Box-plot statistics of raw values: exact quartiles and extremes.

    Outliers are estimated from *histogram* (see :func:`box_plot_stats`);
    without one, from a histogram of *values* with one bin per value,
    clamped to 8..64 bins.  *values* must hold at least one finite number.
    """
    if histogram is None:
        histogram = compute_histogram(values, max(8, min(64, values.size)))
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return box_plot_stats(
        {0.25: float(q1), 0.5: float(median), 0.75: float(q3)},
        float(values.min()), float(values.max()), histogram, whisker=whisker)
