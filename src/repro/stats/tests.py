"""Statistical tests backing the auto-insight component.

Each helper returns a small result record rather than a bare p-value so the
insight layer can explain *why* something was flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats as scipy_stats


@dataclass
class TestResult:
    """Outcome of a statistical test used for insights."""

    statistic: float
    p_value: float
    passed: bool
    description: str


def normality_test(values: np.ndarray, alpha: float = 0.05,
                   max_samples: int = 5000, seed: int = 0) -> TestResult:
    """D'Agostino-Pearson normality test (sampled for large inputs).

    ``passed`` is True when the data is *consistent with* a normal
    distribution (we fail to reject normality at level *alpha*).
    """
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    if values.size < 20:
        return TestResult(float("nan"), float("nan"), False,
                          "not enough data for a normality test")
    if values.size > max_samples:
        rng = np.random.default_rng(seed)
        values = rng.choice(values, size=max_samples, replace=False)
    if np.allclose(values, values[0]):
        return TestResult(float("nan"), 0.0, False, "constant values are not normal")
    statistic, p_value = scipy_stats.normaltest(values)
    passed = bool(p_value > alpha)
    return TestResult(float(statistic), float(p_value), passed,
                      "consistent with a normal distribution" if passed
                      else "deviates from a normal distribution")


def chi_square_uniformity(counts: Sequence[int], alpha: float = 0.05) -> TestResult:
    """Chi-squared test of category counts against the uniform distribution.

    ``passed`` is True when the counts are consistent with uniformity.
    """
    counts = np.asarray(list(counts), dtype=np.float64)
    counts = counts[np.isfinite(counts)]
    if counts.size < 2 or counts.sum() == 0:
        return TestResult(float("nan"), float("nan"), False,
                          "not enough categories for a uniformity test")
    expected = np.full(counts.size, counts.sum() / counts.size)
    statistic, p_value = scipy_stats.chisquare(counts, expected)
    passed = bool(p_value > alpha)
    return TestResult(float(statistic), float(p_value), passed,
                      "consistent with a uniform distribution" if passed
                      else "deviates from a uniform distribution")


def ks_similarity(sample_a: np.ndarray, sample_b: np.ndarray,
                  alpha: float = 0.05, max_samples: int = 5000,
                  seed: int = 0) -> TestResult:
    """Two-sample Kolmogorov–Smirnov test of distribution similarity.

    ``passed`` is True when the two samples are consistent with coming from
    the same distribution — the paper's "whether two distributions are
    similar" insight and the basis of the ``plot_missing(df, col1, col2)``
    impact analysis.
    """
    rng = np.random.default_rng(seed)
    cleaned = []
    for sample in (sample_a, sample_b):
        sample = np.asarray(sample, dtype=np.float64)
        sample = sample[np.isfinite(sample)]
        if sample.size > max_samples:
            sample = rng.choice(sample, size=max_samples, replace=False)
        cleaned.append(sample)
    sample_a, sample_b = cleaned
    if sample_a.size < 5 or sample_b.size < 5:
        return TestResult(float("nan"), float("nan"), True,
                          "not enough data to compare distributions")
    statistic, p_value = scipy_stats.ks_2samp(sample_a, sample_b)
    passed = bool(p_value > alpha)
    return TestResult(float(statistic), float(p_value), passed,
                      "distributions are similar" if passed
                      else "distributions differ")
