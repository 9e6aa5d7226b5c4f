"""Statistical tests backing the auto-insight component.

Each helper returns a small result record rather than a bare p-value so the
insight layer can explain *why* something was flagged.

The normality and uniformity tests run on every numeric and categorical
column of a ``plot(df)`` or report, so they are written here in numpy and
``math`` — the same formulas as ``scipy.stats.normaltest`` and
``scipy.stats.chisquare`` (the tests hold them to scipy to 1e-10), without
importing ``scipy.stats`` into every process.  Only the
``plot_missing(df, x)`` impact analysis imports scipy, for ``ks_2samp``'s
exact small-sample distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


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
    statistic, p_value = _dagostino_pearson(values)
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
    expected = counts.sum() / counts.size
    deviations = counts - expected
    statistic = float(np.sum(deviations * deviations / expected))
    p_value = chi2_sf(statistic, counts.size - 1)
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
    from scipy.stats import ks_2samp
    statistic, p_value = ks_2samp(sample_a, sample_b)
    passed = bool(p_value > alpha)
    return TestResult(float(statistic), float(p_value), passed,
                      "distributions are similar" if passed
                      else "distributions differ")


def _dagostino_pearson(values: np.ndarray) -> Tuple[float, float]:
    """``scipy.stats.normaltest(values)``: K² = Z_skew² + Z_kurt² and its
    chi-squared (2 dof) tail exp(−K²/2), for at least 8 finite values
    that are not all equal.

    The moments are the ones ``scipy.stats.skew`` / ``kurtosis`` take
    (biased, about the mean); the transforms are D'Agostino's skewness test
    and Anscombe & Glynn's kurtosis test, term for term as scipy writes
    them.  The moments are powers of the deviations built by products, and
    everything after the three sums is python float arithmetic: numpy's
    ``**`` and scalar operations on these few dozen terms cost more than
    the sums themselves.
    """
    n = float(values.size)
    mean = values.mean()
    deviations = values - mean
    squares = deviations * deviations
    m2 = float(squares.mean())
    m3 = float((squares * deviations).mean())
    m4 = float((squares * squares).mean())

    # Skewness test (D'Agostino 1970).
    y = m3 / (m2 * math.sqrt(m2)) * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9)))
    w2 = -1 + math.sqrt(2 * (beta2 - 1))
    delta = 1 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1))
    if y == 0:  # as scipy: a zero skewness is scored as y = 1
        y = 1.0
    ratio = y / alpha
    z_skew = delta * math.log(ratio + math.sqrt(ratio * ratio + 1))

    # Kurtosis test (Anscombe & Glynn 1983).
    b2 = m4 / (m2 * m2)
    expected = 3.0 * (n - 1) / (n + 1)
    variance = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5))
    x = (b2 - expected) / math.sqrt(variance)
    sqrt_beta1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                  * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))))
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1
                                  + math.sqrt(1 + 4.0 / (sqrt_beta1 * sqrt_beta1)))
    denominator = 1 + x * math.sqrt(2 / (a - 4.0))
    if denominator == 0:
        return math.nan, math.nan
    term2 = math.copysign(((1 - 2.0 / a) / abs(denominator)) ** (1 / 3), denominator)
    z_kurt = (1 - 2 / (9.0 * a) - term2) / math.sqrt(2 / (9.0 * a))

    statistic = z_skew * z_skew + z_kurt * z_kurt
    return statistic, math.exp(-0.5 * statistic)


#: Relative size of the last term at which the series and the continued
#: fraction below stop.
_GAMMA_EPSILON = 1e-15
#: Stand-in for a zero denominator in the modified Lentz iteration.
_LENTZ_TINY = 1e-300


def chi2_sf(statistic: float, dof: int) -> float:
    """Upper tail P(X ≥ *statistic*) of a chi-squared variable with *dof*
    degrees of freedom — ``scipy.stats.chi2.sf`` to about 1e-12 relative.

    It is the regularized upper incomplete gamma function Q(a, x) at
    a = dof / 2, x = statistic / 2: a power series for P = 1 − Q below
    x = a + 1, a continued fraction (modified Lentz) for Q above.  The
    common factor x^a·e^(−x) / Γ(a) is kept as a logarithm (``math.lgamma``)
    until the last step, so large degrees of freedom neither round it to
    0 nor to inf: a closed-form finite sum of e^(−x)·x^k / k! terms returns
    0.0 at x = 1000, a = 999.5, where the tail is 0.49.
    """
    a, x = 0.5 * dof, 0.5 * statistic
    if math.isnan(x):
        return math.nan
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    log_factor = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1:
        term = total = 1.0 / a
        shift = a
        while term > total * _GAMMA_EPSILON:
            shift += 1
            term *= x / shift
            total += term
        return 1.0 - math.exp(log_factor + math.log(total))
    b = x + 1 - a
    c = 1 / _LENTZ_TINY
    d = 1 / b
    fraction = d
    for i in itertools.count(1):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        step = d * c
        fraction *= step
        if abs(step - 1) <= _GAMMA_EPSILON:
            break
    return math.exp(log_factor + math.log(fraction))
