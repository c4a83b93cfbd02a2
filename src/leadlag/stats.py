"""Statistical tests behind edge acceptance and the size analysis.

Student-t tail probabilities by series for integer degrees of freedom,
one-sample and paired two-sided t-tests, and Spearman rank correlation with
average ranks for ties. Everything here is exercised against independent
numeric oracles in the test suite, scipy's `stdtr` among them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DegenerateSampleError",
    "UndefinedCorrelationError",
    "TestResult",
    "SpearmanResult",
    "t_cdf",
    "two_sided_p",
    "one_sample_ttest",
    "paired_ttest",
    "spearman",
]


class DegenerateSampleError(ValueError):
    """Sample (or difference) variance is zero, so no t statistic exists."""


class UndefinedCorrelationError(ValueError):
    """A correlation was requested for a constant input vector."""


@dataclass(frozen=True)
class TestResult:
    """Outcome of a t-test."""

    statistic: float
    degrees_of_freedom: int
    p_value: float

    def reject_at(self, alpha: float) -> bool:
        return self.p_value < alpha


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    n: int


def two_sided_p(t, df):
    """P(|T| >= |t|) for Student's t with integer df >= 1, at finite t.

    `t` and `df` are Python numbers or numpy arrays of one shape. A&S
    26.7.3 (odd df) and 26.7.4 (even df) write P(|T| < |t|) through
    x = df / (df + t^2) as a finite sum of the terms u_k, k < df // 2, with
    u_0 = 1 and u_{k+1} = u_k x (2k + 1 + odd) / (2k + 2 + odd). Summed from
    k = df // 2 on, the same terms give p itself: a p below 1e-3 comes from
    that tail, which keeps the relative precision 1 - (finite sum) loses.
    The loops do plain arithmetic, so a scalar call runs no numpy per term.
    """
    a, r = abs(t), df**0.5
    if isinstance(a, np.ndarray):
        hypot, atan2, largest = np.hypot, np.arctan2, np.max
    else:
        hypot, atan2, largest = math.hypot, math.atan2, float
    h, phi = hypot(a, r), atan2(r, a)
    sin, cos = a / h, r / h
    x, half, odd = cos * cos, df // 2, df % 2
    # The sums' prefactors: sin for even df, (2 / pi) sin cos for odd.
    scale = sin * ((1 - odd) + odd * cos / (math.pi / 2))
    u, finite, tail = 1.0, 0.0, 0.0
    top = int(largest(half))
    for k in range(top):
        finite = finite + u * (k < half)
        tail = tail + u * (k >= half)
        u = u * (x * (2 * k + 1 + odd) / (2 * k + 2 + odd))
    p = (1 - odd) + odd * phi / (math.pi / 2) - scale * finite
    need = p < 1e-3
    # Past n more terms the tail's rest is below x^n / (1 - x) of it, 1 - x = sin^2;
    # arithmetic picks x and sin^2 where the tail is needed, 1/2 and 1 elsewhere.
    rest = np.log(2.0**-53 * (need * sin * sin + (1 - need)))
    more = need * rest / np.log(np.maximum(need * x + (1 - need) * 0.5, 1e-300))
    for k in range(top, top + 1 + int(largest(more))):
        tail = tail + u
        u = u * (x * (2 * k + 1 + odd) / (2 * k + 2 + odd))
    return need * (scale * tail) + (1 - need) * p


def t_cdf(x: float, df: int) -> float:
    """Cumulative probability of the Student-t distribution at x.

    df must be a positive integer and x must not be NaN; x = -inf and
    x = +inf give 0.0 and 1.0.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    x = float(x)
    if math.isnan(x):
        raise ValueError("t_cdf is undefined at x = nan")
    half = 0.0 if math.isinf(x) else two_sided_p(x, int(df)) / 2.0
    return half if x < 0 else 1.0 - half


def one_sample_ttest(samples: Sequence[float], null_mean: float = 0.0) -> TestResult:
    """Two-sided one-sample t-test of the mean against null_mean.

    Raises DegenerateSampleError for a flat sample, one whose values are
    all equal or whose squared deviations sum to zero, which is the rule
    the graph screen applies: rounding in the mean would otherwise give
    such a sample a huge t. The caller decides what a flat sample means
    (graph assembly treats it as no relationship).
    """
    xs = [float(v) for v in samples]
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = math.fsum(xs) / n
    ss = math.fsum((v - mean) ** 2 for v in xs)
    if min(xs) == max(xs) or ss <= 0.0:
        raise DegenerateSampleError("zero sample variance")
    var = ss / (n - 1)
    statistic = (mean - float(null_mean)) / math.sqrt(var / n)
    df = n - 1
    p_value = 2.0 * t_cdf(-abs(statistic), df)
    return TestResult(statistic=statistic, degrees_of_freedom=df, p_value=p_value)


def paired_ttest(xs: Sequence[float], ys: Sequence[float]) -> TestResult:
    """Two-sided paired t-test: one-sample test on the pairwise differences."""
    if len(xs) != len(ys):
        raise ValueError(f"paired lengths differ: {len(xs)} vs {len(ys)}")
    diffs = [float(a) - float(b) for a, b in zip(xs, ys)]
    return one_sample_ttest(diffs, null_mean=0.0)


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks; tied values share the average of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # A group of c ties ending at 1-based position p shares rank p - (c - 1) / 2.
    ranks = np.cumsum(counts) - (counts - 1) / 2.0
    return ranks[inverse].tolist()


def spearman(xs: Sequence[float], ys: Sequence[float]) -> SpearmanResult:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    if len(xs) != len(ys):
        raise ValueError(f"lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise UndefinedCorrelationError("correlation undefined for a constant vector")
    rx = _average_ranks([float(v) for v in xs])
    ry = _average_ranks([float(v) for v in ys])
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    if vx <= 0.0 or vy <= 0.0:
        # All-tied ranks despite unequal raw values cannot happen, but a
        # guard beats a ZeroDivisionError.
        raise UndefinedCorrelationError("rank variance is zero")
    rho = cov / math.sqrt(vx * vy)
    rho = max(-1.0, min(1.0, rho))
    return SpearmanResult(rho=rho, n=n)
