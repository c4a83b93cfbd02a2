"""Statistical tests behind edge acceptance and the size analysis.

Student-t CDF (scipy's `stdtr`), one-sample and paired two-sided t-tests,
and Spearman rank correlation with average ranks for ties. Everything here
is exercised against independent numeric oracles in the test suite.
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


def t_cdf(x: float, df: int) -> float:
    """Cumulative probability of the Student-t distribution at x.

    df must be a positive integer and x must not be NaN; x = -inf and
    x = +inf give 0.0 and 1.0.
    """
    # Imported on first use, so that subcommands testing no edge start faster.
    from scipy.special import stdtr

    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    x = float(x)
    if math.isnan(x):
        raise ValueError("t_cdf is undefined at x = nan")
    return float(stdtr(df, x))


def one_sample_ttest(samples: Sequence[float], null_mean: float = 0.0) -> TestResult:
    """Two-sided one-sample t-test of the mean against null_mean.

    Raises DegenerateSampleError when the sample variance is zero: the
    caller decides what a flat sample means (graph assembly treats it as
    no relationship).
    """
    xs = [float(v) for v in samples]
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = math.fsum(xs) / n
    ss = math.fsum((v - mean) ** 2 for v in xs)
    if ss <= 0.0:
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
