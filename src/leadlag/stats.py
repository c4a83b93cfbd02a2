"""Statistical tests behind edge acceptance and the size analysis.

Student-t tail probabilities by series for integer degrees of freedom,
two-sided t-tests of many groups of samples in one array pass (the one
t-test of the package, which the one-sample and paired tests call), and
Spearman rank correlation with average ranks for ties. Everything here is
exercised against independent numeric oracles in the test suite, scipy's
`stdtr` among them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DegenerateSampleError(ValueError):
    """Sample (or difference) variance is zero, so no t statistic exists."""


class UndefinedCorrelationError(ValueError):
    """A correlation was requested for a constant input vector."""


@dataclass(frozen=True)
class TestResult:
    """Outcome of a t-test; a grouped paired test gives arrays, one entry per group."""

    statistic: float | np.ndarray
    degrees_of_freedom: int | np.ndarray
    p_value: float | np.ndarray

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
    """
    a, r = np.abs(t), np.sqrt(df)
    h, phi = np.hypot(a, r), np.arctan2(r, a)
    sin, cos = a / h, r / h
    x, half, odd = cos * cos, df // 2, df % 2
    # The sums' prefactors: sin for even df, (2 / pi) sin cos for odd.
    scale = sin * ((1 - odd) + odd * cos / (math.pi / 2))
    u, finite, tail = 1.0, 0.0, 0.0
    top = int(np.max(half, initial=0))
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
    for k in range(top, top + 1 + int(np.max(more, initial=0))):
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
    half = 0.0 if math.isinf(x) else float(two_sided_p(x, int(df))) / 2.0
    return half if x < 0 else 1.0 - half


def grouped_ttest(values, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided one-sample t-tests of a zero mean: (statistic, p, flat), one per group.

    `values` holds the groups end to end and `sizes` gives their lengths.
    A flat group, whose values are all equal or whose squared deviations
    sum to zero, has no t statistic (rounding in its mean would give it a
    huge one): it gets statistic 0, p 1 and flat True. Raises ValueError
    for a group of fewer than 2 values or a NaN or infinite value.
    """
    values = np.asarray(values, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if (sizes < 2).any():
        raise ValueError(f"need at least 2 samples, got {sizes.min()}")
    if not np.isfinite(values).all():
        raise ValueError("t-test samples must be finite, not nan or inf")
    starts = np.cumsum(sizes) - sizes
    mean = np.add.reduceat(values, starts) / sizes
    deviation = values - np.repeat(mean, sizes)
    ss = np.add.reduceat(deviation * deviation, starts)
    constant = np.minimum.reduceat(values, starts) == np.maximum.reduceat(values, starts)
    flat = constant | (ss <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # flat groups get t = 0, not inf or nan
        statistic = np.where(flat, 0.0, mean / np.sqrt(ss / (sizes - 1) / sizes))
    return statistic, two_sided_p(statistic, sizes - 1), flat


def one_sample_ttest(samples: Sequence[float], null_mean: float = 0.0) -> TestResult:
    """Two-sided one-sample t-test of the mean against null_mean, by `grouped_ttest`
    on one group; raises DegenerateSampleError for a flat sample."""
    shifted = np.asarray(samples, dtype=np.float64) - float(null_mean)
    statistic, p_value, flat = grouped_ttest(shifted, [len(shifted)])
    if flat[0]:
        raise DegenerateSampleError("zero sample variance")
    return TestResult(float(statistic[0]), len(shifted) - 1, float(p_value[0]))


def paired_ttest(xs: Sequence[float], ys: Sequence[float], sizes=None) -> TestResult:
    """Two-sided paired t-test: one-sample test on the pairwise differences.

    With `sizes`, the pairs run end to end in groups of those lengths, as
    in `grouped_ttest`: each field of the result is an array with one entry
    per group, and a flat group gets statistic 0 and p 1 instead of raising
    DegenerateSampleError.
    """
    if len(xs) != len(ys):
        raise ValueError(f"paired lengths differ: {len(xs)} vs {len(ys)}")
    differences = np.subtract(xs, ys, dtype=np.float64)
    if sizes is None:
        return one_sample_ttest(differences)
    statistic, p_value, _ = grouped_ttest(differences, sizes)
    return TestResult(statistic, np.asarray(sizes) - 1, p_value)


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
