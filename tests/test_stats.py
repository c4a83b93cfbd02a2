from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.stats import (
    DegenerateSampleError,
    UndefinedCorrelationError,
    grouped_ttest,
    one_sample_ttest,
    paired_ttest,
    spearman,
    t_cdf,
    two_sided_p,
)

from oracles import fsum_ttest, spearman_by_rankdata, t_cdf_by_integration

CDF_GRID_X = [0.0, 0.3, -0.3, 0.5, 1.0, -1.0, 2.5, -2.5, 3.4641, 5.0, -5.0, 8.0]
CDF_GRID_DF = [1, 2, 3, 4, 5, 10, 30, 100, 240]


def test_t_cdf_at_zero_is_half():
    for df in CDF_GRID_DF:
        assert t_cdf(0.0, df) == 0.5


def test_t_cdf_closed_form_df1():
    # df=1 is the Cauchy distribution: F(x) = 1/2 + atan(x)/pi.
    assert abs(t_cdf(1.0, 1) - 0.75) < 1e-12
    for x in (0.25, 2.0, -3.5):
        assert abs(t_cdf(x, 1) - (0.5 + math.atan(x) / math.pi)) < 1e-12


@pytest.mark.parametrize("df", CDF_GRID_DF)
def test_t_cdf_matches_numeric_integration(df):
    for x in CDF_GRID_X:
        assert abs(t_cdf(x, df) - t_cdf_by_integration(x, df)) < 1e-6


def test_t_cdf_symmetry():
    for df in CDF_GRID_DF:
        for x in CDF_GRID_X:
            assert abs(t_cdf(x, df) + t_cdf(-x, df) - 1.0) < 1e-12


def test_t_cdf_monotone_in_x():
    xs = sorted(CDF_GRID_X)
    for df in (1, 7, 50):
        vals = [t_cdf(x, df) for x in xs]
        assert vals == sorted(vals)


TAIL_X = [-5.0, -10.0, -37.5, -100.0, -1e3, -1e4, -1e5, -1e6]


@pytest.mark.parametrize("x", TAIL_X)
def test_t_cdf_tail_relative_accuracy(x):
    # Closed forms for df 1 and 2, compared relatively: an absolute bound
    # cannot see an error at a Bonferroni-level p-value.
    cauchy = math.atan(1.0 / abs(x)) / math.pi
    root = math.sqrt(2.0 + x * x)
    df2 = 1.0 / (root * (root + abs(x)))
    assert t_cdf(x, 1) == pytest.approx(cauchy, rel=1e-12, abs=0.0)
    assert t_cdf(x, 2) == pytest.approx(df2, rel=1e-12, abs=0.0)


def test_t_cdf_rejects_bad_df():
    with pytest.raises(ValueError):
        t_cdf(1.0, 0)


def test_t_cdf_rejects_nan_and_bounds_infinity():
    for df in (1, 2, 30):
        with pytest.raises(ValueError, match="nan"):
            t_cdf(math.nan, df)
        assert t_cdf(-math.inf, df) == 0.0
        assert t_cdf(math.inf, df) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ttests_reject_non_finite_sample(bad):
    with pytest.raises(ValueError, match="nan"):
        one_sample_ttest([0.1, bad, 0.3, 0.2])
    with pytest.raises(ValueError, match="nan"):
        paired_ttest([0.1, bad, 0.3, 0.2], [0.0, 0.1, 0.0, 0.1])


def test_two_sided_p_matches_stdtr():
    from scipy.special import stdtr

    rng = np.random.default_rng(0)
    df = np.repeat(np.arange(1, 301), 200)
    # Half spread over 14 decades of |t|, half over the range where p crosses the switch.
    spread, near = 10.0 ** rng.uniform(-8, 6, len(df)), rng.uniform(0, 12, len(df))
    t = np.where(rng.random(len(df)) < 0.5, spread, near)
    t[::200], t[1::200] = 0.0, 1e6
    want = 2.0 * stdtr(df, -t)
    # stdtr is off by up to 3e-9 for df 1 below |t| = 1e-5; the Cauchy closed form is not.
    want[df == 1] = np.arctan2(1.0, t[df == 1]) / (math.pi / 2)
    kept = want >= 1e-300
    got = two_sided_p(t, df)
    assert (abs(got - want)[kept] <= 1e-11 * want[kept]).all()
    # A scalar call takes the same series through 0-d arrays.
    for i in np.flatnonzero(kept)[::97].tolist():
        assert abs(two_sided_p(float(t[i]), int(df[i])) - want[i]) <= 1e-11 * want[i]


# Multiples of 2^-16 within 16 in magnitude: every partial sum of up to 40 of
# them is exact, so every implementation sees one mean, and the results differ
# only in how the sum of squares rounds.
on_grid = st.integers(-(2**20), 2**20).map(lambda k: k / 2**16)


def is_on_grid(values) -> bool:
    return all(abs(v) <= 16 and v * 2**16 == round(v * 2**16) for v in values)


@given(
    groups=st.lists(
        st.tuples(
            st.lists(st.one_of(on_grid, st.floats(-4.0, 4.0)), min_size=1, max_size=3),
            st.lists(st.integers(0, 2), min_size=2, max_size=40),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=300, deadline=None)
def test_grouped_ttest_matches_fsum_oracle_and_scipy(groups):
    # Each group picks from one to three values, so many are flat or hold two
    # distinct values; dot products of unit-row differences lie in [-4, 4].
    from scipy.stats import ttest_1samp

    samples = [[pool[i % len(pool)] for i in picks] for pool, picks in groups]
    statistic, p_value, flat = grouped_ttest(np.concatenate(samples), [len(s) for s in samples])
    for values, t, p, is_flat in zip(samples, statistic, p_value, flat):
        try:
            want = fsum_ttest(values)
        except DegenerateSampleError:
            assert is_flat
            continue
        assert not is_flat
        # Off the grid the means may differ in the last bit, which a nearly
        # flat sample magnifies without bound; there only the flag is compared.
        if not is_on_grid(values):
            continue
        scipy_t, scipy_p = ttest_1samp(values, 0.0)
        if len(values) == 2:
            # stdtr is off by up to 3e-9 for df 1 below |t| = 1e-5; the Cauchy closed form is not.
            scipy_p = math.atan2(1.0, abs(scipy_t)) / (math.pi / 2)
        for other_t, other_p in ((want.statistic, want.p_value), (scipy_t, scipy_p)):
            assert abs(t - other_t) <= 1e-12 * abs(other_t)
            if other_p >= 1e-300:
                assert abs(p - other_p) <= 1e-11 * other_p


def test_one_sample_worked_example():
    res = one_sample_ttest([1.0, 2.0, 3.0])
    assert abs(res.statistic - 3.4641) < 5e-5
    assert res.degrees_of_freedom == 2
    assert abs(res.p_value - 0.0742) < 5e-5


def test_one_sample_symmetric_sample_gives_p_one():
    res = one_sample_ttest([-1.0, 1.0, -2.0, 2.0])
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_one_sample_constant_sample_degenerate():
    with pytest.raises(DegenerateSampleError):
        one_sample_ttest([5.0, 5.0, 5.0])


def test_flat_sample_is_degenerate_even_when_its_mean_rounds():
    # The mean of three 0.1s is not 0.1 in floating point, so a variance taken
    # around it is not 0; the sample is still flat, as the graph screen says.
    assert math.fsum([0.1] * 3) / 3 != 0.1
    with pytest.raises(DegenerateSampleError):
        one_sample_ttest([0.1] * 3)
    # Every difference is the same float, 0.7 - 0.6, but their mean is not.
    with pytest.raises(DegenerateSampleError):
        paired_ttest([0.7] * 30, [0.6] * 30)


def test_one_sample_needs_two():
    with pytest.raises(ValueError):
        one_sample_ttest([1.0])


def test_reject_at_is_strict():
    res = one_sample_ttest([1.0, 2.0, 3.0])
    assert res.reject_at(0.08)
    assert not res.reject_at(0.07)
    assert not res.reject_at(res.p_value)


def test_paired_worked_example():
    res = paired_ttest([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    assert abs(res.statistic - 3.873) < 5e-4
    assert res.degrees_of_freedom == 3
    assert abs(res.p_value - 0.0305) < 5e-5


def test_paired_identical_series_degenerate():
    with pytest.raises(DegenerateSampleError):
        paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_paired_constant_shift_degenerate():
    with pytest.raises(DegenerateSampleError):
        paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])


def test_paired_length_mismatch():
    with pytest.raises(ValueError):
        paired_ttest([1.0, 2.0], [1.0])


def test_paired_antisymmetric_exact():
    xs = [0.13, -0.4, 2.25, 1.9, -3.0]
    ys = [1.0, 0.5, -0.25, 2.0, 0.0]
    fwd = paired_ttest(xs, ys)
    bwd = paired_ttest(ys, xs)
    assert fwd.statistic == -bwd.statistic
    assert fwd.p_value == bwd.p_value


def test_grouped_paired_ttest_matches_one_call_per_group():
    groups = [
        ([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]),
        ([0.7] * 30, [0.6] * 30),
        ([0.13, -0.4, 2.25, 1.9, -3.0], [1.0, 0.5, -0.25, 2.0, 0.0]),
    ]
    xs, ys = (np.concatenate(side) for side in zip(*groups))
    res = paired_ttest(xs, ys, [len(x) for x, _ in groups])
    assert res.degrees_of_freedom.tolist() == [3, 29, 4]
    # The flat group gets t = 0 and p = 1 instead of an error.
    assert (res.statistic[1], res.p_value[1]) == (0.0, 1.0)
    assert res.reject_at(0.05).tolist() == [True, False, False]
    for i in (0, 2):
        one = paired_ttest(*groups[i])
        assert (res.statistic[i], res.p_value[i]) == (one.statistic, one.p_value)


def test_spearman_worked_example():
    res = spearman([1, 2, 3, 4, 5], [3, 1, 2, 5, 4])
    assert abs(res.rho - 0.6) < 5e-5
    assert res.n == 5


def test_spearman_identity_and_reversal():
    xs = [3.0, 1.0, 4.0, 1.5, 5.0]
    assert spearman(xs, xs).rho == pytest.approx(1.0, abs=1e-12)
    assert spearman(xs, [-v for v in xs]).rho == pytest.approx(-1.0, abs=1e-12)


def test_spearman_ties_use_average_ranks():
    # Against an independent ranking routine on data with duplicates.
    xs = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0]
    ys = [2.0, 1.0, 4.0, 4.0, 6.0, 7.0, 6.5]
    assert spearman(xs, ys).rho == pytest.approx(spearman_by_rankdata(xs, ys), abs=1e-12)


def test_spearman_constant_vector_undefined():
    with pytest.raises(UndefinedCorrelationError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    samples=st.lists(st.integers(-1000, 1000), min_size=3, max_size=40),
    a=st.integers(1, 500),
    b=st.integers(-200, 200),
)
@settings(max_examples=150, deadline=None)
def test_ttest_affine_invariance(samples, a, b):
    xs = [float(v) for v in samples]
    try:
        base = one_sample_ttest(xs, null_mean=0.0)
    except DegenerateSampleError:
        return
    scaled = one_sample_ttest([a * v + b for v in xs], null_mean=float(b))
    assert abs(scaled.statistic - base.statistic) < 1e-9 * max(1.0, abs(base.statistic))
    assert abs(scaled.p_value - base.p_value) < 1e-9


@given(
    xs=st.lists(st.integers(-1000, 1000), min_size=2, max_size=30, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_spearman_monotone_transform_invariance(xs):
    vals = [v / 8.0 for v in xs]
    ys = list(reversed(vals))
    base = spearman(vals, ys)
    cubed = spearman([v**3 for v in vals], ys)
    assert cubed.rho == pytest.approx(base.rho, abs=1e-12)


@given(st.lists(finite_floats, min_size=2, max_size=60))
@settings(max_examples=200, deadline=None)
def test_spearman_against_rankdata_oracle(xs):
    ys = [(v * 3.7 - 1.0) ** 3 for v in xs]
    try:
        mine = spearman(xs, ys)
    except UndefinedCorrelationError:
        return
    assert mine.rho == pytest.approx(spearman_by_rankdata(xs, ys), abs=1e-9)


def test_p_value_monotone_in_statistic():
    # Larger |t| must not raise the p-value for a fixed df.
    samples = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.5], [1.0, 2.0, 6.0]]
    results = [one_sample_ttest(s) for s in samples]
    for a, b in zip(results, results[1:]):
        assert a.degrees_of_freedom == b.degrees_of_freedom
        if abs(a.statistic) < abs(b.statistic):
            assert a.p_value >= b.p_value
