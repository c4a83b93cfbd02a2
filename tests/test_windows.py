"""The window stack against the per-window code it replaced (`tests/oracles.py`)."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.charts import INT64_MAX, ChartStore, SparseRows, WindowStack
from leadlag.cluster import summed_distances, to_newick
from leadlag.lagcorr import compute_all_velocities, scan_dyads
from leadlag.pipeline import RunConfig, analyze
from leadlag.synth import SynthConfig, chain_hierarchy, generate_charts

from helpers import assert_same_dyads, store_from_cells, window_stack
from oracles import (
    compute_velocities,
    dense_block_velocities,
    masked_copy_scan,
    per_window_distances,
    per_window_windows,
    stacked_windows,
    to_scipy,
)

CITIES = ("p", "q", "r", "s")
ARTISTS = tuple(f"a{i}" for i in range(6))

cells_strategy = st.dictionaries(
    st.tuples(st.integers(0, 13), st.sampled_from(CITIES), st.sampled_from(ARTISTS)),
    # Above 2**26 a sum of squares rounds, so its order of summation shows.
    st.integers(1, 10**6) | st.integers(1, 2**40),
    min_size=1,
    max_size=90,
)


# Unit rows of at most 6 entries: a dot product is off by a few units in the last place.
GRAM_ATOL = 1e-15


def assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        x, y = getattr(got, part), getattr(want, part)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), part


def distances_and_warnings(function, windows, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dist = function(windows, **kwargs)
    return dist, [str(w.message) for w in caught]


@given(
    cells=cells_strategy,
    missing=st.frozensets(st.integers(0, 13), max_size=3),
    subset=st.none() | st.lists(st.sampled_from(CITIES), min_size=1, unique=True),
    genre=st.none() | st.lists(st.sampled_from(ARTISTS[::2] + ("zz", "yy")), unique=True),
)
@settings(max_examples=300, deadline=None)
def test_window_stack_matches_per_window_oracle(cells, missing, subset, genre):
    store = store_from_cells(cells, missing)
    if subset is not None and set(subset) & set(store.cities):
        store = store.restrict(set(subset) & set(store.cities))
    stack = store.windows(genre)
    want = per_window_windows(store, genre)

    assert stack.starts == tuple(want) and len(stack) == len(want)
    assert stack.cities == store.cities and stack.universe == store.universe
    if not want:
        velocities = compute_all_velocities(stack)
        assert list(velocities) == list(store.cities)
        assert all(len(series) == 0 for series in velocities.values())
        with pytest.raises(ValueError, match="no windows"):
            summed_distances(stack)
        return
    # Window i's rows are rows i * len(cities) .. (i + 1) * len(cities) - 1 of both.
    assert_same_csr(window_stack(want).matrix, stack.matrix)

    velocities = compute_all_velocities(stack)
    assert list(velocities) == list(store.cities)
    one_by_one = {}
    for city, series in velocities.items():
        one = one_by_one[city] = compute_velocities(want, city)
        assert series.weeks == one.weeks
        got, ref = to_scipy(series.matrix), to_scipy(one.matrix)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.toarray(), ref.toarray())
    assert_same_dyads(scan_dyads(velocities, min_samples=2), scan_dyads(one_by_one, min_samples=2))

    # The Gram products now run through BLAS, in another order than scipy's.
    for gram, start in zip(stack.grams(), want):
        rows = want[start].values
        np.testing.assert_allclose(gram, (rows @ rows.T).toarray(), rtol=0, atol=GRAM_ATOL)
    for per_pair_mean in (False, True):
        kwargs = {"per_pair_mean": per_pair_mean}
        got, got_warned = distances_and_warnings(summed_distances, stack, **kwargs)
        ref, ref_warned = distances_and_warnings(per_window_distances, want, **kwargs)
        assert got.cities == ref.cities and got_warned == ref_warned
        assert got.coverage.tobytes() == ref.coverage.tobytes()
        # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), and a squared distance is 2 - 2 * gram.
        windows = 1 if per_pair_mean else np.maximum(got.coverage, 1)
        assert (abs(got.d - ref.d) <= windows * np.sqrt(2 * GRAM_ATOL)).all()


def test_windows_ending_at_the_last_int64_week_match_the_unshifted_ones():
    """A store shifted to end at week 2**63 - 1 gives the unshifted store's windows and
    run, weeks shifted alike: no week past a window's last is computed."""
    config = SynthConfig(n_artists=30, n_weeks=40, noise_sigma=0.05, seed=5,
                         missing_weeks=frozenset({12}))
    store = generate_charts(chain_hierarchy(3, coupling=0.9), config)
    offset = INT64_MAX - store.last_week
    shifted = ChartStore(store.cities, store.universe, store.week + offset, store.city,
                         store.entries, frozenset(w + offset for w in store.missing_weeks))
    want, got = store.windows(), shifted.windows()
    assert got.starts == tuple(s + offset for s in want.starts) and len(got) > 20
    assert (got.cities, got.universe) == (want.cities, want.universe)
    assert_same_csr(got.matrix, want.matrix)
    run = RunConfig(chart_path="", output_dir="")
    want, got = (analyze(s.windows, run) for s in (store, shifted))
    assert len(want.dyads) and len(want.graph.edges)
    assert_same_dyads(got.dyads, replace(want.dyads, weeks=want.dyads.weeks + offset))
    assert (got.graph, got.centrality, got.acyclicity) == (want.graph, want.centrality, want.acyclicity)
    assert to_newick(got.tree) == to_newick(want.tree)


@given(
    cells=st.dictionaries(
        st.tuples(st.integers(0, 17), st.sampled_from(CITIES), st.sampled_from(ARTISTS)),
        # The store does not require positive counts: cells may sum to zero.
        st.integers(-3, 3) | st.integers(1, 2**40),
        min_size=1,
        max_size=120,
    ),
    missing=st.frozensets(st.integers(0, 17), max_size=2),
    genre=st.none() | st.lists(st.sampled_from(ARTISTS[::2] + ("zz",)), unique=True),
    lags=st.none() | st.sets(st.integers(1, 5), min_size=1),
)
@settings(max_examples=200, deadline=None)
def test_stages_match_their_copying_versions(cells, missing, genre, lags):
    """Windows written in place and the scan without copies of its samples give, bit
    for bit, what the versions that copied gave."""
    store = store_from_cells(cells, missing)
    stack = store.windows(genre)
    want = stacked_windows(store, genre)
    assert stack.starts == want.starts
    assert_same_csr(stack.matrix, want.matrix)

    velocities = compute_all_velocities(stack)
    assert_same_dyads(scan_dyads(velocities, 2, lags), masked_copy_scan(velocities, 2, lags))


def stack_of(starts, rows, n_cities, n_cols):
    """A WindowStack of {column: value} rows, row i * n_cities + c being city c in window i."""
    columns = [sorted(row) for row in rows]
    matrix = SparseRows.from_sizes(
        np.array([row[j] for row, cols in zip(rows, columns) for j in cols], dtype=np.float64),
        np.array([j for cols in columns for j in cols], dtype=np.int32),
        [len(cols) for cols in columns],
        n_cols,
    )
    cities = tuple(f"c{c}" for c in range(n_cities))
    return WindowStack(starts, cities, tuple(sorted(f"a{j}" for j in range(n_cols))), matrix)


def assert_same_velocities(got, want):
    assert list(got) == list(want)
    for city in want:
        assert got[city].weeks == want[city].weeks
        assert got[city].matrix.n_cols == want[city].matrix.n_cols
        assert_same_csr(got[city].matrix, want[city].matrix)


@st.composite
def small_stacks(draw):
    n_cities, n_cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    starts = sorted(draw(st.sets(st.integers(0, 12), max_size=6)))
    # Few values, so a late and an early entry often cancel or differ only in sign.
    value = st.sampled_from((0.25, 0.5, -0.5, 1.0, 0.1, 0.1 + 2**-55))
    row = st.dictionaries(st.integers(0, n_cols - 1), value, max_size=n_cols)
    rows = draw(st.lists(row, min_size=len(starts) * n_cities, max_size=len(starts) * n_cities))
    return stack_of(starts, rows, n_cities, n_cols)


@given(stack=small_stacks())
@settings(max_examples=300, deadline=None)
def test_velocity_merge_matches_dense_blocks(stack):
    assert_same_velocities(compute_all_velocities(stack), dense_block_velocities(stack))


def test_velocity_merge_cancels_and_skips_one_window_rows():
    # c0 cancels in column 0; c1 is active in the early window only; c2's rows cancel whole.
    early = [{0: 0.5, 1: 0.5}, {3: 1.0}, {2: 0.25}]
    late = [{0: 0.5, 2: -0.5}, {}, {2: 0.25}]
    stack = stack_of([0, 4], early + late, 3, 4)
    got = compute_all_velocities(stack)
    assert_same_velocities(got, dense_block_velocities(stack))
    assert [got[c].weeks for c in got] == [(0,), (), (0,)]
    c0, c2 = got["c0"].matrix, got["c2"].matrix
    assert c0.indices.tolist() == [1, 2] and c0.data.tolist() == [-0.5, -0.5]
    assert c0.indices.dtype == c0.indptr.dtype == np.int64
    assert c2.indptr.tolist() == [0, 0] and len(c2.data) == 0
