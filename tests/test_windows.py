"""The window stack against the per-window code it replaced (`tests/oracles.py`)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.cluster import summed_distances
from leadlag.lagcorr import compute_all_velocities, scan_dyads

from helpers import assert_same_dyads, store_from_cells, window_stack
from oracles import compute_velocities, per_window_distances, per_window_windows, to_scipy

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

