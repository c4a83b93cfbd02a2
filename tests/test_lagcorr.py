from __future__ import annotations

import json
import math
import re
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from leadlag.charts import ArtistUniverse, ChartStore
from leadlag.lagcorr import (
    LAGS,
    DyadResult,
    DyadUnavailable,
    VelocitySeries,
    compute_all_velocities,
    compute_velocities,
    load_dyads,
    save_dyads,
    scan_dyads,
)
from leadlag.network import build_graph
from leadlag.pipeline import build_windows
from leadlag.synth import SynthConfig, chain_hierarchy, generate_charts

from helpers import DISTORTIONS, distort, normalized_windows, store_from_cells
from oracles import best_dyad, lagged_samples, per_pair_scan


def test_identical_windows_give_zero_velocity():
    cells = {(w, "c", a): n for w in range(12) for a, n in [("x", 3), ("y", 4)]}
    series = compute_velocities(normalized_windows(store_from_cells(cells)), "c")
    assert len(series) > 0
    assert abs(series.matrix).max() == 0.0


def test_velocity_is_difference_of_unit_rows():
    cells = {}
    for w in range(4):
        cells[(w, "c", "a")] = 7
    for w in range(4, 8):
        cells[(w, "c", "b")] = 9
    series = compute_velocities(normalized_windows(store_from_cells(cells)), "c")
    v = series.matrix[series.weeks.index(0)].toarray().ravel()
    np.testing.assert_allclose(v, [-1.0, 1.0], atol=1e-12)


def test_unknown_city_is_lookup_error():
    cells = {(w, "c", "a"): 1 for w in range(8)}
    with pytest.raises(KeyError, match="unknown city"):
        compute_velocities(normalized_windows(store_from_cells(cells)), "nowhere")


def test_unnormalized_windows_rejected():
    cells = {(w, "c", "a"): 1 for w in range(8)}
    store = store_from_cells(cells)
    raw = {s: store.window(s) for s in store.valid_window_starts()}
    with pytest.raises(ValueError, match="normalized"):
        compute_velocities(raw, "c")
    with pytest.raises(ValueError, match="normalized"):
        compute_all_velocities(raw)


def test_velocities_match_bruteforce():
    rng = np.random.default_rng(11)
    cities = ["c0", "c1", "c2"]
    artists = ["a0", "a1", "a2", "a3"]
    cells = {}
    for w in range(16):
        for c in cities:
            for a in artists:
                if rng.random() < 0.7:
                    cells[(w, c, a)] = int(rng.integers(1, 50))
                    continue
            cells.setdefault((w, c, artists[0]), 1)
    store = store_from_cells(cells)
    windows = normalized_windows(store)

    ci = {c: i for i, c in enumerate(sorted(cities))}
    ai = {a: i for i, a in enumerate(sorted(artists))}

    def dense_norm_window(start):
        m = np.zeros((len(cities), len(artists)))
        for (w, c, a), n in cells.items():
            if start <= w < start + 4:
                m[ci[c], ai[a]] += n
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        np.divide(m, norms, out=m, where=norms > 0)
        return m

    for city in cities:
        series = compute_velocities(windows, city)
        for t in series.weeks:
            expect = dense_norm_window(t + 4)[ci[city]] - dense_norm_window(t)[ci[city]]
            got = series.matrix[series.weeks.index(t)].toarray().ravel()
            np.testing.assert_allclose(got, expect, atol=1e-12)


def assert_batched_velocities_match_per_city(windows):
    batched = compute_all_velocities(windows)
    assert list(batched) == list(next(iter(windows.values())).cities)
    for city, series in batched.items():
        one = compute_velocities(windows, city)
        assert series.weeks == one.weeks
        assert series.matrix.shape == one.matrix.shape
        np.testing.assert_array_equal(series.matrix.toarray(), one.matrix.toarray())


@given(
    seed=st.integers(0, 2**32 - 1),
    n_cities=st.integers(1, 4),
    n_artists=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_batched_velocities_match_per_city_loop(seed, n_cities, n_artists):
    rng = np.random.default_rng(seed)
    cities = [f"c{k}" for k in range(n_cities)]
    density = rng.uniform(0.05, 0.9, size=n_cities)
    # Missing weeks must lie inside the charted range 0..23.
    missing = frozenset(rng.choice(np.arange(1, 23), size=int(rng.integers(0, 3)), replace=False))
    cells = {}
    for w in range(24):
        if w in missing:
            continue
        for c, share in zip(cities, density):
            for a in range(n_artists):
                if rng.random() < share:
                    cells[(w, c, f"a{a}")] = int(rng.integers(1, 20))
        cells.setdefault((w, cities[int(rng.integers(n_cities))], "a0"), 1)
    assert_batched_velocities_match_per_city(normalized_windows(store_from_cells(cells, missing)))


def test_missing_week_removes_velocities():
    cells = {(w, "c", "a"): w + 1 for w in range(20) if w != 9}
    cells.update({(w, "c", "b"): 2 for w in range(20) if w != 9})
    store = store_from_cells(cells, missing=frozenset({9}))
    windows = normalized_windows(store)
    starts = set(windows)
    assert starts == {0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15, 16}
    series = compute_velocities(windows, "c")
    assert set(series.weeks) == {t for t in starts if t + 4 in starts}


def test_inactive_city_weeks_absent():
    cells = {(w, "c", "a"): 5 for w in range(16)}
    cells.update({(w, "q", "b"): 5 for w in range(8)})
    series = compute_velocities(normalized_windows(store_from_cells(cells)), "q")
    # q charts in weeks 0..7, so it is active in windows 0..7 only; velocity
    # week t needs active windows at both t and t+4, leaving t in 0..3.
    assert set(series.weeks) == {0, 1, 2, 3}


def test_perfect_copy_samples_are_squared_norms():
    rng = np.random.default_rng(3)
    leader_vecs = {w: rng.normal(size=6) * 0.3 for w in range(30)}
    follower_vecs = {w: leader_vecs[w - 3] for w in range(3, 30)}
    leader = VelocitySeries.from_vectors("L", leader_vecs)
    follower = VelocitySeries.from_vectors("F", follower_vecs)
    for sample in lagged_samples(follower, leader, 3):
        want = float(np.dot(leader_vecs[sample.follower_week - 3], leader_vecs[sample.follower_week - 3]))
        assert sample.value == pytest.approx(want, abs=1e-12)
        assert sample.value > 0


def test_orthogonal_velocities_give_zero_samples():
    leader = VelocitySeries.from_vectors("L", {w: np.array([1.0, 0.0]) for w in range(10)})
    follower = VelocitySeries.from_vectors("F", {w: np.array([0.0, 1.0]) for w in range(10)})
    for lag in (1, 5):
        assert all(s.value == 0.0 for s in lagged_samples(follower, leader, lag))


def test_empty_overlap_gives_empty_list():
    leader = VelocitySeries.from_vectors("L", {w: np.ones(2) for w in range(5)})
    follower = VelocitySeries.from_vectors("F", {w: np.ones(2) for w in range(40, 45)})
    assert lagged_samples(follower, leader, 2) == []


def test_lag_bounds_enforced():
    s = VelocitySeries.from_vectors("x", {0: np.ones(2)})
    with pytest.raises(ValueError):
        lagged_samples(s, s, 0)
    with pytest.raises(ValueError):
        lagged_samples(s, s, 6)


def crafted_pair(means, n_weeks=46):
    """Dyad whose lag-l samples all equal means[l-1] exactly."""
    dim = 8
    eye = np.eye(dim)
    leader = VelocitySeries.from_vectors(
        "L", {w: eye[w % dim] for w in range(n_weeks)}
    )
    follower_vecs = {}
    for t in range(5, n_weeks):
        vec = np.zeros(dim)
        for lag, mean in zip(range(1, 6), means):
            vec += mean * eye[(t - lag) % dim]
        follower_vecs[t] = vec
    return VelocitySeries.from_vectors("F", follower_vecs), leader


def scanned_pair(follower, leader, **kwargs):
    """scan_dyads' result for the follower -> leader orientation, or None."""
    series = {follower.city_id: follower, leader.city_id: leader}
    found = [d for d in scan_dyads(series, **kwargs) if d.follower_candidate == follower.city_id]
    return found[0] if found else None


def test_best_dyad_argmax():
    follower, leader = crafted_pair([0.01, 0.03, 0.02, 0.0, 0.0])
    for result in (best_dyad(follower, leader), scanned_pair(follower, leader)):
        assert result.best_lag == 2
        assert result.correlation == pytest.approx(0.03, abs=1e-15)
        assert result.leader_candidate == "L"
        assert result.follower_candidate == "F"
        assert set(result.per_lag_samples) == {result.best_lag}
        assert result.weeks.dtype == np.int64 and result.values.dtype == np.float64
        assert result.weeks.tolist() == list(range(5, 46))


def test_best_dyad_tie_breaks_to_smallest_lag():
    follower, leader = crafted_pair([0.02, 0.02, 0.02, 0.02, 0.02])
    assert best_dyad(follower, leader).best_lag == 1
    assert scanned_pair(follower, leader).best_lag == 1


def test_all_zero_velocities_pick_lag_one():
    zeros = {w: np.zeros(3) for w in range(40)}
    series = VelocitySeries.from_vectors("a", zeros)
    other = VelocitySeries.from_vectors("b", dict(zeros))
    result = best_dyad(series, other)
    assert result.best_lag == 1
    assert result.correlation == 0.0
    scanned = scan_dyads({"a": series, "b": other})
    assert [(d.best_lag, d.correlation) for d in scanned] == [(1, 0.0), (1, 0.0)]


def test_too_few_samples_unavailable():
    follower, leader = crafted_pair([0.1] * 5, n_weeks=20)
    with pytest.raises(DyadUnavailable):
        best_dyad(follower, leader, min_samples=30)
    assert scanned_pair(follower, leader, min_samples=30) is None
    assert scanned_pair(follower, leader, min_samples=15) is not None


def test_min_samples_floor():
    follower, leader = crafted_pair([0.1] * 5)
    with pytest.raises(ValueError):
        best_dyad(follower, leader, min_samples=1)


def test_scan_is_ordered():
    rng = np.random.default_rng(5)
    series = {
        name: VelocitySeries.from_vectors(
            name, {w: rng.normal(size=4) * 0.2 for w in range(30)}
        )
        for name in ("u", "v", "w")
    }
    serial = scan_dyads(series, min_samples=20)
    keys = [(d.leader_candidate, d.follower_candidate) for d in serial]
    assert keys == sorted(keys)
    assert len(serial) == 6


def test_scan_drops_unavailable_dyads():
    rng = np.random.default_rng(6)
    series = {
        "full": VelocitySeries.from_vectors(
            "full", {w: rng.normal(size=3) for w in range(40)}
        ),
        "tiny": VelocitySeries.from_vectors("tiny", {0: np.ones(3)}),
    }
    assert scan_dyads(series, min_samples=5) == []


def assert_scan_matches_oracle(got, series, min_samples=20, lags=None):
    """The scan against best_dyad over every ordered pair.

    The same pairs are scored and every sample is within 1e-15 of the
    oracle's on the same weeks. A best lag may differ only where the
    oracle's mean at the scan's lag ties its best mean within 1e-15.
    """
    want = per_pair_scan(series, min_samples, lags)
    pair = attrgetter("leader_candidate", "follower_candidate")
    assert list(map(pair, got)) == list(map(pair, want))
    for g, w in zip(got, want):
        assert abs(g.correlation - w.correlation) <= 1e-15
        if g.best_lag != w.best_lag:
            follower, leader = series[g.follower_candidate], series[g.leader_candidate]
            other = lagged_samples(follower, leader, g.best_lag)
            assert len(other) >= min_samples
            assert abs(math.fsum(s.value for s in other) / len(other) - w.correlation) <= 1e-15
            w = DyadResult(w.leader_candidate, w.follower_candidate, g.best_lag, w.correlation,
                           [s.follower_week for s in other], [s.value for s in other])
        np.testing.assert_array_equal(g.weeks, w.weeks)
        np.testing.assert_allclose(g.values, w.values, rtol=0, atol=1e-15)
        assert abs(g.correlation - math.fsum(g.values) / len(g.values)) <= 1e-15


def has_unsorted_row(matrix):
    bounds = zip(matrix.indptr[:-1], matrix.indptr[1:])
    return any((np.diff(matrix.indices[a:b]) <= 0).any() for a, b in bounds)


def with_reversed_rows(series, rows):
    """Same velocities, with the column indices of `rows` stored in reverse."""
    m = series.matrix
    indices, data = m.indices.copy(), m.data.copy()
    for r in rows:
        span = slice(m.indptr[r], m.indptr[r + 1])
        indices[span], data[span] = indices[span][::-1], data[span][::-1]
    matrix = sparse.csr_matrix((data, indices, m.indptr.copy()), shape=m.shape)
    return VelocitySeries(series.city_id, series.weeks, matrix)


def unit_row_difference(rng, dim):
    """A velocity: the difference of two unit rows of listener counts."""
    rows = rng.random((2, dim)) * 10.0 ** rng.integers(-3, 1, size=(2, dim))
    rows[rng.random((2, dim)) < 0.3] = 0.0
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows[1] - rows[0]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_cities=st.integers(2, 5),
    lags=st.one_of(st.none(), st.sets(st.integers(1, 5), min_size=1)),
    min_samples=st.integers(2, 30),
    reversed_shares=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=5, max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_scan_matches_per_pair_oracle(seed, n_cities, lags, min_samples, reversed_shares):
    rng = np.random.default_rng(seed)
    horizon, dim = 48, 9
    missing = set(rng.choice(horizon, size=int(rng.integers(0, 6)), replace=False).tolist())
    series = {}
    for k in range(n_cities):
        # Each city is inactive over one stretch of weeks, possibly empty.
        off = int(rng.integers(0, horizon))
        stop = off + int(rng.integers(0, 15))
        vectors = {}
        for w in range(horizon):
            if w in missing or off <= w < stop:
                continue
            vectors[w] = unit_row_difference(rng, dim)
        city = VelocitySeries.from_vectors(f"c{k}", vectors)
        # Rows whose column indices are stored out of order, as in real windows.
        flip = np.flatnonzero(rng.random(len(city)) < reversed_shares[k])
        series[city.city_id] = with_reversed_rows(city, flip)
    assert_scan_matches_oracle(scan_dyads(series, min_samples, lags), series, min_samples, lags)


def test_scan_matches_oracle_on_synth_velocities():
    config = SynthConfig(n_artists=40, n_weeks=60, seed=0, missing_weeks=frozenset({25}))
    charts = generate_charts(chain_hierarchy(8), config)
    universe = ArtistUniverse(a for c in charts for a, _ in c.entries)
    store = ChartStore(charts, universe, config.missing_weeks)
    windows = build_windows(store)
    assert_batched_velocities_match_per_city(windows)
    series = compute_all_velocities(windows)
    # Velocities of real windows store many rows unsorted, unlike from_vectors.
    assert any(has_unsorted_row(s.matrix) for s in series.values())
    got = scan_dyads(series)
    assert len(got) == 56
    assert_scan_matches_oracle(got, series)


def test_scan_skips_city_without_velocities():
    rng = np.random.default_rng(5)
    series = {
        name: VelocitySeries.from_vectors(
            name, {w: rng.normal(size=4) * 0.2 for w in range(30)}
        )
        for name in ("u", "w")
    }
    series["v"] = VelocitySeries.from_vectors("v", {})
    got = scan_dyads(series)
    assert len(got) == 2
    assert_scan_matches_oracle(got, series)


def test_scan_of_fewer_than_two_cities_is_empty():
    lone = VelocitySeries.from_vectors("a", {w: np.ones(2) for w in range(30)})
    assert scan_dyads({}) == []
    assert scan_dyads({"a": lone}) == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"min_samples": 1}, "min_samples must be at least 2, got 1"),
        ({"lags": ()}, "lags must be non-empty"),
        ({"lags": (2, 9)}, "lag must be in 1..5, got 9"),
        ({"lags": (0, 1)}, "lag must be in 1..5, got 0"),
    ],
)
def test_scan_rejects_bad_arguments_for_any_city_count(kwargs, message):
    pair = {c: VelocitySeries.from_vectors(c, {w: np.ones(2) for w in range(30)}) for c in "ab"}
    for series in ({}, {"a": pair["a"]}, pair):
        with pytest.raises(ValueError, match=message):
            scan_dyads(series, **kwargs)


def test_time_reversal_swaps_roles():
    rng = np.random.default_rng(9)
    horizon = 24
    a_vecs = {w: rng.normal(size=5) for w in range(horizon) if w % 7 != 3}
    b_vecs = {w: rng.normal(size=5) for w in range(horizon) if w % 5 != 1}
    a = VelocitySeries.from_vectors("a", a_vecs)
    b = VelocitySeries.from_vectors("b", b_vecs)
    a_rev = VelocitySeries.from_vectors("a", {horizon - w: v for w, v in a_vecs.items()})
    b_rev = VelocitySeries.from_vectors("b", {horizon - w: v for w, v in b_vecs.items()})
    for lag in range(1, 6):
        forward = sorted(s.value for s in lagged_samples(a, b, lag))
        reversed_ = sorted(s.value for s in lagged_samples(b_rev, a_rev, lag))
        np.testing.assert_allclose(forward, reversed_, atol=1e-12)


def test_count_rescaling_leaves_velocities_unchanged():
    cells = {(w, c, a): (w + 2) * (hash(a) % 7 + 1) for w in range(12)
             for c in ("p", "q") for a in ("x", "y", "z")}
    base = compute_all_velocities(normalized_windows(store_from_cells(cells)))
    scaled_cells = {k: v * 13 for k, v in cells.items()}
    scaled = compute_all_velocities(normalized_windows(store_from_cells(scaled_cells)))
    for city in base:
        assert base[city].weeks == scaled[city].weeks
        diff = abs(base[city].matrix - scaled[city].matrix)
        assert diff.max() <= 1e-12 if diff.nnz else True


@given(
    seed=st.integers(0, 10_000),
    lag=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_samples_respect_cauchy_schwarz(seed, lag):
    rng = np.random.default_rng(seed)
    f_vecs = {w: rng.uniform(-1, 1, size=4) for w in range(12)}
    l_vecs = {w: rng.uniform(-1, 1, size=4) for w in range(12)}
    # Scale into the geometry of unit-row differences (norm at most 2).
    f_vecs = {w: v / max(1.0, np.linalg.norm(v) / 2) for w, v in f_vecs.items()}
    l_vecs = {w: v / max(1.0, np.linalg.norm(v) / 2) for w, v in l_vecs.items()}
    follower = VelocitySeries.from_vectors("f", f_vecs)
    leader = VelocitySeries.from_vectors("l", l_vecs)
    for s in lagged_samples(follower, leader, lag):
        bound = np.linalg.norm(f_vecs[s.follower_week]) * np.linalg.norm(
            l_vecs[s.follower_week - lag]
        )
        assert abs(s.value) <= bound + 1e-12
        assert abs(s.value) <= 4.0 + 1e-12


def test_dyad_cache_round_trip(tmp_path):
    follower, leader = crafted_pair([0.01, 0.03, 0.02, 0.0, -0.01])
    result = best_dyad(follower, leader)
    path = tmp_path / "dyads.json"
    save_dyads(path, [result])
    [item] = json.loads(path.read_text())["dyads"]
    assert list(item["samples"]) == [str(result.best_lag)]
    loaded = load_dyads(path)
    assert loaded == [result]


def test_cache_holding_every_lag_still_loads(tmp_path):
    # Caches used to store every scanned lag's samples, indented.
    rng = np.random.default_rng(11)
    base = {w: rng.normal(size=6) * 0.2 for w in range(60)}
    series = {
        city: VelocitySeries.from_vectors(
            city, {w + 2 * k: v + rng.normal(size=6) * 0.05 for w, v in base.items()}
        )
        for k, city in enumerate(("a", "b", "c"))
    }
    scanned = scan_dyads(series)

    def every_lag(d):
        follower, leader = series[d.follower_candidate], series[d.leader_candidate]
        samples = {
            str(lag): [[s.follower_week, s.value] for s in lagged_samples(follower, leader, lag)]
            for lag in LAGS
        }
        samples[str(d.best_lag)] = [list(p) for p in zip(d.weeks.tolist(), d.values.tolist())]
        return samples

    payload = {
        "dyads": [
            {
                "leader": d.leader_candidate,
                "follower": d.follower_candidate,
                "best_lag": d.best_lag,
                "correlation": d.correlation,
                "samples": every_lag(d),
            }
            for d in scanned
        ]
    }
    path = tmp_path / "dyads.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    loaded = load_dyads(path)
    assert loaded == scanned
    for alpha in (0.05, 0.01, 0.001):
        graph = build_graph(loaded, alpha=alpha)
        assert graph.edges
        assert graph == build_graph(scanned, alpha=alpha)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["sample", "correlation"])
def test_cache_with_non_finite_value_rejected(tmp_path, field, bad):
    # JSON parsing accepts NaN and Infinity; the t-tests must never see them.
    follower, leader = crafted_pair([0.01, 0.03, 0.02, 0.0, -0.01])
    result = best_dyad(follower, leader)
    path = tmp_path / "dyads.json"
    save_dyads(path, [result])
    payload = json.loads(path.read_text())
    [item] = payload["dyads"]
    if field == "correlation":
        item["correlation"] = bad
    else:
        item["samples"][str(result.best_lag)][3][1] = bad
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_dyads(path)


def test_dyad_cache_is_deterministic(tmp_path):
    follower, leader = crafted_pair([0.5, 0.1, 0.0, 0.0, 0.0])
    result = best_dyad(follower, leader)
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_dyads(p1, [result])
    save_dyads(p2, [result])
    assert p1.read_bytes() == p2.read_bytes()


def test_dyad_cache_format(tmp_path):
    dyad = DyadResult("L", "F", 3, 0.25, [4, 7], [0.5, 0.0])
    path = tmp_path / "dyads.json"
    save_dyads(path, [dyad])
    assert path.read_text() == (
        '{"dyads":[{"best_lag":3,"correlation":0.25,"follower":"F","leader":"L",'
        '"samples":{"3":[[4,0.5],[7,0.0]]}}]}\n'
    )
    assert load_dyads(path) == [dyad]


@pytest.mark.parametrize("case", sorted(DISTORTIONS))
def test_cache_that_would_distort_a_run_rejected(tmp_path, case):
    follower, leader = crafted_pair([0.01, 0.03, 0.02, 0.0, -0.01])
    path = tmp_path / "dyads.json"
    save_dyads(path, [best_dyad(follower, leader)])
    path.write_text(json.dumps(distort(json.loads(path.read_text()), case)))
    message = f"{path}: dyad 'F' -> 'L' {DISTORTIONS[case]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dyads(path)


def test_cache_correlation_within_tolerance_loads(tmp_path):
    follower, leader = crafted_pair([0.01, 0.03, 0.02, 0.0, -0.01])
    result = best_dyad(follower, leader)
    path = tmp_path / "dyads.json"
    save_dyads(path, [result])
    payload = json.loads(path.read_text())
    payload["dyads"][0]["correlation"] += 5e-13
    path.write_text(json.dumps(payload))
    [loaded] = load_dyads(path)
    assert loaded.correlation == result.correlation + 5e-13
    np.testing.assert_array_equal(loaded.values, result.values)
