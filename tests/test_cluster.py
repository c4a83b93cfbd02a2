from __future__ import annotations

import math

import numpy as np
import pytest

from leadlag.cluster import (
    ClusterNode,
    DistanceMatrix,
    average_linkage,
    flat_cut,
    summed_distances,
    to_newick,
)

from helpers import normalized_windows, store_from_cells, window_stack
from oracles import filter_genre, naive_upgma, normalize_rows, per_window_distances, window
from readers import cluster_map, inversions, merges, parse_newick


def dm(labels, rows):
    d = np.array(rows, dtype=float)
    return DistanceMatrix(tuple(labels), d, np.ones_like(d, dtype=np.int64))


def line_matrix(labels, points):
    pts = np.array(points, dtype=float)
    d = np.abs(pts[:, None] - pts[None, :])
    return DistanceMatrix(tuple(labels), d, np.ones_like(d, dtype=np.int64))


def test_identical_cities_have_zero_distance():
    cells = {}
    for w in range(10):
        for city in ("p", "q"):
            cells[(w, city, "a")] = 3
            cells[(w, city, "b")] = 4
    result = summed_distances(normalized_windows(store_from_cells(cells)))
    assert result.value("p", "q") == pytest.approx(0.0, abs=1e-7)


def test_orthogonal_axes_distance_is_sqrt_two():
    cells = {}
    for w in range(4):
        cells[(w, "p", "x")] = 5
        cells[(w, "q", "y")] = 9
    result = summed_distances(normalized_windows(store_from_cells(cells)))
    assert result.value("p", "q") == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert result.coverage[0, 1] == 1


def test_summed_distances_match_bruteforce():
    rng = np.random.default_rng(31)
    cities = ["c0", "c1", "c2"]
    artists = ["a0", "a1", "a2", "a3"]
    cells = {}
    for w in range(8):
        for c in cities:
            for a in artists:
                if rng.random() < 0.8:
                    cells[(w, c, a)] = int(rng.integers(1, 60))
            cells.setdefault((w, c, artists[0]), 1)
    store = store_from_cells(cells)
    windows = normalized_windows(store)
    result = summed_distances(windows)

    ai = {a: i for i, a in enumerate(sorted(artists))}

    def dense_row(city, start):
        row = np.zeros(len(artists))
        for (w, c, a), n in cells.items():
            if c == city and start <= w < start + 4:
                row[ai[a]] += n
        norm = np.linalg.norm(row)
        return row / norm if norm > 0 else row

    for i, a in enumerate(cities):
        for j, b in enumerate(cities):
            if i >= j:
                continue
            want = sum(
                float(np.linalg.norm(dense_row(a, s) - dense_row(b, s)))
                for s in windows.starts
            )
            assert result.value(a, b) == pytest.approx(want, abs=1e-9)


def test_never_active_city_excluded_with_warning():
    # Ghost only listens outside the genre, so filtering leaves it with
    # all-zero rows in every window: present in the matrices, never active.
    cells = {(w, "p", "a"): 2 for w in range(6)}
    cells.update({(w, "q", "b"): 3 for w in range(6)})
    cells.update({(w, "ghost", "offgenre"): 9 for w in range(6)})
    store = store_from_cells(cells)
    windows = {
        s: normalize_rows(filter_genre(window(store, s), ["a", "b"]))
        for s in store.valid_window_starts()
    }
    with pytest.warns(UserWarning, match="ghost"):
        result = summed_distances(window_stack(windows))
    assert result.cities == ("p", "q")


def test_coverage_counts_shared_windows():
    cells = {(w, "p", "a"): 2 for w in range(12)}
    cells.update({(w, "q", "b"): 3 for w in range(8)})
    store = store_from_cells(cells)
    result = summed_distances(normalized_windows(store))
    i, j = result.cities.index("p"), result.cities.index("q")
    # q charts through week 7 only, so it is active in windows 0..7 of 0..8.
    assert result.coverage[i, j] == 8


def test_per_pair_mean_mode():
    cells = {}
    for w in range(8):
        cells[(w, "p", "x")] = 5
        cells[(w, "q", "y")] = 9
    windows = normalized_windows(store_from_cells(cells))
    summed = summed_distances(windows)
    mean = summed_distances(windows, per_pair_mean=True)
    i, j = summed.cities.index("p"), summed.cities.index("q")
    count = summed.coverage[i, j]
    assert count == 5
    assert mean.value("p", "q") == pytest.approx(summed.value("p", "q") / count, abs=1e-12)


def test_unnormalized_windows_rejected():
    cells = {(w, "p", "a"): 2 for w in range(6)}
    store = store_from_cells(cells)
    raw = {s: window(store, s) for s in store.valid_window_starts()}
    with pytest.raises(ValueError, match="normalized"):
        per_window_distances(raw)


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]), np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="diagonal"):
        DistanceMatrix(("a", "b"), np.array([[1.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2), dtype=np.int64))


def test_two_cities_merge_at_their_distance():
    root = average_linkage(dm(["a", "b"], [[0, 3.5], [3.5, 0]]))
    assert root.height == 3.5
    assert set(root.leaves()) == {"a", "b"}
    assert root.left.is_leaf() and root.right.is_leaf()


def test_one_dimensional_points_hand_tree():
    tree = average_linkage(line_matrix(["p0", "p1", "p10"], [0.0, 1.0, 10.0]))
    first, second = merges(tree)
    assert first.left | first.right == {"p0", "p1"}
    assert first.height == 1.0
    assert second.height == pytest.approx(9.5, abs=1e-12)
    assert second.left | second.right == {"p0", "p1", "p10"}


def test_matches_naive_upgma_oracle():
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = 6
        raw = rng.uniform(0.1, 2.0, size=(n, n))
        sym = (raw + raw.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        labels = [f"c{i}" for i in range(n)]
        matrix = DistanceMatrix(tuple(labels), sym, np.ones((n, n), dtype=np.int64))
        tree = average_linkage(matrix)
        oracle = naive_upgma(labels, sym)
        assert len(merges(tree)) == len(oracle)
        for mine, (a, b, height) in zip(merges(tree), oracle):
            assert {mine.left, mine.right} == {a, b}
            assert mine.height == pytest.approx(height, abs=1e-9)


def test_heights_are_monotone():
    rng = np.random.default_rng(43)
    for _ in range(10):
        raw = rng.uniform(0.0, 3.0, size=(8, 8))
        sym = (raw + raw.T) / 2.0
        np.fill_diagonal(sym, 0.0)
        tree = average_linkage(
            DistanceMatrix(tuple(f"c{i}" for i in range(8)), sym, np.ones((8, 8), dtype=np.int64))
        )
        assert inversions(tree) == 0


def test_city_order_does_not_change_tree():
    rng = np.random.default_rng(47)
    n = 7
    raw = rng.uniform(0.2, 2.0, size=(n, n))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    labels = [f"c{i}" for i in range(n)]
    base = average_linkage(DistanceMatrix(tuple(labels), sym, np.ones((n, n), dtype=np.int64)))
    perm = rng.permutation(n)
    shuffled = sym[np.ix_(perm, perm)]
    shuffled_labels = [labels[i] for i in perm]
    other = average_linkage(
        DistanceMatrix(tuple(shuffled_labels), shuffled, np.ones((n, n), dtype=np.int64))
    )
    for mine, theirs in zip(merges(base), merges(other)):
        assert {mine.left, mine.right} == {theirs.left, theirs.right}
        assert mine.height == pytest.approx(theirs.height, abs=1e-12)


def test_tie_break_prefers_smallest_pair():
    # b is as close to c as to a; the pair with the smaller labels, (a, b), merges first,
    # whatever the matrix order.
    tree = average_linkage(dm(["c", "b", "a"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert flat_cut(tree, 1.2) == (("a", "b"), ("c",))
    assert tree.height == 1.5


@pytest.mark.parametrize(
    "block", [[0] * 9, [0, 1, 1, 2, 2, 2, 2, 2, 0]], ids=["all-equal", "two-level"]
)
def test_ties_after_the_first_merge_match_naive_upgma(block):
    # Every size-weighted mean here is exact, so the smallest label pair breaks every tie,
    # also between merged clusters. City i is labelled c{i} and sits in block[i]; block 0
    # holds the smallest and the largest label, so clusters kept in the slot of their
    # largest label would merge blocks 1 and 2 first. The matrix order is shuffled.
    perm = np.random.default_rng(59).permutation(len(block))
    labels, block = [f"c{i}" for i in perm], np.array(block)[perm]
    d = np.where(np.equal.outer(block, block), 1.0, 2.0)
    np.fill_diagonal(d, 0.0)
    tree = average_linkage(DistanceMatrix(tuple(labels), d, np.ones_like(d, dtype=np.int64)))
    oracle = [({a, b}, height) for a, b, height in naive_upgma(labels, d)]
    assert [({m.left, m.right}, m.height) for m in merges(tree)] == oracle


def test_single_city_cannot_cluster():
    with pytest.raises(ValueError, match="at least 2"):
        average_linkage(dm(["solo"], [[0.0]]))


def test_flat_cut_degenerate_heights():
    tree = average_linkage(line_matrix(["p0", "p1", "p10"], [0.0, 1.0, 10.0]))
    assert flat_cut(tree, 100.0) == (("p0", "p1", "p10"),)
    assert flat_cut(tree, 0.0) == (("p0",), ("p1",), ("p10",))


@pytest.mark.parametrize("height", [-1.0, float("nan")])
def test_flat_cut_rejects_a_height_below_zero_or_nan(height):
    tree = average_linkage(line_matrix(["p0", "p1", "p10"], [0.0, 1.0, 10.0]))
    with pytest.raises(ValueError, match=f"^cut height must be non-negative, got {height}$"):
        flat_cut(tree, height)


def test_flat_cut_hand_fixture():
    tree = average_linkage(line_matrix(["p0", "p1", "p10"], [0.0, 1.0, 10.0]))
    assert flat_cut(tree, 5.0) == (("p0", "p1"), ("p10",))


def test_flat_cut_boundary_is_strict():
    tree = average_linkage(line_matrix(["p0", "p1", "p10"], [0.0, 1.0, 10.0]))
    # Merges at exactly the cut height do not join.
    assert flat_cut(tree, 1.0) == (("p0",), ("p1",), ("p10",))
    assert flat_cut(tree, 1.0 + 1e-9) == (("p0", "p1"), ("p10",))


def test_flat_cuts_nest():
    rng = np.random.default_rng(53)
    raw = rng.uniform(0.1, 4.0, size=(9, 9))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    tree = average_linkage(
        DistanceMatrix(tuple(f"c{i}" for i in range(9)), sym, np.ones((9, 9), dtype=np.int64))
    )
    cuts = [0.2, 0.7, 1.4, 2.5, 5.0]
    parts = [flat_cut(tree, h) for h in cuts]
    for fine, coarse in zip(parts, parts[1:]):
        for cluster in fine:
            assert any(set(cluster) <= set(big) for big in coarse)


def test_cluster_map_numbers_by_smallest_member():
    mapping = cluster_map((("b", "c"), ("a",), ("d",)))
    assert mapping == {"a": 0, "b": 1, "c": 1, "d": 2}


def test_newick_round_trip():
    tree = average_linkage(line_matrix(["p0", "p1", "p10"], [0.0, 1.0, 10.0]))
    text = to_newick(tree)
    assert text.endswith(";")
    back = parse_newick(text)
    assert back.leaves() == tree.leaves()
    assert len(merges(back)) == len(merges(tree))
    for mine, theirs in zip(merges(tree), merges(back)):
        assert {mine.left, mine.right} == {theirs.left, theirs.right}
        assert theirs.height == pytest.approx(mine.height, rel=1e-12)


@pytest.mark.parametrize("awkward", ["new york (usa)", "a\nb", "a\rb"], ids=["paren", "lf", "cr"])
def test_newick_quotes_awkward_labels(awkward):
    # Any whitespace is quoted: a reader may take a bare label up to it or skip it.
    left = ClusterNode(height=0.0, city=awkward)
    right = ClusterNode(height=0.0, city="sao paulo")
    text = to_newick(ClusterNode(height=2.0, left=left, right=right))
    assert text == f"('{awkward}':2,'sao paulo':2);"
    back = parse_newick(text)
    assert set(back.leaves()) == {awkward, "sao paulo"}


def test_newick_rejects_non_ultrametric():
    with pytest.raises(ValueError, match="ultrametric"):
        parse_newick("(a:1,b:2);")


def test_newick_rejects_malformed():
    with pytest.raises(ValueError):
        parse_newick("(a:1,b:1")
    with pytest.raises(ValueError):
        parse_newick("(a:1,b:1);junk")
