from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.lagcorr import DyadResult, load_dyads, save_dyads
from leadlag.network import (
    Edge,
    LeadershipGraph,
    _exact_min_fas_order,
    _greedy_fas_order,
    _strong_components,
    build_graph,
    feedback_arc_set,
    pagerank,
    size_leadership,
)
from leadlag.stats import UndefinedCorrelationError

from helpers import dyad_table
from oracles import (
    _is_acyclic,
    brute_force_fas_weight,
    csr_pagerank,
    dense_pagerank,
    per_component_fas,
    per_pair_accept_edge,
    per_pair_build_graph,
    scalar_greedy_fas_order,
    strong_components,
    survives_screen,
)


def dyad(follower, leader, values, lag=1, weeks=None):
    """Hand-built scan result holding only its best lag, as best_dyad does."""
    if weeks is None:
        weeks = range(len(values))
    corr = math.fsum(values) / len(values)
    return DyadResult(
        leader_candidate=leader,
        follower_candidate=follower,
        best_lag=lag,
        correlation=corr,
        weeks=np.array(list(weeks), dtype=np.int64),
        values=np.array(values, dtype=np.float64),
    )


def build_from(rows, *args, cities=None, **kwargs):
    """build_graph over the dyad table of `rows`, whose cities are `cities` or
    else the ones the rows name."""
    return build_graph(dyad_table(rows, cities), *args, **kwargs)


def steady(mean, n=30, wobble=0.01):
    return [mean + (wobble if i % 2 else -wobble) for i in range(n)]


def test_no_survivor_means_no_edge():
    fwd = dyad("a", "b", steady(0.0))
    bwd = dyad("b", "a", steady(0.0))
    assert build_from([fwd, bwd]).edges == ()


def test_single_survivor_wins_directly():
    fwd = dyad("a", "b", steady(0.2), lag=3)
    bwd = dyad("b", "a", steady(-0.2))
    edge = Edge(follower="a", leader="b", weight=fwd.correlation, lag_weeks=3)
    assert build_from([fwd, bwd]).edges == (edge,)


def test_significant_negative_mean_is_not_leadership():
    fwd = dyad("a", "b", steady(-0.3))
    bwd = dyad("b", "a", steady(-0.3))
    assert build_from([fwd, bwd]).edges == ()


def test_paired_contest_picks_larger_correlation():
    fwd = dyad("a", "b", steady(0.30))
    bwd = dyad("b", "a", steady(0.10))
    [edge] = build_from([fwd, bwd]).edges
    assert (edge.follower, edge.leader) == ("a", "b")
    assert edge.weight == fwd.correlation


def test_indistinguishable_directions_move_together():
    # Same mean and symmetric differences: the paired test cannot separate them.
    fwd = dyad("a", "b", steady(0.2, wobble=0.01))
    bwd = dyad("b", "a", steady(0.2, wobble=0.02))
    assert build_from([fwd, bwd]).edges == ()


def test_degenerate_samples_yield_no_edge():
    fwd = dyad("a", "b", [0.2] * 30)
    bwd = dyad("b", "a", steady(0.1))
    assert build_from([fwd, bwd]).edges == ()


def test_equal_correlations_yield_no_edge():
    # Forward dominates on the shared weeks but the overall means tie.
    fwd_vals = [0.4] * 20 + [0.21, 0.19] * 10
    bwd_vals = steady(0.3, n=20)
    fwd = dyad("a", "b", fwd_vals, weeks=range(40))
    bwd = dyad("b", "a", bwd_vals, weeks=range(20))
    assert fwd.correlation == pytest.approx(bwd.correlation, abs=1e-12)
    assert build_from([fwd, bwd]).edges == ()


def test_paired_contest_uses_week_intersection():
    # Backward stream is flat 0.2 on weeks 0..19; forward is higher there
    # and lower on its private weeks 20..39, so pairing must use only the
    # shared weeks for the contest yet full means for the weights.
    fwd = dyad("a", "b", [0.35] * 18 + [0.34, 0.36] + [0.06] * 20, weeks=range(40))
    bwd = dyad("b", "a", steady(0.2, n=20), weeks=range(20))
    assert fwd.correlation > bwd.correlation
    [edge] = build_from([fwd, bwd]).edges
    assert (edge.follower, edge.leader) == ("a", "b")


def test_contest_needs_two_shared_weeks():
    # Both directions pass the screen; on two shared weeks their differences
    # are 0.21 and 0.19 (t = 20, p = 0.03 at df 1), and one week is no test.
    fwd = dyad("a", "b", steady(0.3), weeks=range(30))
    for start, n_edges in ((28, 1), (29, 0)):
        bwd = dyad("b", "a", steady(0.1, wobble=0.02), weeks=range(start, start + 30))
        edges = build_from([fwd, bwd], alpha=0.05).edges
        assert len(edges) == n_edges
        assert edges == per_pair_build_graph([fwd, bwd], alpha=0.05).edges


def test_accept_edge_is_argument_order_invariant():
    cases = [
        (dyad("a", "b", steady(0.3)), dyad("b", "a", steady(0.1))),
        (dyad("a", "b", steady(0.0)), dyad("b", "a", steady(0.0))),
        (dyad("a", "b", steady(-0.2)), dyad("b", "a", steady(0.25))),
    ]
    for fwd, bwd in cases:
        assert build_from([fwd, bwd]) == build_from([bwd, fwd])


def test_accept_edge_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        build_from([dyad("a", "b", steady(0.1)), dyad("b", "a", steady(0.1))], alpha=0.0)


@pytest.mark.parametrize("alpha", [7.0, 0.0, -1.0, math.nan])
def test_build_graph_rejects_bad_alpha_before_any_pair(alpha):
    # Checked up front: neither an empty scan nor a lone dyad reaches the screen.
    for dyads in ([], [dyad("a", "b", steady(0.2))]):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            build_from(dyads, alpha=alpha)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            build_from(dyads, alpha=alpha, bonferroni=True)


def test_build_graph_single_city_is_empty():
    graph = build_from([], cities=["only"])
    assert graph.nodes == ("only",)
    assert graph.edges == ()


def test_graph_nodes_are_the_cities_of_a_loaded_cache(tmp_path):
    # "zz" has no dyad; the graph keeps it, as the run that wrote the cache did.
    path = tmp_path / "dyads.json"
    save_dyads(path, dyad_table([dyad("a", "b", steady(0.2))], ["a", "b", "zz"]))
    graph = build_graph(load_dyads(path))
    assert graph.nodes == ("a", "b", "zz")
    assert [(e.follower, e.leader) for e in graph.edges] == [("a", "b")]


def test_build_graph_one_sided_dyad():
    graph = build_from([dyad("a", "b", steady(0.2))])
    assert [(e.follower, e.leader) for e in graph.edges] == [("a", "b")]


def test_build_graph_orders_edges_and_nodes():
    dyads = [
        dyad("c", "a", steady(0.2)),
        dyad("a", "c", steady(-0.1)),
        dyad("b", "a", steady(0.3)),
        dyad("a", "b", steady(-0.1)),
    ]
    graph = build_from(dyads)
    assert graph.nodes == ("a", "b", "c")
    keys = [(e.follower, e.leader) for e in graph.edges]
    assert keys == sorted(keys) == [("b", "a"), ("c", "a")]
    assert all(e.weight > 0 for e in graph.edges)


def test_bonferroni_tightens_the_level():
    # p lands between 0.01 and 0.01 / 6 so the flag flips the decision.
    values = steady(0.2, n=8, wobble=0.15)
    dyads = [dyad("a", "b", values), dyad("b", "a", steady(0.0, n=8))] + [
        dyad(f, l, steady(0.0, n=8))
        for f, l in [("a", "c"), ("c", "a"), ("b", "c"), ("c", "b")]
    ]
    plain = build_from(dyads, alpha=0.01)
    corrected = build_from(dyads, alpha=0.01, bonferroni=True)
    assert len(plain.edges) == 1
    assert len(corrected.edges) == 0


def random_dyads(rng, cities):
    """Scored dyads over `cities`: some pairs in both orientations, some in
    one or none; samples noisy, constant, or a reordering of the other
    orientation's (equal correlations)."""
    dyads = []
    for i, a in enumerate(cities):
        for b in cities[i + 1 :]:
            kind = rng.choice(["both", "both", "both", "forward", "backward", "none"])
            first = None
            for f, l in ((a, b), (b, a)):
                if kind == "none" or kind == ("backward" if f == a else "forward"):
                    continue
                weeks = np.sort(rng.choice(40, size=int(rng.integers(2, 31)), replace=False))
                shape = rng.choice(["noise", "noise", "noise", "constant", "reordered"])
                if shape == "constant":
                    values = np.full(len(weeks), rng.choice([0.0, 0.25, -0.5, 0.125]))
                elif shape == "reordered" and first is not None:
                    weeks, values = first.weeks, rng.permutation(first.values)
                else:
                    mean = rng.choice([-0.2, 0.0, 0.05, 0.2, 0.5])
                    values = rng.normal(mean, rng.choice([0.01, 0.1, 0.5]), size=len(weeks))
                first = dyad(f, l, values.tolist(), lag=int(rng.integers(1, 6)), weeks=weeks)
                dyads.append(first)
    rng.shuffle(dyads)
    return dyads


@given(
    seed=st.integers(0, 2**32 - 1),
    n_cities=st.integers(2, 6),
    alpha=st.sampled_from([0.2, 0.05, 0.01, 0.001]),
    bonferroni=st.booleans(),
    node_set=st.sampled_from(["from dyads", "with an extra city"]),
)
@settings(max_examples=200, deadline=None)
def test_build_graph_matches_per_pair_loop(seed, n_cities, alpha, bonferroni, node_set):
    rng = np.random.default_rng(seed)
    cities = [f"c{k}" for k in range(n_cities)]
    dyads = random_dyads(rng, cities)
    nodes = {"from dyads": None, "with an extra city": cities + ["zz"]}[node_set]
    got = build_from(dyads, alpha=alpha, bonferroni=bonferroni, cities=nodes)
    assert got == per_pair_build_graph(dyads, alpha=alpha, bonferroni=bonferroni, nodes=nodes)
    by_pair = {(d.follower_candidate, d.leader_candidate): d for d in dyads}
    for (f, l), fwd in by_pair.items():
        if (l, f) in by_pair:
            want = per_pair_accept_edge(fwd, by_pair[(l, f)], alpha)
            got = build_from([fwd, by_pair[(l, f)]], alpha).edges
            assert got == (() if want is None else (want,))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sample_is_value_error(bad):
    values = steady(0.2)
    values[3] = bad
    broken = dyad("a", "b", values)
    for other in ([], [dyad("b", "a", steady(0.1))], [dyad("b", "a", [0.2] * 30)]):
        with pytest.raises(ValueError, match="finite"):
            build_from([broken, *other])


def test_single_sample_is_value_error():
    with pytest.raises(ValueError, match="at least 2 samples"):
        build_from([dyad("a", "b", [0.3])])


def test_constant_sample_is_flat_even_when_its_mean_rounds():
    # The mean of three 0.1s is not 0.1 in floating point, so a variance
    # taken around it is not 0; the samples are still constant.
    assert math.fsum([0.1] * 3) / 3 != 0.1
    assert build_from([dyad("a", "b", [0.1] * 3)]).edges == ()
    assert build_from([dyad("a", "b", [0.1] * 3), dyad("b", "a", steady(0.2))]).edges == ()


def test_contest_over_a_flat_difference_draws_no_edge():
    # Both directions vary, so both pass the screen, but on their 30 shared
    # weeks they hold 0.7 and 0.6: every paired difference is the same float.
    fwd = dyad("a", "b", [0.72, 0.68, 0.71, 0.69, 0.7] + [0.7] * 30, weeks=range(35))
    bwd = dyad("b", "a", [0.6] * 30 + [0.62, 0.58, 0.61, 0.59, 0.6], weeks=range(5, 40))
    assert survives_screen(fwd, 0.01) and survives_screen(bwd, 0.01)
    assert build_from([fwd, bwd]).edges == ()
    assert per_pair_build_graph([fwd, bwd]).edges == ()


def test_graph_validates_edges():
    with pytest.raises(ValueError, match="self-loop"):
        LeadershipGraph(("a",), (Edge("a", "a", 0.1, 1),))
    with pytest.raises(ValueError, match="unknown node"):
        LeadershipGraph(("a",), (Edge("a", "b", 0.1, 1),))


def test_graph_rejects_repeated_nodes_and_edges():
    # A repeated node would take two shares of PageRank and two DOT lines;
    # a repeated edge would be merged silently.
    with pytest.raises(ValueError, match="^node 'a' appears twice$"):
        LeadershipGraph(("a", "b", "a"), ())
    twice = (Edge("b", "a", 0.1, 1), Edge("b", "a", 0.2, 2))
    with pytest.raises(ValueError, match="^edge 'b'->'a' appears twice$"):
        LeadershipGraph(("a", "b"), twice)
    LeadershipGraph(("a", "b"), (Edge("b", "a", 0.1, 1), Edge("a", "b", 0.2, 2)))


def test_graph_keeps_name_order_whatever_it_is_given():
    edges = (Edge("b", "c", 0.1, 1), Edge("a", "c", 0.2, 2), Edge("b", "a", 0.3, 1))
    graph = LeadershipGraph(("c", "a", "b"), edges)
    assert graph.nodes == ("a", "b", "c")
    assert graph.edges == (edges[1], edges[2], edges[0])
    assert LeadershipGraph(("b", "c", "a"), edges[::-1]) == graph


def test_graph_finds_an_edge_repeated_apart():
    twice = (Edge("b", "a", 0.1, 1), Edge("a", "b", 0.2, 2), Edge("b", "a", 0.3, 3))
    with pytest.raises(ValueError, match="^edge 'b'->'a' appears twice$"):
        LeadershipGraph(("a", "b"), twice)


def reordered(graph, rng):
    """`graph` given its nodes and its edges in a random order."""
    nodes = tuple(rng.permutation(graph.nodes).tolist())
    return LeadershipGraph(nodes, tuple(graph.edges[i] for i in rng.permutation(len(graph.edges))))


def graph_from(n, weighted_edges):
    nodes = tuple(f"n{i}" for i in range(n))
    edges = tuple(
        Edge(f"n{u}", f"n{v}", float(w), 1) for u, v, w in weighted_edges
    )
    return LeadershipGraph(nodes, edges)


def test_fas_on_dag_is_zero():
    graph = graph_from(4, [(0, 1, 0.5), (0, 2, 0.3), (1, 3, 0.2), (2, 3, 0.4)])
    report = feedback_arc_set(graph)
    assert report.fas_weight == 0.0
    assert report.percent_removed == 0.0
    assert report.removed_edges == ()
    assert report.exact


def test_fas_two_cycle_removes_lighter_edge():
    graph = graph_from(2, [(0, 1, 3.0), (1, 0, 1.0)])
    report = feedback_arc_set(graph)
    assert report.fas_weight == 1.0
    assert report.percent_removed == pytest.approx(25.0)
    assert [e.weight for e in report.removed_edges] == [1.0]


def test_fas_empty_graph():
    report = feedback_arc_set(LeadershipGraph(("a", "b"), ()))
    assert report.percent_removed == 0.0
    assert report.total_weight == 0.0


def test_fas_matches_bruteforce_on_small_graphs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 13))
        seen = set()
        weighted = []
        for _ in range(m):
            u, v = rng.integers(0, n, size=2)
            if u == v or (u, v) in seen or (v, u) in seen and rng.random() < 0.0:
                continue
            if (u, v) in seen:
                continue
            seen.add((u, v))
            weighted.append((int(u), int(v), float(np.round(rng.uniform(0.01, 1.0), 3))))
        graph = graph_from(n, weighted)
        report = feedback_arc_set(graph)
        want = brute_force_fas_weight(n, weighted)
        assert report.fas_weight == pytest.approx(want, abs=1e-9)
        assert report.exact


def test_fas_removal_leaves_acyclic_graph():
    rng = np.random.default_rng(23)
    n = 7
    weighted = [
        (int(u), int(v), float(rng.uniform(0.01, 1)))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.4
    ]
    graph = graph_from(n, weighted)
    report = feedback_arc_set(graph)
    removed = {(e.follower, e.leader) for e in report.removed_edges}
    kept = [
        (int(e.follower[1:]), int(e.leader[1:]))
        for e in graph.edges
        if (e.follower, e.leader) not in removed
    ]
    assert _is_acyclic(n, kept)


def test_fas_large_single_component_uses_heuristic():
    n = 24
    weighted = [(i, (i + 1) % n, 1.0) for i in range(n)]
    weighted += [(i, (i + 7) % n, 0.05) for i in range(n)]
    graph = graph_from(n, weighted)
    report = feedback_arc_set(graph)
    assert not report.exact
    assert report.fas_weight > 0
    removed = {(e.follower, e.leader) for e in report.removed_edges}
    kept = [
        (int(e.follower[1:]), int(e.leader[1:]))
        for e in graph.edges
        if (e.follower, e.leader) not in removed
    ]
    assert _is_acyclic(n, kept)
    # One wrap-around heavy edge plus one light chord is the obvious floor.
    assert report.percent_removed < 50.0

    # Random strongly connected digraphs: a Hamiltonian cycle plus chords.
    rng = np.random.default_rng(20)
    for n in range(21, 29):
        cycle = rng.permutation(n)
        pairs = {(int(cycle[i]), int(cycle[(i + 1) % n])) for i in range(n)}
        while len(pairs) < 3 * n:
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            pairs.add((u, v))
        weighted = [(u, v, rng.uniform(0.01, 1.0)) for u, v in sorted(pairs)]
        graph = graph_from(n, weighted)
        report = feedback_arc_set(graph)
        assert not report.exact
        removed = set(report.removed_edges)
        kept = [
            (int(e.follower[1:]), int(e.leader[1:]))
            for e in graph.edges
            if e not in removed
        ]
        assert _is_acyclic(n, kept)
        assert report.fas_weight == math.fsum(e.weight for e in report.removed_edges)


def test_fas_decomposes_by_component():
    # Two disjoint 2-cycles and a bridge; only cycle-internal edges count.
    weighted = [(0, 1, 2.0), (1, 0, 1.0), (2, 3, 5.0), (3, 2, 0.5), (1, 2, 9.0)]
    report = feedback_arc_set(graph_from(4, weighted))
    assert report.fas_weight == pytest.approx(1.5)
    assert report.exact



@st.composite
def digraphs(draw):
    """0-60 nodes as a boolean matrix: random arcs, either only those that go
    up a hidden order (a DAG) or those plus 2-cycles and one long cycle."""
    n = draw(st.integers(0, 60))
    linked = np.zeros((n, n), dtype=bool)
    if n < 2:
        return linked
    node = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if draw(st.booleans()):
        rank = draw(st.permutations(range(n)))
        arcs = [(u, v) for u, v in arcs if rank[u] < rank[v]]
    else:
        pairs = draw(st.lists(st.tuples(node, node), max_size=n // 4))
        ring = draw(st.lists(node, unique=True, max_size=n))
        arcs += pairs + [(v, u) for u, v in pairs] + list(zip(ring, ring[1:] + ring[:1]))
    for u, v in arcs:
        linked[u, v] = u != v
    return linked


def partition(labels):
    return sorted(np.flatnonzero(labels == x).tolist() for x in set(labels.tolist()))


@given(linked=digraphs())
@settings(max_examples=300, deadline=None)
def test_strong_components_match_csgraph(linked):
    n = len(linked)
    pairs = list(zip(*np.nonzero(linked)))
    labels = _strong_components(linked)
    count, oracle = strong_components(n, pairs)
    assert partition(labels) == partition(oracle)
    # Labels name each component by its lowest member.
    assert (labels <= np.arange(n)).all()
    singletons = bool((labels == np.arange(n)).all())
    assert singletons == (count == n) == _is_acyclic(n, pairs)


def tied_weights(seed, n, density):
    """Weights from a palette of three values, so equal sums are common."""
    rng = np.random.default_rng(seed)
    palette = rng.choice([0.1, 0.25, 0.5, 1.0, float(rng.uniform(0.01, 1.0))], size=3)
    w = np.where(rng.random((n, n)) < density, rng.choice(palette, size=(n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    return w


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(21, 45),
    density=st.sampled_from([0.05, 0.15, 0.4]),
)
@settings(max_examples=60, deadline=None)
def test_greedy_order_matches_scalar_oracle(seed, n, density):
    w = tied_weights(seed, n, density)
    assert _greedy_fas_order(w) == scalar_greedy_fas_order(w)


def planted_order_weights(seed):
    """8 to 14 nodes in a hidden order; each pair is linked with probability
    0.35, and a quarter of the links point against the order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 15))
    rank = rng.permutation(n)
    w = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if rank[u] < rank[v] and rng.random() < 0.35:
                a, b = (v, u) if rng.random() < 0.25 else (u, v)
                w[a, b] = rng.uniform(0.05, 1.0)
    return w


def backward_weight(w, order):
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    return w[position[:, None] > position].sum()


def test_greedy_order_is_near_the_exact_minimum():
    # Measured over these 60 graphs: mean ratio 1.015 with the largest
    # out - in weight at the head (Eades, Lin & Smyth), 1.140 with the
    # largest in - out there.
    ratios = []
    for seed in range(60):
        w = planted_order_weights(seed)
        best = backward_weight(w, _exact_min_fas_order(w))
        ratios.append(backward_weight(w, _greedy_fas_order(w)) / best if best > 0 else 1.0)
    assert np.mean(ratios) < 1.05


@given(
    seed=st.integers(0, 2**32 - 1),
    ring_size=st.integers(0, 30),
    others=st.integers(0, 12),
    chords=st.integers(0, 60),
)
@settings(max_examples=40, deadline=None)
def test_fas_matches_per_component_oracle_on_unsorted_nodes(seed, ring_size, others, chords):
    # A ring of more than 20 nodes takes the heuristic; the nodes off it
    # form components small enough for the subset DP.
    rng = np.random.default_rng(seed)
    n = ring_size + others
    ring = list(range(ring_size))
    pairs = set(zip(ring, ring[1:] + ring[:1])) if ring_size > 1 else set()
    if n > 1:
        for _ in range(chords):
            pool = ring if ring_size > 1 and rng.random() < 0.5 else range(ring_size, n)
            if len(pool) > 1:
                u, v = (int(x) for x in rng.choice(pool, size=2, replace=False))
                pairs.add((u, v))
    weighted = [(u, v, float(rng.choice([0.25, 0.5, rng.uniform(0.01, 1.0)]))) for u, v in pairs]
    graph = graph_from(n, weighted)
    shuffled = reordered(graph, rng)
    report = feedback_arc_set(shuffled)
    assert report == per_component_fas(shuffled)
    assert report == feedback_arc_set(graph)


def test_pagerank_single_edge_ranks_leader_higher():
    graph = graph_from(2, [(0, 1, 0.7)])
    report = pagerank(graph)
    assert report.pagerank["n1"] > report.pagerank["n0"]
    assert sum(report.pagerank.values()) == pytest.approx(1.0, abs=1e-10)
    assert report.weighted_in_degree == {"n0": 0.0, "n1": 0.7}


def test_pagerank_symmetric_two_cycle_is_even():
    graph = graph_from(2, [(0, 1, 0.4), (1, 0, 0.4)])
    report = pagerank(graph)
    assert report.pagerank["n0"] == pytest.approx(0.5, abs=1e-12)
    assert report.pagerank["n1"] == pytest.approx(0.5, abs=1e-12)


def test_pagerank_matches_dense_oracle_four_nodes():
    weighted = [(0, 1, 0.3), (1, 2, 0.5), (2, 0, 0.2), (0, 3, 0.4), (3, 2, 0.9)]
    graph = graph_from(4, weighted)
    report = pagerank(graph)
    oracle = dense_pagerank(
        [f"n{i}" for i in range(4)], [(f"n{u}", f"n{v}", w) for u, v, w in weighted]
    )
    for city, rank in oracle.items():
        assert report.pagerank[city] == pytest.approx(rank, abs=1e-10)


def test_pagerank_handles_dangling_nodes():
    graph = graph_from(3, [(0, 2, 1.0), (1, 2, 0.5)])
    report = pagerank(graph)
    assert sum(report.pagerank.values()) == pytest.approx(1.0, abs=1e-10)
    assert min(report.pagerank.values()) > 0


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 30),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
)
@settings(max_examples=200, deadline=None)
def test_pagerank_matches_csr_oracle_exactly(seed, n, density):
    """Bit for bit, on graphs with dangling and isolated nodes, in any edge order."""
    rng = np.random.default_rng(seed)
    w = np.where(rng.random((n, n)) < density, rng.uniform(0.01, 1.0, size=(n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    weighted = [(u, v, w[u, v]) for u, v in zip(*np.nonzero(w))]
    graph = graph_from(n, [weighted[i] for i in rng.permutation(len(weighted))])
    shuffled = reordered(graph, rng)
    assert pagerank(shuffled) == csr_pagerank(shuffled) == pagerank(graph)


def test_pagerank_ignores_edge_insertion_order():
    weighted = [(0, 1, 0.3), (1, 2, 0.5), (2, 0, 0.2)]
    a = pagerank(graph_from(3, weighted))
    b = pagerank(graph_from(3, list(reversed(weighted))))
    assert a.pagerank == b.pagerank


def test_size_leadership_perfect_agreement():
    # A chain gives strictly increasing pageranks toward the sink.
    graph = graph_from(3, [(0, 1, 0.5), (1, 2, 0.3)])
    cent = pagerank(graph)
    ranked = sorted(cent.pagerank, key=cent.pagerank.get)
    populations = {city: 1000 * (i + 1) for i, city in enumerate(ranked)}
    report = size_leadership(graph, cent, populations)
    assert report.spearman_pagerank == pytest.approx(1.0, abs=1e-12)


def test_size_leadership_small_to_large_percent():
    graph = graph_from(3, [(0, 1, 0.5), (1, 2, 0.25)])
    cent = pagerank(graph)
    populations = {"n0": 100, "n1": 200, "n2": 300}
    report = size_leadership(graph, cent, populations)
    assert report.percent_weight_larger_leads == pytest.approx(100.0)
    reversed_pops = {"n0": 300, "n1": 200, "n2": 100}
    report2 = size_leadership(graph, cent, reversed_pops)
    assert report2.percent_weight_larger_leads == pytest.approx(0.0)


def test_size_leadership_warns_and_excludes_unknown_cities():
    graph = graph_from(3, [(0, 1, 0.5), (1, 2, 0.25)])
    cent = pagerank(graph)
    populations = {"n0": 100, "n1": 200}
    with pytest.warns(UserWarning, match="n2"):
        report = size_leadership(graph, cent, populations)
    assert report.cities_used == ("n0", "n1")
    # Only the n0->n1 edge has both endpoints known.
    assert report.percent_weight_larger_leads == pytest.approx(100.0)


def test_size_leadership_constant_population_undefined():
    graph = graph_from(2, [(0, 1, 0.5)])
    cent = pagerank(graph)
    with pytest.raises(UndefinedCorrelationError):
        size_leadership(graph, cent, {"n0": 5, "n1": 5})


def test_size_leadership_monotone_population_invariance():
    graph = graph_from(4, [(0, 1, 0.5), (2, 1, 0.2), (3, 2, 0.4)])
    cent = pagerank(graph)
    pops = {"n0": 120, "n1": 560, "n2": 340, "n3": 90}
    base = size_leadership(graph, cent, pops)
    squared = size_leadership(graph, cent, {c: p * p for c, p in pops.items()})
    assert squared == base
