from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.lagcorr import DyadResult
from leadlag.network import (
    Edge,
    LeadershipGraph,
    accept_edge,
    build_graph,
    feedback_arc_set,
    pagerank,
    size_leadership,
)
from leadlag.stats import UndefinedCorrelationError

from oracles import (
    _is_acyclic,
    brute_force_fas_weight,
    dense_pagerank,
    per_pair_accept_edge,
    per_pair_build_graph,
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
        weeks=list(weeks),
        values=values,
    )


def steady(mean, n=30, wobble=0.01):
    return [mean + (wobble if i % 2 else -wobble) for i in range(n)]


def test_no_survivor_means_no_edge():
    fwd = dyad("a", "b", steady(0.0))
    bwd = dyad("b", "a", steady(0.0))
    assert accept_edge(fwd, bwd) is None


def test_single_survivor_wins_directly():
    fwd = dyad("a", "b", steady(0.2), lag=3)
    bwd = dyad("b", "a", steady(-0.2))
    edge = accept_edge(fwd, bwd)
    assert edge == Edge(follower="a", leader="b", weight=fwd.correlation, lag_weeks=3)


def test_significant_negative_mean_is_not_leadership():
    fwd = dyad("a", "b", steady(-0.3))
    bwd = dyad("b", "a", steady(-0.3))
    assert accept_edge(fwd, bwd) is None


def test_paired_contest_picks_larger_correlation():
    fwd = dyad("a", "b", steady(0.30))
    bwd = dyad("b", "a", steady(0.10))
    edge = accept_edge(fwd, bwd)
    assert edge is not None
    assert (edge.follower, edge.leader) == ("a", "b")
    assert edge.weight == fwd.correlation


def test_indistinguishable_directions_move_together():
    # Same mean and symmetric differences: the paired test cannot separate them.
    fwd = dyad("a", "b", steady(0.2, wobble=0.01))
    bwd = dyad("b", "a", steady(0.2, wobble=0.02))
    assert accept_edge(fwd, bwd) is None


def test_degenerate_samples_yield_no_edge():
    fwd = dyad("a", "b", [0.2] * 30)
    bwd = dyad("b", "a", steady(0.1))
    assert accept_edge(fwd, bwd) is None


def test_equal_correlations_yield_no_edge():
    # Forward dominates on the shared weeks but the overall means tie.
    fwd_vals = [0.4] * 20 + [0.21, 0.19] * 10
    bwd_vals = steady(0.3, n=20)
    fwd = dyad("a", "b", fwd_vals, weeks=range(40))
    bwd = dyad("b", "a", bwd_vals, weeks=range(20))
    assert fwd.correlation == pytest.approx(bwd.correlation, abs=1e-12)
    assert accept_edge(fwd, bwd) is None


def test_paired_contest_uses_week_intersection():
    # Backward stream is flat 0.2 on weeks 0..19; forward is higher there
    # and lower on its private weeks 20..39, so pairing must use only the
    # shared weeks for the contest yet full means for the weights.
    fwd = dyad("a", "b", [0.35] * 18 + [0.34, 0.36] + [0.06] * 20, weeks=range(40))
    bwd = dyad("b", "a", steady(0.2, n=20), weeks=range(20))
    assert fwd.correlation > bwd.correlation
    edge = accept_edge(fwd, bwd)
    assert edge is not None
    assert (edge.follower, edge.leader) == ("a", "b")


def test_accept_edge_is_argument_order_invariant():
    cases = [
        (dyad("a", "b", steady(0.3)), dyad("b", "a", steady(0.1))),
        (dyad("a", "b", steady(0.0)), dyad("b", "a", steady(0.0))),
        (dyad("a", "b", steady(-0.2)), dyad("b", "a", steady(0.25))),
    ]
    for fwd, bwd in cases:
        assert accept_edge(fwd, bwd) == accept_edge(bwd, fwd)


def test_accept_edge_rejects_mismatched_pair():
    with pytest.raises(ValueError, match="orientations"):
        accept_edge(dyad("a", "b", steady(0.1)), dyad("a", "c", steady(0.1)))


def test_accept_edge_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        accept_edge(dyad("a", "b", steady(0.1)), dyad("b", "a", steady(0.1)), alpha=0.0)


@pytest.mark.parametrize("alpha", [7.0, 0.0, -1.0, math.nan])
def test_build_graph_rejects_bad_alpha_before_any_pair(alpha):
    # Checked up front: neither an empty scan nor a lone dyad reaches accept_edge.
    for dyads in ([], [dyad("a", "b", steady(0.2))]):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            build_graph(dyads, alpha=alpha)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            build_graph(dyads, alpha=alpha, bonferroni=True)


def test_build_graph_single_city_is_empty():
    graph = build_graph([], nodes=["only"])
    assert graph.nodes == ("only",)
    assert graph.edges == ()


def test_build_graph_one_sided_dyad():
    graph = build_graph([dyad("a", "b", steady(0.2))])
    assert [(e.follower, e.leader) for e in graph.edges] == [("a", "b")]


def test_build_graph_orders_edges_and_nodes():
    dyads = [
        dyad("c", "a", steady(0.2)),
        dyad("a", "c", steady(-0.1)),
        dyad("b", "a", steady(0.3)),
        dyad("a", "b", steady(-0.1)),
    ]
    graph = build_graph(dyads)
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
    plain = build_graph(dyads, alpha=0.01)
    corrected = build_graph(dyads, alpha=0.01, bonferroni=True)
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
    node_set=st.sampled_from(["from dyads", "with an extra city", "without the last city"]),
)
@settings(max_examples=200, deadline=None)
def test_build_graph_matches_per_pair_loop(seed, n_cities, alpha, bonferroni, node_set):
    rng = np.random.default_rng(seed)
    cities = [f"c{k}" for k in range(n_cities)]
    dyads = random_dyads(rng, cities)
    nodes = {
        "from dyads": None,
        "with an extra city": cities + ["zz"],
        "without the last city": cities[:-1],
    }[node_set]
    got = build_graph(dyads, alpha=alpha, bonferroni=bonferroni, nodes=nodes)
    assert got == per_pair_build_graph(dyads, alpha=alpha, bonferroni=bonferroni, nodes=nodes)
    by_pair = {(d.follower_candidate, d.leader_candidate): d for d in dyads}
    for (f, l), fwd in by_pair.items():
        if (l, f) in by_pair:
            assert accept_edge(fwd, by_pair[(l, f)], alpha) == per_pair_accept_edge(
                fwd, by_pair[(l, f)], alpha
            )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_sample_is_value_error(bad):
    values = steady(0.2)
    values[3] = bad
    broken = dyad("a", "b", values)
    for dyads in ([broken], [broken, dyad("b", "a", steady(0.1))]):
        with pytest.raises(ValueError, match="finite"):
            build_graph(dyads)
    with pytest.raises(ValueError, match="finite"):
        accept_edge(broken, dyad("b", "a", [0.2] * 30))


def test_single_sample_is_value_error():
    with pytest.raises(ValueError, match="at least 2 samples"):
        build_graph([dyad("a", "b", [0.3])])


def test_constant_sample_is_flat_even_when_its_mean_rounds():
    # The mean of three 0.1s is not 0.1 in floating point, so a variance
    # taken around it is not 0; the samples are still constant.
    assert math.fsum([0.1] * 3) / 3 != 0.1
    assert build_graph([dyad("a", "b", [0.1] * 3)]).edges == ()
    assert accept_edge(dyad("a", "b", [0.1] * 3), dyad("b", "a", steady(0.2))) is None


def test_graph_validates_edges():
    with pytest.raises(ValueError, match="self-loop"):
        LeadershipGraph(("a",), (Edge("a", "a", 0.1, 1),))
    with pytest.raises(ValueError, match="unknown node"):
        LeadershipGraph(("a",), (Edge("a", "b", 0.1, 1),))


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


def test_pagerank_ignores_edge_insertion_order():
    weighted = [(0, 1, 0.3), (1, 2, 0.5), (2, 0, 0.2)]
    a = pagerank(graph_from(3, weighted))
    b = pagerank(graph_from(3, list(reversed(weighted))))
    assert a.pagerank == b.pagerank


def test_pagerank_validates_damping():
    with pytest.raises(ValueError, match="damping"):
        pagerank(graph_from(2, [(0, 1, 1.0)]), damping=1.0)


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
