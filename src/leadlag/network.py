"""Leader-follower graph assembly and structure analysis.

An edge points follower to leader and carries the lagged correlation as
its weight. Acceptance runs in two steps per unordered city pair: each
direction must have a significantly positive mean dot product, and when
both directions qualify a paired test must separate them, the larger
correlation winning; each step is one t-test call over all pairs.
Analyses cover minimum feedback arc set weight, weighted PageRank and the
relation of centrality to city population.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .lagcorr import Dyads
from .stats import (
    UndefinedCorrelationError,
    grouped_ttest,
    one_sample_ttest,  # unused here; the benchmark's tracer wraps this name
    paired_ttest,
    spearman,
)

DEFAULT_ALPHA = 0.01
EXACT_FAS_MAX_NODES = 20
_REINSERTION_PASSES = 50
_PAGERANK_DAMPING = 0.85
_PAGERANK_TOL = 1e-12
_PAGERANK_MAX_ITER = 100_000


@dataclass(frozen=True)
class Edge:
    follower: str
    leader: str
    weight: float
    lag_weeks: int


@dataclass(frozen=True)
class LeadershipGraph:
    """Nodes sorted by name and edges by (follower, leader), whatever order
    they are given in, so every analysis and export reads one order."""

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        by_ends = sorted(self.edges, key=lambda e: (e.follower, e.leader))
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(by_ends))
        for before, v in zip(self.nodes, self.nodes[1:]):
            if before == v:
                raise ValueError(f"node {v!r} appears twice")
        known = set(self.nodes)
        pairs = [(e.follower, e.leader) for e in self.edges]
        for before, (follower, leader) in zip([None, *pairs], pairs):
            if before == (follower, leader):
                raise ValueError(f"edge {follower!r}->{leader!r} appears twice")
            if follower == leader:
                raise ValueError(f"self-loop on {follower!r}")
            if follower not in known or leader not in known:
                raise ValueError(f"edge {follower!r}->{leader!r} references unknown node")

    def total_weight(self) -> float:
        return math.fsum(e.weight for e in self.edges)


@dataclass(frozen=True)
class CentralityReport:
    pagerank: Mapping[str, float]
    weighted_in_degree: Mapping[str, float]


@dataclass(frozen=True)
class AcyclicityReport:
    total_weight: float
    fas_weight: float
    percent_removed: float
    removed_edges: tuple[Edge, ...]
    exact: bool


@dataclass(frozen=True)
class SizeLeadershipReport:
    spearman_pagerank: float
    spearman_indegree: float
    percent_weight_larger_leads: float
    cities_used: tuple[str, ...]


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _decide(dyads: Dyads, alpha: float) -> list[Edge]:
    """Edges over every pair of the table's cities with a scored dyad.

    A dyad passes the screen when its samples' mean is significantly
    nonzero at alpha, its correlation positive and its sample not flat. A
    pair with one scored orientation is decided by the screen alone; a pair
    with both draws no edge if either is flat. When both pass, a paired
    test over the (at least 2) weeks both have a sample must separate them,
    by differences that are not flat, and the larger correlation wins.
    """
    if not len(dyads):
        return []
    n_nodes = len(dyads.cities)
    sizes, values, correlation = dyads.sizes, dyads.values, dyads.correlation
    _, p_value, flat = grouped_ttest(values, sizes)
    passes = (p_value < alpha) & (correlation > 0)  # a flat dyad has p = 1

    # Each pair with both orientations once, as (first, second) row indexes;
    # a row's code leader * n_nodes + follower increases down the table.
    code = dyads.leader * n_nodes + dyads.follower
    reverse = dyads.follower * n_nodes + dyads.leader
    mate = np.minimum(np.searchsorted(code, reverse), len(code) - 1)
    mate[code[mate] != reverse] = -1
    first = np.flatnonzero(np.arange(len(code)) < mate)
    second = mate[first]
    live = ~(flat[first] | flat[second])
    one_sided = live & (passes[first] != passes[second])
    fwd, bwd = (side[live & passes[first] & passes[second]] for side in (first, second))

    # Contest c pairs rows fwd[c] and bwd[c]; a (c, week) key marks each sample.
    starts = np.cumsum(sizes) - sizes
    weeks = dyads.weeks - dyads.weeks.min()
    stride = weeks.max() + 1

    def keyed(side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = sizes[side]
        at = np.arange(n.sum()) + np.repeat(starts[side] - (np.cumsum(n) - n), n)
        return at, np.repeat(np.arange(len(side)), n) * stride + weeks[at]

    (f_at, f_key), (b_at, b_key) = keyed(fwd), keyed(bwd)
    shared, fi, bi = np.intersect1d(f_key, b_key, assume_unique=True, return_indices=True)
    owner = shared // stride
    counts = np.bincount(owner, minlength=len(fwd))
    enough = counts >= 2
    kept = enough[owner]
    contest = paired_ttest(values[f_at[fi[kept]]], values[b_at[bi[kept]]], counts[enough])
    decided = np.flatnonzero(enough)[contest.reject_at(alpha)]
    f, b = fwd[decided], bwd[decided]

    winners = np.concatenate([
        np.flatnonzero(passes & (mate < 0)),
        np.where(passes[first], first, second)[one_sided],
        np.where(correlation[f] > correlation[b], f, b)[correlation[f] != correlation[b]],
    ])
    columns = (dyads.follower, dyads.leader, correlation, dyads.lag)
    names = dyads.cities
    rows = zip(*(x[winners].tolist() for x in columns))
    return [Edge(names[follower], names[leader], *rest) for follower, leader, *rest in rows]


def build_graph(
    dyads: Dyads, alpha: float = DEFAULT_ALPHA, bonferroni: bool = False
) -> LeadershipGraph:
    """Run edge acceptance over every unordered pair with scored dyads; the
    graph's nodes are the table's cities.

    A pair with only one scored orientation is decided by the screen
    alone. With bonferroni=True the level is divided by the number of
    ordered pairs of cities.
    """
    _check_alpha(alpha)
    n = len(dyads.cities)
    level = alpha / (n * (n - 1)) if bonferroni and n > 1 else alpha
    return LeadershipGraph(nodes=dyads.cities, edges=tuple(_decide(dyads, level)))


def _exact_min_fas_order(w: np.ndarray) -> list[int]:
    """Optimal vertex order minimizing backward edge weight, by subset DP.

    dp[S] is the cheapest cost of arranging exactly the vertices of S as
    a prefix; appending v to prefix S pays for every edge from v into S.
    """
    n = w.shape[0]
    size = 1 << n
    lo_bits = n // 2
    lo_mask = (1 << lo_bits) - 1

    sum_lo = np.zeros((n, 1 << lo_bits))
    sum_hi = np.zeros((n, 1 << (n - lo_bits)))
    for v in range(n):
        for s in range(1, 1 << lo_bits):
            low = s & -s
            sum_lo[v, s] = sum_lo[v, s ^ low] + w[v, low.bit_length() - 1]
        for s in range(1, 1 << (n - lo_bits)):
            low = s & -s
            sum_hi[v, s] = sum_hi[v, s ^ low] + w[v, low.bit_length() - 1 + lo_bits]

    dp = np.full(size, np.inf)
    dp[0] = 0.0
    all_sets = np.arange(size, dtype=np.int64)
    pop = np.zeros(size, dtype=np.int64)
    shifted = all_sets.copy()
    for _ in range(n):
        pop += shifted & 1
        shifted >>= 1
    by_level = np.argsort(pop, kind="stable")
    bounds = np.searchsorted(pop[by_level], np.arange(n + 1))

    for k in range(n):
        level_sets = by_level[bounds[k] : bounds[k + 1]]
        base = dp[level_sets]
        for v in range(n):
            bit = 1 << v
            free = (level_sets & bit) == 0
            src = level_sets[free]
            cand = base[free] + sum_lo[v, src & lo_mask] + sum_hi[v, src >> lo_bits]
            np.minimum.at(dp, src | bit, cand)

    order_rev: list[int] = []
    s = size - 1
    while s:
        for v in range(n):
            bit = 1 << v
            if not s & bit:
                continue
            prev = s ^ bit
            cost = sum_lo[v, prev & lo_mask] + sum_hi[v, prev >> lo_bits]
            if abs(dp[s] - (dp[prev] + cost)) <= 1e-9 * max(1.0, abs(dp[s])):
                order_rev.append(v)
                s = prev
                break
        else:
            raise ArithmeticError("subset DP backtrack failed")
    return list(reversed(order_rev))


def _greedy_fas_order(w: np.ndarray) -> list[int]:
    """Sink/source peeling plus best-position reinsertion sweeps.

    Every weight sum adds its terms one at a time in index order (np.cumsum
    does, np.sum does not), so the order never depends on how numpy groups
    a sum.
    """
    n = w.shape[0]
    linked = w != 0
    alive = np.ones(n, dtype=bool)
    head: list[int] = []
    tail: list[int] = []
    while alive.any():
        moved = True
        while moved:
            sinks = np.flatnonzero(alive & ~(linked & alive).any(axis=1))
            if len(sinks):
                tail.insert(0, int(sinks[0]))
                alive[sinks[0]] = False
            sources = np.flatnonzero(alive & ~(linked & alive[:, None]).any(axis=0))
            if len(sources):
                head.append(int(sources[0]))
                alive[sources[0]] = False
            moved = len(sinks) > 0 or len(sources) > 0
        if alive.any():
            live = np.flatnonzero(alive)
            block = w[np.ix_(live, live)]
            # Eades, Lin & Smyth: the node with the largest out - in weight
            # goes to the head, so its out-edges run forward.
            gain = np.cumsum(block, axis=1)[:, -1] - np.cumsum(block, axis=0)[-1]
            best = int(live[np.argmax(gain)])
            head.append(best)
            alive[best] = False
    order = head + tail

    for _ in range(_REINSERTION_PASSES):
        improved = False
        for v in range(n):
            rest = [u for u in order if u != v]
            into, out = w[rest, v], w[v, rest]
            # costs[k], v placed before rest[k]: edges from the suffix into v
            # and from v into the prefix are backward.
            costs = np.cumsum(np.concatenate(([0.0], into, out - into)))[n - 1 :]
            k = int(np.argmin(costs))
            # Edges not touching v keep their direction, so the change in
            # backward weight is the change in v's own cost.
            if costs[k] < costs[order.index(v)] - 1e-15:
                order = rest[:k] + [v] + rest[k:]
                improved = True
        if not improved:
            break
    return order


def _strong_components(linked: np.ndarray) -> np.ndarray:
    """Each node's strongly connected component, named by its lowest index.

    Reachability is closed by squaring `linked` plus the identity until it
    stops growing; two nodes share a component when each reaches the other.
    """
    if not len(linked):
        return np.zeros(0, dtype=np.int64)
    reach = linked | np.eye(len(linked), dtype=bool)
    while True:
        step = reach.astype(np.float32)
        closed = step @ step > 0
        if (closed == reach).all():
            return (reach & reach.T).argmax(axis=1)
        reach = closed


def feedback_arc_set(graph: LeadershipGraph) -> AcyclicityReport:
    """Minimum-weight edge set whose removal leaves the graph acyclic.

    The graph splits into strongly connected components first; cycles
    never cross components. Components up to EXACT_FAS_MAX_NODES nodes are
    solved exactly by subset DP, larger ones by a peeling heuristic with
    reinsertion sweeps, and the report says which kind of answer it is.
    The removed set is re-verified acyclic on every call.
    """
    total = graph.total_weight()
    if not graph.edges:
        return AcyclicityReport(0.0, 0.0, 0.0, (), True)

    # Each component's block lists its members in name order, as the graph does.
    index = {c: i for i, c in enumerate(graph.nodes)}
    n = len(index)
    ends = tuple(np.array([(index[e.follower], index[e.leader]) for e in graph.edges]).T)
    w = np.zeros((n, n))
    np.add.at(w, ends, [e.weight for e in graph.edges])
    linked = np.zeros((n, n), dtype=bool)
    linked[ends] = True
    labels = _strong_components(linked)

    position = np.zeros(n, dtype=np.int64)
    exact = True
    for label in np.flatnonzero(np.bincount(labels, minlength=n) > 1):
        members = np.flatnonzero(labels == label)
        block = w[np.ix_(members, members)]
        if len(members) <= EXACT_FAS_MAX_NODES:
            order = _exact_min_fas_order(block)
        else:
            order = _greedy_fas_order(block)
            exact = False
        position[members[order]] = np.arange(len(members))
    backward = (labels[:, None] == labels) & (position[:, None] > position)

    hit = backward[ends].tolist()
    removed = tuple(e for e, back in zip(graph.edges, hit) if back)
    fas_weight = math.fsum(e.weight for e in removed)
    # Without self-loops a digraph is acyclic iff every node is its own
    # strongly connected component.
    if (_strong_components(linked & ~backward) != np.arange(n)).any():
        raise RuntimeError("feedback arc set removal left a cycle")
    percent = 100.0 * fas_weight / total if total > 0 else 0.0
    return AcyclicityReport(
        total_weight=total,
        fas_weight=fas_weight,
        percent_removed=percent,
        removed_edges=removed,
        exact=exact,
    )


def pagerank(graph: LeadershipGraph) -> CentralityReport:
    """Weighted PageRank by power iteration, follower endorsing leader.

    Each node splits its rank over outgoing edges in proportion to their
    weights; nodes with no outgoing edge spread theirs uniformly, as does
    the teleport term. The damping factor is 0.85. Each leader sums what its
    followers pass it, and its in-degree, in the graph's ascending follower order.
    """
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return CentralityReport(pagerank={}, weighted_in_degree={})

    index = {c: i for i, c in enumerate(nodes)}
    follower = np.array([index[e.follower] for e in graph.edges], dtype=np.int64)
    leader = np.array([index[e.leader] for e in graph.edges], dtype=np.int64)
    weight = np.array([e.weight for e in graph.edges], dtype=np.float64)
    in_degree = np.bincount(leader, weight, minlength=n)
    out_weight = np.bincount(follower, weight, minlength=n)
    share = weight / out_weight[follower]
    dangling = out_weight == 0

    x = np.full(n, 1.0 / n)
    for _ in range(_PAGERANK_MAX_ITER):
        spread = np.bincount(leader, share * x[follower], minlength=n) + x[dangling].sum() / n
        nxt = _PAGERANK_DAMPING * spread + (1.0 - _PAGERANK_DAMPING) / n
        if np.abs(nxt - x).sum() < _PAGERANK_TOL:
            x = nxt
            break
        x = nxt
    else:
        raise ArithmeticError(f"pagerank failed to converge within {_PAGERANK_MAX_ITER} iterations")

    return CentralityReport(
        pagerank=dict(zip(nodes, x.tolist())),
        weighted_in_degree=dict(zip(nodes, in_degree.tolist())),
    )


def size_leadership(
    graph: LeadershipGraph,
    centrality: CentralityReport,
    populations: Mapping[str, int],
) -> SizeLeadershipReport:
    """Relate centrality to city population over nodes with known sizes.

    Nodes without a population are excluded (with a warning); edges are
    counted toward the larger-leads percentage only when both endpoints
    have populations.
    """
    missing = [v for v in graph.nodes if v not in populations]
    if missing:
        warnings.warn(
            f"no population for {', '.join(missing)}; excluded from size analysis",
            stacklevel=2,
        )
    used = tuple(v for v in graph.nodes if v in populations)
    pops = [float(populations[v]) for v in used]
    for v, p in zip(used, pops):
        if p <= 0:
            raise ValueError(f"population of {v!r} must be positive, got {p}")

    try:
        sp_pr = spearman(pops, [centrality.pagerank[v] for v in used])
        sp_in = spearman(pops, [centrality.weighted_in_degree[v] for v in used])
    except UndefinedCorrelationError:
        raise UndefinedCorrelationError(
            "population or centrality is constant over the usable cities"
        ) from None

    counted = 0.0
    larger_leads = 0.0
    for e in graph.edges:
        if e.follower not in populations or e.leader not in populations:
            continue
        counted += e.weight
        if populations[e.leader] > populations[e.follower]:
            larger_leads += e.weight
    percent = 100.0 * larger_leads / counted if counted > 0 else 0.0
    return SizeLeadershipReport(
        spearman_pagerank=sp_pr.rho,
        spearman_indegree=sp_in.rho,
        percent_weight_larger_leads=percent,
        cities_used=used,
    )
