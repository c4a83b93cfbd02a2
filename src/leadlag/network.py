"""Leader-follower graph assembly and structure analysis.

An edge points follower to leader and carries the lagged correlation as
its weight. Acceptance runs in two steps per unordered city pair: each
direction must have a significantly positive mean dot product, and when
both directions qualify a paired test must separate them, the larger
correlation winning. Analyses cover minimum feedback arc set weight,
weighted PageRank and the relation of centrality to city population.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .lagcorr import DyadResult
from .stats import (
    DegenerateSampleError,
    UndefinedCorrelationError,
    one_sample_ttest,  # unused here; the benchmark's tracer wraps this name
    paired_ttest,
    spearman,
)

DEFAULT_ALPHA = 0.01
EXACT_FAS_MAX_NODES = 20
_REINSERTION_PASSES = 50
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
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        known = set(self.nodes)
        for e in self.edges:
            if e.follower == e.leader:
                raise ValueError(f"self-loop on {e.follower!r}")
            if e.follower not in known or e.leader not in known:
                raise ValueError(f"edge {e.follower!r}->{e.leader!r} references unknown node")

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


def _screen(dyads: Sequence[DyadResult], alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Step one for every dyad at once: (passes, flat) boolean arrays.

    A dyad passes when the two-sided one-sample t-test rejects a zero mean
    of its samples at alpha and its correlation is positive. A flat dyad
    has zero sample variance, so no t statistic exists; it never passes.
    Raises ValueError for a dyad with fewer than 2 samples or a NaN or
    infinite sample.
    """
    from scipy.special import stdtr  # imported on first use, like stats.t_cdf

    sizes = np.array([len(d.values) for d in dyads], dtype=np.int64)
    if sizes.min() < 2:
        raise ValueError(f"need at least 2 samples, got {sizes.min()}")
    values = np.concatenate([d.values for d in dyads])
    if not np.isfinite(values).all():
        raise ValueError("t-test samples must be finite")
    starts = np.cumsum(sizes) - sizes
    mean = np.add.reduceat(values, starts) / sizes
    deviation = values - np.repeat(mean, sizes)
    ss = np.add.reduceat(deviation * deviation, starts)
    constant = np.minimum.reduceat(values, starts) == np.maximum.reduceat(values, starts)
    flat = constant | (ss <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        statistic = mean / np.sqrt(ss / (sizes - 1) / sizes)
    p_value = 2.0 * stdtr(sizes - 1, -np.abs(statistic))
    positive = np.array([d.correlation for d in dyads]) > 0
    return (p_value < alpha) & positive & ~flat, flat


def _edge(dyad: DyadResult) -> Edge:
    return Edge(dyad.follower_candidate, dyad.leader_candidate, dyad.correlation, dyad.best_lag)


def _contest(forward: DyadResult, backward: DyadResult, alpha: float) -> Edge | None:
    """Step two, for a pair whose both directions pass the screen.

    A paired test over the weeks where both best-lag streams have a sample
    must separate the directions; the larger correlation then wins. A
    non-rejection means the cities move together and no edge is drawn.
    """
    _, fi, bi = np.intersect1d(
        forward.weeks, backward.weeks, assume_unique=True, return_indices=True
    )
    if len(fi) < 2:
        return None
    try:
        contest = paired_ttest(forward.values[fi].tolist(), backward.values[bi].tolist())
    except DegenerateSampleError:
        return None
    if not contest.reject_at(alpha) or forward.correlation == backward.correlation:
        return None
    return _edge(forward if forward.correlation > backward.correlation else backward)


def _decide(
    dyads: Sequence[DyadResult], alpha: float, nodes: Sequence[str]
) -> list[Edge]:
    """Edges over every pair of `nodes` with a scored dyad, sorted.

    A pair with one scored orientation is decided by the screen alone; a
    pair with both draws no edge if either is flat, and goes to the
    paired contest only if both pass.
    """
    known = set(nodes)
    latest = {(d.follower_candidate, d.leader_candidate): d for d in dyads}
    pairs = [p for p in latest if known.issuperset(p)]
    if not pairs:
        return []
    position = {p: i for i, p in enumerate(pairs)}
    dyads = [latest[p] for p in pairs]
    passes, flat = _screen(dyads, alpha)
    edges = []
    for i, d in enumerate(dyads):
        j = position.get((d.leader_candidate, d.follower_candidate))
        if j is None:
            if passes[i]:
                edges.append(_edge(d))
        elif i < j and not (flat[i] or flat[j]) and (passes[i] or passes[j]):
            if passes[i] != passes[j]:
                edges.append(_edge(d if passes[i] else dyads[j]))
            elif (edge := _contest(d, dyads[j], alpha)) is not None:
                edges.append(edge)
    return sorted(edges, key=lambda e: (e.follower, e.leader))


def accept_edge(
    forward: DyadResult, backward: DyadResult, alpha: float = DEFAULT_ALPHA
) -> Edge | None:
    """Decide the edge for one unordered pair, or return None.

    `forward` and `backward` must be the two orientations of the same
    pair; the decision is `build_graph`'s for that pair.
    """
    _check_alpha(alpha)
    same_pair = (
        forward.follower_candidate == backward.leader_candidate
        and forward.leader_candidate == backward.follower_candidate
    )
    if not same_pair:
        raise ValueError("forward and backward must be orientations of one pair")
    pair = (forward.follower_candidate, forward.leader_candidate)
    edges = _decide([forward, backward], alpha, pair)
    return edges[0] if edges else None


def build_graph(
    dyads: Iterable[DyadResult],
    alpha: float = DEFAULT_ALPHA,
    bonferroni: bool = False,
    nodes: Sequence[str] | None = None,
) -> LeadershipGraph:
    """Run edge acceptance over every unordered pair with scored dyads.

    A pair with only one scored orientation is decided by the screen
    alone. With bonferroni=True the level is divided by the number of
    ordered dyads over the node set. Of two dyads of one orientation the
    later counts; dyads naming a city outside `nodes` are ignored.
    """
    _check_alpha(alpha)
    dyads = list(dyads)
    if nodes is None:
        nodes = [c for d in dyads for c in (d.follower_candidate, d.leader_candidate)]
    ordered = tuple(sorted(set(nodes)))
    n = len(ordered)
    level = alpha / (n * (n - 1)) if bonferroni and n > 1 else alpha
    return LeadershipGraph(nodes=ordered, edges=tuple(_decide(dyads, level, ordered)))


def _weight_matrix(nodes: Sequence[str], edges: Iterable[Edge]) -> np.ndarray:
    index = {c: i for i, c in enumerate(nodes)}
    w = np.zeros((len(nodes), len(nodes)))
    for e in edges:
        w[index[e.follower], index[e.leader]] += e.weight
    return w


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
    """Sink/source peeling plus best-position reinsertion sweeps."""
    n = w.shape[0]
    remaining = set(range(n))
    head: list[int] = []
    tail: list[int] = []
    while remaining:
        moved = True
        while moved:
            moved = False
            for v in sorted(remaining):
                if all(w[v, u] == 0 for u in remaining if u != v):
                    tail.insert(0, v)
                    remaining.remove(v)
                    moved = True
                    break
            for v in sorted(remaining):
                if all(w[u, v] == 0 for u in remaining if u != v):
                    head.append(v)
                    remaining.remove(v)
                    moved = True
                    break
        if remaining:
            best = min(
                sorted(remaining),
                key=lambda v: (
                    -(sum(w[u, v] for u in remaining) - sum(w[v, u] for u in remaining)),
                    v,
                ),
            )
            head.append(best)
            remaining.remove(best)
    order = head + tail

    for _ in range(_REINSERTION_PASSES):
        improved = False
        for v in range(n):
            rest = [u for u in order if u != v]
            # cost(k): edges v->prefix are backward, edges suffix->v are backward.
            suffix_in = sum(w[u, v] for u in rest)
            costs = [suffix_in]
            running = suffix_in
            for u in rest:
                running += w[v, u] - w[u, v]
                costs.append(running)
            k = int(np.argmin(costs))
            # Edges not touching v keep their direction, so the change in
            # backward weight is the change in v's own cost.
            if costs[k] < costs[order.index(v)] - 1e-15:
                order = rest[:k] + [v] + rest[k:]
                improved = True
        if not improved:
            break
    return order


def _strong_components(
    graph: LeadershipGraph, edges: Sequence[Edge]
) -> tuple[int, np.ndarray]:
    """Strongly connected components of graph.nodes joined by edges."""
    index = {c: i for i, c in enumerate(graph.nodes)}
    n = len(graph.nodes)
    rows = [index[e.follower] for e in edges]
    cols = [index[e.leader] for e in edges]
    adj = sparse.csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")


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

    n = len(graph.nodes)
    n_comp, labels = _strong_components(graph, graph.edges)

    removed: list[Edge] = []
    exact = True
    for comp in range(n_comp):
        members = [i for i in range(n) if labels[i] == comp]
        if len(members) < 2:
            continue
        member_names = {graph.nodes[i] for i in members}
        comp_edges = [
            e for e in graph.edges
            if e.follower in member_names and e.leader in member_names
        ]
        if not comp_edges:
            continue
        local_nodes = sorted(member_names)
        w = _weight_matrix(local_nodes, comp_edges)
        if len(local_nodes) <= EXACT_FAS_MAX_NODES:
            order = _exact_min_fas_order(w)
        else:
            order = _greedy_fas_order(w)
            exact = False
        pos = {local_nodes[v]: p for p, v in enumerate(order)}
        removed.extend(e for e in comp_edges if pos[e.follower] > pos[e.leader])

    removed.sort(key=lambda e: (e.follower, e.leader))
    removed_set = set(removed)
    fas_weight = math.fsum(e.weight for e in removed)
    kept = [e for e in graph.edges if e not in removed_set]
    # Without self-loops a digraph is acyclic iff every node is its own
    # strongly connected component.
    if _strong_components(graph, kept)[0] != n:
        raise RuntimeError("feedback arc set removal left a cycle")
    percent = 100.0 * fas_weight / total if total > 0 else 0.0
    return AcyclicityReport(
        total_weight=total,
        fas_weight=fas_weight,
        percent_removed=percent,
        removed_edges=tuple(removed),
        exact=exact,
    )


def pagerank(graph: LeadershipGraph, damping: float = 0.85) -> CentralityReport:
    """Weighted PageRank by power iteration, follower endorsing leader.

    Each node splits its rank over outgoing edges in proportion to their
    weights; nodes with no outgoing edge spread theirs uniformly, as does
    the teleport term.
    """
    if not 0 < damping < 1:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    nodes = tuple(sorted(graph.nodes))
    n = len(nodes)
    in_degree = {v: 0.0 for v in nodes}
    for e in graph.edges:
        in_degree[e.leader] += e.weight
    if n == 0:
        return CentralityReport(pagerank={}, weighted_in_degree={})

    index = {c: i for i, c in enumerate(nodes)}
    out_weight = np.zeros(n)
    for e in graph.edges:
        out_weight[index[e.follower]] += e.weight
    rows = [index[e.leader] for e in graph.edges]
    cols = [index[e.follower] for e in graph.edges]
    vals = [e.weight / out_weight[index[e.follower]] for e in graph.edges]
    transfer = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    dangling = out_weight == 0

    x = np.full(n, 1.0 / n)
    for _ in range(_PAGERANK_MAX_ITER):
        spread = transfer.dot(x) + x[dangling].sum() / n
        nxt = damping * spread + (1.0 - damping) / n
        if np.abs(nxt - x).sum() < _PAGERANK_TOL:
            x = nxt
            break
        x = nxt
    else:
        raise ArithmeticError(f"pagerank failed to converge within {_PAGERANK_MAX_ITER} iterations")

    ranks = {c: float(x[index[c]]) for c in nodes}
    return CentralityReport(
        pagerank=ranks,
        weighted_in_degree={v: float(in_degree[v]) for v in nodes},
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
    missing = sorted(v for v in graph.nodes if v not in populations)
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
