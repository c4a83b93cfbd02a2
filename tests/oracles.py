"""Independent reference implementations used only by the test suite.

Each oracle takes a deliberately different route from the library code it
checks: the t CDF integrates the density numerically, the feedback arc set
enumerates edge subsets, PageRank iterates a dense transition matrix built
explicitly, UPGMA recomputes every inter-cluster mean from raw points, and
Spearman ranks with an off-the-shelf routine. The lag scan and the edge
screen are checked against the per-pair code they replaced: one sparse
row product per (follower, leader, lag), and one pair at a time through
the scalar t-tests of `leadlag.stats`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate
from scipy.stats import rankdata

from leadlag.lagcorr import (
    DEFAULT_MIN_SAMPLES,
    MAX_LAG,
    MIN_LAG,
    DyadResult,
    DyadUnavailable,
    VelocitySeries,
    _scan_lags,
)
from leadlag.network import DEFAULT_ALPHA, Edge, LeadershipGraph, _check_alpha
from leadlag.stats import DegenerateSampleError, one_sample_ttest, paired_ttest


def t_pdf(x: float, df: int) -> float:
    lognorm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(lognorm - ((df + 1) / 2.0) * math.log1p(x * x / df))


def t_cdf_by_integration(x: float, df: int) -> float:
    # Integrate the symmetric half to keep quad away from the far tail.
    if x == 0.0:
        return 0.5
    lo, hi = (0.0, x) if x > 0 else (x, 0.0)
    val, _ = integrate.quad(t_pdf, lo, hi, args=(df,), epsabs=1e-12, limit=200)
    return 0.5 + val if x > 0 else 0.5 - val


def spearman_by_rankdata(xs, ys) -> float:
    rx = rankdata(xs)
    ry = rankdata(ys)
    return float(np.corrcoef(rx, ry)[0, 1])


def _is_acyclic(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    state = [0] * n  # 0 unseen, 1 on stack, 2 done

    def dfs(u: int) -> bool:
        state[u] = 1
        for v in adj[u]:
            if state[v] == 1:
                return False
            if state[v] == 0 and not dfs(v):
                return False
        state[u] = 2
        return True

    return all(state[u] != 0 or dfs(u) for u in range(n))


def brute_force_fas_weight(n: int, weighted_edges) -> float:
    """Minimum total weight over all edge subsets whose removal leaves a DAG."""
    edges = list(weighted_edges)
    best = math.inf
    for keep_mask in itertools.product((False, True), repeat=len(edges)):
        removed_w = sum(w for (u, v, w), kept in zip(edges, keep_mask) if not kept)
        if removed_w >= best:
            continue
        kept_edges = [(u, v) for (u, v, w), kept in zip(edges, keep_mask) if kept]
        if _is_acyclic(n, kept_edges):
            best = removed_w
    return best


def dense_pagerank(nodes, weighted_edges, damping=0.85, tol=1e-14, max_iter=1_000_000):
    """Power iteration on an explicitly constructed dense transition matrix."""
    n = len(nodes)
    idx = {c: i for i, c in enumerate(nodes)}
    out_w = np.zeros(n)
    for u, v, w in weighted_edges:
        out_w[idx[u]] += w
    P = np.zeros((n, n))
    for u, v, w in weighted_edges:
        P[idx[u], idx[v]] = P[idx[u], idx[v]] + w / out_w[idx[u]]
    dangling = out_w == 0.0
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x_new = damping * (x @ P + x[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(x_new - x).sum() < tol:
            x = x_new
            break
        x = x_new
    return {c: float(x[idx[c]]) for c in nodes}


def naive_upgma(labels, dist):
    """Exhaustive UPGMA: every linkage recomputed from raw point distances.

    Returns merges as (frozenset_a, frozenset_b, height) triples so the
    comparison with the library tree is structural, not index-based.
    """
    d = np.asarray(dist, dtype=float)
    clusters = [frozenset([i]) for i in range(len(labels))]
    merges = []
    while len(clusters) > 1:
        best = None
        for a, b in itertools.combinations(clusters, 2):
            mean = float(np.mean([d[i, j] for i in a for j in b]))
            key_a = min(labels[i] for i in a)
            key_b = min(labels[i] for i in b)
            pair_key = tuple(sorted((key_a, key_b)))
            cand = (mean, pair_key, a, b)
            if best is None or (mean, pair_key) < (best[0], best[1]):
                best = cand
        mean, _, a, b = best
        clusters.remove(a)
        clusters.remove(b)
        clusters.append(a | b)
        name_a = frozenset(labels[i] for i in a)
        name_b = frozenset(labels[i] for i in b)
        merges.append((name_a, name_b, mean))
    return merges


@dataclass(frozen=True)
class LagSample:
    follower_week: int
    lag: int
    value: float


def row_of(series: VelocitySeries) -> dict[int, int]:
    return {w: i for i, w in enumerate(series.weeks)}


def lagged_samples(follower: VelocitySeries, leader: VelocitySeries, lag: int) -> list[LagSample]:
    """One dot-product sample per week where both velocities exist."""
    if not MIN_LAG <= lag <= MAX_LAG:
        raise ValueError(f"lag must be in {MIN_LAG}..{MAX_LAG}, got {lag}")
    f_row, l_row = row_of(follower), row_of(leader)
    common = [t for t in follower.weeks if t - lag in l_row]
    if not common:
        return []
    a = follower.matrix[[f_row[t] for t in common]]
    b = leader.matrix[[l_row[t - lag] for t in common]]
    values = np.asarray(a.multiply(b).sum(axis=1)).ravel()
    return [LagSample(t, lag, float(v)) for t, v in zip(common, values)]


def best_dyad(follower, leader, min_samples=DEFAULT_MIN_SAMPLES, lags=None) -> DyadResult:
    """Scan the lags of one pair and keep the one with the largest mean sample.

    Lags with fewer than min_samples samples are ineligible; ties go to the
    smallest lag. With no eligible lag the dyad is unavailable.
    """
    best = None
    best_mean = -math.inf
    for lag in _scan_lags(min_samples, lags):
        samples = lagged_samples(follower, leader, lag)
        if len(samples) < min_samples:
            continue
        mean = math.fsum(s.value for s in samples) / len(samples)
        if mean > best_mean:
            best, best_mean = (lag, samples), mean
    if best is None:
        raise DyadUnavailable(
            f"no lag of {follower.city_id!r} -> {leader.city_id!r} reaches {min_samples} samples"
        )
    lag, samples = best
    return DyadResult(
        leader.city_id, follower.city_id, lag, best_mean,
        [s.follower_week for s in samples], [s.value for s in samples],
    )


def per_pair_scan(series, min_samples=DEFAULT_MIN_SAMPLES, lags=None) -> list[DyadResult]:
    """best_dyad over every ordered pair, unavailable ones dropped."""
    dyads = []
    for leader in sorted(series):
        for follower in sorted(series):
            if leader == follower:
                continue
            try:
                dyads.append(best_dyad(series[follower], series[leader], min_samples, lags))
            except DyadUnavailable:
                pass
    return dyads


def survives_screen(dyad: DyadResult, alpha: float) -> bool:
    """Mean sample significantly above zero; propagates DegenerateSampleError."""
    result = one_sample_ttest(dyad.values.tolist())
    return result.reject_at(alpha) and dyad.correlation > 0


def _edge(dyad: DyadResult) -> Edge:
    return Edge(dyad.follower_candidate, dyad.leader_candidate, dyad.correlation, dyad.best_lag)


def per_pair_accept_edge(forward: DyadResult, backward: DyadResult, alpha: float) -> Edge | None:
    """One pair at a time: screen both directions, then the paired contest."""
    try:
        fwd_ok = survives_screen(forward, alpha)
        bwd_ok = survives_screen(backward, alpha)
    except DegenerateSampleError:
        return None
    if not fwd_ok and not bwd_ok:
        return None
    if fwd_ok != bwd_ok:
        return _edge(forward if fwd_ok else backward)
    fwd_by_week = dict(zip(forward.weeks.tolist(), forward.values.tolist()))
    bwd_by_week = dict(zip(backward.weeks.tolist(), backward.values.tolist()))
    common = sorted(set(fwd_by_week) & set(bwd_by_week))
    if len(common) < 2:
        return None
    try:
        contest = paired_ttest([fwd_by_week[w] for w in common], [bwd_by_week[w] for w in common])
    except DegenerateSampleError:
        return None
    if not contest.reject_at(alpha) or forward.correlation == backward.correlation:
        return None
    return _edge(forward if forward.correlation > backward.correlation else backward)


def per_pair_build_graph(
    dyads,
    alpha: float = DEFAULT_ALPHA,
    bonferroni: bool = False,
    nodes: Sequence[str] | None = None,
) -> LeadershipGraph:
    """build_graph as a loop over unordered node pairs."""
    _check_alpha(alpha)
    by_pair = {(d.follower_candidate, d.leader_candidate): d for d in dyads}
    ordered = tuple(sorted({c for p in by_pair for c in p} if nodes is None else set(nodes)))
    n = len(ordered)
    level = alpha / (n * (n - 1)) if bonferroni and n > 1 else alpha
    edges = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            fwd, bwd = by_pair.get((a, b)), by_pair.get((b, a))
            if fwd is not None and bwd is not None:
                edge = per_pair_accept_edge(fwd, bwd, level)
            elif fwd is None and bwd is None:
                continue
            else:
                lone = fwd if fwd is not None else bwd
                try:
                    edge = _edge(lone) if survives_screen(lone, level) else None
                except DegenerateSampleError:
                    edge = None
            if edge is not None:
                edges.append(edge)
    edges.sort(key=lambda e: (e.follower, e.leader))
    return LeadershipGraph(nodes=ordered, edges=tuple(edges))
