"""Independent reference implementations used only by the test suite.

Each oracle takes a deliberately different route from the library code it
checks: the t CDF integrates the density numerically, the feedback arc set
enumerates edge subsets, PageRank iterates a dense transition matrix built
explicitly, UPGMA recomputes every inter-cluster mean from raw points, and
Spearman ranks with an off-the-shelf routine. The lag scan and the edge
screen are checked against the per-pair code they replaced: one sparse
row product per (follower, leader, lag), and one pair at a time through
a scalar t-test summed with `math.fsum`. The window stack is checked
against the per-window code it replaced: one `coo_matrix` per window, a genre
filter and a row scale by sparse diagonal products, velocities one city at
a time and distances one window at a time. The feedback arc set is
checked against the code it replaced: csgraph's strongly connected
components, each component rebuilt from its edge list, and the greedy
peel reading one numpy scalar at a time. A chart list becomes a store one
Python row at a time (`chart_store`), as the library's list constructor did.
The stages that now write their output once are checked bit for bit against
the code they replaced: windows built as one part per window and then
stacked, and the scan with the NaN-free copy of its samples and an int64
copy of their mask. The chart byte reader's line scan is checked against the
one combined scan of line ends and commas it replaced, and its running name
table against a table of each block's distinct names folded into a dict.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import integrate, sparse
from scipy.stats import rankdata

from leadlag.charts import (
    WINDOW_WEEKS,
    ArtistUniverse,
    ChartStore,
    SparseRows,
    WeeklyChart,
    WindowStack,
    unit_rows,
)
from leadlag import charts
from leadlag.cluster import DistanceMatrix

from leadlag.lagcorr import (
    DEFAULT_MIN_SAMPLES,
    MAX_LAG,
    MIN_LAG,
    DyadResult,
    Dyads,
    VELOCITY_STEP_WEEKS,
    VelocitySeries,
    _scan_lags,
)
from leadlag import network
from leadlag.network import DEFAULT_ALPHA, AcyclicityReport, Edge, LeadershipGraph, _check_alpha
from leadlag.stats import DegenerateSampleError, TestResult, t_cdf


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


def strong_components(n: int, pairs) -> tuple[int, np.ndarray]:
    """Strongly connected components of nodes 0..n-1 joined by (u, v) pairs."""
    from scipy.sparse.csgraph import connected_components

    rows = [u for u, _ in pairs]
    cols = [v for _, v in pairs]
    adj = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")


def scalar_greedy_fas_order(w: np.ndarray) -> list[int]:
    """Sink/source peeling plus best-position reinsertion, one scalar at a time."""
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
                    -(sum(w[v, u] for u in remaining) - sum(w[u, v] for u in remaining)),
                    v,
                ),
            )
            head.append(best)
            remaining.remove(best)
    order = head + tail

    for _ in range(network._REINSERTION_PASSES):
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
            if costs[k] < costs[order.index(v)] - 1e-15:
                order = rest[:k] + [v] + rest[k:]
                improved = True
        if not improved:
            break
    return order


def per_component_fas(graph: LeadershipGraph) -> AcyclicityReport:
    """feedback_arc_set with csgraph components, each rebuilt from its edges."""
    total = graph.total_weight()
    if not graph.edges:
        return AcyclicityReport(0.0, 0.0, 0.0, (), True)
    index = {c: i for i, c in enumerate(graph.nodes)}
    n = len(graph.nodes)

    def components(edges):
        return strong_components(n, [(index[e.follower], index[e.leader]) for e in edges])

    n_comp, labels = components(graph.edges)
    removed: list[Edge] = []
    exact = True
    for comp in range(n_comp):
        names = {graph.nodes[i] for i in range(n) if labels[i] == comp}
        if len(names) < 2:
            continue
        comp_edges = [e for e in graph.edges if e.follower in names and e.leader in names]
        local = sorted(names)
        at = {c: i for i, c in enumerate(local)}
        w = np.zeros((len(local), len(local)))
        for e in comp_edges:
            w[at[e.follower], at[e.leader]] += e.weight
        if len(local) <= network.EXACT_FAS_MAX_NODES:
            order = network._exact_min_fas_order(w)
        else:
            order = scalar_greedy_fas_order(w)
            exact = False
        pos = {local[v]: p for p, v in enumerate(order)}
        removed.extend(e for e in comp_edges if pos[e.follower] > pos[e.leader])
    removed.sort(key=lambda e: (e.follower, e.leader))
    removed_set = set(removed)
    kept = [e for e in graph.edges if e not in removed_set]
    if components(kept)[0] != n:
        raise RuntimeError("feedback arc set removal left a cycle")
    fas_weight = math.fsum(e.weight for e in removed)
    percent = 100.0 * fas_weight / total if total > 0 else 0.0
    return AcyclicityReport(total, fas_weight, percent, tuple(removed), exact)

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


def csr_pagerank(graph: LeadershipGraph) -> network.CentralityReport:
    """`network.pagerank` as it was before its bincount form: a scipy CSR transfer
    matrix, whose product sums each leader's row in ascending follower order."""
    nodes = tuple(sorted(graph.nodes))
    n = len(nodes)
    in_degree = {v: 0.0 for v in nodes}
    for e in graph.edges:
        in_degree[e.leader] += e.weight
    if n == 0:
        return network.CentralityReport(pagerank={}, weighted_in_degree={})

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
    for _ in range(network._PAGERANK_MAX_ITER):
        spread = transfer.dot(x) + x[dangling].sum() / n
        nxt = network._PAGERANK_DAMPING * spread + (1.0 - network._PAGERANK_DAMPING) / n
        if np.abs(nxt - x).sum() < network._PAGERANK_TOL:
            x = nxt
            break
        x = nxt
    else:
        raise ArithmeticError("pagerank failed to converge")

    ranks = {c: float(x[index[c]]) for c in nodes}
    return network.CentralityReport(
        pagerank=ranks,
        weighted_in_degree={v: float(in_degree[v]) for v in nodes},
    )


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


def to_scipy(rows: SparseRows) -> sparse.csr_matrix:
    """`rows` as a scipy CSR matrix over the same arrays."""
    shape = (len(rows), rows.n_cols)
    return sparse.csr_matrix((rows.data, rows.indices, rows.indptr), shape=shape)


def from_scipy(matrix) -> SparseRows:
    """A scipy sparse matrix as `SparseRows`, with the index types `leadlag` uses."""
    m = sparse.csr_matrix(matrix)
    return SparseRows(m.data, m.indices.astype(np.int32), m.indptr.astype(np.int64), m.shape[1])


class DyadUnavailable(LookupError):
    """No lag of the dyad has enough samples to be scored."""


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
    a = to_scipy(follower.matrix)[[f_row[t] for t in common]]
    b = to_scipy(leader.matrix)[[l_row[t - lag] for t in common]]
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
        np.array([s.follower_week for s in samples], dtype=np.int64),
        np.array([s.value for s in samples], dtype=np.float64),
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


def fsum_ttest(samples: Sequence[float]) -> TestResult:
    """Two-sided one-sample t-test of a zero mean, one Python float at a time.

    Raises DegenerateSampleError for a flat sample, one whose values are
    all equal or whose squared deviations sum to zero.
    """
    xs = [float(v) for v in samples]
    n = len(xs)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    mean = math.fsum(xs) / n
    ss = math.fsum((v - mean) ** 2 for v in xs)
    if min(xs) == max(xs) or ss <= 0.0:
        raise DegenerateSampleError("zero sample variance")
    statistic = mean / math.sqrt(ss / (n - 1) / n)
    return TestResult(statistic, n - 1, 2.0 * t_cdf(-abs(statistic), n - 1))


def survives_screen(dyad: DyadResult, alpha: float) -> bool:
    """Mean sample significantly above zero; propagates DegenerateSampleError."""
    result = fsum_ttest(dyad.values.tolist())
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
        contest = fsum_ttest([fwd_by_week[w] - bwd_by_week[w] for w in common])
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


@dataclass(frozen=True)
class ListenMatrix:
    """One 4-week window of summed listener counts, cities by artists.

    Rows follow `cities` order and columns follow the universe order, so
    matrices from different windows of the same store align elementwise.
    An all-zero row means the city charted nothing in the window.
    """

    window_start_week: int
    width_weeks: int
    cities: tuple[str, ...]
    universe: ArtistUniverse
    values: sparse.csr_matrix
    normalized: bool


class WindowUnavailable(LookupError):
    """The requested 4-week window overlaps a missing or absent week."""


def window(store: ChartStore, start_week: int) -> ListenMatrix:
    """The raw (unnormalized) window of `store` starting at start_week."""
    span = range(start_week, start_week + WINDOW_WEEKS)
    blocked = [w for w in span if w in store.missing_weeks]
    if blocked:
        raise WindowUnavailable(
            f"window {start_week}..{span.stop - 1} overlaps missing week {blocked[0]}"
        )
    if span.start < store.first_week or span.stop - 1 > store.last_week:
        raise WindowUnavailable(
            f"window {start_week}..{span.stop - 1} leaves the study period "
            f"{store.first_week}..{store.last_week}"
        )
    lo, hi = np.searchsorted(store.week, (span.start, span.stop))
    ptr = store.entries.indptr
    a, z = ptr[lo], ptr[hi]
    city = np.repeat(store.city[lo:hi], np.diff(ptr[lo : hi + 1]))
    values = sparse.coo_matrix(
        (store.entries.data[a:z].astype(np.float64), (city, store.entries.indices[a:z])),
        shape=(len(store.cities), len(store.universe)),
    ).tocsr()
    values.sum_duplicates()
    return ListenMatrix(start_week, WINDOW_WEEKS, store.cities, store.universe, values, False)


def chart_store(
    charts: Iterable[WeeklyChart],
    missing_weeks: frozenset[int] = frozenset(),
    universe: ArtistUniverse | None = None,
) -> ChartStore:
    """The store of a chart list, one chart per entry in list order, which the store
    joins: a city's code is its rank among the cities listed, an artist's its column
    in `universe`, which defaults to the artists listed."""
    rows = [(c.week_index, c.city_id, a, n) for c in charts for a, n in c.entries]
    cities = tuple(sorted({city for _, city, _, _ in rows}))
    if universe is None:
        universe = ArtistUniverse(a for _, _, a, _ in rows)
    entries = SparseRows.from_sizes(
        np.array([n for _, _, _, n in rows], dtype=np.int64),
        np.array([universe.column(a) for _, _, a, _ in rows], dtype=np.int32),
        np.ones(len(rows), dtype=np.int64), len(universe))
    return ChartStore(cities, universe, np.array([w for w, _, _, _ in rows], dtype=np.int64),
                      np.array([cities.index(c) for _, c, _, _ in rows], dtype=np.int32),
                      entries, missing_weeks)


def build_window(
    charts: Sequence[WeeklyChart],
    start_week: int,
    missing_weeks: frozenset[int] = frozenset(),
) -> ListenMatrix:
    """One-shot window construction from a bare chart list."""
    return window(chart_store(charts, missing_weeks), start_week)


def normalize_rows(matrix: ListenMatrix) -> ListenMatrix:
    """Scale every non-empty row to unit Euclidean norm; zero rows stay zero."""
    if matrix.normalized:
        raise ValueError("matrix is already normalized")
    sq = np.asarray(matrix.values.multiply(matrix.values).sum(axis=1)).ravel()
    norms = np.sqrt(sq)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    values = sparse.diags(inv).dot(matrix.values).tocsr()
    return ListenMatrix(
        matrix.window_start_week, matrix.width_weeks, matrix.cities, matrix.universe, values, True
    )


def filter_genre(matrix: ListenMatrix, genre_artists: Iterable[str]) -> ListenMatrix:
    """Zero out every column not in the genre list; filtering precedes normalization."""
    if matrix.normalized:
        raise ValueError("filter before normalizing, not after")
    keep = np.zeros(len(matrix.universe), dtype=np.float64)
    for artist_id in genre_artists:
        col = matrix.universe.index.get(artist_id)
        if col is not None:
            keep[col] = 1.0
    values = matrix.values.dot(sparse.diags(keep)).tocsr()
    values.eliminate_zeros()
    return ListenMatrix(
        matrix.window_start_week, matrix.width_weeks, matrix.cities, matrix.universe, values, False
    )


def per_window_windows(store: ChartStore, genre_artists=None) -> dict[int, ListenMatrix]:
    """Normalized windows built one start week at a time."""
    windows = {}
    for start in store.valid_window_starts():
        matrix = window(store, start)
        if genre_artists is not None:
            matrix = filter_genre(matrix, genre_artists)
        windows[start] = normalize_rows(matrix)
    return windows


def row_index(matrix: ListenMatrix, city_id: str) -> int:
    try:
        return matrix.cities.index(city_id)
    except ValueError:
        raise KeyError(f"unknown city {city_id!r}") from None


def is_active(matrix: ListenMatrix, city_id: str) -> bool:
    i = row_index(matrix, city_id)
    return matrix.values.indptr[i] < matrix.values.indptr[i + 1]


def active_cities(matrix: ListenMatrix) -> tuple[str, ...]:
    return tuple(c for c in matrix.cities if is_active(matrix, c))


def compute_velocities(windows: Mapping[int, ListenMatrix], city_id: str) -> VelocitySeries:
    """Velocities for one city across all start weeks with a window 4 weeks later."""
    starts = sorted(windows)
    if not starts:
        raise ValueError("no windows supplied")
    first = windows[starts[0]]
    if city_id not in first.cities:
        raise KeyError(f"unknown city {city_id!r}")
    weeks, rows = [], []
    for t in starts:
        early = windows[t]
        late = windows.get(t + VELOCITY_STEP_WEEKS)
        if late is None:
            continue
        if not (early.normalized and late.normalized):
            raise ValueError("windows must be normalized before velocities")
        if is_active(early, city_id) and is_active(late, city_id):
            weeks.append(t)
            i = row_index(early, city_id)
            rows.append(late.values.getrow(i) - early.values.getrow(i))
    n_cols = first.values.shape[1]
    matrix = sparse.vstack(rows, format="csr") if rows else sparse.csr_matrix((0, n_cols))
    return VelocitySeries(city_id, tuple(weeks), from_scipy(matrix))


def per_window_distances(
    windows: Mapping[int, ListenMatrix], per_pair_mean: bool = False
) -> DistanceMatrix:
    """summed_distances one window at a time, over the active rows of each."""
    starts = sorted(windows)
    if not starts:
        raise ValueError("no windows supplied")
    wanted = windows[starts[0]].cities
    if not all(windows[s].normalized for s in starts):
        raise ValueError("windows must be normalized before distances")
    ever_active = {c for c in wanted if any(is_active(windows[s], c) for s in starts)}
    silent = [c for c in wanted if c not in ever_active]
    if silent:
        warnings.warn(
            f"never active in any window, excluded: {', '.join(sorted(silent))}",
            stacklevel=2,
        )
    kept = tuple(c for c in wanted if c in ever_active)
    n = len(kept)
    total = np.zeros((n, n))
    coverage = np.zeros((n, n), dtype=np.int64)
    for s in starts:
        matrix = windows[s]
        active_idx = [i for i, c in enumerate(kept) if is_active(matrix, c)]
        if len(active_idx) < 2:
            continue
        rows = matrix.values[[matrix.cities.index(kept[i]) for i in active_idx]]
        gram = np.asarray(rows.dot(rows.T).todense())
        sq = np.clip(2.0 - 2.0 * gram, 0.0, None)
        np.fill_diagonal(sq, 0.0)
        ix = np.ix_(active_idx, active_idx)
        total[ix] += np.sqrt(sq)
        coverage[ix] += 1
    np.fill_diagonal(coverage, 0)
    if per_pair_mean:
        total = np.divide(total, coverage, out=np.zeros_like(total), where=coverage > 0)
    total = (total + total.T) / 2.0
    np.fill_diagonal(total, 0.0)
    return DistanceMatrix(cities=kept, d=total, coverage=coverage)


def stacked_windows(store: ChartStore, genre_artists: Iterable[str] | None = None) -> WindowStack:
    """`ChartStore.windows` keeping every window's rows as a part until one stack copies them."""
    starts = np.array(store.valid_window_starts(), dtype=np.int64)
    n_cities, n_artists = len(store.cities), len(store.universe)
    entries = store.entries
    if genre_artists is not None:
        keep = np.zeros(n_artists, dtype=bool)
        keep[[store.universe.index[a] for a in genre_artists if a in store.universe]] = True
        hit = keep[entries.indices]
        kept = np.concatenate(([0], np.cumsum(hit)))[entries.indptr]
        entries = SparseRows(entries.data[hit], entries.indices[hit], kept, n_artists)
    ptr, artist, count = entries.indptr, entries.indices, entries.data
    parts = []
    for lo, hi in np.searchsorted(store.week, np.add.outer(starts, (0, WINDOW_WEEKS))).tolist():
        a, z = ptr[lo], ptr[hi]
        cell = np.repeat(store.city[lo:hi].astype(np.int64) * n_artists, np.diff(ptr[lo : hi + 1]))
        cell += artist[a:z]
        total = np.bincount(cell, count[a:z], n_cities * n_artists).astype(np.float64)
        found = np.flatnonzero(total)
        sizes = np.bincount(found // n_artists, minlength=n_cities)
        indices = (found % n_artists).astype(np.int32)
        parts.append(unit_rows(SparseRows.from_sizes(total[found], indices, sizes, n_artists)))
    matrix = SparseRows.stack(parts, n_artists)
    return WindowStack(starts.tolist(), store.cities, store.universe, matrix)


def masked_copy_scan(
    series: Mapping[str, VelocitySeries],
    min_samples: int = DEFAULT_MIN_SAMPLES,
    lags: Sequence[int] | None = None,
) -> Dyads:
    """`scan_dyads` summing an int64 copy of the samples' mask and a NaN-free copy of
    the samples, each with one `np.add.reduceat`."""
    scan = _scan_lags(min_samples, lags)
    cities = tuple(sorted(series))
    code = np.array([i for i, c in enumerate(cities) if len(series[c])], dtype=np.int64)
    present = [series[cities[i]] for i in code.tolist()]
    if len(present) < 2:
        none = np.zeros(0, dtype=np.int64)
        return Dyads(cities, none, none, none, np.zeros(0), none, none, np.zeros(0))
    n = len(present)
    weeks = np.concatenate([np.asarray(s.weeks, dtype=np.int64) for s in present])
    owner = np.repeat(np.arange(n), [len(s) for s in present])
    by_week = np.argsort(weeks, kind="stable")
    week_sorted = weeks[by_week]
    stack = SparseRows.stack([s.matrix for s in present], present[0].matrix.n_cols)
    lag_pos = np.full(MAX_LAG + 1, -1)
    lag_pos[list(scan)] = np.arange(len(scan))

    samples = np.full((len(weeks), len(scan), n), np.nan)
    first = np.flatnonzero(np.diff(week_sorted, prepend=week_sorted[0] - 1))
    last = np.append(first[1:], len(weeks))
    lo = np.searchsorted(week_sorted, week_sorted[first] - scan[-1])
    hi = np.searchsorted(week_sorted, week_sorted[first] - scan[0], side="right")
    for a, b, c, d in zip(*(x.tolist() for x in (first, last, lo, hi))):
        if c == d:
            continue
        pos = lag_pos[week_sorted[a] - week_sorted[c:d]]
        keep = pos >= 0
        columns, follower = stack.take(by_week[a:b]).block()
        block = follower @ stack.take(by_week[c:d][keep]).block(columns)[1].T
        samples[by_week[a:b, None], pos[keep], owner[by_week[c:d]][keep]] = block

    starts = np.searchsorted(owner, np.arange(n))
    have = ~np.isnan(samples)
    counts = np.add.reduceat(have, starts, axis=0, dtype=np.int64)
    means = np.add.reduceat(np.where(have, samples, 0.0), starts, axis=0)
    means /= np.maximum(counts, 1)
    means[counts < min_samples] = -np.inf
    best, best_mean = means.argmax(axis=1), means.max(axis=1)
    scored = np.isfinite(best_mean)
    np.fill_diagonal(scored, False)
    chosen = np.take_along_axis(samples, best[owner][:, None], axis=1)[:, 0].T
    sampled = scored.T[:, owner] & ~np.isnan(chosen)
    leader, follower = np.nonzero(scored.T)
    k = best[follower, leader]
    return Dyads(
        cities, code[leader], code[follower], np.array(scan)[k], best_mean[follower, leader],
        counts[follower, k, leader], np.broadcast_to(weeks, sampled.shape)[sampled],
        chosen[sampled],
    )


def combined_scan_lines(text: np.ndarray, limit: int):
    """`charts._lines` as one scan for line ends and commas together, with the stray
    bytes always looked up."""
    at = np.int32 if len(text) < 1 << 31 else np.int64
    mask = text < 32
    mask &= text != 10
    mask |= text == 34
    stray = np.flatnonzero(mask)
    stray = stray[(text[stray] != 13) | (text[stray + 1] != 10)]
    np.equal(text, 10, out=mask)
    mask |= text == 44
    sep = np.flatnonzero(mask).astype(at)
    nl = np.flatnonzero(text[sep] == 10).astype(at)
    line_end = sep[nl]
    start = np.concatenate((np.zeros(1, dtype=at), line_end[:-1] + 1))
    odd = (np.diff(nl, prepend=at(-1)) != 4) | (line_end - start > min(limit, len(text)))
    odd[np.searchsorted(line_end, stray)] = True
    last = nl[~odd]
    return start, line_end, odd, np.stack([sep[last - 3], sep[last - 2], sep[last - 1]])


def block_table(content: np.ndarray, start: np.ndarray, length: np.ndarray):
    """(codes, distinct) of one block's names: int32 codes numbering the distinct keys
    in key order, and the bytes of each coded name, in code order. Each name is
    compared chunk by chunk with its code's first name; two different names with one
    key raise ValueError. Keys are `charts._Names`' keys."""
    if not length.all():
        raise ValueError("empty name")
    chunks = (length + 15) // 16
    total = int(chunks.sum())
    first = np.cumsum(chunks) - chunks
    at = 16 * np.arange(total) - np.repeat(16 * first - start, chunks)
    left = np.repeat(start + length, chunks) - at
    hi, lo = charts._chunks(content, at, left)
    key = left.astype(np.uint64)
    key ^= hi
    key *= charts._MIX
    key ^= lo
    key *= charts._MIX
    key ^= key >> 32
    key = np.add.reduceat(key, first)
    order = np.argsort(key)
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    codes = np.empty(len(new), dtype=np.int32)
    codes[order] = np.cumsum(new, dtype=np.int32) - 1
    named = order[new]
    head = named[codes]
    same = np.repeat(first[head] - first, chunks) + np.arange(total)
    if (length[head] != length).any() or (hi[same] != hi).any() or (lo[same] != lo).any():
        raise ValueError("two chart names share a key")
    raw = content.tobytes()
    return codes, [raw[a:z] for a, z in zip(start[named].tolist(), (start + length)[named].tolist())]


def fold(names: dict[bytes, int], distinct: list[bytes]) -> np.ndarray:
    """The position in `names`, a running table, of each of some distinct names; a name
    not yet there is added at the end."""
    return np.array([names.setdefault(name, len(names)) for name in distinct], dtype=np.int32)
