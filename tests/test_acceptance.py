"""Acceptance gate: ten checks, one printed verdict line each.

Each check builds its own evidence (planted-data runs, independent
oracles, frozen worked examples) and prints `criterion N [...]: PASS`
or FAIL before asserting, so a full run leaves a readable scorecard.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    _is_acyclic,
    brute_force_fas_weight,
    dense_pagerank,
    from_scipy,
    naive_upgma,
    t_cdf_by_integration,
    to_scipy,
)
from readers import inversions, merges

from leadlag.charts import (
    ChartStore,
    unit_rows,
    write_chart_csv,
    write_missing_weeks,
)
from leadlag.cluster import DistanceMatrix, average_linkage
from leadlag.exports import write_populations
from leadlag.lagcorr import compute_all_velocities, scan_dyads
from leadlag.network import Edge, LeadershipGraph, build_graph, feedback_arc_set, pagerank
from leadlag.pipeline import RunConfig, build_windows, run_pipeline
from leadlag.stats import one_sample_ttest, spearman, t_cdf
from leadlag.synth import SynthConfig, chain_hierarchy, generate_charts, shuffle_null

N_CITIES = 10
N_ARTISTS = 120
N_WEEKS = 153
PLANT_LAG = 1
PLANT_COUPLING = 0.9
NOISE_SIGMA = 0.05
MISSING = frozenset({7, 19, 23, 41, 47, 59, 66, 74, 88, 97, 109, 118, 131, 144})
RECOVERY_SEEDS = range(10)
NULL_SEEDS = range(20)
POWER_SEEDS = range(100, 110)
SECONDS_PER_SEED = 60.0


def verdict(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{name}]: {status} ({detail})")
    return ok


def synth_fixture_config(seed: int, coupling: float = PLANT_COUPLING) -> tuple:
    hierarchy = chain_hierarchy(N_CITIES, lag_weeks=PLANT_LAG, coupling=coupling)
    config = SynthConfig(
        n_artists=N_ARTISTS,
        n_weeks=N_WEEKS,
        noise_sigma=NOISE_SIGMA,
        seed=seed,
        missing_weeks=MISSING,
    )
    return hierarchy, config


def charts_to_graph(charts, tmp_path, tag: str) -> tuple[LeadershipGraph, ChartStore]:
    chart_path = tmp_path / f"{tag}_charts.csv"
    missing_path = tmp_path / f"{tag}_missing.txt"
    write_chart_csv(chart_path, charts)
    write_missing_weeks(missing_path, MISSING)
    store = ChartStore.from_files(chart_path, missing_path)
    windows = build_windows(store)
    dyads = scan_dyads(compute_all_velocities(windows))
    return build_graph(dyads), store


@pytest.fixture(scope="module")
def recovery_runs(tmp_path_factory):
    """Planted-chain graphs for seeds 0..9 plus per-seed wall time."""
    tmp = tmp_path_factory.mktemp("recovery")
    hierarchy, _ = synth_fixture_config(0)
    planted = {(e.follower, e.leader): e.lag_weeks for e in hierarchy.edges}
    runs = []
    for seed in RECOVERY_SEEDS:
        hierarchy, config = synth_fixture_config(seed)
        started = time.perf_counter()
        charts = generate_charts(hierarchy, config)
        graph, _ = charts_to_graph(charts, tmp, f"seed{seed}")
        elapsed = time.perf_counter() - started
        runs.append((seed, graph, elapsed))
    return planted, runs


def test_criterion_1_planted_recovery(recovery_runs):
    planted, runs = recovery_runs
    correct = reversed_edges = 0
    slowest = 0.0
    for _, graph, elapsed in runs:
        got = {(e.follower, e.leader): e.lag_weeks for e in graph.edges}
        correct += sum(1 for pair, lag in planted.items() if got.get(pair) == lag)
        reversed_edges += sum(
            1 for follower, leader in got if (leader, follower) in planted
        )
        slowest = max(slowest, elapsed)
    total = len(planted) * len(runs)
    fraction = correct / total
    ok = fraction >= 0.95 and reversed_edges == 0 and slowest < SECONDS_PER_SEED
    assert verdict(
        1,
        "planted recovery",
        ok,
        f"{100 * fraction:.1f}% correct, {reversed_edges} reversed, "
        f"slowest seed {slowest:.1f}s",
    )


def test_criterion_2_shuffle_null(tmp_path):
    rates = []
    for seed in NULL_SEEDS:
        hierarchy, config = synth_fixture_config(seed)
        charts = shuffle_null(generate_charts(hierarchy, config), seed=seed)
        graph, store = charts_to_graph(charts, tmp_path, f"null{seed}")
        n = len(store.cities)
        rates.append(len(graph.edges) / (n * (n - 1)))
    mean_rate = sum(rates) / len(rates)
    ok = mean_rate <= 0.05
    assert verdict(
        2,
        "shuffle null",
        ok,
        f"mean accepted fraction {100 * mean_rate:.2f}% over {len(rates)} seeds",
    )


def test_criterion_3_acyclicity_at_desk_scale(recovery_runs):
    _, runs = recovery_runs
    worst = 0.0
    all_exact = all_acyclic = True
    for _, graph, _ in runs:
        report = feedback_arc_set(graph)
        worst = max(worst, report.percent_removed)
        all_exact = all_exact and report.exact
        removed = set(report.removed_edges)
        kept = [e for e in graph.edges if e not in removed]
        index = {c: i for i, c in enumerate(graph.nodes)}
        all_acyclic = all_acyclic and _is_acyclic(
            len(graph.nodes), [(index[e.leader], index[e.follower]) for e in kept]
        )
    ok = worst <= 5.0 and all_acyclic
    assert verdict(
        3,
        "recovered graphs nearly acyclic",
        ok,
        f"worst percent_removed {worst:.2f}%, exact={all_exact}, "
        f"toposort verified={all_acyclic}",
    )


def test_criterion_4_fas_oracle_equivalence():
    rng = np.random.default_rng(20260816)
    agree = 0
    trials = 100
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        rng.shuffle(pairs)
        m = int(rng.integers(1, min(14, len(pairs)) + 1))
        edges = [(u, v, float(rng.integers(1, 11))) for u, v in pairs[:m]]
        graph = LeadershipGraph(
            nodes=tuple(str(i) for i in range(n)),
            edges=tuple(
                Edge(follower=str(v), leader=str(u), weight=w, lag_weeks=1)
                for u, v, w in edges
            ),
        )
        report = feedback_arc_set(graph)
        expected = brute_force_fas_weight(n, edges)
        if report.fas_weight == expected:
            agree += 1
    ok = agree == trials
    assert verdict(
        4, "exact FAS vs brute force", ok, f"{agree}/{trials} digraphs agree exactly"
    )


def test_criterion_5_statistical_kernel():
    grid_x = [0.0, 0.5, -1.0, 2.5, 3.4641, -3.4641, 5.0]
    grid_df = [1, 2, 3, 5, 10, 30, 100, 240]
    worst = max(
        abs(t_cdf(x, df) - t_cdf_by_integration(x, df))
        for x in grid_x
        for df in grid_df
    )
    ttest = one_sample_ttest([1.0, 2.0, 3.0])
    rho = spearman([1, 2, 3, 4, 5], [3, 1, 2, 5, 4]).rho
    ok = (
        worst <= 1e-6
        and abs(ttest.statistic - 3.4641) < 5e-5
        and abs(ttest.p_value - 0.0742) < 5e-5
        and abs(rho - 0.6) < 5e-5
    )
    assert verdict(
        5,
        "statistical kernel",
        ok,
        f"max |t_cdf - quadrature| {worst:.2e}, t {ttest.statistic:.4f}, "
        f"p {ttest.p_value:.4f}, rho {rho:.4f}",
    )


def test_criterion_6_normalization_invariants(tmp_path):
    rng = np.random.default_rng(7)
    rows = 10_000
    cols = 40
    dense = rng.uniform(0.0, 50.0, (rows, cols))
    dense[rng.uniform(size=(rows, cols)) < 0.6] = 0.0
    dense[0, :] = 0.0
    unit = to_scipy(unit_rows(from_scipy(dense)))
    norms = np.sqrt(np.asarray(unit.multiply(unit).sum(axis=1)).ravel())
    nonzero = norms[norms > 0]
    worst_norm = abs(nonzero - 1.0).max()

    small = SynthConfig(n_artists=40, n_weeks=60, noise_sigma=NOISE_SIGMA, seed=1)
    charts = generate_charts(chain_hierarchy(4, coupling=PLANT_COUPLING), small)
    tripled = replace(charts.entries, data=3 * charts.entries.data)
    scaled = ChartStore(charts.cities, charts.universe, charts.week, charts.city, tripled)

    def dyad_correlations(chart_list, tag):
        chart_path = tmp_path / f"{tag}.csv"
        write_chart_csv(chart_path, chart_list)
        store = ChartStore.from_files(chart_path)
        dyads = scan_dyads(compute_all_velocities(build_windows(store)))
        return {
            (d.follower_candidate, d.leader_candidate): d.correlation for d in dyads
        }

    base = dyad_correlations(charts, "base")
    rescaled = dyad_correlations(scaled, "rescaled")
    worst_corr = max(abs(base[k] - rescaled[k]) for k in base) if base else math.inf
    ok = (
        len(nonzero) == rows - 1
        and worst_norm <= 1e-12
        and base.keys() == rescaled.keys()
        and worst_corr <= 1e-12
    )
    assert verdict(
        6,
        "normalization invariants",
        ok,
        f"worst norm error {worst_norm:.2e} over {rows} rows, "
        f"worst correlation shift {worst_corr:.2e} under count rescaling",
    )


def test_criterion_7_pagerank():
    two_cycle = LeadershipGraph(
        nodes=("a", "b"),
        edges=(Edge("a", "b", 1.0, 1), Edge("b", "a", 1.0, 1)),
    )
    four = LeadershipGraph(
        nodes=("a", "b", "c", "d"),
        edges=(
            Edge("a", "b", 2.0, 1),
            Edge("b", "c", 1.0, 2),
            Edge("c", "a", 0.5, 1),
            Edge("d", "a", 1.5, 3),
            Edge("d", "c", 2.5, 1),
        ),
    )
    ten_nodes = tuple(f"n{i}" for i in range(10))
    ten_edges = []
    rng = np.random.default_rng(99)
    for i in range(10):
        for j in range(10):
            if i != j and rng.uniform() < 0.3:
                ten_edges.append(
                    Edge(ten_nodes[i], ten_nodes[j], float(rng.integers(1, 6)), 1)
                )
    ten = LeadershipGraph(nodes=ten_nodes, edges=tuple(ten_edges))

    worst_sum = worst_oracle = 0.0
    for graph in (two_cycle, four, ten):
        report = pagerank(graph)
        worst_sum = max(worst_sum, abs(sum(report.pagerank.values()) - 1.0))
        oracle = dense_pagerank(
            list(graph.nodes),
            [(e.follower, e.leader, e.weight) for e in graph.edges],
        )
        worst_oracle = max(
            worst_oracle,
            max(abs(report.pagerank[n] - oracle[n]) for n in graph.nodes),
        )
    symmetric = pagerank(two_cycle).pagerank
    halves = abs(symmetric["a"] - 0.5) <= 1e-10 and abs(symmetric["b"] - 0.5) <= 1e-10
    ok = worst_sum <= 1e-10 and worst_oracle <= 1e-10 and halves
    assert verdict(
        7,
        "pagerank",
        ok,
        f"sum error {worst_sum:.2e}, oracle error {worst_oracle:.2e}, "
        f"2-cycle halves={halves}",
    )


def test_criterion_8_clustering_oracle():
    rng = np.random.default_rng(13)
    labels = tuple(f"p{i}" for i in range(6))
    agree = 0
    trials = 100
    monotone = True
    for _ in range(trials):
        points = rng.uniform(0.0, 10.0, (6, 2))
        d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(d, 0.0)
        dist = DistanceMatrix(cities=labels, d=d, coverage=np.ones((6, 6), dtype=np.int64))
        tree = average_linkage(dist)
        expected = naive_upgma(labels, d)
        got = [
            (frozenset(m.left), frozenset(m.right), m.height) for m in merges(tree)
        ]
        matches = len(got) == len(expected) and all(
            {g[0], g[1]} == {e[0], e[1]} and abs(g[2] - e[2]) <= 1e-9
            for g, e in zip(got, expected)
        )
        monotone = monotone and inversions(tree) == 0
        if matches:
            agree += 1

    line = DistanceMatrix(
        cities=("x0", "x1", "x2"),
        d=np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 9.0], [10.0, 9.0, 0.0]]),
        coverage=np.ones((3, 3), dtype=np.int64),
    )
    line_heights = [m.height for m in merges(average_linkage(line))]
    line_ok = abs(line_heights[0] - 1.0) <= 1e-12 and abs(line_heights[1] - 9.5) <= 1e-12
    ok = agree == trials and monotone and line_ok
    assert verdict(
        8,
        "clustering oracle",
        ok,
        f"{agree}/{trials} trees match, monotone={monotone}, "
        f"line fixture heights {line_heights[0]:.1f}/{line_heights[1]:.1f}",
    )


def test_criterion_9_monotone_power(tmp_path):
    def recovery_fraction(coupling: float) -> float:
        hierarchy = chain_hierarchy(N_CITIES, lag_weeks=PLANT_LAG, coupling=coupling)
        planted = {(e.follower, e.leader): e.lag_weeks for e in hierarchy.edges}
        hits = 0
        for seed in POWER_SEEDS:
            config = SynthConfig(
                n_artists=N_ARTISTS,
                n_weeks=N_WEEKS,
                noise_sigma=NOISE_SIGMA,
                seed=seed,
                missing_weeks=MISSING,
            )
            charts = generate_charts(hierarchy, config)
            graph, _ = charts_to_graph(charts, tmp_path, f"pwr{coupling}_{seed}")
            got = {(e.follower, e.leader): e.lag_weeks for e in graph.edges}
            hits += sum(1 for pair, lag in planted.items() if got.get(pair) == lag)
        return hits / (len(planted) * len(list(POWER_SEEDS)))

    weak = recovery_fraction(0.2)
    strong = recovery_fraction(0.8)
    ok = strong >= weak
    assert verdict(
        9,
        "monotone power",
        ok,
        f"coupling 0.8 recovers {100 * strong:.1f}%, "
        f"coupling 0.2 recovers {100 * weak:.1f}%",
    )


def test_criterion_10_deterministic_exports(tmp_path):
    hierarchy, config = synth_fixture_config(0)
    charts = generate_charts(hierarchy, config)
    chart_path = tmp_path / "charts.csv"
    missing_path = tmp_path / "missing.txt"
    pops_path = tmp_path / "populations.csv"
    write_chart_csv(chart_path, charts)
    write_missing_weeks(missing_path, MISSING)
    write_populations(pops_path, hierarchy.populations())
    out = tmp_path / "run"
    run_config = RunConfig(
        chart_path=str(chart_path),
        missing_weeks_path=str(missing_path),
        populations_path=str(pops_path),
        output_dir=str(out),
    )
    first = run_pipeline(run_config)
    snapshot = {
        name: path.read_bytes() for name, path in first.artifacts.items()
    }
    second = run_pipeline(run_config)
    identical = []
    for name, path in second.artifacts.items():
        if name == "manifest":
            continue
        identical.append(path.read_bytes() == snapshot[name])
    m1 = json.loads(snapshot["manifest"])
    m2 = json.loads(second.artifacts["manifest"].read_bytes())
    m1.pop("created_at")
    m2.pop("created_at")
    ok = all(identical) and len(identical) == len(snapshot) - 1 and m1 == m2
    assert verdict(
        10,
        "deterministic exports",
        ok,
        f"{sum(identical)}/{len(identical)} artifacts byte-identical, "
        "manifest equal modulo created_at",
    )
