import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from leadlag.charts import write_chart_csv
from leadlag.lagcorr import compute_all_velocities, scan_dyads
from leadlag.network import build_graph
from leadlag.synth import (
    PlantedEdge,
    PlantedHierarchy,
    SynthCity,
    SynthConfig,
    chain_hierarchy,
    generate_charts,
    load_hierarchy,
    load_synth_config,
    shuffle_null,
)

from helpers import bench_module
from oracles import best_dyad


def two_cities(coupling=1.0, lag=1):
    return PlantedHierarchy(
        cities=(
            SynthCity("aa", population=500_000, activity=30_000.0),
            SynthCity("bb", population=400_000, activity=30_000.0),
        ),
        edges=(PlantedEdge(leader="aa", follower="bb", lag_weeks=lag, coupling=coupling),),
    )


def velocities_of(store):
    return compute_all_velocities(store.windows()), store


class TestValidation:
    def test_cycle_rejected(self):
        cities = (
            SynthCity("x", 1000, 10.0),
            SynthCity("y", 1000, 10.0),
        )
        edges = (
            PlantedEdge("x", "y", 1, 0.5),
            PlantedEdge("y", "x", 1, 0.5),
        )
        with pytest.raises(ValueError, match="cycle"):
            PlantedHierarchy(cities=cities, edges=edges)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="self"):
            PlantedEdge("x", "x", 1, 0.5)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown city"):
            PlantedHierarchy(
                cities=(SynthCity("x", 1000, 10.0),),
                edges=(PlantedEdge("x", "ghost", 1, 0.5),),
            )

    def test_duplicate_city_rejected(self):
        with pytest.raises(ValueError, match="duplicate city"):
            PlantedHierarchy(
                cities=(SynthCity("x", 1000, 10.0), SynthCity("x", 2000, 10.0))
            )

    def test_duplicate_edge_rejected(self):
        cities = (SynthCity("x", 1000, 10.0), SynthCity("y", 1000, 10.0))
        with pytest.raises(ValueError, match="duplicate planted edge"):
            PlantedHierarchy(
                cities=cities,
                edges=(PlantedEdge("x", "y", 1, 0.5), PlantedEdge("x", "y", 2, 0.4)),
            )

    @pytest.mark.parametrize("lag", [0, 6, -1])
    def test_lag_out_of_range(self, lag):
        with pytest.raises(ValueError, match="lag_weeks"):
            PlantedEdge("x", "y", lag, 0.5)

    @pytest.mark.parametrize("coupling", [0.0, -0.2, 1.5])
    def test_coupling_out_of_range(self, coupling):
        with pytest.raises(ValueError, match="coupling"):
            PlantedEdge("x", "y", 1, coupling)

    def test_bad_city_fields(self):
        with pytest.raises(ValueError, match="population"):
            SynthCity("x", 0, 10.0)
        with pytest.raises(ValueError, match="activity"):
            SynthCity("x", 1000, 0.0)
        with pytest.raises(ValueError, match="city_id"):
            SynthCity("", 1000, 10.0)

    def test_config_bounds(self):
        with pytest.raises(ValueError, match="n_artists"):
            SynthConfig(n_artists=0)
        with pytest.raises(ValueError, match="n_weeks"):
            SynthConfig(n_artists=5, n_weeks=0)
        with pytest.raises(ValueError, match="noise_sigma"):
            SynthConfig(n_artists=5, noise_sigma=-0.1)
        with pytest.raises(ValueError, match="missing week"):
            SynthConfig(n_artists=5, n_weeks=10, missing_weeks=frozenset({10}))

    def test_topological_order_diamond(self):
        cities = tuple(SynthCity(c, 1000, 10.0) for c in "abcd")
        edges = (
            PlantedEdge("a", "b", 1, 0.5),
            PlantedEdge("a", "c", 1, 0.5),
            PlantedEdge("b", "d", 1, 0.5),
            PlantedEdge("c", "d", 1, 0.5),
        )
        hier = PlantedHierarchy(cities=cities, edges=edges)
        assert hier.topological_order() == ["a", "b", "c", "d"]


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        hier = chain_hierarchy(3, coupling=0.7)
        cfg = SynthConfig(n_artists=25, n_weeks=30, seed=11)
        first = generate_charts(hier, cfg)
        second = generate_charts(hier, cfg)
        assert list(first) == list(second)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_chart_csv(p1, first)
        write_chart_csv(p2, second)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        hier = chain_hierarchy(3, coupling=0.7)
        a = generate_charts(hier, SynthConfig(n_artists=25, n_weeks=30, seed=1))
        b = generate_charts(hier, SynthConfig(n_artists=25, n_weeks=30, seed=2))
        assert list(a) != list(b)

    def test_all_weeks_emitted_including_flagged(self):
        hier = chain_hierarchy(2)
        cfg = SynthConfig(
            n_artists=20, n_weeks=12, seed=3, missing_weeks=frozenset({4, 7})
        )
        charts = generate_charts(hier, cfg)
        weeks = {c.week_index for c in charts}
        assert weeks == set(range(12))

    def test_counts_positive_integers(self):
        hier = chain_hierarchy(2)
        charts = generate_charts(hier, SynthConfig(n_artists=40, n_weeks=8, seed=5))
        for chart in charts:
            for _, listeners in chart.entries:
                assert listeners >= 1

    def test_entry_cap_binds(self):
        hier = PlantedHierarchy(
            cities=(SynthCity("solo", 1000, 1_000_000.0),)
        )
        charts = generate_charts(hier, SynthConfig(n_artists=620, n_weeks=3, seed=2))
        assert charts.chart_count == 3
        for chart in charts:
            assert len(chart.entries) == 500

    def test_no_drive_means_static_cities(self):
        hier = chain_hierarchy(3, coupling=0.9)
        cfg = SynthConfig(
            n_artists=30, n_weeks=40, noise_sigma=0.0, step_scale=0.0, seed=7
        )
        charts = generate_charts(hier, cfg)
        by_city = {}
        for chart in charts:
            by_city.setdefault(chart.city_id, set()).add(chart.entries)
        for entries_seen in by_city.values():
            assert len(entries_seen) == 1

    def test_no_drive_yields_no_edges(self):
        hier = chain_hierarchy(3, coupling=0.9)
        cfg = SynthConfig(
            n_artists=30, n_weeks=40, noise_sigma=0.0, step_scale=0.0, seed=7
        )
        series, store = velocities_of(generate_charts(hier, cfg))
        for vel in series.values():
            assert abs(vel.matrix.data).sum() == 0.0
        dyad = best_dyad(series["c01"], series["c00"], min_samples=5)
        assert dyad.correlation == 0.0
        graph = build_graph(scan_dyads(series, min_samples=5))
        assert graph.nodes == store.cities and graph.edges == ()

    def test_perfect_copy_recovers_planted_lag(self):
        hier = two_cities(coupling=1.0, lag=1)
        cfg = SynthConfig(n_artists=30, n_weeks=60, noise_sigma=0.0, seed=9)
        series, store = velocities_of(generate_charts(hier, cfg))
        dyad = best_dyad(series["bb"], series["aa"])
        assert dyad.best_lag == 1
        assert dyad.correlation > 0.0
        graph = build_graph(scan_dyads(series))
        assert graph.nodes == store.cities
        directed = {(e.follower, e.leader): e.lag_weeks for e in graph.edges}
        assert directed.get(("bb", "aa")) == 1
        assert ("aa", "bb") not in directed

    def test_multi_leader_generation_runs(self):
        cities = tuple(SynthCity(c, 1000, 5000.0) for c in ("pa", "pb", "kid"))
        edges = (
            PlantedEdge("pa", "kid", 1, 0.6),
            PlantedEdge("pb", "kid", 2, 0.6),
        )
        hier = PlantedHierarchy(cities=cities, edges=edges)
        cfg = SynthConfig(n_artists=15, n_weeks=10, seed=1)
        charts = generate_charts(hier, cfg)
        assert {c.city_id for c in charts} == {"pa", "pb", "kid"}
        assert list(generate_charts(hier, cfg)) == list(charts)


class TestShuffle:
    def test_preserves_per_city_content_multiset(self):
        hier = chain_hierarchy(3, coupling=0.8)
        charts = generate_charts(hier, SynthConfig(n_artists=20, n_weeks=25, seed=4))
        shuffled = shuffle_null(charts, seed=17)
        assert shuffled.chart_count == charts.chart_count

        def per_city(cs):
            grouped = {}
            for c in cs:
                grouped.setdefault(c.city_id, Counter())[c.entries] += 1
            return grouped

        before, after = per_city(charts), per_city(shuffled)
        assert before == after
        weeks_before = {(c.city_id, c.week_index) for c in charts}
        weeks_after = {(c.city_id, c.week_index) for c in shuffled}
        assert weeks_before == weeks_after

    def test_reproducible_and_seed_sensitive(self):
        hier = chain_hierarchy(2, coupling=0.8)
        charts = generate_charts(hier, SynthConfig(n_artists=20, n_weeks=40, seed=4))
        once = shuffle_null(charts, seed=5)
        again = shuffle_null(charts, seed=5)
        other = shuffle_null(charts, seed=6)
        assert list(once) == list(again)
        assert list(once) != list(other)

    def test_actually_permutes(self):
        hier = chain_hierarchy(2, coupling=0.8)
        charts = generate_charts(hier, SynthConfig(n_artists=20, n_weeks=40, seed=4))
        shuffled = shuffle_null(charts, seed=5)
        assert list(shuffled) != list(charts)

    def test_static_charts_unchanged(self):
        hier = chain_hierarchy(2)
        cfg = SynthConfig(
            n_artists=20, n_weeks=15, noise_sigma=0.0, step_scale=0.0, seed=3
        )
        charts = generate_charts(hier, cfg)
        assert list(shuffle_null(charts, seed=99)) == list(charts)

    def test_input_store_unchanged(self):
        cfg = SynthConfig(n_artists=10, n_weeks=9, seed=1, missing_weeks=frozenset({4}))
        charts = generate_charts(chain_hierarchy(2), cfg)
        arrays = (charts.week, charts.city, charts.entries.data, charts.entries.indices,
                  charts.entries.indptr)
        before = [a.copy() for a in arrays]
        shuffled = shuffle_null(charts, seed=1)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
        assert shuffled.missing_weeks == charts.missing_weeks == frozenset({4})


# The acceptance fixture's 14 missing weeks.
MISSING = frozenset({7, 19, 23, 41, 47, 59, 66, 74, 88, 97, 109, 118, 131, 144})


def sha256_of_csv(store, tmp_path):
    path = tmp_path / "charts.csv"
    write_chart_csv(path, store)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    """Chart files the generator, the shuffle and the writer give, pinned byte for byte."""

    def test_benchmark_inputs(self, tmp_path, monkeypatch):
        bench_module("inputs", monkeypatch).generate(tmp_path, 40, 40, 0)
        digest = hashlib.sha256((tmp_path / "charts.csv").read_bytes()).hexdigest()
        assert digest == "ab901987428b607321b80e60f3482c84607b706282fed484cc05e6c1b20d77fa"

    def test_capped_charts(self, tmp_path):
        hier = PlantedHierarchy(cities=(SynthCity("solo", 1000, 1_000_000.0),))
        charts = generate_charts(hier, SynthConfig(n_artists=620, n_weeks=3, seed=2))
        digest = "d73acbe63a7ae42eea223ae17d11daa06fa9d05a44a0e67ffdbf0a939e90db01"
        assert sha256_of_csv(charts, tmp_path) == digest

    def test_capped_charts_break_ties_by_label(self, tmp_path):
        """artist_10000 sorts before artist_9999, so ties at the cap go to it."""
        charts = generate_charts(
            chain_hierarchy(2, activity=1000.0), SynthConfig(n_artists=10_050, n_weeks=4, seed=0)
        )
        assert any(len(a) > len("artist_9999") for c in charts for a, _ in c.entries)
        digest = "ebfc99b313b832eeb518a823f202f84dbe62bfb6e3a4b1286396d0aee4f4d5a2"
        assert sha256_of_csv(charts, tmp_path) == digest

    def test_shuffled_acceptance_fixture(self, tmp_path):
        cfg = SynthConfig(n_artists=120, n_weeks=153, noise_sigma=0.05, seed=0,
                          missing_weeks=MISSING)
        charts = generate_charts(chain_hierarchy(10, lag_weeks=1, coupling=0.9), cfg)
        digest = "15104f8fb3828b0c60a079972dd04fa6b2bdb6cfe01e5c147cdb3369044c02f6"
        assert sha256_of_csv(shuffle_null(charts, seed=0), tmp_path) == digest


HIERARCHY = {
    "cities": [
        {"city": "aa", "population": 500000, "activity": 30000.0},
        {"city": "bb", "population": 400000, "activity": 30000.0},
    ],
    "edges": [{"leader": "aa", "follower": "bb", "lag": 1, "coupling": 1.0}],
}

# (section, field, value, problem): a JSON value the hierarchy loader used to coerce.
MISTYPED_HIERARCHY = [
    ("edges", "lag", 1.9, "edges: 0: lag: expected an integer, got 1.9"),
    ("edges", "lag", True, "edges: 0: lag: expected an integer, got True"),
    ("edges", "leader", 7, "edges: 0: leader: expected a string, got 7"),
    ("edges", "coupling", "1.0", "edges: 0: coupling: expected a number, got '1.0'"),
    ("cities", "city", 7, "cities: 0: city: expected a string, got 7"),
    ("cities", "population", 5e5, "cities: 0: population: expected an integer, got 500000.0"),
    ("cities", "activity", None, "cities: 0: activity: expected a number, got None"),
]

# (key, value, problem): a JSON value the config loader used to coerce.
MISTYPED_CONFIG = [
    ("n_artists", 5.9, "n_artists: expected an integer, got 5.9"),
    ("n_weeks", "60", "n_weeks: expected an integer, got '60'"),
    ("seed", True, "seed: expected an integer, got True"),
    ("noise_sigma", False, "noise_sigma: expected a number, got False"),
    ("missing_weeks", [3.7], "missing_weeks: 0: expected an integer, got 3.7"),
    ("missing_weeks", [3, "4"], "missing_weeks: 1: expected an integer, got '4'"),
    ("missing_weeks", 3, "missing_weeks: expected a list, got 3"),
]


class TestLoaders:
    @pytest.mark.parametrize("section, key, value, problem", MISTYPED_HIERARCHY)
    def test_hierarchy_rejects_mistyped_value(self, tmp_path, section, key, value, problem):
        raw = json.loads(json.dumps(HIERARCHY))
        raw[section][0][key] = value
        path = tmp_path / "hier.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as err:
            load_hierarchy(path)
        assert str(err.value) == f"{path}: {problem}"

    @pytest.mark.parametrize("key, value, problem", MISTYPED_CONFIG)
    def test_config_rejects_mistyped_value(self, tmp_path, key, value, problem):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_artists": 10, key: value}))
        with pytest.raises(ValueError) as err:
            load_synth_config(path)
        assert str(err.value) == f"{path}: {problem}"

    def test_hierarchy_round_trip(self, tmp_path):
        path = tmp_path / "hier.json"
        path.write_text(json.dumps(HIERARCHY))
        assert load_hierarchy(path) == two_cities(coupling=1.0, lag=1)

    def test_hierarchy_missing_key(self, tmp_path):
        path = tmp_path / "hier.json"
        path.write_text(json.dumps({"cities": [{"city": "aa", "population": 1}]}))
        with pytest.raises(ValueError, match="activity"):
            load_hierarchy(path)
        path.write_text(json.dumps({"edges": []}))
        with pytest.raises(ValueError, match="cities"):
            load_hierarchy(path)

    def test_config_round_trip(self, tmp_path):
        raw = {
            "n_artists": 120,
            "n_weeks": 153,
            "noise_sigma": 0.05,
            "seed": 42,
            "step_scale": 0.1,
            "missing_weeks": [7, 19],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_synth_config(path)
        assert cfg == SynthConfig(
            n_artists=120,
            n_weeks=153,
            noise_sigma=0.05,
            seed=42,
            step_scale=0.1,
            missing_weeks=frozenset({7, 19}),
        )

    def test_config_defaults_and_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_artists": 10}))
        cfg = load_synth_config(path)
        assert cfg.n_weeks == 153
        assert cfg.seed == 0
        path.write_text(json.dumps({"n_artists": 10, "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            load_synth_config(path)


class TestChainHelper:
    def test_shape_and_populations(self):
        hier = chain_hierarchy(4, lag_weeks=2, coupling=0.5)
        assert hier.city_ids() == ["c00", "c01", "c02", "c03"]
        assert len(hier.edges) == 3
        assert all(e.lag_weeks == 2 and e.coupling == 0.5 for e in hier.edges)
        pops = hier.populations()
        assert pops["c00"] > pops["c01"] > pops["c02"] > pops["c03"] > 0

    def test_single_city_has_no_edges(self):
        hier = chain_hierarchy(1)
        assert hier.edges == ()
        with pytest.raises(ValueError, match="n_cities"):
            chain_hierarchy(0)
