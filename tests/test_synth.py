import json
from collections import Counter

import pytest

from leadlag.charts import ChartStore, normalize_rows, write_chart_csv
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

from oracles import best_dyad


def two_cities(coupling=1.0, lag=1):
    return PlantedHierarchy(
        cities=(
            SynthCity("aa", population=500_000, activity=30_000.0),
            SynthCity("bb", population=400_000, activity=30_000.0),
        ),
        edges=(PlantedEdge(leader="aa", follower="bb", lag_weeks=lag, coupling=coupling),),
    )


def store_from(charts, missing=frozenset()):
    from leadlag.charts import ArtistUniverse

    universe = ArtistUniverse(a for c in charts for a, _ in c.entries)
    return ChartStore(charts, universe, missing)


def velocities_of(charts, missing=frozenset()):
    store = store_from(charts, missing)
    windows = {
        s: normalize_rows(store.window(s)) for s in store.valid_window_starts()
    }
    return compute_all_velocities(windows), store


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
        assert first == second
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_chart_csv(p1, first)
        write_chart_csv(p2, second)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        hier = chain_hierarchy(3, coupling=0.7)
        a = generate_charts(hier, SynthConfig(n_artists=25, n_weeks=30, seed=1))
        b = generate_charts(hier, SynthConfig(n_artists=25, n_weeks=30, seed=2))
        assert a != b

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
        assert charts
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
            assert abs(vel.matrix).sum() == 0.0
        dyad = best_dyad(series["c01"], series["c00"], min_samples=5)
        assert dyad.correlation == 0.0
        graph = build_graph(
            scan_dyads(series, min_samples=5), nodes=store.cities
        )
        assert graph.edges == ()

    def test_perfect_copy_recovers_planted_lag(self):
        hier = two_cities(coupling=1.0, lag=1)
        cfg = SynthConfig(n_artists=30, n_weeks=60, noise_sigma=0.0, seed=9)
        series, store = velocities_of(generate_charts(hier, cfg))
        dyad = best_dyad(series["bb"], series["aa"])
        assert dyad.best_lag == 1
        assert dyad.correlation > 0.0
        graph = build_graph(scan_dyads(series), nodes=store.cities)
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
        assert generate_charts(hier, cfg) == charts


class TestShuffle:
    def test_preserves_per_city_content_multiset(self):
        hier = chain_hierarchy(3, coupling=0.8)
        charts = generate_charts(hier, SynthConfig(n_artists=20, n_weeks=25, seed=4))
        shuffled = shuffle_null(charts, seed=17)
        assert len(shuffled) == len(charts)

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
        assert once == again
        assert once != other

    def test_actually_permutes(self):
        hier = chain_hierarchy(2, coupling=0.8)
        charts = generate_charts(hier, SynthConfig(n_artists=20, n_weeks=40, seed=4))
        shuffled = shuffle_null(charts, seed=5)
        assert shuffled != sorted(charts, key=lambda c: (c.week_index, c.city_id))

    def test_static_charts_unchanged(self):
        hier = chain_hierarchy(2)
        cfg = SynthConfig(
            n_artists=20, n_weeks=15, noise_sigma=0.0, step_scale=0.0, seed=3
        )
        charts = generate_charts(hier, cfg)
        assert shuffle_null(charts, seed=99) == sorted(
            charts, key=lambda c: (c.week_index, c.city_id)
        )

    def test_duplicate_week_rejected(self):
        hier = chain_hierarchy(2)
        charts = generate_charts(hier, SynthConfig(n_artists=10, n_weeks=5, seed=1))
        with pytest.raises(ValueError, match="duplicate chart"):
            shuffle_null(list(charts) + [charts[0]], seed=1)


class TestLoaders:
    def test_hierarchy_round_trip(self, tmp_path):
        raw = {
            "cities": [
                {"city": "aa", "population": 500000, "activity": 30000.0},
                {"city": "bb", "population": 400000, "activity": 30000.0},
            ],
            "edges": [
                {"leader": "aa", "follower": "bb", "lag": 1, "coupling": 1.0}
            ],
        }
        path = tmp_path / "hier.json"
        path.write_text(json.dumps(raw))
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
