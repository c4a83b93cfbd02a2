import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import leadlag
from leadlag import charts as charts_module
from leadlag.charts import ChartStore, read_chart_csv, write_chart_csv, write_missing_weeks
from leadlag.cli import main
from leadlag.exports import (
    read_acyclicity_json,
    read_edge_csv,
    read_manifest,
    read_size_leadership_json,
    write_acyclicity_json,
    write_edge_csv,
    write_populations,
)
from leadlag.lagcorr import load_dyads, save_dyads
from leadlag.network import Edge, LeadershipGraph
from leadlag.pipeline import RunConfig, genre_artists, run_pipeline
from leadlag.synth import SynthConfig, chain_hierarchy, generate_charts, shuffle_null

from helpers import DISTORTIONS, cache_payload, cache_rejection, distort
from readers import parse_dot, parse_newick, read_centrality_json, read_graphml

PLANTED = {("c01", "c00"): 1, ("c02", "c01"): 1, ("c03", "c02"): 1}


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    """The 10 x 120 acceptance fixture, the run over it, and a 24-node ring edge list."""
    root = tmp_path_factory.mktemp("acceptance")
    config = SynthConfig(
        n_artists=120,
        n_weeks=153,
        noise_sigma=0.05,
        seed=0,
        missing_weeks=frozenset({7, 19, 23, 41, 47, 59, 66, 74, 88, 97, 109, 118, 131, 144}),
    )
    write_chart_csv(root / "charts.csv", generate_charts(chain_hierarchy(10, coupling=0.9), config))
    write_missing_weeks(root / "missing.txt", config.missing_weeks)
    # A 24-node ring with chords: one component above the exact DP's size, cut by the greedy peel.
    nodes = tuple(f"n{i:02d}" for i in range(24))
    ring = [Edge(nodes[i], nodes[(i + 1) % 24], 1.0, 1) for i in range(24)]
    ring += [Edge(nodes[i], nodes[(i + 7) % 24], 0.05, 1) for i in range(24)]
    write_edge_csv(root / "ring.csv", LeadershipGraph(nodes, tuple(ring)))
    charts = ["--charts", str(root / "charts.csv"), "--missing", str(root / "missing.txt")]
    assert main(["run", *charts, "--out", str(root / "run")]) == 0
    return root, charts


# Each command, given the fixture's root directory and chart arguments.
COMMANDS = {
    "run": lambda root, charts: ["run", *charts, "--out", str(root / "probe_run")],
    "dyads": lambda root, charts: ["dyads", *charts, "--out", str(root / "probe_dyads")],
    "graph --dyads": lambda root, charts: [
        "graph", "--dyads", str(root / "run" / "dyads.json"), "--out", str(root / "probe_graph")
    ],
    "fas --edges": lambda root, charts: ["fas", "--edges", str(root / "ring.csv")],
    "pagerank --edges": lambda root, charts: [
        "pagerank", "--edges", str(root / "run" / "edges.csv")
    ],
    "cluster": lambda root, charts: ["cluster", *charts, "--out", str(root / "probe_cluster")],
    "ingest": lambda root, charts: ["ingest", *charts],
    "report": lambda root, charts: ["report", "--run-dir", str(root / "run")],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_scipy_module(acceptance_run, command):
    # scipy is a test-only dependency: no command may import any part of it.
    argv = COMMANDS[command](*acceptance_run)
    probe = (
        "import sys, leadlag.cli; status = leadlag.cli.main(sys.argv[1:]); "
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(leadlag.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"


@pytest.fixture(scope="module")
def synth_inputs(tmp_path_factory):
    """Four-city chain fixture shared by the pipeline and CLI tests."""
    root = tmp_path_factory.mktemp("inputs")
    hier = chain_hierarchy(4, coupling=0.9)
    cfg = SynthConfig(
        n_artists=40,
        n_weeks=60,
        noise_sigma=0.05,
        seed=3,
        missing_weeks=frozenset({10}),
    )
    from leadlag.charts import write_chart_csv, write_missing_weeks

    charts_path = root / "charts.csv"
    missing_path = root / "missing.txt"
    pops_path = root / "populations.csv"
    write_chart_csv(charts_path, generate_charts(hier, cfg))
    write_missing_weeks(missing_path, cfg.missing_weeks)
    write_populations(pops_path, hier.populations())
    return {
        "charts": str(charts_path),
        "missing": str(missing_path),
        "populations": str(pops_path),
    }


def write_one_dyad_cache(path, values, cities=("a", "b")):
    """A dyads.json holding the dyad cities[1] -> cities[0] at lag 1 over weeks 0, 1, ...."""
    payload = cache_payload(
        list(cities), leader=[0], follower=[1], lag=[1], correlation=[sum(values) / len(values)],
        sizes=[len(values)], weeks=range(len(values)), values=values,
    )
    path.write_text(json.dumps(payload) + "\n")


def base_config(synth_inputs, out_dir, **overrides):
    kwargs = dict(
        chart_path=synth_inputs["charts"],
        missing_weeks_path=synth_inputs["missing"],
        populations_path=synth_inputs["populations"],
        output_dir=str(out_dir),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestRunPipeline:
    def test_writes_every_artifact(self, synth_inputs, tmp_path):
        result = run_pipeline(base_config(synth_inputs, tmp_path / "out"))
        expected = {
            "dyads",
            "edges",
            "dot",
            "graphml",
            "centrality",
            "acyclicity",
            "size_leadership",
            "dendrogram",
            "manifest",
        }
        assert set(result.artifacts) == expected
        for path in result.artifacts.values():
            assert path.exists()
        assert result.size is not None

    def test_recovers_planted_edges_as_dag(self, synth_inputs, tmp_path):
        result = run_pipeline(base_config(synth_inputs, tmp_path / "out"))
        got = {(e.follower, e.leader): e.lag_weeks for e in result.graph.edges}
        for pair, lag in PLANTED.items():
            assert got.get(pair) == lag
        assert result.acyclicity.percent_removed <= 5.0
        assert result.acyclicity.exact

    def test_every_artifact_round_trips(self, synth_inputs, tmp_path):
        result = run_pipeline(base_config(synth_inputs, tmp_path / "out"))
        arts = result.artifacts
        assert read_edge_csv(arts["edges"]).edges == result.graph.edges
        assert parse_dot(arts["dot"]) == read_graphml(arts["graphml"])
        assert read_centrality_json(arts["centrality"]) == result.centrality
        assert read_acyclicity_json(arts["acyclicity"]) == result.acyclicity
        assert read_size_leadership_json(arts["size_leadership"]) == result.size
        tree = parse_newick(arts["dendrogram"].read_text().strip())
        assert sorted(tree.leaves()) == ["c00", "c01", "c02", "c03"]
        manifest = read_manifest(arts["manifest"])
        assert manifest["parameters"]["alpha"] == 0.01

    def test_rerun_byte_identical_except_manifest(self, synth_inputs, tmp_path):
        first = run_pipeline(base_config(synth_inputs, tmp_path / "a"))
        second = run_pipeline(base_config(synth_inputs, tmp_path / "b", output_dir=str(tmp_path / "b")))
        for name, path in first.artifacts.items():
            other = second.artifacts[name]
            if name == "manifest":
                m1, m2 = read_manifest(path), read_manifest(other)
                m1.pop("created_at")
                m2.pop("created_at")
                m1["parameters"].pop("output_dir")
                m2["parameters"].pop("output_dir")
                assert m1 == m2
            else:
                assert path.read_bytes() == other.read_bytes(), name

    def test_without_populations_skips_size_analysis(self, synth_inputs, tmp_path):
        config = base_config(synth_inputs, tmp_path / "out", populations_path=None)
        result = run_pipeline(config)
        assert result.size is None
        assert "size_leadership" not in result.artifacts

    def test_city_subset(self, synth_inputs, tmp_path):
        config = base_config(
            synth_inputs, tmp_path / "out", city_subset=("c00", "c01")
        )
        result = run_pipeline(config)
        assert result.graph.nodes == ("c00", "c01")
        got = {(e.follower, e.leader): e.lag_weeks for e in result.graph.edges}
        assert got.get(("c01", "c00")) == 1

    def test_unknown_subset_city(self, synth_inputs, tmp_path):
        config = base_config(
            synth_inputs, tmp_path / "out", city_subset=("c00", "nowhere")
        )
        with pytest.raises(ValueError, match="nowhere"):
            run_pipeline(config)

    def test_missing_populations_file(self, synth_inputs, tmp_path):
        config = base_config(
            synth_inputs,
            tmp_path / "out",
            populations_path=str(tmp_path / "absent.csv"),
        )
        with pytest.raises(OSError):
            run_pipeline(config)

    def test_genre_covering_all_artists_changes_nothing(
        self, synth_inputs, tmp_path
    ):
        artists = read_chart_csv(synth_inputs["charts"]).universe.artists
        genre_path = tmp_path / "genres.csv"
        lines = ["genre,rank,artist"]
        lines += [f"everything,{i + 1},{a}" for i, a in enumerate(artists)]
        genre_path.write_text("\n".join(lines) + "\n")
        plain = run_pipeline(base_config(synth_inputs, tmp_path / "plain"))
        filtered = run_pipeline(
            base_config(
                synth_inputs,
                tmp_path / "filtered",
                genre_path=str(genre_path),
                genre_id="everything",
            )
        )
        assert filtered.graph == plain.graph

    def test_config_validation(self, synth_inputs, tmp_path):
        with pytest.raises(ValueError, match="alpha"):
            base_config(synth_inputs, tmp_path, alpha=1.5)
        with pytest.raises(ValueError, match="lags must be non-empty"):
            base_config(synth_inputs, tmp_path, lag_range=())
        with pytest.raises(ValueError, match="lag must be in 1..5, got 0"):
            base_config(synth_inputs, tmp_path, lag_range=(0, 1))
        with pytest.raises(ValueError, match="genre 'indie' given without a genre catalog"):
            base_config(synth_inputs, tmp_path, genre_id="indie")
        with pytest.raises(ValueError, match=f"^{re.escape(FAIL_FAST['--cities'][1])}$"):
            base_config(synth_inputs, tmp_path, city_subset=())


class TestCliCommands:
    def test_ingest_summary(self, synth_inputs, capsys):
        code = main(
            ["ingest", "--charts", synth_inputs["charts"], "--missing", synth_inputs["missing"]]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cities: 4" in out
        assert "missing weeks: 1" in out

    @pytest.mark.parametrize(
        "subset, charts, entries, cities, weeks, starts",
        [([], 17, 26, 2, "0..9 (10 total)", 7),
         (["--cities", "late"], 7, 7, 1, "3..9 (7 total)", 4)],
    )
    def test_ingest_summary_lines(
        self, tmp_path, capsys, subset, charts, entries, cities, weeks, starts
    ):
        """`late` charts weeks 3..9 only, so its subset has a shorter study period."""
        rows = ["week,city,artist,listeners"]
        for week in range(10):
            rows.append(f"{week},early,a{week % 3},{week + 1}")
            rows += [f"{week},early,b,2"] if week != 5 else []
            rows += [f"{week},late,a0,{week}"] if week >= 3 else []
        path = tmp_path / "charts.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["ingest", "--charts", str(path), *subset]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"charts: {charts}",
            f"entries: {entries}",
            f"cities: {cities}",
            "artists: 4",
            f"weeks: {weeks}",
            "missing weeks: 0",
            f"valid window starts: {starts}",
        ]

    @pytest.mark.parametrize("quote", [False, True])
    def test_ingest_counts_every_entry(self, tmp_path, capsys, quote):
        """A chart whose rows are apart in the file is one chart, and each of its rows an
        entry, whether a line is split as bytes or, with a quoted name, by csv."""
        rows = [(0, "a", "x"), (0, "b", "x"), (0, "a", "y"), (1, "a", "x"), (0, "a", "z")]
        name = '"z"' if quote else "z"
        lines = [f"{w},{c},{name if a == 'z' else a},1" for w, c, a in rows]
        path = tmp_path / "charts.csv"
        path.write_text("week,city,artist,listeners\n" + "\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", "--charts", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["charts: 3", "entries: 5"]

    def test_run_without_a_valid_window_keeps_the_cities(self, tmp_path, capsys):
        # Three weeks hold no 4-week window, so no city has a velocity; the run's
        # graph and its cache, and a graph rebuilt from the cache, still have both.
        path = tmp_path / "charts.csv"
        rows = "".join(f"{week},{city},x,1\n" for week in range(3) for city in "ab")
        path.write_text("week,city,artist,listeners\n" + rows, encoding="utf-8")
        assert main(["run", "--charts", str(path), "--out", str(tmp_path / "run")]) == 0
        assert "nodes: 2" in capsys.readouterr().out.splitlines()
        cache = tmp_path / "run" / "dyads.json"
        assert json.loads(cache.read_text())["cities"] == ["a", "b"]
        assert main(["graph", "--dyads", str(cache), "--out", str(tmp_path / "graph")]) == 0
        assert "nodes: 2" in capsys.readouterr().out.splitlines()

    def test_synth_emits_loadable_inputs(self, tmp_path, capsys):
        hier_path = tmp_path / "hier.json"
        cfg_path = tmp_path / "cfg.json"
        hier_path.write_text(
            json.dumps(
                {
                    "cities": [
                        {"city": "aa", "population": 900000, "activity": 15000.0},
                        {"city": "bb", "population": 700000, "activity": 15000.0},
                    ],
                    "edges": [
                        {"leader": "aa", "follower": "bb", "lag": 1, "coupling": 0.9}
                    ],
                }
            )
        )
        cfg_path.write_text(
            json.dumps({"n_artists": 25, "n_weeks": 30, "seed": 5, "missing_weeks": [4]})
        )
        out_dir = tmp_path / "synth"
        code = main(
            [
                "synth",
                "--hierarchy",
                str(hier_path),
                "--config",
                str(cfg_path),
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        charts = read_chart_csv(out_dir / "charts.csv")
        assert {c.city_id for c in charts} == {"aa", "bb"}
        assert (out_dir / "missing_weeks.txt").read_text() == "4\n"
        assert "population" in (out_dir / "populations.csv").read_text()
        capsys.readouterr()

    def test_dyads_then_graph_then_fas_then_pagerank(
        self, synth_inputs, tmp_path, capsys
    ):
        out = tmp_path / "stage"
        assert (
            main(
                [
                    "dyads",
                    "--charts",
                    synth_inputs["charts"],
                    "--missing",
                    synth_inputs["missing"],
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (
            main(["graph", "--dyads", str(out / "dyads.json"), "--out", str(out)]) == 0
        )
        edges = read_edge_csv(out / "edges.csv").edges
        got = {(e.follower, e.leader): e.lag_weeks for e in edges}
        for pair, lag in PLANTED.items():
            assert got.get(pair) == lag
        capsys.readouterr()

        assert main(["fas", "--edges", str(out / "edges.csv")]) == 0
        fas_out = capsys.readouterr().out
        assert "0.0%" in fas_out

        assert (
            main(["pagerank", "--edges", str(out / "edges.csv"), "--out", str(out)])
            == 0
        )
        pr_out = capsys.readouterr().out
        assert "pagerank" in pr_out
        assert "c00" in pr_out
        assert (out / "centrality.json").exists()

    def test_graph_reproduces_run_exports(self, synth_inputs, tmp_path, capsys):
        # zz charts too few weeks for any dyad, yet it is a node of the run's
        # graph and counts in the Bonferroni level; the cache must keep it.
        isolated = tmp_path / "isolated.csv"
        extra = "".join(f"{w},zz,zz_artist,5\n" for w in range(12) if w != 10)
        isolated.write_text(Path(synth_inputs["charts"]).read_text(encoding="utf-8") + extra)
        cases = [(synth_inputs["charts"], []), (str(isolated), ["--bonferroni"])]
        for k, (charts, flags) in enumerate(cases):
            run_dir, stage_dir = tmp_path / f"full{k}", tmp_path / f"stage{k}"
            chart_args = ["--charts", charts, "--missing", synth_inputs["missing"]]
            assert main(["run", *chart_args, *flags, "--out", str(run_dir)]) == 0
            dyads = str(run_dir / "dyads.json")
            assert main(["graph", "--dyads", dyads, *flags, "--out", str(stage_dir)]) == 0
            for name in ("edges.csv", "graph.dot", "graph.graphml", "centrality.json"):
                assert (stage_dir / name).read_bytes() == (run_dir / name).read_bytes(), name
        assert "zz" in read_centrality_json(stage_dir / "centrality.json").pagerank
        capsys.readouterr()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fas_and_pagerank_ignore_edge_row_order(self, acceptance_run, tmp_path, capsys, seed):
        run = acceptance_run[0] / "run"
        header, *rows = (run / "edges.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(seed).shuffle(rows)
        shuffled = tmp_path / "edges.csv"
        shuffled.write_text(header + "".join(rows), encoding="utf-8")
        assert main(["fas", "--edges", str(shuffled), "--out", str(tmp_path)]) == 0
        assert main(["pagerank", "--edges", str(shuffled), "--out", str(tmp_path)]) == 0
        for name in ("acyclicity.json", "centrality.json"):
            assert (tmp_path / name).read_bytes() == (run / name).read_bytes(), name
        capsys.readouterr()

    def test_run_without_a_size_correlation_finishes(self, synth_inputs, tmp_path, capsys):
        # No edge passes at this alpha, so PageRank is uniform and its rank
        # correlation with population is undefined.
        out = tmp_path / "out"
        argv = ["run", "--charts", synth_inputs["charts"], "--missing", synth_inputs["missing"],
                "--populations", synth_inputs["populations"], "--alpha", "1e-300", "--out", str(out)]
        with pytest.warns(UserWarning, match="^population or centrality is constant"):
            assert main(argv) == 0
        assert read_edge_csv(out / "edges.csv").edges == ()
        assert read_manifest(out / "manifest.json")["parameters"]["alpha"] == 1e-300
        assert not (out / "size_leadership.json").exists()
        assert main(["report", "--run-dir", str(out)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags", [[], ["--cities", "c00,c01,c03", "--lags", "1,3", "--min-samples", "10"]]
    )
    def test_stage_commands_reproduce_run_exports(self, synth_inputs, tmp_path, capsys, flags):
        charts = ["--charts", synth_inputs["charts"], "--missing", synth_inputs["missing"]]
        cities = flags[:2]  # cluster takes the chart arguments only
        assert main(["run", *charts, *flags, "--out", str(tmp_path / "run")]) == 0
        assert main(["dyads", *charts, *flags, "--out", str(tmp_path / "dyads")]) == 0
        assert main(["cluster", *charts, *cities, "--out", str(tmp_path / "cluster")]) == 0
        run = tmp_path / "run"
        for stage, name in (("dyads", "dyads.json"), ("cluster", "dendrogram.nwk")):
            assert (tmp_path / stage / name).read_bytes() == (run / name).read_bytes(), name
        cache = load_dyads(run / "dyads.json")
        save_dyads(tmp_path / "again.json", cache)
        assert (tmp_path / "again.json").read_bytes() == (run / "dyads.json").read_bytes()
        if cities:
            assert cache.cities == ("c00", "c01", "c03")
        capsys.readouterr()

    def test_fas_reports_cycle_weight(self, tmp_path, capsys):
        graph = LeadershipGraph(
            nodes=("a", "b"),
            edges=(Edge("b", "a", 3.0, 1), Edge("a", "b", 1.0, 2)),
        )
        path = tmp_path / "edges.csv"
        write_edge_csv(path, graph)
        assert main(["fas", "--edges", str(path)]) == 0
        out = capsys.readouterr().out
        assert "25.0%" in out
        assert "exact" in out

    def test_pagerank_of_edgeless_graph(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, LeadershipGraph(nodes=(), edges=()))
        assert main(["pagerank", "--edges", str(path), "--out", str(tmp_path)]) == 0
        assert "pagerank" in capsys.readouterr().out
        report = read_centrality_json(tmp_path / "centrality.json")
        assert report.pagerank == {} and report.weighted_in_degree == {}

    def test_cluster_writes_dendrogram(self, synth_inputs, tmp_path, capsys):
        out = tmp_path / "clust"
        code = main(
            [
                "cluster",
                "--charts",
                synth_inputs["charts"],
                "--missing",
                synth_inputs["missing"],
                "--cut",
                "1000.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "cluster 0:" in printed
        tree = parse_newick((out / "dendrogram.nwk").read_text().strip())
        assert sorted(tree.leaves()) == ["c00", "c01", "c02", "c03"]

    def test_cluster_rejects_a_nan_cut(self, synth_inputs, tmp_path, capsys):
        chart_args = ["--charts", synth_inputs["charts"], "--missing", synth_inputs["missing"]]
        assert main(["cluster", *chart_args, "--cut", "nan", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: cut height must be non-negative, got nan\n"

    def test_shuffle_round_trip(self, synth_inputs, tmp_path, capsys):
        out = tmp_path / "null"
        code = main(
            [
                "shuffle",
                "--charts",
                synth_inputs["charts"],
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        shuffled = read_chart_csv(out / "charts_shuffled.csv")
        original = read_chart_csv(synth_inputs["charts"])
        assert shuffled.chart_count == original.chart_count
        assert shuffled.cities == original.cities
        capsys.readouterr()

    def test_shuffle_reads_a_plain_file_as_bytes(self, synth_inputs, tmp_path, monkeypatch, capsys):
        """As in every other command, the csv reader only gets files the byte reader refuses."""
        csv_reads, rows = [], charts_module.csv_rows
        monkeypatch.setattr(charts_module, "csv_rows", lambda *a: csv_reads.append(a) or rows(*a))
        chart_args = ["--charts", synth_inputs["charts"], "--seed", "7"]
        assert main(["shuffle", *chart_args, "--out", str(tmp_path)]) == 0
        assert csv_reads == []
        want = tmp_path / "want.csv"
        write_chart_csv(want, shuffle_null(read_chart_csv(synth_inputs["charts"]), seed=7))
        assert (tmp_path / "charts_shuffled.csv").read_bytes() == want.read_bytes()
        capsys.readouterr()

    def test_run_and_report(self, synth_inputs, tmp_path, capsys):
        out = tmp_path / "full"
        code = main(
            [
                "run",
                "--charts",
                synth_inputs["charts"],
                "--missing",
                synth_inputs["missing"],
                "--populations",
                synth_inputs["populations"],
                "--out",
                str(out),
            ]
        )
        assert code == 0
        run_out = capsys.readouterr().out
        assert "accepted edges:" in run_out
        assert "% (exact)" in run_out
        assert (out / "manifest.json").exists()

        assert main(["report", "--run-dir", str(out)]) == 0
        report_out = capsys.readouterr().out
        assert "% edge weight removed to make acyclic" in report_out
        assert "% (exact)" in report_out
        heuristic = replace(read_acyclicity_json(out / "acyclicity.json"), exact=False)
        write_acyclicity_json(out / "acyclicity.json", heuristic)
        assert main(["report", "--run-dir", str(out)]) == 0
        assert "% (heuristic)" in capsys.readouterr().out
        assert "% edge weight where leader larger" in report_out
        assert "pagerank" in report_out


# A bad value for each checked flag, and the one message every command gives for it.
FAIL_FAST = {
    "--alpha": ("1.5", "alpha must be in (0, 1), got 1.5"),
    "--cities": (",", "city subset is empty"),
    "--genre": ("rock", "genre 'rock' given without a genre catalog (--genre-file)"),
    "--lags": ("0-1", "lag must be in 1..5, got 0"),
    "--min-samples": ("1", "min_samples must be at least 2, got 1"),
}
FAIL_FAST_FLAGS = {
    "cluster": ("--cities", "--genre"),
    "dyads": ("--cities", "--genre", "--lags", "--min-samples"),
    "graph": ("--alpha",),
    "ingest": ("--cities", "--genre"),
    "run": ("--alpha", "--cities", "--genre", "--lags", "--min-samples"),
}


class TestCliErrors:
    def test_validation_exit_code(self, synth_inputs, tmp_path, capsys):
        code = main(
            [
                "run",
                "--charts",
                synth_inputs["charts"],
                "--missing",
                synth_inputs["missing"],
                "--alpha",
                "2.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_stray_missing_week_exit_code(self, synth_inputs, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        missing.write_text("10\n5000\n")
        code = main(["ingest", "--charts", synth_inputs["charts"], "--missing", str(missing)])
        assert code == 1
        assert "5000" in capsys.readouterr().err

    def test_malformed_edge_csv_exit_code(self, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        path.write_text("follower,leader,weight,lag_weeks\nb,a,nan,2\n")
        for command in ("fas", "pagerank"):
            assert main([command, "--edges", str(path)]) == 1
            assert f"{path}:2:" in capsys.readouterr().err

    def test_non_finite_dyad_cache_exit_code(self, tmp_path, capsys):
        path = tmp_path / "dyads.json"
        for bad in (math.nan, math.inf, -math.inf):
            write_one_dyad_cache(path, [bad] + [0.1 + 0.01 * (w % 3) for w in range(24)])
            assert main(["graph", "--dyads", str(path), "--out", str(tmp_path)]) == 1
            assert str(path) in capsys.readouterr().err
            assert not (tmp_path / "edges.csv").exists()

    @pytest.mark.parametrize("case", sorted(DISTORTIONS))
    def test_distorting_dyad_cache_exit_code(self, tmp_path, capsys, case):
        path = tmp_path / "dyads.json"
        write_one_dyad_cache(path, [0.2 + 0.01 * (w % 3) for w in range(25)])
        path.write_text(json.dumps(distort(json.loads(path.read_text()), case)))
        assert main(["graph", "--dyads", str(path), "--out", str(tmp_path)]) == 1
        assert cache_rejection(path, "b", "a", case) in capsys.readouterr().err
        assert not (tmp_path / "edges.csv").exists()

    def test_city_xml_cannot_carry_exit_code(self, synth_inputs, tmp_path, capsys):
        charts = tmp_path / "charts.csv"
        extra = "".join(f"{w},z\x1c,zz_artist,5\n" for w in range(12) if w != 10)
        charts.write_text(Path(synth_inputs["charts"]).read_text(encoding="utf-8") + extra)
        run_dir = tmp_path / "run"
        chart_args = ["--charts", str(charts), "--missing", synth_inputs["missing"]]
        assert main(["run", *chart_args, "--out", str(run_dir)]) == 1
        assert "city 'z\\x1c' holds a character" in capsys.readouterr().err
        assert not run_dir.exists()  # checked once the charts are read, before the scan
        cache = tmp_path / "dyads.json"
        write_one_dyad_cache(cache, [0.2 + 0.01 * (w % 2) for w in range(30)], ("a", "z\x1c"))
        assert main(["graph", "--dyads", str(cache), "--out", str(tmp_path / "graph")]) == 1
        assert "city 'z\\x1c' holds a character" in capsys.readouterr().err
        assert not (tmp_path / "graph").exists()  # checked before any file is written

    def test_graph_alpha_out_of_range_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"cities":[],"correlation":"","follower":"","lag":"","leader":"",'
                         '"sizes":"","values":"","weeks":""}\n')
        lone = tmp_path / "lone.json"
        write_one_dyad_cache(lone, [0.2 + 0.01 * (w % 2) for w in range(30)])
        cases = [(empty, alpha) for alpha in ("7", "0", "-1", "nan")] + [(lone, "7")]
        for cache, alpha in cases:
            out = tmp_path / f"{cache.stem}_{alpha}"
            code = main(["graph", "--dyads", str(cache), f"--alpha={alpha}", "--out", str(out)])
            assert code == 1
            assert "alpha must be in (0, 1)" in capsys.readouterr().err
            assert not (out / "edges.csv").exists()
        assert main(["graph", "--dyads", str(lone), "--out", str(tmp_path / "ok")]) == 0
        assert "accepted edges: 1" in capsys.readouterr().out

    def test_io_exit_code(self, tmp_path, capsys):
        code = main(["ingest", "--charts", str(tmp_path / "absent.csv")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_genre_without_catalog(self, synth_inputs, tmp_path, capsys):
        code = main(
            [
                "dyads",
                "--charts",
                synth_inputs["charts"],
                "--missing",
                synth_inputs["missing"],
                "--genre",
                "indie",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "genre" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in sorted(FAIL_FAST_FLAGS.items()) for flag in flags
    ])
    def test_bad_argument_fails_before_any_input_is_read(self, tmp_path, capsys, command, flag):
        # One message per mistake, from every command, before it opens a file.
        value, message = FAIL_FAST[flag]
        absent = str(tmp_path / "absent")
        inputs = ["--dyads", absent] if command == "graph" else ["--charts", absent]
        out = [] if command == "ingest" else ["--out", str(tmp_path / "out")]
        assert main([command, *inputs, flag, value, *out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["cluster", "dyads", "ingest", "run"])
    def test_unknown_subset_city(self, synth_inputs, tmp_path, capsys, command):
        charts = ["--charts", synth_inputs["charts"], "--missing", synth_inputs["missing"]]
        out = [] if command == "ingest" else ["--out", str(tmp_path)]
        assert main([command, *charts, "--cities", "c00,zz,nowhere", *out]) == 1
        assert capsys.readouterr().err == "error: unknown cities in subset: nowhere, zz\n"

    @pytest.mark.parametrize("command", ["cluster", "dyads", "ingest", "run"])
    def test_unknown_genre_fails_before_the_charts_are_read(self, tmp_path, capsys, command):
        genres = tmp_path / "genres.csv"
        genres.write_text("genre,rank,artist\nrock,1,a\n")
        charts = ["--charts", str(tmp_path / "absent"), "--genre-file", str(genres)]
        out = [] if command == "ingest" else ["--out", str(tmp_path / "out")]
        assert main([command, *charts, "--genre", "nosuch", *out]) == 1
        assert capsys.readouterr().err == "error: unknown genre 'nosuch'\n"
        assert not (tmp_path / "out").exists()

    def test_api_gives_the_same_subset_and_genre_messages(self, synth_inputs):
        store = ChartStore.from_files(synth_inputs["charts"], synth_inputs["missing"])
        with pytest.raises(ValueError, match="^unknown cities in subset: nowhere, zz$"):
            store.restrict(("c00", "zz", "nowhere"))
        with pytest.raises(ValueError, match=f"^{re.escape(FAIL_FAST['--genre'][1])}$"):
            genre_artists(None, "rock")

    def test_unknown_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_bad_lag_range(self, synth_inputs, tmp_path, capsys):
        code = main(
            [
                "dyads",
                "--charts",
                synth_inputs["charts"],
                "--missing",
                synth_inputs["missing"],
                "--lags",
                "5-1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1
        assert "lag" in capsys.readouterr().err

    def test_bad_scan_arguments_with_one_city(self, synth_inputs, tmp_path, capsys):
        for flag, value, message in (
            ("--lags", "9", "lag must be in 1..5, got 9"),
            ("--min-samples", "0", "min_samples must be at least 2, got 0"),
        ):
            out = tmp_path / flag.strip("-")
            code = main(
                [
                    "dyads",
                    "--charts",
                    synth_inputs["charts"],
                    "--missing",
                    synth_inputs["missing"],
                    "--cities",
                    "c00",
                    flag,
                    value,
                    "--out",
                    str(out),
                ]
            )
            assert code == 1
            assert message in capsys.readouterr().err
            assert not (out / "dyads.json").exists()

    def test_output_dir_env_default(self, synth_inputs, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LEADLAG_OUTPUT_DIR", str(target))
        code = main(
            [
                "dyads",
                "--charts",
                synth_inputs["charts"],
                "--missing",
                synth_inputs["missing"],
            ]
        )
        assert code == 0
        assert (target / "dyads.json").exists()
        capsys.readouterr()
