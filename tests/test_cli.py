import json
import math

import pytest

from leadlag.charts import read_chart_csv
from leadlag.cli import main
from leadlag.cluster import parse_newick
from leadlag.exports import (
    parse_dot,
    read_acyclicity_json,
    read_centrality_json,
    read_edge_csv,
    read_graphml,
    read_manifest,
    read_size_leadership_json,
    write_edge_csv,
    write_populations,
)
from leadlag.network import Edge, LeadershipGraph
from leadlag.pipeline import RunConfig, run_pipeline
from leadlag.synth import SynthConfig, chain_hierarchy, generate_charts

from helpers import DISTORTIONS, distort

PLANTED = {("c01", "c00"): 1, ("c02", "c01"): 1, ("c03", "c02"): 1}


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


def write_one_dyad_cache(path, values):
    """A dyads.json holding the b -> a dyad at lag 1; json writes NaN and Infinity as such."""
    samples = [[week, value] for week, value in enumerate(values)]
    dyad = {"leader": "a", "follower": "b", "best_lag": 1, "correlation": sum(values) / len(values),
            "samples": {"1": samples}}
    path.write_text(json.dumps({"dyads": [dyad]}) + "\n")


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
        assert read_edge_csv(arts["edges"]) == sorted(
            result.graph.edges, key=lambda e: (e.follower, e.leader)
        )
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
        charts = read_chart_csv(synth_inputs["charts"])
        artists = sorted({a for c in charts for a, _ in c.entries})
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
        with pytest.raises(ValueError, match="lag_range"):
            base_config(synth_inputs, tmp_path, lag_range=())
        with pytest.raises(ValueError, match="lag_range"):
            base_config(synth_inputs, tmp_path, lag_range=(0, 1))
        with pytest.raises(ValueError, match="genre_id"):
            base_config(synth_inputs, tmp_path, genre_id="indie")

    def test_format_flags(self, synth_inputs, tmp_path):
        result = run_pipeline(
            base_config(
                synth_inputs, tmp_path / "out", emit_dot=False, emit_graphml=False
            )
        )
        assert "dot" not in result.artifacts
        assert "graphml" not in result.artifacts
        assert not (tmp_path / "out" / "graph.dot").exists()


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
        "subset, charts, cities, weeks, starts",
        [([], 17, 2, "0..9 (10 total)", 7), (["--cities", "late"], 7, 1, "3..9 (7 total)", 4)],
    )
    def test_ingest_summary_lines(self, tmp_path, capsys, subset, charts, cities, weeks, starts):
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
            f"cities: {cities}",
            "artists: 4",
            f"weeks: {weeks}",
            "missing weeks: 0",
            f"valid window starts: {starts}",
        ]

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
        edges = read_edge_csv(out / "edges.csv")
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
        run_dir = tmp_path / "full"
        stage_dir = tmp_path / "stage"
        chart_args = ["--charts", synth_inputs["charts"], "--missing", synth_inputs["missing"]]
        assert main(["run", *chart_args, "--out", str(run_dir)]) == 0
        dyads = str(run_dir / "dyads.json")
        assert main(["graph", "--dyads", dyads, "--out", str(stage_dir)]) == 0
        for name in ("edges.csv", "graph.dot", "graph.graphml"):
            assert (stage_dir / name).read_bytes() == (run_dir / name).read_bytes(), name
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
        assert len(shuffled) == len(original)
        assert {c.city_id for c in shuffled} == {c.city_id for c in original}
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
        assert (out / "manifest.json").exists()

        assert main(["report", "--run-dir", str(out)]) == 0
        report_out = capsys.readouterr().out
        assert "% edge weight removed to make acyclic" in report_out
        assert "% edge weight where leader larger" in report_out
        assert "pagerank" in report_out

    def test_run_respects_no_dot(self, synth_inputs, tmp_path, capsys):
        out = tmp_path / "slim"
        code = main(
            [
                "run",
                "--charts",
                synth_inputs["charts"],
                "--missing",
                synth_inputs["missing"],
                "--no-dot",
                "--no-graphml",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert not (out / "graph.dot").exists()
        assert not (out / "graph.graphml").exists()
        assert (out / "edges.csv").exists()
        capsys.readouterr()


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
        assert f"{path}: dyad 'b' -> 'a' {DISTORTIONS[case]}" in capsys.readouterr().err
        assert not (tmp_path / "edges.csv").exists()

    def test_graph_alpha_out_of_range_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"dyads":[]}\n')
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
