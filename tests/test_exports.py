import json
import re

import pytest

from leadlag.exports import (
    ExportFormatError,
    read_acyclicity_json,
    read_edge_csv,
    read_manifest,
    read_populations,
    read_size_leadership_json,
    sha256_digest,
    write_acyclicity_json,
    write_centrality_json,
    write_dot,
    write_edge_csv,
    write_graphml,
    write_manifest,
    write_populations,
    write_size_leadership_json,
)
from leadlag.network import (
    AcyclicityReport,
    CentralityReport,
    Edge,
    LeadershipGraph,
    SizeLeadershipReport,
    feedback_arc_set,
    pagerank,
)

from readers import parse_dot, read_centrality_json, read_graphml


@pytest.fixture
def graph():
    edges = (
        Edge(follower="boston", leader="new york", weight=0.41, lag_weeks=1),
        Edge(follower="chicago", leader="new york", weight=0.2, lag_weeks=3),
        Edge(follower="new york", leader="chicago", weight=0.05, lag_weeks=2),
    )
    nodes = ("boston", "chicago", "new york", "quiet town")
    return LeadershipGraph(nodes=nodes, edges=edges)


@pytest.fixture
def populations():
    return {"boston": 4_000_000, "chicago": 9_000_000, "new york": 19_000_000}


def test_graph_exports_ignore_the_order_a_graph_is_given_in(tmp_path, graph, populations):
    given = LeadershipGraph(graph.nodes[::-1], graph.edges[::-1])
    centrality = pagerank(graph)
    writers = {
        "edges.csv": write_edge_csv,
        "graph.dot": lambda path, g: write_dot(path, g, centrality, populations),
        "graph.graphml": lambda path, g: write_graphml(path, g, centrality, populations),
    }
    for name, write in writers.items():
        paths = tmp_path / f"sorted_{name}", tmp_path / f"given_{name}"
        write(paths[0], graph)
        write(paths[1], given)
        assert paths[0].read_bytes() == paths[1].read_bytes(), name


class TestEdgeCsv:
    def test_round_trip(self, tmp_path, graph):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, graph)
        assert read_edge_csv(path).edges == graph.edges

    def test_exact_bytes(self, tmp_path):
        graph = LeadershipGraph(
            nodes=("a", "b"),
            edges=(Edge("b", "a", 1 / 3, 2),),
        )
        path = tmp_path / "edges.csv"
        write_edge_csv(path, graph)
        text = path.read_text()
        assert text == "follower,leader,weight,lag_weeks\nb,a,0.3333333333333333,2\n"
        assert read_edge_csv(path).edges[0].weight == 1 / 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("leader,follower,weight,lag_weeks\n")
        with pytest.raises(ExportFormatError, match="header"):
            read_edge_csv(path)

    def test_bad_field(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("follower,leader,weight,lag_weeks\nb,a,heavy,2\n")
        with pytest.raises(ExportFormatError, match=":2:"):
            read_edge_csv(path)

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("follower,leader,weight,lag_weeks\nb,a,0.5,2\nb,a,0.5,2\n")
        with pytest.raises(ExportFormatError, match=r":3: duplicate"):
            read_edge_csv(path)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0.0", "-0.25"])
    def test_weight_not_finite_and_positive(self, tmp_path, weight):
        path = tmp_path / "edges.csv"
        path.write_text(f"follower,leader,weight,lag_weeks\nb,a,{weight},2\n")
        with pytest.raises(ExportFormatError, match=r":2: weight"):
            read_edge_csv(path)

    @pytest.mark.parametrize("lag", ["0", "6", "9", "-1"])
    def test_lag_out_of_range(self, tmp_path, lag):
        path = tmp_path / "edges.csv"
        path.write_text(f"follower,leader,weight,lag_weeks\nb,a,0.5,{lag}\n")
        with pytest.raises(ExportFormatError, match=r":2: lag"):
            read_edge_csv(path)


class TestPopulations:
    def test_round_trip(self, tmp_path, populations):
        path = tmp_path / "pops.csv"
        write_populations(path, populations)
        assert read_populations(path) == populations

    def test_duplicate_city(self, tmp_path):
        path = tmp_path / "pops.csv"
        path.write_text("city,population\nx,10\nx,20\n")
        with pytest.raises(ExportFormatError, match="duplicate"):
            read_populations(path)

    def test_nonpositive(self, tmp_path):
        path = tmp_path / "pops.csv"
        path.write_text("city,population\nx,0\n")
        with pytest.raises(ExportFormatError, match="positive"):
            read_populations(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pops.csv"
        path.write_text("town,people\nx,10\n")
        with pytest.raises(ExportFormatError, match="header"):
            read_populations(path)


class TestDot:
    def test_round_trip_with_attributes(self, tmp_path, graph, populations):
        centrality = pagerank(graph)
        path = tmp_path / "graph.dot"
        write_dot(path, graph, centrality, populations)
        nodes, edges = parse_dot(path)
        assert set(nodes) == set(graph.nodes)
        assert edges == sorted(graph.edges, key=lambda e: (e.follower, e.leader))
        assert nodes["boston"]["pagerank"] == centrality.pagerank["boston"]
        assert nodes["boston"]["population"] == populations["boston"]
        assert "population" not in nodes["quiet town"]

    def test_round_trip_bare(self, tmp_path, graph):
        path = tmp_path / "graph.dot"
        write_dot(path, graph)
        nodes, edges = parse_dot(path)
        assert all(attrs == {} for attrs in nodes.values())
        assert len(edges) == 3

    def test_arrow_direction_is_leader_to_follower(self, tmp_path):
        graph = LeadershipGraph(
            nodes=("f", "l"), edges=(Edge("f", "l", 0.5, 1),)
        )
        path = tmp_path / "graph.dot"
        write_dot(path, graph)
        assert '"l" -> "f"' in path.read_text()

    def test_quoting(self, tmp_path):
        name = 'city "x" \\ y'
        graph = LeadershipGraph(
            nodes=(name, "z"), edges=(Edge(name, "z", 1.0, 1),)
        )
        path = tmp_path / "graph.dot"
        write_dot(path, graph)
        nodes, edges = parse_dot(path)
        assert name in nodes
        assert edges[0].follower == name

    def test_rejects_foreign_dot(self, tmp_path):
        path = tmp_path / "foreign.dot"
        path.write_text("digraph g {\n  a -> b;\n}\n")
        with pytest.raises(ExportFormatError):
            parse_dot(path)


class TestGraphml:
    def test_round_trip_with_attributes(self, tmp_path, graph, populations):
        centrality = pagerank(graph)
        path = tmp_path / "graph.graphml"
        write_graphml(path, graph, centrality, populations)
        nodes, edges = read_graphml(path)
        assert set(nodes) == set(graph.nodes)
        assert edges == sorted(graph.edges, key=lambda e: (e.follower, e.leader))
        assert nodes["chicago"]["weighted_in_degree"] == pytest.approx(
            centrality.weighted_in_degree["chicago"], abs=0
        )
        assert nodes["chicago"]["population"] == populations["chicago"]

    def test_matches_dot_content(self, tmp_path, graph, populations):
        centrality = pagerank(graph)
        dot_path = tmp_path / "graph.dot"
        gml_path = tmp_path / "graph.graphml"
        write_dot(dot_path, graph, centrality, populations)
        write_graphml(gml_path, graph, centrality, populations)
        assert parse_dot(dot_path) == read_graphml(gml_path)

    def test_rejects_non_xml(self, tmp_path):
        path = tmp_path / "graph.graphml"
        path.write_text("this is not xml")
        with pytest.raises(ExportFormatError, match="XML"):
            read_graphml(path)

    @pytest.mark.parametrize("char", ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1c", "\x1f",
                                      "\ufffe", "\uffff"])
    def test_city_xml_cannot_carry_is_rejected_before_the_file_opens(self, tmp_path, char):
        city = f"z{char}"
        path = tmp_path / "graph.graphml"
        with pytest.raises(ValueError, match=re.escape(f"city {city!r} holds a character")):
            write_graphml(path, LeadershipGraph(("a", city), (Edge("a", city, 0.5, 1),)))
        assert not path.exists()

    def test_every_other_city_name_parses_back(self, tmp_path):
        """Tab, line ends and the other characters XML 1.0 allows survive a round trip."""
        names = ("tab\tx", "n\nl", "r\rx", "del\x7f", "c1\x85", "\ud7ff", "\U0001f3b5", "a&<>\"'")
        path = tmp_path / "graph.graphml"
        write_graphml(path, LeadershipGraph(names, (Edge(names[0], names[1], 0.5, 1),)))
        nodes, edges = read_graphml(path)
        assert set(nodes) == set(names)
        assert edges == [Edge(names[0], names[1], 0.5, 1)]


class TestJsonReports:
    def test_centrality_round_trip(self, tmp_path, graph):
        report = pagerank(graph)
        path = tmp_path / "centrality.json"
        write_centrality_json(path, report)
        assert read_centrality_json(path) == report

    def test_acyclicity_round_trip(self, tmp_path, graph):
        report = feedback_arc_set(graph)
        path = tmp_path / "acyclicity.json"
        write_acyclicity_json(path, report)
        assert read_acyclicity_json(path) == report

    def test_size_leadership_round_trip(self, tmp_path):
        report = SizeLeadershipReport(
            spearman_pagerank=0.34,
            spearman_indegree=0.18,
            percent_weight_larger_leads=55.0,
            cities_used=("a", "b", "c"),
        )
        path = tmp_path / "size.json"
        write_size_leadership_json(path, report)
        assert read_size_leadership_json(path) == report

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "centrality.json"
        path.write_text(json.dumps({"pagerank": {}}))
        with pytest.raises(ExportFormatError, match="weighted_in_degree"):
            read_centrality_json(path)

    def test_deterministic_bytes(self, tmp_path, graph):
        report = pagerank(graph)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_centrality_json(p1, report)
        write_centrality_json(p2, report)
        assert p1.read_bytes() == p2.read_bytes()


class TestManifest:
    def test_round_trip(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("week,city,artist,listeners\n")
        path = tmp_path / "manifest.json"
        write_manifest(
            path,
            parameters={"alpha": 0.01, "min_samples": 20},
            input_paths={"charts": data},
            version="0.1.0",
        )
        manifest = read_manifest(path)
        assert manifest["parameters"]["alpha"] == 0.01
        assert manifest["tool_version"] == "0.1.0"
        assert manifest["inputs"]["charts"]["sha256"] == sha256_digest(data)
        assert "created_at" in manifest

    def test_only_timestamp_differs_between_runs(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("week,city,artist,listeners\n")
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for p in (p1, p2):
            write_manifest(p, {"alpha": 0.01}, {"charts": data}, "0.1.0")
        m1, m2 = read_manifest(p1), read_manifest(p2)
        m1.pop("created_at")
        m2.pop("created_at")
        assert m1 == m2

    def test_digest_tracks_content(self, tmp_path):
        f = tmp_path / "x"
        f.write_bytes(b"abc")
        assert sha256_digest(f) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
