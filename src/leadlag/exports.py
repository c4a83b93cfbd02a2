"""Writers for every artifact the pipeline emits, and readers for those the CLI reads back.

Floats are written with repr, the shortest string that parses back to the
same double, so reruns with equal inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from contextlib import closing
from dataclasses import asdict
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Mapping
from xml.etree import ElementTree as ET

from .charts import INT64_MAX, csv_rows, json_list, json_records, json_value, parse_number, read_json
from .lagcorr import MAX_LAG, MIN_LAG
from .network import (
    AcyclicityReport,
    CentralityReport,
    Edge,
    LeadershipGraph,
    SizeLeadershipReport,
)

EDGE_HEADER = ("follower", "leader", "weight", "lag_weeks")
POPULATION_HEADER = ("city", "population")

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# Characters that XML 1.0 cannot carry, not even as character references.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")

NodeAttrs = dict[str, dict[str, float | int]]


class ExportFormatError(ValueError):
    """An artifact file does not match the format this module writes."""


def _fmt(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------- edge CSV


def write_edge_csv(path: str | Path, graph: LeadershipGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_HEADER)
        for e in graph.edges:
            writer.writerow([e.follower, e.leader, _fmt(e.weight), e.lag_weeks])


def _edge(where: str, seen: set, follower: str, leader: str, weight: float, lag: int,
          shown: object) -> Edge:
    """The edge of one record of an edge file, rejecting what the writers never
    write; `shown` is the weight as the file gives it."""
    if not follower or not leader:
        raise ExportFormatError(f"{where}: empty city id")
    if follower == leader:
        raise ExportFormatError(f"{where}: self-loop on {follower!r}")
    if (follower, leader) in seen:
        raise ExportFormatError(f"{where}: duplicate edge {follower!r} -> {leader!r}")
    seen.add((follower, leader))
    if not (math.isfinite(weight) and weight > 0):
        raise ExportFormatError(f"{where}: weight must be finite and positive, got {shown!r}")
    if not MIN_LAG <= lag <= MAX_LAG:
        raise ExportFormatError(f"{where}: lag must be in {MIN_LAG}..{MAX_LAG}, got {lag}")
    return Edge(follower, leader, weight, lag)


def read_edge_csv(path: str | Path) -> LeadershipGraph:
    """Parse write_edge_csv output, rejecting rows it never writes, as the graph
    over the cities its edges name: a city with no edge is not in the file."""
    edges: list[Edge] = []
    seen: set[tuple[str, str]] = set()
    with closing(csv_rows(path, EDGE_HEADER, ExportFormatError)) as rows:
        for where, (follower, leader, weight_text, lag_text) in rows:
            problem = f"{where}: bad weight {weight_text!r}"
            weight = parse_number(float, weight_text, problem, ExportFormatError)
            lag = parse_number(int, lag_text, f"{where}: bad lag {lag_text!r}", ExportFormatError)
            edges.append(_edge(where, seen, follower, leader, weight, lag, weight_text))
    return LeadershipGraph(tuple({c for e in edges for c in (e.follower, e.leader)}), tuple(edges))


# ---------------------------------------------------------- populations CSV


def write_populations(path: str | Path, populations: Mapping[str, int]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(POPULATION_HEADER)
        for city in sorted(populations):
            writer.writerow([city, populations[city]])


def read_populations(path: str | Path) -> dict[str, int]:
    populations: dict[str, int] = {}
    with closing(csv_rows(path, POPULATION_HEADER, ExportFormatError)) as rows:
        for where, (city, pop_text) in rows:
            if not city:
                raise ExportFormatError(f"{where}: empty city id")
            if city in populations:
                raise ExportFormatError(f"{where}: duplicate city {city!r}")
            problem = f"{where}: bad population {pop_text!r}"
            population = parse_number(int, pop_text, problem, ExportFormatError)
            if population <= 0:
                raise ExportFormatError(f"{where}: population must be positive, got {population}")
            if population > INT64_MAX:  # graph.graphml declares it a long
                raise ExportFormatError(
                    f"{where}: population must be at most {INT64_MAX}, got {population}"
                )
            populations[city] = population
    return populations


# ----------------------------------------------------------------- node attrs


def _node_attributes(
    graph: LeadershipGraph,
    centrality: CentralityReport | None,
    populations: Mapping[str, int] | None,
) -> NodeAttrs:
    attrs: NodeAttrs = {node: {} for node in graph.nodes}
    for node in attrs:
        if centrality is not None:
            attrs[node]["pagerank"] = float(centrality.pagerank[node])
            attrs[node]["weighted_in_degree"] = float(
                centrality.weighted_in_degree[node]
            )
        if populations is not None and node in populations:
            attrs[node]["population"] = int(populations[node])
    return attrs


# ----------------------------------------------------------------------- DOT


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _format_attrs(attrs: Mapping[str, float | int]) -> str:
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        text = str(value) if isinstance(value, int) else _fmt(value)
        parts.append(f"{key}={text}")
    return ", ".join(parts)


def write_dot(
    path: str | Path,
    graph: LeadershipGraph,
    centrality: CentralityReport | None = None,
    populations: Mapping[str, int] | None = None,
) -> None:
    """Influence digraph in DOT form; arrows point leader -> follower."""
    attrs = _node_attributes(graph, centrality, populations)
    lines = ["digraph leadership {"]
    for node in graph.nodes:
        block = f" [{_format_attrs(attrs[node])}]" if attrs[node] else ""
        lines.append(f"  {_dot_quote(node)}{block};")
    for e in graph.edges:
        block = _format_attrs({"lag_weeks": e.lag_weeks, "weight": e.weight})
        lines.append(f"  {_dot_quote(e.leader)} -> {_dot_quote(e.follower)} [{block}];")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# -------------------------------------------------------------------- GraphML


_GRAPHML_NODE_KEYS = (
    ("d_pagerank", "pagerank", "double"),
    ("d_indegree", "weighted_in_degree", "double"),
    ("d_population", "population", "long"),
)
_GRAPHML_EDGE_KEYS = (
    ("d_weight", "weight", "double"),
    ("d_lag", "lag_weeks", "int"),
)


def write_graphml(
    path: str | Path,
    graph: LeadershipGraph,
    centrality: CentralityReport | None = None,
    populations: Mapping[str, int] | None = None,
) -> None:
    """Same content as the DOT export in GraphML; source=leader. Raises ValueError, before
    the file is opened, for a city name that XML cannot carry."""
    for node in graph.nodes:
        if _NOT_XML.search(node):
            raise ValueError(f"city {node!r} holds a character that GraphML (XML 1.0) cannot carry")
    attrs = _node_attributes(graph, centrality, populations)
    root = ET.Element("graphml", xmlns=_GRAPHML_NS)
    for key_id, name, kind in _GRAPHML_NODE_KEYS:
        ET.SubElement(
            root, "key", id=key_id, **{"for": "node", "attr.name": name, "attr.type": kind}
        )
    for key_id, name, kind in _GRAPHML_EDGE_KEYS:
        ET.SubElement(
            root, "key", id=key_id, **{"for": "edge", "attr.name": name, "attr.type": kind}
        )
    g = ET.SubElement(root, "graph", id="leadership", edgedefault="directed")
    name_to_key = {name: key_id for key_id, name, _ in _GRAPHML_NODE_KEYS}
    for node in graph.nodes:
        el = ET.SubElement(g, "node", id=node)
        for name in sorted(attrs[node]):
            value = attrs[node][name]
            data = ET.SubElement(el, "data", key=name_to_key[name])
            data.text = str(value) if isinstance(value, int) else _fmt(value)
    for e in graph.edges:
        el = ET.SubElement(g, "edge", source=e.leader, target=e.follower)
        weight = ET.SubElement(el, "data", key="d_weight")
        weight.text = _fmt(e.weight)
        lag = ET.SubElement(el, "data", key="d_lag")
        lag.text = str(e.lag_weeks)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)


# ------------------------------------------------------------------ JSON


def _write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# raw[key] as a kind, raising ExportFormatError unless JSON gave it a value of that kind.
_json_value = partial(json_value, error=ExportFormatError)
# The JSON kind of each field of a removed edge, in the order Edge takes them, and of
# each top-level field of a manifest.
_EDGE_FIELDS = dict(zip(EDGE_HEADER, (str, str, float, int)))
_MANIFEST_FIELDS = {"created_at": str, "inputs": dict, "parameters": dict, "tool_version": str}


def write_centrality_json(path: str | Path, report: CentralityReport) -> None:
    _write_json(path, asdict(report))


def write_acyclicity_json(path: str | Path, report: AcyclicityReport) -> None:
    payload = asdict(report)
    payload["removed_edges"] = sorted(
        payload["removed_edges"], key=lambda e: (e["follower"], e["leader"])
    )
    _write_json(path, payload)


def _in_range(path: str | Path, raw: dict, key: str, low: float, high: float) -> float:
    """raw[key], a JSON number, rejected unless within [low, high]."""
    value = _json_value(raw, key, path)
    if not low <= value <= high:
        raise ExportFormatError(f"{path}: {key} {value!r} is outside [{low:g}, {high:g}]")
    return value


def read_acyclicity_json(path: str | Path) -> AcyclicityReport:
    """Parse write_acyclicity_json output, rejecting values it never writes: a
    removed edge `read_edge_csv` would reject, a `fas_weight` outside
    [0, total_weight] or other than the `math.fsum` of the removed weights,
    and a `percent_removed` outside [0, 100] or other than
    100 * fas_weight / total_weight (0 for a total of 0)."""
    raw = read_json(path, ExportFormatError)
    total = _json_value(raw, "total_weight", path)
    fas = _json_value(raw, "fas_weight", path)
    percent = _in_range(path, raw, "percent_removed", 0.0, 100.0)
    if not 0.0 <= fas <= total:
        raise ExportFormatError(f"{path}: fas_weight {fas!r} is outside [0, total_weight {total!r}]")
    exact = _json_value(raw, "exact", path, bool)
    seen: set[tuple[str, str]] = set()
    records = json_records(raw, "removed_edges", path, _EDGE_FIELDS, ExportFormatError)
    removed = tuple(_edge(f"{path}: removed_edges: {i}", seen, *values, values[2])
                    for i, values in enumerate(records))
    weight = math.fsum(e.weight for e in removed)
    if fas != weight:
        raise ExportFormatError(f"{path}: fas_weight {fas!r} is not the sum of the removed "
                                f"edges' weights, {weight!r}")
    share = 100.0 * fas / total if total > 0 else 0.0
    if percent != share:
        raise ExportFormatError(f"{path}: percent_removed {percent!r} is not "
                                f"100 * fas_weight / total_weight, {share!r}")
    return AcyclicityReport(total, fas, percent, removed, exact)


def write_size_leadership_json(path: str | Path, report: SizeLeadershipReport) -> None:
    _write_json(path, asdict(report))


def read_size_leadership_json(path: str | Path) -> SizeLeadershipReport:
    """Parse write_size_leadership_json output, rejecting a Spearman value
    outside [-1, 1], a percentage outside [0, 100] and a repeated city."""
    raw = read_json(path, ExportFormatError)
    report = SizeLeadershipReport(
        spearman_pagerank=_in_range(path, raw, "spearman_pagerank", -1.0, 1.0),
        spearman_indegree=_in_range(path, raw, "spearman_indegree", -1.0, 1.0),
        percent_weight_larger_leads=_in_range(path, raw, "percent_weight_larger_leads", 0.0, 100.0),
        cities_used=tuple(json_list(raw, "cities_used", path, str, ExportFormatError)),
    )
    cities = report.cities_used
    if len(set(cities)) < len(cities):
        twice = next(c for i, c in enumerate(cities) if c in cities[:i])
        raise ExportFormatError(f"{path}: cities_used lists {twice!r} twice")
    return report


# ---------------------------------------------------------------- manifest


def sha256_digest(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    path: str | Path,
    parameters: Mapping[str, object],
    input_paths: Mapping[str, str | Path],
    version: str,
) -> None:
    """Everything needed to reproduce a run.

    created_at is the only timestamp any export carries; byte-for-byte
    rerun comparisons should strip this one key.
    """
    _write_json(
        path,
        {
            "created_at": datetime.now(timezone.utc).isoformat(),
            "inputs": {
                name: {"path": str(p), "sha256": sha256_digest(p)}
                for name, p in sorted(input_paths.items())
            },
            "parameters": dict(parameters),
            "tool_version": version,
        },
    )


def read_manifest(path: str | Path) -> dict:
    """The manifest, each top-level field of its JSON kind; the run's genre, if the
    parameters name one, is a string."""
    raw = read_json(path, ExportFormatError)
    for key, kind in _MANIFEST_FIELDS.items():
        _json_value(raw, key, path, kind)
    if raw["parameters"].get("genre_id") is not None:
        _json_value(raw["parameters"], "genre_id", f"{path}: parameters", str)
    return raw
