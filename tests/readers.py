"""Readers for the artifacts no command reads back, used by the round-trip tests.

Each parses exactly what its writer in `leadlag.exports` or `leadlag.cluster`
emits and rejects anything else: the DOT and GraphML graphs, centrality.json
and the Newick dendrogram. `merges` lists a cluster tree's merges.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple
from xml.etree import ElementTree as ET

from leadlag.charts import FormatError, json_value, read_json
from leadlag.cluster import ClusterNode
from leadlag.exports import NodeAttrs, _GRAPHML_NS
from leadlag.network import CentralityReport, Edge

_DOT_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_DOT_NODE_RE = re.compile(rf"^{_DOT_QUOTED}(?:\s*\[([^\]]*)\])?;$")
_DOT_EDGE_RE = re.compile(rf"^{_DOT_QUOTED}\s*->\s*{_DOT_QUOTED}\s*\[([^\]]*)\];$")
_DOT_ATTR_RE = re.compile(r"^(\w+)=([^,\s]+)$")


def _dot_unquote(text: str) -> str:
    return text.replace('\\"', '"').replace("\\\\", "\\")


def _parse_attr_block(block: str, path: str | Path, lineno: int) -> dict:
    attrs: dict[str, float | int] = {}
    for piece in filter(None, (p.strip() for p in block.split(","))):
        match = _DOT_ATTR_RE.match(piece)
        if not match:
            raise FormatError(f"{path}:{lineno}: bad attribute {piece!r}")
        key, text = match.groups()
        attrs[key] = int(text) if re.fullmatch(r"-?\d+", text) else float(text)
    return attrs


def parse_dot(path: str | Path) -> tuple[NodeAttrs, list[Edge]]:
    """Parse the exact dialect write_dot emits, nothing more."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "digraph leadership {" or lines[-1] != "}":
        raise FormatError(f"{path}: not a digraph this tool wrote")
    nodes: NodeAttrs = {}
    edges: list[Edge] = []
    for lineno, line in enumerate(lines[1:-1], start=2):
        edge_match = _DOT_EDGE_RE.match(line)
        if edge_match:
            leader, follower, block = edge_match.groups()
            attrs = _parse_attr_block(block, path, lineno)
            for key in ("weight", "lag_weeks"):
                if key not in attrs:
                    raise FormatError(f"{path}:{lineno}: edge missing {key}")
            edges.append(
                Edge(
                    follower=_dot_unquote(follower),
                    leader=_dot_unquote(leader),
                    weight=float(attrs["weight"]),
                    lag_weeks=int(attrs["lag_weeks"]),
                )
            )
            continue
        node_match = _DOT_NODE_RE.match(line)
        if node_match:
            name, block = node_match.groups()
            attrs = _parse_attr_block(block, path, lineno) if block else {}
            nodes[_dot_unquote(name)] = attrs
            continue
        raise FormatError(f"{path}:{lineno}: unrecognized line {line!r}")
    return nodes, edges


def read_graphml(path: str | Path) -> tuple[NodeAttrs, list[Edge]]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise FormatError(f"{path}: not parseable XML: {exc}") from None
    ns = {"g": _GRAPHML_NS}
    key_names: dict[str, tuple[str, str]] = {}
    for key in root.findall("g:key", ns):
        key_names[key.get("id", "")] = (
            key.get("attr.name", ""),
            key.get("attr.type", ""),
        )
    graph_el = root.find("g:graph", ns)
    if graph_el is None:
        raise FormatError(f"{path}: no <graph> element")
    nodes: NodeAttrs = {}
    edges: list[Edge] = []
    for el in graph_el.findall("g:node", ns):
        node_id = el.get("id")
        if node_id is None:
            raise FormatError(f"{path}: node without id")
        attrs: dict[str, float | int] = {}
        for data in el.findall("g:data", ns):
            name, kind = key_names.get(data.get("key", ""), ("", ""))
            if not name:
                raise FormatError(f"{path}: undeclared data key on node {node_id!r}")
            text = data.text or ""
            attrs[name] = int(text) if kind in ("int", "long") else float(text)
        nodes[node_id] = attrs
    for el in graph_el.findall("g:edge", ns):
        leader, follower = el.get("source"), el.get("target")
        if leader is None or follower is None:
            raise FormatError(f"{path}: edge missing source or target")
        fields: dict[str, float | int] = {}
        for data in el.findall("g:data", ns):
            name, kind = key_names.get(data.get("key", ""), ("", ""))
            text = data.text or ""
            fields[name] = int(text) if kind in ("int", "long") else float(text)
        for field in ("weight", "lag_weeks"):
            if field not in fields:
                raise FormatError(f"{path}: edge missing {field}")
        edges.append(
            Edge(
                follower=follower,
                leader=leader,
                weight=float(fields["weight"]),
                lag_weeks=int(fields["lag_weeks"]),
            )
        )
    return nodes, edges


def read_centrality_json(path: str | Path) -> CentralityReport:
    raw = read_json(path)
    scores = {}
    for key in ("pagerank", "weighted_in_degree"):
        by_city = json_value(raw, key, path, dict)
        where = f"{path}: {key}"
        scores[key] = {c: json_value(by_city, c, where, float) for c in by_city}
    return CentralityReport(**scores)


def cluster_map(partition: Iterable[tuple[str, ...]]) -> dict[str, int]:
    """Number clusters by smallest member and map each city to its cluster."""
    ordered = sorted(partition, key=lambda c: c[0])
    return {city: idx for idx, members in enumerate(ordered) for city in members}


class _NewickParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, what: str) -> ValueError:
        return ValueError(f"bad dendrogram at offset {self.pos}: {what}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def label(self) -> str:
        if self.peek() == "'":
            self.pos += 1
            out = []
            while True:
                if self.pos >= len(self.text):
                    raise self.error("unterminated quoted label")
                ch = self.text[self.pos]
                self.pos += 1
                if ch == "'":
                    if self.peek() == "'":
                        self.pos += 1
                        out.append("'")
                        continue
                    return "".join(out)
                out.append(ch)
        start = self.pos
        while self.peek() and self.peek() not in "();:,":
            self.pos += 1
        if start == self.pos:
            raise self.error("empty label")
        return self.text[start : self.pos]

    def number(self) -> float:
        start = self.pos
        while self.peek() and self.peek() not in "();,":
            self.pos += 1
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            raise self.error("expected a branch length") from None

    def node(self) -> ClusterNode:
        if self.peek() != "(":
            return ClusterNode(height=0.0, city=self.label())
        self.take("(")
        left = self.node()
        self.take(":")
        left_len = self.number()
        self.take(",")
        right = self.node()
        self.take(":")
        right_len = self.number()
        self.take(")")
        h_left = left.height + left_len
        h_right = right.height + right_len
        if abs(h_left - h_right) > 1e-9 * max(1.0, abs(h_left)):
            raise self.error("subtree heights disagree; not an ultrametric tree")
        return ClusterNode(height=h_left, left=left, right=right)


def parse_newick(text: str) -> ClusterNode:
    """Inverse of to_newick for the constrained trees this package writes: the root."""
    parser = _NewickParser(text.strip())
    root = parser.node()
    parser.take(";")
    if parser.pos != len(parser.text):
        raise parser.error("trailing characters")
    return root


class Merge(NamedTuple):
    left: frozenset[str]
    right: frozenset[str]
    height: float


def merges(tree: ClusterNode) -> list[Merge]:
    """Every internal node of `tree` as the merge of its two sides, by height, ties
    broken by the smallest city they join."""
    found: list[Merge] = []

    def collect(node: ClusterNode) -> None:
        if node.is_leaf():
            return
        collect(node.left)
        collect(node.right)
        sides = frozenset(node.left.leaves()), frozenset(node.right.leaves())
        found.append(Merge(*sides, node.height))

    collect(tree)
    return sorted(found, key=lambda m: (m.height, min(m.left | m.right)))


def inversions(tree: ClusterNode) -> int:
    """How many merges of `tree` sit lower than a side they join: 0 for a monotone tree."""

    def count(node: ClusterNode) -> int:
        if node.is_leaf():
            return 0
        low = node.height < max(node.left.height, node.right.height)
        return low + count(node.left) + count(node.right)

    return count(tree)
