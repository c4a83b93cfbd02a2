"""Spans recorded from outside the program.

A `Tracer` replaces the names that leadlag's callers look up with timing
wrappers, for the duration of one `with tracer.installed():` block, and
puts every original object back afterwards. Each wrapped call records a
span: name, start, end, parent span and the counts derived from the
call's arguments and return value. `layer_metrics` turns the spans of one
run into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

MIB = float(1 << 20)

Counter = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One name to wrap: `owner` is a dotted module path, optionally
    followed by a class (`leadlag.pipeline:ChartStore`)."""

    owner: str
    attr: str
    span: str
    count: Counter | None = None

    def resolve_owner(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        obj = importlib.import_module(module_name)
        return getattr(obj, class_name) if class_name else obj

    @property
    def label(self) -> str:
        return f"{self.owner.replace(':', '.')}.{self.attr}"


# Counters: each takes (args, kwargs, result) of the wrapped call.


def _ingest_counts(args, kwargs, store) -> dict:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    return {"ingest_rss_mb": rss}


def _row_counts(args, kwargs, charts) -> dict:
    return {"rows": sum(len(c.entries) for c in charts)}


def _window_counts(args, kwargs, windows) -> dict:
    store = args[0] if args else kwargs["store"]
    candidates = max(0, store.last_week - store.first_week - 2)
    return {"windows_built": len(windows), "windows_skipped": candidates - len(windows)}


def _velocity_counts(args, kwargs, series) -> dict:
    return {"velocity_rows": sum(len(s) for s in series.values())}


def _scan_counts(args, kwargs, dyads) -> dict:
    n = len(args[0] if args else kwargs["series"])
    pairs = n * (n - 1)
    return {
        "dyads_attempted": pairs,
        "dyads_scored": len(dyads),
        "dyads_unavailable": pairs - len(dyads),
        "lag_samples": sum(len(s) for d in dyads for s in d.per_lag_samples.values()),
    }


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _newick_bytes(args, kwargs, text) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _graph_counts(args, kwargs, graph) -> dict:
    return {"edges": len(graph.edges), "largest_scc": largest_scc(graph)}


def _fas_counts(args, kwargs, report) -> dict:
    return {"fas_exact": int(report.exact)}


def _one_call(args, kwargs, result) -> dict:
    return {"calls": 1}


def largest_scc(graph) -> int:
    """Size of the largest strongly connected component, via scipy."""
    # Imported here so the benchmark process itself stays small (see run.py).
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = len(graph.nodes)
    if n == 0:
        return 0
    index = {c: i for i, c in enumerate(graph.nodes)}
    rows = [index[e.follower] for e in graph.edges]
    cols = [index[e.leader] for e in graph.edges]
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adj, directed=True, connection="strong")
    return int(np.bincount(labels).max())


_PIPELINE_WRITERS = (
    "write_acyclicity_json",
    "write_centrality_json",
    "write_dot",
    "write_edge_csv",
    "write_graphml",
    "write_manifest",
    "write_size_leadership_json",
)

# Names `leadlag run` looks up (in leadlag.pipeline and leadlag.cli, whose
# `main` the traced operation calls through the module), plus the
# module-level names the alpha sweep calls through their home modules.
TARGETS: tuple[Target, ...] = (
    Target("leadlag.cli", "main", "cli.main"),
    Target("leadlag.cli", "run_pipeline", "pipeline.run"),
    Target("leadlag.pipeline:ChartStore", "from_files", "charts.ingest", _ingest_counts),
    Target("leadlag.charts", "read_chart_csv", "charts.read_csv", _row_counts),
    Target("leadlag.pipeline", "build_windows", "charts.windows", _window_counts),
    Target("leadlag.pipeline", "compute_all_velocities", "lagcorr.velocities", _velocity_counts),
    Target("leadlag.pipeline", "scan_dyads", "lagcorr.scan", _scan_counts),
    Target("leadlag.pipeline", "save_dyads", "lagcorr.cache_save", _file_bytes),
    Target("leadlag.lagcorr", "load_dyads", "lagcorr.cache_load"),
    Target("leadlag.pipeline", "build_graph", "network.graph", _graph_counts),
    Target("leadlag.network", "build_graph", "network.graph", _graph_counts),
    Target("leadlag.pipeline", "pagerank", "network.pagerank"),
    Target("leadlag.network", "pagerank", "network.pagerank"),
    Target("leadlag.pipeline", "feedback_arc_set", "network.fas", _fas_counts),
    Target("leadlag.network", "feedback_arc_set", "network.fas", _fas_counts),
    Target("leadlag.pipeline", "size_leadership", "network.size_leadership"),
    Target("leadlag.network", "one_sample_ttest", "stats.one_sample_ttest", _one_call),
    Target("leadlag.network", "paired_ttest", "stats.paired_ttest", _one_call),
    Target("leadlag.pipeline", "summed_distances", "cluster.distances"),
    Target("leadlag.pipeline", "average_linkage", "cluster.linkage"),
    Target("leadlag.pipeline", "to_newick", "exports.to_newick", _newick_bytes),
    *(Target("leadlag.pipeline", w, f"exports.{w}", _file_bytes) for w in _PIPELINE_WRITERS),
    *(
        Target("leadlag.exports", w, f"exports.{w}", _file_bytes)
        for w in ("write_acyclicity_json", "write_centrality_json", "write_edge_csv")
    ),
)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func: Callable, count: Counter | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target; restore the original objects on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for target in TARGETS:
                owner = target.resolve_owner()
                raw = vars(owner)[target.attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(target.span, raw.__func__, target.count))
                else:
                    wrapped = self.wrap(target.span, raw, target.count)
                saved.append((owner, target.attr, raw))
                setattr(owner, target.attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def originals() -> dict[str, Any]:
    """The object currently bound to every target name."""
    return {t.label: vars(t.resolve_owner())[t.attr] for t in TARGETS}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def span_tree(spans: list[Span]) -> dict:
    """Spans aggregated by their name path: calls, total and self seconds."""
    own = self_times(spans)
    paths: list[str] = []
    tree: dict[str, dict] = {}
    for i, s in enumerate(spans):
        path = s.name if s.parent is None else f"{paths[s.parent]}/{s.name}"
        paths.append(path)
        node = tree.setdefault(path, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        node["calls"] += 1
        node["total_s"] += s.duration
        node["self_s"] += own[i]
    return dict(sorted(tree.items()))


def layer_metrics(spans: list[Span], wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) for one traced operation.

    `wall_s` is the traced operation's spawn-to-exit time. `cli.overhead_s`
    is the part of it outside the pipeline's own spans (the top-level ones,
    or those directly under `cli.main`): interpreter start, imports,
    argument parsing and printing.
    """
    own = self_times(spans)
    cli = {i for i, s in enumerate(spans) if s.name == "cli.main"}
    work = sum(
        s.duration for s in spans if s.name != "cli.main" and (s.parent is None or s.parent in cli)
    )

    # Span names are matched by prefix, so "exports." covers every writer.
    def total(prefix: str) -> float:
        return sum(s.duration for s in spans if s.name.startswith(prefix))

    def self_of(prefix: str) -> float:
        return sum(own[i] for i, s in enumerate(spans) if s.name.startswith(prefix))

    def count(prefix: str, key: str, combine: Callable = sum) -> int | float:
        values = [s.counts[key] for s in spans if s.name.startswith(prefix) and key in s.counts]
        return combine(values) if values else 0

    scan_s = total("lagcorr.scan")
    attempted = count("lagcorr.scan", "dyads_attempted")
    seconds = "s"
    return {
        "charts.ingest_s": (total("charts.ingest"), seconds),
        "charts.read_csv_s": (total("charts.read_csv"), seconds),
        "charts.rows": (count("charts.read_csv", "rows"), "count"),
        "charts.ingest_rss_mb": (count("charts.ingest", "ingest_rss_mb", max), "MB"),
        "charts.windows_s": (total("charts.windows"), seconds),
        "charts.windows_built": (count("charts.windows", "windows_built"), "count"),
        "charts.windows_skipped": (count("charts.windows", "windows_skipped"), "count"),
        "lagcorr.velocities_s": (total("lagcorr.velocities"), seconds),
        "lagcorr.velocity_rows": (count("lagcorr.velocities", "velocity_rows"), "count"),
        "lagcorr.scan_s": (scan_s, seconds),
        "lagcorr.dyads_scored": (count("lagcorr.scan", "dyads_scored"), "count"),
        "lagcorr.dyads_unavailable": (count("lagcorr.scan", "dyads_unavailable"), "count"),
        "lagcorr.lag_samples": (count("lagcorr.scan", "lag_samples"), "count"),
        "lagcorr.scan_us_per_dyad": (1e6 * scan_s / attempted if attempted else 0.0, "us"),
        "lagcorr.cache_save_s": (total("lagcorr.cache_save"), seconds),
        "lagcorr.cache_mb": (count("lagcorr.cache_save", "bytes") / MIB, "MB"),
        "lagcorr.cache_load_s": (total("lagcorr.cache_load"), seconds),
        "stats.ttest_s": (total("stats."), seconds),
        "stats.one_sample_tests": (count("stats.one_sample_ttest", "calls"), "count"),
        "stats.paired_tests": (count("stats.paired_ttest", "calls"), "count"),
        "network.graph_s": (total("network.graph"), seconds),
        "network.graph_self_s": (self_of("network.graph"), seconds),
        "network.edges": (count("network.graph", "edges"), "count"),
        "network.fas_s": (total("network.fas"), seconds),
        "network.fas_exact": (count("network.fas", "fas_exact"), "count"),
        "network.largest_scc": (count("network.graph", "largest_scc", max), "count"),
        "network.pagerank_s": (total("network.pagerank"), seconds),
        "cluster.distances_s": (total("cluster.distances"), seconds),
        "cluster.linkage_s": (total("cluster.linkage"), seconds),
        "exports.write_s": (total("exports."), seconds),
        "exports.bytes": (count("exports.", "bytes"), "bytes"),
        "pipeline.self_s": (self_of("pipeline.run"), seconds),
        "cli.overhead_s": (wall_s - work, seconds),
        "trace.overhead_s": (wall_s - untraced_wall_s, seconds),
    }


def spans_to_json(spans: list[Span]) -> list[dict]:
    own = self_times(spans)
    t0 = spans[0].start if spans else 0.0
    return [
        {
            "name": s.name,
            "start": s.start - t0,
            "end": s.end - t0,
            "parent": s.parent,
            "self_s": own[i],
            "counts": s.counts,
        }
        for i, s in enumerate(spans)
    ]


def spans_from_json(raw: list[dict]) -> list[Span]:
    return [Span(r["name"], r["start"], r["end"], r["parent"], r["counts"]) for r in raw]
