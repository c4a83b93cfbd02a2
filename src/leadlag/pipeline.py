"""End-to-end orchestration: `analyze` computes every report from one set of
windows in memory, and `run_pipeline` reads the charts, analyzes them and writes.

The dyad scan is the expensive stage, so `run_pipeline` caches its results to
dyads.json inside the output directory; alpha or graph-level sweeps can
rebuild everything downstream from that cache alone.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import __version__
from .charts import ChartStore, WindowStack, read_genre_catalog
from .cluster import ClusterNode, average_linkage, summed_distances, to_newick
from .exports import (
    check_graphml_names, read_populations, write_acyclicity_json, write_centrality_json, write_dot,
    write_edge_csv, write_graphml, write_manifest, write_size_leadership_json,
)
from .lagcorr import (
    DEFAULT_MIN_SAMPLES, LAGS, Dyads, _scan_lags, compute_all_velocities, save_dyads, scan_dyads,
)
from .network import (
    DEFAULT_ALPHA,
    AcyclicityReport,
    CentralityReport,
    LeadershipGraph,
    SizeLeadershipReport,
    _check_alpha,
    build_graph,
    feedback_arc_set,
    pagerank,
    size_leadership,
)
from .stats import UndefinedCorrelationError


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on."""

    chart_path: str
    output_dir: str
    genre_path: str | None = None
    missing_weeks_path: str | None = None
    populations_path: str | None = None
    city_subset: tuple[str, ...] | None = None
    genre_id: str | None = None
    alpha: float = DEFAULT_ALPHA
    min_samples: int = DEFAULT_MIN_SAMPLES
    lag_range: tuple[int, ...] = LAGS
    bonferroni: bool = False

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _scan_lags(self.min_samples, self.lag_range)
        check_genre(self.genre_id, self.genre_path)
        check_cities(self.city_subset)


@dataclass(frozen=True)
class PipelineResult:
    graph: LeadershipGraph
    centrality: CentralityReport
    acyclicity: AcyclicityReport
    size: SizeLeadershipReport | None
    dyads: Dyads
    tree: ClusterNode | None
    artifacts: dict[str, Path] = field(default_factory=dict)


def check_genre(genre_id: str | None, catalog: object) -> None:
    """Reject a genre given without a genre catalog, or its file, to look it up in."""
    if genre_id is not None and catalog is None:
        raise ValueError(f"genre {genre_id!r} given without a genre catalog (--genre-file)")


def check_cities(subset: tuple[str, ...] | None) -> None:
    """Reject a city subset that is given but names no city."""
    if subset is not None and not subset:
        raise ValueError("city subset is empty")


def genre_artists(catalog: Mapping[str, tuple[str, ...]] | None,
                  genre_id: str | None) -> tuple[str, ...] | None:
    """The artists of `genre_id` in `catalog`, or None when no genre is given.

    Raises ValueError for a genre without a catalog and KeyError for one the
    catalog does not list.
    """
    check_genre(genre_id, catalog)
    if genre_id is None:
        return None
    if genre_id not in catalog:
        raise KeyError(f"unknown genre {genre_id!r}")
    return catalog[genre_id]


def load_store(
    chart_path: str | Path,
    missing_weeks_path: str | Path | None = None,
    genre_path: str | Path | None = None,
    genre_id: str | None = None,
    city_subset: tuple[str, ...] | None = None,
) -> tuple[ChartStore, dict[str, tuple[str, ...]] | None, tuple[str, ...] | None]:
    """The chart store restricted to `city_subset`, the genre catalog and the
    genre's artists. The subset and the genre are checked, and the genre
    looked up in the catalog, before the charts are read; a genre of which
    the kept cities chart no artist is a ValueError."""
    check_cities(city_subset)
    catalog = read_genre_catalog(genre_path) if genre_path else None
    artists = genre_artists(catalog, genre_id)
    store = ChartStore.from_files(chart_path, missing_weeks_path)
    if city_subset is not None:
        store = store.restrict(city_subset)
    if artists is not None:
        listed = set(artists)
        keep = np.array([a in listed for a in store.universe], dtype=bool)
        if not keep[store.entries.indices].any():
            raise ValueError(f"genre {genre_id!r} lists no charted artist")
    return store, catalog, artists


def build_windows(store: ChartStore, artists: Iterable[str] | None = None) -> WindowStack:
    """Normalized listen windows for every valid start week, as one stack;
    with `artists`, only their columns count."""
    return store.windows(artists)


def write_graph(
    out: Path, graph: LeadershipGraph, centrality: CentralityReport,
    populations: Mapping[str, int] | None = None,
) -> dict[str, Path]:
    """Write edges.csv, graph.dot, graph.graphml and centrality.json under `out`;
    returns their paths by artifact name."""
    paths = {"edges": out / "edges.csv", "dot": out / "graph.dot",
             "graphml": out / "graph.graphml", "centrality": out / "centrality.json"}
    write_edge_csv(paths["edges"], graph)
    write_dot(paths["dot"], graph, centrality, populations)
    write_graphml(paths["graphml"], graph, centrality, populations)
    write_centrality_json(paths["centrality"], centrality)
    return paths


def analyze(
    load: Callable[[], WindowStack], config: RunConfig,
    populations: Mapping[str, int] | None = None,
) -> PipelineResult:
    """Scan, test, rank, cut and cluster the windows `load()` returns; writes no file.

    `load` builds the windows in this frame, so they and their store are freed
    before the scan (CPython 3.10 keeps a call's arguments alive until it returns).
    Each stage is called through this module's names, which the benchmark's tracer
    wraps. Without `populations`, or when its correlation is undefined (a warning),
    the size report is None; with fewer than two clustered cities the tree is None.
    """
    windows = load()
    velocities = compute_all_velocities(windows)
    # The distances are the windows' last use, so the scan runs without them.
    dist = summed_distances(windows) if windows and len(windows.cities) >= 2 else None
    del windows
    dyads = scan_dyads(velocities, min_samples=config.min_samples, lags=config.lag_range)
    del velocities  # the dyads hold all the run needs of them
    graph = build_graph(dyads, alpha=config.alpha, bonferroni=config.bonferroni)
    centrality = pagerank(graph)
    size: SizeLeadershipReport | None = None
    if populations is not None:
        try:
            size = size_leadership(graph, centrality, populations)
        except UndefinedCorrelationError as err:
            warnings.warn(f"{err}; size_leadership.json not written", stacklevel=2)
    tree = average_linkage(dist) if dist is not None and len(dist.cities) >= 2 else None
    return PipelineResult(graph, centrality, feedback_arc_set(graph), size, dyads, tree)


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Ingest, `analyze` and export; returns the in-memory reports.

    Writes (under config.output_dir): dyads.json, edges.csv, graph.dot,
    graph.graphml, centrality.json, acyclicity.json, size_leadership.json
    when populations are given and the size correlation is defined (else it
    warns), dendrogram.nwk when two or more cities cluster, and manifest.json.
    """
    populations = read_populations(config.populations_path) if config.populations_path else None

    def load() -> WindowStack:
        store, _, artists = load_store(config.chart_path, config.missing_weeks_path,
                                       config.genre_path, config.genre_id, config.city_subset)
        check_graphml_names(store.cities)  # before any file is written
        return build_windows(store, artists)

    result = analyze(load, config, populations)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = result.artifacts
    artifacts["dyads"] = out / "dyads.json"
    save_dyads(artifacts["dyads"], result.dyads)
    artifacts.update(write_graph(out, result.graph, result.centrality, populations))
    artifacts["acyclicity"] = out / "acyclicity.json"
    write_acyclicity_json(artifacts["acyclicity"], result.acyclicity)
    if result.size is not None:
        artifacts["size_leadership"] = out / "size_leadership.json"
        write_size_leadership_json(artifacts["size_leadership"], result.size)
    if result.tree is not None:
        artifacts["dendrogram"] = out / "dendrogram.nwk"
        artifacts["dendrogram"].write_text(to_newick(result.tree) + "\n", encoding="utf-8")

    inputs = {"charts": config.chart_path, "genres": config.genre_path,
              "missing_weeks": config.missing_weeks_path, "populations": config.populations_path}
    artifacts["manifest"] = out / "manifest.json"
    write_manifest(artifacts["manifest"], asdict(config),
                   {name: p for name, p in inputs.items() if p}, __version__)
    return result
