"""End-to-end orchestration: charts in, analysis artifacts out.

The dyad scan is the expensive stage, so its results are cached to
dyads.json inside the output directory; alpha or graph-level sweeps can
rebuild everything downstream from that cache alone.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from .charts import ChartStore, GenreCatalog, WindowStack, read_genre_catalog
from .cluster import average_linkage, summed_distances, to_newick
from .exports import (
    read_populations,
    write_acyclicity_json,
    write_centrality_json,
    write_dot,
    write_edge_csv,
    write_graphml,
    write_manifest,
    write_size_leadership_json,
)
from .lagcorr import DEFAULT_MIN_SAMPLES, LAGS, _scan_lags, compute_all_velocities, save_dyads, scan_dyads
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


def _tool_version() -> str:
    from leadlag import __version__

    return __version__


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
    artifacts: dict[str, Path] = field(default_factory=dict)


def check_genre(genre_id: str | None, catalog: object) -> None:
    """Reject a genre given without a genre catalog, or its file, to look it up in."""
    if genre_id is not None and catalog is None:
        raise ValueError(f"genre {genre_id!r} given without a genre catalog (--genre-file)")


def check_cities(subset: tuple[str, ...] | None) -> None:
    """Reject a city subset that is given but names no city."""
    if subset is not None and not subset:
        raise ValueError("city subset is empty")


def genre_artists(catalog: GenreCatalog | None, genre_id: str | None) -> tuple[str, ...] | None:
    """The artists of `genre_id` in `catalog`, or None when no genre is given.

    Raises ValueError for a genre without a catalog and KeyError for one the
    catalog does not list.
    """
    check_genre(genre_id, catalog)
    return None if genre_id is None else catalog.artists(genre_id)


def load_store(
    chart_path: str | Path,
    missing_weeks_path: str | Path | None = None,
    genre_path: str | Path | None = None,
    genre_id: str | None = None,
    city_subset: tuple[str, ...] | None = None,
) -> tuple[ChartStore, GenreCatalog | None, tuple[str, ...] | None]:
    """The chart store restricted to `city_subset`, the genre catalog and the
    genre's artists. The subset and the genre are checked, and the genre
    looked up in the catalog, before the charts are read."""
    check_cities(city_subset)
    catalog = read_genre_catalog(genre_path) if genre_path else None
    artists = genre_artists(catalog, genre_id)
    store = ChartStore.from_files(chart_path, missing_weeks_path)
    return (store if city_subset is None else store.restrict(city_subset)), catalog, artists


def build_windows(store: ChartStore, artists: Iterable[str] | None = None) -> WindowStack:
    """Normalized listen windows for every valid start week, as one stack;
    with `artists`, only their columns count."""
    return store.windows(artists)


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Ingest, scan, test, and export; returns the in-memory reports.

    Writes (under config.output_dir): dyads.json, edges.csv, graph.dot,
    graph.graphml, centrality.json, acyclicity.json, size_leadership.json
    when populations are given and the size correlation is defined (else it
    warns), dendrogram.nwk when two or more cities cluster, and manifest.json.
    """
    populations = read_populations(config.populations_path) if config.populations_path else None
    store, _, artists = load_store(
        config.chart_path, config.missing_weeks_path, config.genre_path, config.genre_id,
        config.city_subset,
    )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}

    windows = build_windows(store, artists)
    del store  # the run reads the charts only through their windows from here on
    velocities = compute_all_velocities(windows)
    dyads = scan_dyads(velocities, min_samples=config.min_samples, lags=config.lag_range)
    artifacts["dyads"] = out / "dyads.json"
    save_dyads(artifacts["dyads"], dyads)

    graph = build_graph(dyads, alpha=config.alpha, bonferroni=config.bonferroni)
    artifacts["edges"] = out / "edges.csv"
    write_edge_csv(artifacts["edges"], graph)

    centrality = pagerank(graph)
    artifacts["dot"] = out / "graph.dot"
    write_dot(artifacts["dot"], graph, centrality, populations)
    artifacts["graphml"] = out / "graph.graphml"
    write_graphml(artifacts["graphml"], graph, centrality, populations)
    artifacts["centrality"] = out / "centrality.json"
    write_centrality_json(artifacts["centrality"], centrality)

    acyclicity = feedback_arc_set(graph)
    artifacts["acyclicity"] = out / "acyclicity.json"
    write_acyclicity_json(artifacts["acyclicity"], acyclicity)

    size: SizeLeadershipReport | None = None
    if populations is not None:
        try:
            size = size_leadership(graph, centrality, populations)
        except UndefinedCorrelationError as err:
            warnings.warn(f"{err}; size_leadership.json not written", stacklevel=2)
        else:
            artifacts["size_leadership"] = out / "size_leadership.json"
            write_size_leadership_json(artifacts["size_leadership"], size)

    if windows and len(windows.cities) >= 2:
        dist = summed_distances(windows)
        if len(dist.cities) >= 2:
            tree = average_linkage(dist)
            artifacts["dendrogram"] = out / "dendrogram.nwk"
            artifacts["dendrogram"].write_text(to_newick(tree) + "\n", encoding="utf-8")

    inputs = {
        "charts": config.chart_path,
        "genres": config.genre_path,
        "missing_weeks": config.missing_weeks_path,
        "populations": config.populations_path,
    }
    artifacts["manifest"] = out / "manifest.json"
    write_manifest(artifacts["manifest"], asdict(config),
                   {name: p for name, p in inputs.items() if p}, _tool_version())
    return PipelineResult(graph, centrality, acyclicity, size, artifacts)
