"""Command line front end.

One subcommand per pipeline stage plus `run` for the whole thing.
Exit codes: 0 success, 1 validation, 2 computation, 3 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .charts import ChartStore, write_chart_csv, write_missing_weeks
from .cluster import average_linkage, flat_cut, summed_distances, to_newick
from .exports import (
    check_graphml_names,
    read_acyclicity_json,
    read_edge_csv,
    read_manifest,
    read_size_leadership_json,
    write_acyclicity_json,
    write_centrality_json,
    write_dot,
    write_edge_csv,
    write_graphml,
    write_populations,
)
from .lagcorr import (
    DEFAULT_MIN_SAMPLES, _scan_lags, compute_all_velocities, load_dyads, save_dyads, scan_dyads,
)
from .network import (
    DEFAULT_ALPHA,
    AcyclicityReport,
    _check_alpha,
    build_graph,
    feedback_arc_set,
    pagerank,
)
from .pipeline import RunConfig, build_windows, load_store, run_pipeline
from .synth import generate_charts, load_hierarchy, load_synth_config, shuffle_null

OUTPUT_DIR_ENV = "LEADLAG_OUTPUT_DIR"
_EDGES_HELP = (
    "edges.csv from the graph stage; its nodes are the cities it names, so a city"
    " with no accepted edge is left out"
)


def _default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def _parse_lags(text: str) -> tuple[int, ...]:
    """Accept '2', '1-5', or '1,3,5'."""
    text = text.strip()
    try:
        if "-" in text:
            lo_text, hi_text = text.split("-", maxsplit=1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError
            lags = tuple(range(lo, hi + 1))
        elif "," in text:
            lags = tuple(int(p) for p in text.split(","))
        else:
            lags = (int(text),)
    except ValueError:
        raise ValueError(f"bad lag range {text!r}; use forms like 1-5 or 1,3,5") from None
    return lags


def _parse_cities(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _load_store(args: argparse.Namespace):
    """`pipeline.load_store` of the chart flags."""
    subset = _parse_cities(args.cities)
    return load_store(args.charts, args.missing, args.genre_file, args.genre, subset)


def _load_windows(args: argparse.Namespace):
    store, _, artists = _load_store(args)
    return build_windows(store, artists)


def _fas_figure(report: AcyclicityReport) -> str:
    return f"{report.percent_removed:.1f}% ({'exact' if report.exact else 'heuristic'})"


def _add_chart_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--charts", required=True, help="chart CSV (week,city,artist,listeners)")
    sub.add_argument("--missing", help="newline-separated missing week indexes")
    sub.add_argument("--genre-file", help="genre catalog CSV (genre,rank,artist)")
    sub.add_argument("--genre", help="restrict windows to this genre's artists")
    sub.add_argument("--cities", help="comma-separated city subset")


def _add_scan_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--min-samples", type=int, default=DEFAULT_MIN_SAMPLES)
    sub.add_argument("--lags", default="1-5", help="lag weeks to scan, e.g. 1-5 or 1,3")


def _add_alpha_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sub.add_argument("--bonferroni", action="store_true")


def _add_out_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--out",
        default=_default_output_dir(),
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or .)",
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ingest(args: argparse.Namespace) -> int:
    store, catalog, _ = _load_store(args)
    if catalog is not None:
        print(f"genres: {len(catalog.genre_ids())}")
    print(f"charts: {store.chart_count}")
    print(f"entries: {len(store.entries.data)}")
    print(f"cities: {len(store.cities)}")
    print(f"artists: {len(store.universe)}")
    print(f"weeks: {store.first_week}..{store.last_week} ({store.study_weeks} total)")
    print(f"missing weeks: {len(store.missing_weeks)}")
    print(f"valid window starts: {len(store.valid_window_starts())}")
    return 0


def _cmd_dyads(args: argparse.Namespace) -> int:
    lags = _scan_lags(args.min_samples, _parse_lags(args.lags))
    windows = _load_windows(args)
    dyads = scan_dyads(compute_all_velocities(windows), min_samples=args.min_samples, lags=lags)
    path = _out_dir(args) / "dyads.json"
    save_dyads(path, dyads)
    print(f"scored dyads: {len(dyads)}")
    print(f"wrote {path}")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    _check_alpha(args.alpha)
    graph = build_graph(load_dyads(args.dyads), alpha=args.alpha, bonferroni=args.bonferroni)
    check_graphml_names(graph.nodes)  # before any file is written
    centrality = pagerank(graph)
    out = _out_dir(args)
    write_edge_csv(out / "edges.csv", graph)
    write_dot(out / "graph.dot", graph, centrality)
    write_graphml(out / "graph.graphml", graph, centrality)
    write_centrality_json(out / "centrality.json", centrality)
    print(f"nodes: {len(graph.nodes)}")
    print(f"accepted edges: {len(graph.edges)}")
    print(f"wrote {out / 'edges.csv'}")
    return 0


def _cmd_fas(args: argparse.Namespace) -> int:
    graph = read_edge_csv(args.edges)
    report = feedback_arc_set(graph)
    print(f"edge weight removed to make acyclic: {_fas_figure(report)}")
    if args.out is not None:
        out = _out_dir(args)
        write_acyclicity_json(out / "acyclicity.json", report)
        print(f"wrote {out / 'acyclicity.json'}")
    return 0


def _cmd_pagerank(args: argparse.Namespace) -> int:
    graph = read_edge_csv(args.edges)
    report = pagerank(graph)
    ranked = sorted(report.pagerank, key=lambda c: (-report.pagerank[c], c))
    width = max((len(c) for c in ranked), default=0)
    print(f"{'city'.ljust(width)}  {'pagerank':>10}  {'in-degree':>10}")
    for city in ranked:
        print(
            f"{city.ljust(width)}  {report.pagerank[city]:>10.6f}"
            f"  {report.weighted_in_degree[city]:>10.4f}"
        )
    if args.out is not None:
        out = _out_dir(args)
        write_centrality_json(out / "centrality.json", report)
        print(f"wrote {out / 'centrality.json'}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    dist = summed_distances(_load_windows(args), per_pair_mean=args.per_pair_mean)
    tree = average_linkage(dist)
    newick = to_newick(tree)
    out = _out_dir(args)
    path = out / "dendrogram.nwk"
    path.write_text(newick + "\n", encoding="utf-8")
    print(newick)
    if args.cut is not None:
        for i, members in enumerate(flat_cut(tree, args.cut)):
            print(f"cluster {i}: {', '.join(members)}")
    print(f"wrote {path}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    hierarchy = load_hierarchy(args.hierarchy)
    config = load_synth_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    store = generate_charts(hierarchy, config)
    out = _out_dir(args)
    chart_path = out / "charts.csv"
    write_chart_csv(chart_path, store)
    write_missing_weeks(out / "missing_weeks.txt", config.missing_weeks)
    write_populations(out / "populations.csv", hierarchy.populations())
    print(f"cities: {len(hierarchy.cities)}  weeks: {config.n_weeks}  seed: {config.seed}")
    print(f"wrote {chart_path}")
    print(f"wrote {out / 'missing_weeks.txt'}")
    print(f"wrote {out / 'populations.csv'}")
    return 0


def _cmd_shuffle(args: argparse.Namespace) -> int:
    shuffled = shuffle_null(ChartStore.read(args.charts), seed=args.seed)
    out = _out_dir(args)
    path = out / "charts_shuffled.csv"
    write_chart_csv(path, shuffled)
    print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    label = "all"
    if manifest_path.exists():
        manifest = read_manifest(manifest_path)
        label = manifest["parameters"].get("genre_id") or "all"
    acyclicity = read_acyclicity_json(run_dir / "acyclicity.json")
    width = max(len(label), len("genre"))
    header = "% edge weight removed to make acyclic"
    print(f"{'genre'.ljust(width)}  {header}")
    print(f"{label.ljust(width)}  {_fas_figure(acyclicity)}")
    size_path = run_dir / "size_leadership.json"
    if size_path.exists():
        size = read_size_leadership_json(size_path)
        print()
        print(
            f"{'genre'.ljust(width)}  {'pagerank':>8}  {'in-degree':>9}"
            "  % edge weight where leader larger"
        )
        print(
            f"{label.ljust(width)}  {size.spearman_pagerank:>8.2f}"
            f"  {size.spearman_indegree:>9.2f}"
            f"  {size.percent_weight_larger_leads:.0f}%"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(
        chart_path=args.charts,
        output_dir=args.out,
        genre_path=args.genre_file,
        missing_weeks_path=args.missing,
        populations_path=args.populations,
        city_subset=_parse_cities(args.cities),
        genre_id=args.genre,
        alpha=args.alpha,
        min_samples=args.min_samples,
        lag_range=_parse_lags(args.lags),
        bonferroni=args.bonferroni,
    )
    result = run_pipeline(config)
    print(f"nodes: {len(result.graph.nodes)}")
    print(f"accepted edges: {len(result.graph.edges)}")
    print(f"edge weight removed to make acyclic: {_fas_figure(result.acyclicity)}")
    if result.size is not None:
        print(f"spearman pagerank vs population: {result.size.spearman_pagerank:.2f}")
    for name in sorted(result.artifacts):
        print(f"wrote {result.artifacts[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leadlag",
        description="Infer which cities lead and which follow from weekly listening charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate chart inputs and print a summary")
    _add_chart_args(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("dyads", help="score every ordered city pair and cache results")
    _add_chart_args(p)
    _add_scan_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_dyads)

    p = sub.add_parser("graph", help="run edge acceptance over a cached dyad scan")
    p.add_argument("--dyads", required=True, help="dyads.json from the dyads stage")
    _add_alpha_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("fas", help="minimum feedback arc set of an edge list")
    p.add_argument("--edges", required=True, help=_EDGES_HELP)
    p.add_argument("--out", default=None, help="directory for acyclicity.json")
    p.set_defaults(func=_cmd_fas)

    p = sub.add_parser("pagerank", help="weighted centrality of an edge list")
    p.add_argument("--edges", required=True, help=_EDGES_HELP)
    p.add_argument("--out", default=None, help="directory for centrality.json")
    p.set_defaults(func=_cmd_pagerank)

    p = sub.add_parser("cluster", help="taste-distance dendrogram over cities")
    _add_chart_args(p)
    p.add_argument("--per-pair-mean", action="store_true")
    p.add_argument("--cut", type=float, default=None, help="also print a flat cut")
    _add_out_arg(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("synth", help="generate charts with a planted hierarchy")
    p.add_argument("--hierarchy", required=True, help="hierarchy JSON")
    p.add_argument("--config", required=True, help="generation config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    _add_out_arg(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("shuffle", help="permute each city's weeks (null model)")
    p.add_argument("--charts", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_shuffle)

    p = sub.add_parser("report", help="print summary tables for a finished run")
    p.add_argument("--run-dir", required=True, help="output directory of a run")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="full pipeline: ingest through exports")
    _add_chart_args(p)
    p.add_argument("--populations", help="populations CSV (city,population)")
    _add_scan_args(p)
    _add_alpha_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError) as exc:
        # str() of a KeyError is the repr of its message.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
