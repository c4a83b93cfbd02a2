"""Leadership inference over cities from weekly listening charts.

The public names load their submodule on first use (PEP 562), so importing
`leadlag` loads no submodule, and numpy only with the first name that needs it.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC_BY_MODULE = {
    "charts": (
        "ChartStore", "FormatError", "WeeklyChart", "WindowStack", "read_chart_csv",
        "read_genre_catalog", "read_missing_weeks", "write_chart_csv", "write_missing_weeks",
    ),
    "cluster": ("DistanceMatrix", "average_linkage", "flat_cut", "summed_distances", "to_newick"),
    "exports": (
        "read_edge_csv", "read_manifest", "read_populations", "write_dot", "write_edge_csv",
        "write_graphml", "write_manifest", "write_populations",
    ),
    "lagcorr": (
        "DyadResult", "Dyads", "VelocitySeries", "compute_all_velocities", "load_dyads",
        "save_dyads", "scan_dyads",
    ),
    "network": (
        "AcyclicityReport", "CentralityReport", "Edge", "LeadershipGraph",
        "SizeLeadershipReport", "build_graph", "feedback_arc_set", "pagerank", "size_leadership",
    ),
    "pipeline": ("PipelineResult", "RunConfig", "build_windows", "run_pipeline"),
    "stats": (
        "DegenerateSampleError", "SpearmanResult", "TestResult", "UndefinedCorrelationError",
        "one_sample_ttest", "paired_ttest", "spearman", "t_cdf",
    ),
    "synth": (
        "PlantedEdge", "PlantedHierarchy", "SynthCity", "SynthConfig", "chain_hierarchy",
        "generate_charts", "load_hierarchy", "load_synth_config", "shuffle_null",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC_BY_MODULE.items() for name in names}

__all__ = sorted(["__version__", *_MODULE_OF])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
