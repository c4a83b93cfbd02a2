"""The public API of `leadlag`: a name added to or removed from `__all__` fails here,
as does a name the benchmark's tracer wraps that `leadlag` no longer binds, a scan
or a dyad cache the benchmark's tracer and alpha sweep would read wrongly, and a
module other than `charts` that parses JSON."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leadlag
from leadlag.lagcorr import DyadResult, save_dyads, scan_dyads

from helpers import bench_module, dyad_table, velocity_series

PUBLIC = {
    "__version__",
    "AcyclicityReport",
    "CentralityReport",
    "ChartStore",
    "DegenerateSampleError",
    "DistanceMatrix",
    "DyadResult",
    "Dyads",
    "Edge",
    "FormatError",
    "LeadershipGraph",
    "PipelineResult",
    "PlantedEdge",
    "PlantedHierarchy",
    "RunConfig",
    "SizeLeadershipReport",
    "SpearmanResult",
    "SynthCity",
    "SynthConfig",
    "TestResult",
    "UndefinedCorrelationError",
    "VelocitySeries",
    "WeeklyChart",
    "WindowStack",
    "average_linkage",
    "build_graph",
    "build_windows",
    "chain_hierarchy",
    "compute_all_velocities",
    "feedback_arc_set",
    "flat_cut",
    "generate_charts",
    "load_dyads",
    "load_hierarchy",
    "load_synth_config",
    "one_sample_ttest",
    "pagerank",
    "paired_ttest",
    "read_chart_csv",
    "read_edge_csv",
    "read_genre_catalog",
    "read_manifest",
    "read_missing_weeks",
    "read_populations",
    "run_pipeline",
    "save_dyads",
    "scan_dyads",
    "shuffle_null",
    "size_leadership",
    "spearman",
    "summed_distances",
    "t_cdf",
    "to_newick",
    "write_chart_csv",
    "write_dot",
    "write_edge_csv",
    "write_graphml",
    "write_manifest",
    "write_missing_weeks",
    "write_populations",
}


def test_public_api_is_pinned():
    assert len(leadlag.__all__) == len(set(leadlag.__all__))
    assert set(leadlag.__all__) == PUBLIC
    for name in leadlag.__all__:
        assert hasattr(leadlag, name), name


def test_public_names_load_their_module_on_first_use():
    probe = (
        "import sys, leadlag; loaded = [m for m in sys.modules"
        " if m.startswith('leadlag.') or m.split('.')[0] == 'numpy'];"
        " from leadlag import generate_charts;"
        " print(loaded, generate_charts.__module__, 'leadlag.synth' in sys.modules)"
    )
    src = str(Path(leadlag.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["[]", "leadlag.synth", "True"]
    assert PUBLIC <= set(dir(leadlag))
    with pytest.raises(AttributeError, match="no_such_name"):
        leadlag.no_such_name


def test_every_benchmark_tracer_target_resolves(monkeypatch):
    # bench/tracer.py looks each name up with vars() on its module or class; a
    # missing one otherwise fails only the benchmark's own tests.
    tracer = bench_module("tracer", monkeypatch)
    assert tracer.TARGETS
    assert [t.label for t in tracer.TARGETS if t.attr not in vars(t.resolve_owner())] == []


def test_benchmark_tracer_counts_every_sample_of_a_scan(monkeypatch):
    # The tracer counts a scan's samples through each row's per_lag_samples.
    rng = np.random.default_rng(3)
    series = {c: velocity_series(c, {w: rng.normal(size=4) for w in range(30)}) for c in "abc"}
    dyads = scan_dyads(series)
    counts = bench_module("tracer", monkeypatch)._scan_counts((series,), {}, dyads)
    assert counts["dyads_scored"] == len(dyads) == 6
    assert counts["lag_samples"] == dyads.sizes.sum() == len(dyads.values)


def test_benchmark_sweep_builds_over_the_cache_cities(monkeypatch, tmp_path):
    # "zz" has no dyad; every level of the sweep still ranks it, as the run did.
    ops = bench_module("ops", monkeypatch)
    cache = tmp_path / "dyads.json"
    row = DyadResult("a", "b", 1, 0.2, np.arange(30), np.full(30, 0.2) + np.tile([-0.01, 0.01], 15))
    save_dyads(cache, dyad_table([row], ["a", "b", "zz"]))
    assert ops.sweep(str(cache), str(tmp_path / "sweep")) == 0
    for alpha in ops.SWEEP_ALPHAS:
        level = tmp_path / "sweep" / ops.level_dir(alpha)
        centrality = json.loads((level / "centrality.json").read_text())
        assert sorted(centrality["pagerank"]) == ["a", "b", "zz"]


def test_only_charts_parses_json():
    # Every JSON file goes through charts.read_json and its values through json_value,
    # so a module that parsed JSON itself could skip their checks.
    parses = []
    for path in sorted(Path(leadlag.__file__).parent.glob("*.py")):
        if path.name == "charts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "json":
                names = [node.attr]
            else:
                continue
            parses += [f"{path.name}:{node.lineno}" for name in names if name in ("load", "loads")]
    assert parses == []
