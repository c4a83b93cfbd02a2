"""Checks on the benchmark itself, at the acceptance fixture's 10 x 120 scale.

Run from the repository root: python3 -m pytest bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from inputs import WORKLOADS, Inputs, prepare_inputs
from ops import sweep
from tracer import TARGETS, Tracer, originals

TINY = {"cities": 10, "artists": 120}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {
        name: run.run_workload(
            dataclasses.replace(w, **TINY), seed=0, seconds=0, trace=True, work=work,
            min_samples=2,
        )
        for name, w in WORKLOADS.items()
    }


def test_workloads_match_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(records, workload):
    record = records[workload]
    assert record["correct"], record
    assert record["failed"] == 0
    for key, section in (("metrics", "end_to_end"), ("layer_metrics", "per_layer")):
        emitted = run.summary(dict(record, trace=key == "layer_metrics"))["metrics"]
        assert set(emitted) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
            assert isinstance(emitted[metric["name"]]["value"], (int, float))
    assert record["metrics"]["planted_recall"][0] == 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_and_untraced_runs_write_identical_artifacts(records, workload):
    record = records[workload]
    assert record["digest"]
    assert record["traced_operation"]["digest"] == record["digest"]
    operations = [r for kind, r in record["steps"] if kind == "operation"]
    assert all(op["digest"] == record["digest"] for op in operations)
    assert record["restored"] is True


def test_run_span_tree_covers_every_layer(records):
    layers = {path.split("/")[-1].split(".")[0] for path in records["many_cities"]["span_tree"]}
    assert {"charts", "lagcorr", "stats", "network", "cluster", "exports", "pipeline", "cli"} <= layers
    assert records["many_cities"]["layer_metrics"]["cli.overhead_s"][0] > 0
    # The sweep after the run reads the cache the run wrote.
    assert records["many_cities"]["layer_metrics"]["lagcorr.cache_load_s"][0] > 0
    assert records["many_artists"]["layer_metrics"]["lagcorr.cache_load_s"][0] == 0


def _env(tmp_path):
    return run.Runner(tmp_path).env


def test_tracer_restores_every_wrapped_name(tmp_path):
    inputs = prepare_inputs(
        tmp_path, dataclasses.replace(WORKLOADS["many_cities"], **TINY), 0, _env(tmp_path)
    )
    before = originals()
    tracer = Tracer()
    with tracer.installed():
        during = originals()
        assert all(during[name] is not obj for name, obj in before.items())
        from leadlag.cli import main

        status = main([
            "run", "--charts", str(inputs.charts), "--missing", str(inputs.missing),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 0
        assert sweep(str(tmp_path / "out" / "dyads.json"), str(tmp_path / "sweep")) == 0
    after = originals()
    assert set(after) == {t.label for t in TARGETS}
    assert all(after[name] is obj for name, obj in before.items())
    assert {s.name for s in tracer.spans} >= {"pipeline.run", "lagcorr.scan", "lagcorr.cache_load"}


def test_tracer_restores_names_when_the_run_raises():
    before = originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert all(originals()[name] is obj for name, obj in before.items())


def test_stale_inputs_are_regenerated(tmp_path):
    workload = dataclasses.replace(WORKLOADS["many_cities"], cities=4, artists=20)
    first = prepare_inputs(tmp_path, workload, 3, _env(tmp_path))
    original = first.charts.read_bytes()
    first.charts.write_bytes(original[: len(original) // 2])
    again = prepare_inputs(tmp_path, workload, 3, _env(tmp_path))
    assert again.charts.read_bytes() == original
    assert again.sha256 == first.sha256


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "many_cities", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _gated(tmp_path, rows, reference=None):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    lines = ["follower,leader,weight,lag_weeks"] + [f"{f},{l},0.5,{lag}" for f, l, lag in rows]
    (out / "edges.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    planted = (("c01", "c00", 1), ("c02", "c01", 1), ("c03", "c02", 1))
    inputs = Inputs(tmp_path, cities=4, artists=20, seed=0, rows=0, csv_bytes=0,
                    generate_s=0.0, sha256={}, planted_edges=planted)
    result = run.OpResult(wall_s=1.0, peak_rss_mb=1.0, returncode=0)
    run.gate(result, out, [out / "edges.csv"], inputs, reference)
    return result


def test_gate_passes_the_planted_chain(tmp_path):
    result = _gated(tmp_path, [("c01", "c00", 1), ("c02", "c01", 1), ("c03", "c02", 1)])
    assert result.ok and result.recall == 1.0 and result.reversed_edges == 0


@pytest.mark.parametrize(
    "rows",
    [
        [("c01", "c00", 1), ("c02", "c01", 1)],  # a planted edge missing
        [("c01", "c00", 1), ("c02", "c01", 2), ("c03", "c02", 1)],  # wrong lag
        [("c01", "c00", 1), ("c02", "c01", 1), ("c03", "c02", 1), ("c01", "c02", 1)],  # reversed
    ],
)
def test_gate_fails_on_missed_or_reversed_planted_edges(tmp_path, rows):
    assert not _gated(tmp_path, rows).ok


def test_gate_fails_when_artifacts_differ_from_the_first_operation(tmp_path):
    rows = [("c01", "c00", 1), ("c02", "c01", 1), ("c03", "c02", 1)]
    assert not _gated(tmp_path, rows, reference="0" * 64).ok


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_setup_is_sampled_alongside_the_operations(records, workload):
    record = records[workload]
    for kind in ("setup", "calibration", "operation"):
        samples = [r for k, r in record["steps"] if k == kind]
        assert len(samples) >= 2 and all(r["ok"] for r in samples), kind
        if kind != "calibration":
            assert all(r["calibration_s"] > 0 for r in samples), kind
    assert record["steps"][-1][0] == "calibration"
    assert record["metrics"]["setup_s"][0] > 0
    assert record["measured_s"] > 0 and not record["cut_short"]


def test_inputs_record_the_generated_planted_edges(tmp_path):
    workload = dataclasses.replace(WORKLOADS["many_cities"], cities=4, artists=20)
    inputs = prepare_inputs(tmp_path, workload, 3, _env(tmp_path))
    assert inputs.planted_edges == (("c01", "c00", 1), ("c02", "c01", 1), ("c03", "c02", 1))


def test_operations_do_not_inherit_a_pinned_hash_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    assert "PYTHONHASHSEED" not in _env(tmp_path)


def _step(wall_s):
    return run.OpResult(wall_s=wall_s, peak_rss_mb=1.0, returncode=0, ok=True)


@pytest.mark.parametrize("host_slowdown", [1.0, 1.5])
def test_times_are_scaled_by_the_calibration_around_them(host_slowdown):
    steps = [
        ("calibration", _step(0.9 * host_slowdown)),
        ("calibration", _step(0.4 * host_slowdown)),
        ("calibration", _step(0.4 * host_slowdown)),
        ("operation", _step(2.0 * host_slowdown)),
        ("calibration", _step(0.6 * host_slowdown)),
        ("setup", _step(0.5 * host_slowdown)),
    ]
    assert run.CALIBRATION_AROUND == 2
    run.set_calibration(steps)
    # The first calibration is more than two before the operation.
    assert steps[3][1].calibration_s == pytest.approx((0.4 + 0.4 + 0.6) / 3 * host_slowdown)
    assert steps[5][1].calibration_s == pytest.approx(0.5 * host_slowdown)
    scaled = run.at_reference_speed([steps[3][1]])
    assert scaled == pytest.approx(2.0 * run.REFERENCE_CALIBRATION_S / ((0.4 + 0.4 + 0.6) / 3))
