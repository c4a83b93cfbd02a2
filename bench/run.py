"""Benchmark of the leadlag pipeline, end to end and layer by layer.

Run from the root of a checkout (the program is imported from src/):

    python3 bench/run.py --workload many_cities --seed 0 --seconds 55 --trace 0

Workloads (see inputs.WORKLOADS and BENCHMARK.json for why each exists):
  many_cities   `leadlag run`, where the ordered-pair lag scan dominates,
                then the README's cache-reuse sweep over its dyads.json
  many_artists  `leadlag run` where CSV ingest dominates

Each operation runs in a fresh process, one at a time, with the BLAS and
OpenMP thread variables capped at the CPU count. For --seconds, operations
alternate with set-up samples and with samples of calib.py, a fixed task
that does not touch leadlag, each taking its share (SHARES) of the time,
so all see the same machine; each is repeated at least MIN_SAMPLES times.
No step is started that would, at the median of its kind so far, end past
--seconds.

A shared host's speed drifts by a third and more over minutes, so every
set-up and operation time is scaled by REFERENCE_CALIBRATION_S over the
mean of the CALIBRATION_AROUND calibration samples taken just before it
and as many taken just after it: times are reported as on a host where
calib.py takes REFERENCE_CALIBRATION_S. A change to leadlag moves them as
it moves the measured times; the measured medians are kept in the
results file.

--trace 0 prints the end-to-end metrics:
  wall_s          median seconds from spawning an operation to its exit,
                  at the reference host speed
  peak_rss_mb     median peak resident memory of an operation (2**20 bytes)
  setup_s         median set-up time, at the reference host speed: a
                  fresh interpreter's `import leadlag.cli`
  planted_recall  lowest fraction of planted chain edges accepted with the
                  planted lag (on many_cities, over the run and the five
                  sweep levels)
--trace 1 makes the same measurements, then one more operation in-process
under tracer.Tracer, and prints the per-layer metrics of that operation
(measured, not scaled) and the run's median calibration time.

Every operation passes a correctness gate or counts as failed: exit status
0, planted_recall >= 0.95 with no planted edge reversed, and an artifact
digest (sha256 over every file written except manifest.json) equal to the
first operation's. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. Inputs, outputs and
a full results file (environment, every sample, the digest and, when
traced, the span tree with self times) go under .bench_work/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from inputs import WORKLOADS, Inputs, Workload, prepare_inputs, sha256_file
from ops import SWEEP_ALPHAS, SWEEP_DIR, level_dir
from tracer import layer_metrics, span_tree, spans_from_json

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_SAMPLES = 3
# Shares of the measured time spent on calibration and set-up samples (each
# about 0.5 s); operations take the rest. A sample of a kind is taken
# whenever that kind has used no more than its share so far.
SHARES = (("calibration", 0.2), ("setup", 0.08))
# Times are reported as on a host where calib.py takes this long; on a
# shared 2-vCPU x86-64 host it takes 0.35 to 0.65 s, with contention.
REFERENCE_CALIBRATION_S = 0.5
# Calibration samples averaged on each side of a set-up or operation sample.
CALIBRATION_AROUND = 2
RECALL_FLOOR = 0.95
# Time allowed past --seconds for the step under way; a step still running
# then is killed and counts as failed.
GRACE_S = 60.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIB = float(1 << 20)


@dataclass
class OpResult:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    # Mean of the CALIBRATION_AROUND calibration samples taken just before
    # and the CALIBRATION_AROUND taken just after.
    calibration_s: float = 0.0
    recall: float = 0.0
    reversed_edges: int = 0
    digest: str = ""
    ok: bool = False


class Runner:
    """Runs operations in fresh processes with a fixed environment."""

    def __init__(self, work: Path) -> None:
        self.nproc = len(os.sched_getaffinity(0))
        self.threads = {var: _capped(os.environ.get(var), self.nproc) for var in THREAD_VARS}
        env = dict(os.environ)
        env.pop("LEADLAG_OUTPUT_DIR", None)
        # Every operation draws its own hash seed, so the digest gate also
        # catches artifacts that depend on set or dict iteration order.
        env.pop("PYTHONHASHSEED", None)
        env.update(self.threads)
        env["PYTHONPATH"] = str(SRC)
        self.env = env
        self.log = work / "last_op.stderr"

    def op(self, argv: list[str], timeout: float) -> OpResult:
        """Spawn, wait, and measure one process: wall time and peak RSS.
        The process is killed after `timeout` seconds."""
        with open(self.log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(max(1.0, timeout), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"operation failed ({proc.returncode}): {' '.join(argv)}\n")
            sys.stderr.write(self.log.read_text(encoding="utf-8", errors="replace")[-4000:])
        return OpResult(wall, usage.ru_maxrss * 1024 / MIB, proc.returncode)


def _capped(value: str | None, nproc: int) -> str:
    try:
        return str(max(1, min(int(value), nproc)))
    except (TypeError, ValueError):
        return str(nproc)


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


SETUP_ARGV = python("-c", "import leadlag.cli")
CALIBRATION_ARGV = python(str(BENCH / "calib.py"))


# ----------------------------------------------------------------- checks


def artifact_digest(out: Path) -> str:
    """sha256 over every file under `out` except manifest.json (timestamped)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(sha256_file(path).encode() + b"\n")
    return digest.hexdigest()


def planted_recall(edges_csv: Path, planted: tuple[tuple[str, str, int], ...]) -> tuple[float, int]:
    """(fraction of planted (follower, leader, lag) edges accepted with their
    lag, count of planted edges accepted in reverse)."""
    with open(edges_csv, newline="", encoding="utf-8") as fh:
        accepted = {(r["follower"], r["leader"]): int(r["lag_weeks"]) for r in csv.DictReader(fh)}
    hits = sum(1 for follower, leader, lag in planted if accepted.get((follower, leader)) == lag)
    reversed_edges = sum(1 for follower, leader, _ in planted if (leader, follower) in accepted)
    return hits / len(planted), reversed_edges


def gate(result: OpResult, out: Path, edge_files: list[Path], inputs: Inputs,
         reference: str | None) -> None:
    """Fill in the correctness fields of `result` from the files under `out`."""
    if result.returncode != 0:
        return
    try:
        scores = [planted_recall(f, inputs.planted_edges) for f in edge_files]
    except (OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"cannot score planted edges: {exc}\n")
        return
    result.recall = min(s[0] for s in scores)
    result.reversed_edges = sum(s[1] for s in scores)
    result.digest = artifact_digest(out)
    result.ok = (
        result.recall >= RECALL_FLOOR
        and result.reversed_edges == 0
        and (reference is None or result.digest == reference)
    )


# -------------------------------------------------------------- workloads


def operation_args(workload: Workload, inputs: Inputs, out: Path) -> list[str]:
    """Arguments of ops.py for one operation."""
    args = [
        "--charts", str(inputs.charts), "--missing", str(inputs.missing),
        "--populations", str(inputs.populations), "--out", str(out),
    ]
    return [*args, "--sweep"] if workload.sweep else args


def edge_files(workload: Workload, out: Path) -> list[Path]:
    levels = SWEEP_ALPHAS if workload.sweep else ()
    return [out / "edges.csv", *(out / SWEEP_DIR / level_dir(a) / "edges.csv" for a in levels)]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path = WORK,
                 min_samples: int = MIN_SAMPLES) -> dict:
    """Prepare inputs, measure, optionally trace; returns the full results record."""
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    inputs = prepare_inputs(work, workload, seed, runner.env)
    out = work / "out" / workload.name
    op_args = operation_args(workload, inputs, out)

    # Untimed: the first import compiles the program's bytecode, and both
    # bring what they read into the page cache.
    warm_up = [runner.op(SETUP_ARGV, GRACE_S), runner.op(CALIBRATION_ARGV, GRACE_S)]
    for r in warm_up:
        r.ok = r.returncode == 0
    argv = {
        "calibration": CALIBRATION_ARGV,
        "setup": SETUP_ARGV,
        "operation": python(str(BENCH / "ops.py"), *op_args),
    }
    steps: list[tuple[str, OpResult]] = []
    measure_start = time.perf_counter()
    end, deadline = measure_start + seconds, measure_start + seconds + GRACE_S
    cut_short = False

    def walls(kind: str) -> list[float]:
        return [r.wall_s for k, r in steps if k == kind]

    while all(r.ok for r in warm_up):
        total = sum(r.wall_s for _, r in steps)
        kind = next((k for k, share in SHARES if sum(walls(k)) <= share * total), "operation")
        expected = statistics.median(walls(kind)) if walls(kind) else 0.0
        enough = all(len(walls(k)) >= min_samples for k in ("calibration", "setup", "operation"))
        if enough and time.perf_counter() + expected > end:
            break
        if deadline - time.perf_counter() < 2 * max((r.wall_s for _, r in steps), default=0.0):
            cut_short = True
            break
        if kind == "operation":
            shutil.rmtree(out, ignore_errors=True)
        r = runner.op(argv[kind], deadline - time.perf_counter())
        if kind == "operation":
            first = next((r for k, r in steps if k == "operation"), None)
            gate(r, out, edge_files(workload, out), inputs, first.digest if first else None)
        else:
            r.ok = r.returncode == 0
        steps.append((kind, r))
        if not r.ok and kind != "operation":
            break
    # Close with a calibration sample, so every step has one on each side.
    if steps and steps[-1][0] != "calibration" and time.perf_counter() < deadline:
        r = runner.op(CALIBRATION_ARGV, deadline - time.perf_counter())
        r.ok = r.returncode == 0
        steps.append(("calibration", r))
    measured_s = time.perf_counter() - measure_start
    set_calibration(steps)

    setups = [r for k, r in steps if k == "setup"]
    ops = [r for k, r in steps if k == "operation"]
    good = [r for r in ops if r.ok]
    wall = statistics.median(r.wall_s for r in good) if good else 0.0
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "measured_s": measured_s,
        "cut_short": cut_short,
        "trace": int(trace),
        "environment": environment(runner),
        "inputs": {
            k: v for k, v in asdict(inputs).items() if k not in ("directory", "planted_edges")
        },
        "warm_up": [asdict(r) for r in warm_up],
        # In the order taken: [kind, sample].
        "steps": [[k, asdict(r)] for k, r in steps],
        "digest": ops[0].digest if ops else "",
        "measured": {
            "wall_s": wall,
            "setup_s": statistics.median(r.wall_s for r in setups) if setups else 0.0,
            "calibration_s": statistics.median(walls("calibration")) if steps else 0.0,
        },
        "metrics": {
            "wall_s": (at_reference_speed(good), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in good) if good else 0.0, "MB"),
            "setup_s": (at_reference_speed(setups), "s"),
            "planted_recall": (min((r.recall for r in ops), default=0.0), "fraction"),
        },
    }
    attempted = [*warm_up, *(r for _, r in steps)]
    if trace:
        spans, traced_wall = [], 0.0
        if good:
            r = traced_operation(runner, op_args, work / "spans.json", out,
                                 GRACE_S + 2 * max(r.wall_s for r in ops))
            gate(r, out, edge_files(workload, out), inputs, ops[0].digest)
            if r.returncode == 0:
                payload = json.loads((work / "spans.json").read_text(encoding="utf-8"))
                spans = spans_from_json(payload["spans"])
                r.ok = r.ok and payload["restored"]
                record["restored"] = payload["restored"]
                record["span_tree"] = span_tree(spans)
                record["spans"] = payload["spans"]
            attempted.append(r)
            record["traced_operation"] = asdict(r)
            traced_wall = r.wall_s
        record["layer_metrics"] = layer_metrics(spans, traced_wall, wall)
        record["layer_metrics"]["synth.generate_s"] = (inputs.generate_s, "s")
        record["layer_metrics"]["host.calibration_s"] = (record["measured"]["calibration_s"], "s")
    record["attempted"] = len(attempted)
    record["failed"] = sum(1 for r in attempted if not r.ok)
    record["correct"] = record["failed"] == 0 and len(ops) > 0
    return record


def set_calibration(steps: list[tuple[str, OpResult]]) -> None:
    """Give every set-up and operation sample the mean of the
    CALIBRATION_AROUND calibration samples taken just before it and the
    CALIBRATION_AROUND taken just after it."""
    calibrations = [i for i, (k, r) in enumerate(steps) if k == "calibration" and r.ok]
    for i, (kind, r) in enumerate(steps):
        if kind == "calibration":
            continue
        before = [j for j in calibrations if j < i][-CALIBRATION_AROUND:]
        after = [j for j in calibrations if j > i][:CALIBRATION_AROUND]
        around = [steps[j][1].wall_s for j in before + after]
        r.calibration_s = statistics.fmean(around) if around else 0.0


def at_reference_speed(samples: list[OpResult]) -> float:
    """Median wall time of `samples`, each scaled from the host speed its
    calibration samples measured to REFERENCE_CALIBRATION_S."""
    scaled = [r.wall_s * REFERENCE_CALIBRATION_S / r.calibration_s
              for r in samples if r.calibration_s > 0]
    return statistics.median(scaled) if scaled else 0.0


def traced_operation(runner: Runner, op_args: list[str], spans_path: Path, out: Path,
                     timeout: float) -> OpResult:
    """The operation once more, in-process under the tracer, spans to `spans_path`."""
    shutil.rmtree(out, ignore_errors=True)
    spans_path.unlink(missing_ok=True)
    return runner.op(python(str(BENCH / "ops.py"), "--trace-to", str(spans_path), *op_args),
                     timeout)


def environment(runner: Runner) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": runner.nproc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": runner.threads,
        "machine": platform.machine(),
        # A child's peak RSS includes its parent's, so this is the floor under
        # every peak_rss_mb figure of the run.
        "benchmark_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB,
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def summary(record: dict) -> dict:
    metrics = record["layer_metrics"] if record["trace"] else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception, so a running step is killed and
    # reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "leadlag" / "__init__.py").is_file():
        print(f"error: {SRC / 'leadlag'} not found; run from a leadlag checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
