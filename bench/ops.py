"""The operation the benchmark runs, each time in a fresh process.

    python3 bench/ops.py [--trace-to SPANS] --charts CSV --missing TXT
        --populations CSV --out DIR [--sweep]
        `leadlag run` in-process. With --sweep it then follows the README's
        cache-reuse workflow: load the dyads.json the run wrote, and at
        every level of SWEEP_ALPHAS build the graph, rank it, cut its
        feedback arc set and write edges.csv, centrality.json and
        acyclicity.json under DIR/sweep/<level>/.

With --trace-to the operation runs under the tracer, and SPANS receives
the exit status, the recorded spans and whether every wrapped name was
restored afterwards.

`leadlag` is imported from PYTHONPATH, which the benchmark points at the
checkout's src/.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

# At 40 cities every level leaves a strongly connected component of more
# than 20 nodes, so FAS takes its heuristic path on every seed. Stricter
# levels (1e-4, Bonferroni) leave components of 1 to 23 nodes depending on
# the seed, and the exact subset DP's time and memory (2**n) then swing
# with the seed rather than with the code.
SWEEP_ALPHAS = (0.05, 0.02, 0.01, 0.005, 0.001)
SWEEP_DIR = "sweep"


def level_dir(alpha: float) -> str:
    return f"alpha_{alpha:g}"


def sweep(dyads_path: str, out: str) -> int:
    # Looked up through the modules at call time, so a tracer's wrappers apply.
    from leadlag import exports, lagcorr, network

    dyads = lagcorr.load_dyads(dyads_path)
    for alpha in SWEEP_ALPHAS:
        graph = network.build_graph(dyads, alpha=alpha)
        centrality = network.pagerank(graph)
        acyclicity = network.feedback_arc_set(graph)
        level = Path(out) / level_dir(alpha)
        level.mkdir(parents=True, exist_ok=True)
        exports.write_edge_csv(level / "edges.csv", graph)
        exports.write_centrality_json(level / "centrality.json", centrality)
        exports.write_acyclicity_json(level / "acyclicity.json", acyclicity)
    return 0


def run(args: argparse.Namespace) -> int:
    from leadlag import cli

    status = cli.main([
        "run", "--charts", args.charts, "--missing", args.missing,
        "--populations", args.populations, "--out", args.out,
    ])
    if status != 0 or not args.sweep:
        return status
    out = Path(args.out)
    return sweep(str(out / "dyads.json"), str(out / SWEEP_DIR))


def traced(spans_path: str, operation) -> int:
    from tracer import Tracer, originals, spans_to_json

    before = originals()
    tracer = Tracer()
    with tracer.installed():
        status = operation()
    after = originals()
    restored = all(after[name] is obj for name, obj in before.items())
    payload = {"status": status, "restored": restored, "spans": spans_to_json(tracer.spans)}
    Path(spans_path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return status if restored else 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ops.py")
    parser.add_argument("--trace-to", help="run traced and write spans to this JSON file")
    for flag in ("--charts", "--missing", "--populations", "--out"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--sweep", action="store_true", help="re-threshold the run's dyads.json")
    args = parser.parse_args(argv)

    operation = functools.partial(run, args)
    if args.trace_to:
        return traced(args.trace_to, operation)
    return operation()


if __name__ == "__main__":
    sys.exit(main())
