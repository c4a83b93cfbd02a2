"""Workload definitions and their generated, hash-checked inputs.

Every workload runs on a planted `chain_hierarchy` (lag 1, coupling 0.9,
noise 0.05, 153 weeks, the acceptance fixture's 14 missing weeks). Inputs
are generated once per (shape, seed) under the work directory and stored
with their sha256 and the hierarchy's planted edges; a later run
re-verifies every hash before reusing the files and regenerates them when
any check fails.

    python3 bench/inputs.py DIR CITIES ARTISTS SEED   (generate into DIR)
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

MISSING_WEEKS = frozenset({7, 19, 23, 41, 47, 59, 66, 74, 88, 97, 109, 118, 131, 144})
PLANT_LAG = 1
PLANT_COUPLING = 0.9
NOISE_SIGMA = 0.05
N_WEEKS = 153
INPUT_FILES = ("charts.csv", "missing_weeks.txt", "populations.csv")
RECORD = "inputs.json"


@dataclass(frozen=True)
class Workload:
    name: str
    cities: int
    artists: int
    # After `leadlag run`, re-threshold the dyads.json it wrote at every
    # level of ops.SWEEP_ALPHAS, in the same process.
    sweep: bool


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("many_cities", cities=40, artists=40, sweep=True),
        Workload("many_artists", cities=8, artists=2000, sweep=False),
    )
}


@dataclass(frozen=True)
class Inputs:
    directory: Path
    cities: int
    artists: int
    seed: int
    rows: int
    csv_bytes: int
    generate_s: float
    sha256: dict
    # (follower, leader, lag_weeks) of every planted edge, as generated.
    planted_edges: tuple[tuple[str, str, int], ...]

    @property
    def charts(self) -> Path:
        return self.directory / "charts.csv"

    @property
    def missing(self) -> Path:
        return self.directory / "missing_weeks.txt"

    @property
    def populations(self) -> Path:
        return self.directory / "populations.csv"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_verified(directory: Path) -> Inputs | None:
    """The stored inputs, or None when the record is absent or any hash fails."""
    try:
        record = json.loads((directory / RECORD).read_text(encoding="utf-8"))
        for name in INPUT_FILES:
            if sha256_file(directory / name) != record["sha256"][name]:
                return None
        record["planted_edges"] = tuple(
            (str(f), str(l), int(lag)) for f, l, lag in record["planted_edges"]
        )
        return Inputs(directory=directory, **record)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def prepare_inputs(work: Path, workload: Workload, seed: int, env: dict) -> Inputs:
    """Generate (or reuse, after re-hashing) the workload's input files.

    Generation runs in a child process with environment `env`: a child's
    peak-RSS figure includes its parent's, so the benchmark process must
    never hold the generated charts itself.
    """
    directory = work / "inputs" / f"c{workload.cities}_a{workload.artists}_s{seed}"
    cached = _load_verified(directory)
    if cached is not None:
        return cached
    subprocess.run(
        [sys.executable, __file__, str(directory), str(workload.cities), str(workload.artists),
         str(seed)],
        env=env, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    generated = _load_verified(directory)
    if generated is None:
        raise RuntimeError(f"input generation left no verified record in {directory}")
    return generated


def generate(directory: Path, cities: int, artists: int, seed: int) -> None:
    """Write the chain-hierarchy inputs and, last, their hash record."""
    from leadlag.charts import write_chart_csv, write_missing_weeks
    from leadlag.exports import write_populations
    from leadlag.synth import SynthConfig, chain_hierarchy, generate_charts

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    hierarchy = chain_hierarchy(cities, lag_weeks=PLANT_LAG, coupling=PLANT_COUPLING)
    config = SynthConfig(
        n_artists=artists,
        n_weeks=N_WEEKS,
        noise_sigma=NOISE_SIGMA,
        seed=seed,
        missing_weeks=MISSING_WEEKS,
    )
    start = time.perf_counter()
    charts = generate_charts(hierarchy, config)
    generate_s = time.perf_counter() - start
    write_chart_csv(directory / "charts.csv", charts)
    write_missing_weeks(directory / "missing_weeks.txt", MISSING_WEEKS)
    write_populations(directory / "populations.csv", hierarchy.populations())
    record = {
        "cities": cities,
        "artists": artists,
        "seed": seed,
        "rows": sum(len(c.entries) for c in charts),
        "csv_bytes": (directory / "charts.csv").stat().st_size,
        "generate_s": generate_s,
        "sha256": {name: sha256_file(directory / name) for name in INPUT_FILES},
        "planted_edges": [[e.follower, e.leader, e.lag_weeks] for e in hierarchy.edges],
    }
    # Written last and renamed into place: a record exists only for complete inputs.
    tmp = directory / (RECORD + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, directory / RECORD)


if __name__ == "__main__":
    generate(Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
