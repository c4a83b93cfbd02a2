"""Synthetic listening data with a planted leadership structure.

Cities evolve as taste vectors on the unit sphere of the positive
orthant.  Root cities follow a tangent-projected Gaussian random walk;
each follower blends its leaders' realized steps, delayed by the
planted lag, with fresh isotropic noise.  Rounding taste to integer
listener counts produces chart files in the same format the ingest
layer reads, so recovery experiments exercise the full pipeline.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .charts import (
    MAX_CHART_ENTRIES,
    WINDOW_WEEKS,
    ArtistUniverse,
    ChartStore,
    SparseRows,
    json_list,
    json_records,
    json_value,
    read_json,
)
from .lagcorr import MAX_LAG, MIN_LAG

DEFAULT_STEP_SCALE = 0.1
DEFAULT_WEEKS = 153


@dataclass(frozen=True)
class SynthCity:
    """One generated city: identity, invented census figure, chart volume."""

    city_id: str
    population: int
    activity: float

    def __post_init__(self) -> None:
        if not self.city_id:
            raise ValueError("city_id must be non-empty")
        if self.population <= 0:
            raise ValueError(f"population must be positive, got {self.population}")
        if not math.isfinite(self.activity) or self.activity <= 0.0:
            raise ValueError(f"activity must be positive, got {self.activity}")


@dataclass(frozen=True)
class PlantedEdge:
    """Directed influence: the follower echoes the leader after lag_weeks."""

    leader: str
    follower: str
    lag_weeks: int
    coupling: float

    def __post_init__(self) -> None:
        if self.leader == self.follower:
            raise ValueError(f"self-influence is not allowed: {self.leader!r}")
        if not MIN_LAG <= self.lag_weeks <= MAX_LAG:
            raise ValueError(
                f"lag_weeks must be in [{MIN_LAG}, {MAX_LAG}], got {self.lag_weeks}"
            )
        if not 0.0 < self.coupling <= 1.0:
            raise ValueError(f"coupling must be in (0, 1], got {self.coupling}")


@dataclass(frozen=True)
class PlantedHierarchy:
    """Acyclic set of planted influence edges over a fixed city roster."""

    cities: tuple[SynthCity, ...]
    edges: tuple[PlantedEdge, ...] = ()

    def __post_init__(self) -> None:
        ids = [c.city_id for c in self.cities]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate city ids in hierarchy")
        known = set(ids)
        seen_pairs: set[tuple[str, str]] = set()
        for edge in self.edges:
            for endpoint in (edge.leader, edge.follower):
                if endpoint not in known:
                    raise ValueError(f"edge references unknown city {endpoint!r}")
            pair = (edge.leader, edge.follower)
            if pair in seen_pairs:
                raise ValueError(f"duplicate planted edge {pair}")
            seen_pairs.add(pair)
        self.topological_order()

    def city_ids(self) -> list[str]:
        return [c.city_id for c in self.cities]

    def populations(self) -> dict[str, int]:
        return {c.city_id: c.population for c in self.cities}

    def in_edges(self) -> dict[str, tuple[PlantedEdge, ...]]:
        grouped: dict[str, list[PlantedEdge]] = {c.city_id: [] for c in self.cities}
        for edge in self.edges:
            grouped[edge.follower].append(edge)
        return {city: tuple(edges) for city, edges in grouped.items()}

    def topological_order(self) -> list[str]:
        """Kahn's algorithm, lexicographic among ready cities.

        Raises ValueError when the planted edges contain a cycle.
        """
        indegree = {c.city_id: 0 for c in self.cities}
        outgoing: dict[str, list[str]] = {c.city_id: [] for c in self.cities}
        for edge in self.edges:
            indegree[edge.follower] += 1
            outgoing[edge.leader].append(edge.follower)
        ready = sorted(city for city, deg in indegree.items() if deg == 0)  # a heap
        order: list[str] = []
        while ready:
            city = heapq.heappop(ready)
            order.append(city)
            for nxt in outgoing[city]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(self.cities):
            raise ValueError("planted edges contain a cycle")
        return order


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one generation run."""

    n_artists: int
    n_weeks: int = DEFAULT_WEEKS
    noise_sigma: float = 0.05
    seed: int = 0
    step_scale: float = DEFAULT_STEP_SCALE
    missing_weeks: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n_artists < 1:
            raise ValueError(f"n_artists must be positive, got {self.n_artists}")
        if self.n_weeks < 1:
            raise ValueError(f"n_weeks must be positive, got {self.n_weeks}")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be non-negative, got {self.noise_sigma}")
        if not math.isfinite(self.step_scale) or self.step_scale < 0.0:
            raise ValueError(f"step_scale must be non-negative, got {self.step_scale}")
        for week in self.missing_weeks:
            if not 0 <= week < self.n_weeks:
                raise ValueError(f"missing week {week} outside [0, {self.n_weeks})")


def artist_label(index: int) -> str:
    return f"artist_{index:04d}"


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _walk_city(
    rng: np.random.Generator,
    config: SynthConfig,
    horizon: int,
    in_edges: Sequence[PlantedEdge],
    leader_steps: Mapping[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """One city's taste path and realized steps over the full horizon."""
    n_art = config.n_artists
    positions = np.zeros((horizon, n_art))
    steps = np.zeros((horizon - 1, n_art))
    positions[0] = _unit(rng.uniform(0.05, 1.0, n_art))
    step_sigma = config.step_scale / math.sqrt(n_art)
    noise_sigma = config.noise_sigma / math.sqrt(n_art)
    for week in range(horizon - 1):
        here = positions[week]
        if in_edges:
            drive = np.zeros(n_art)
            for edge in in_edges:
                source = week - edge.lag_weeks
                if source >= 0:
                    drive += edge.coupling * leader_steps[edge.leader][source]
            drive /= len(in_edges)
            drive = drive + rng.normal(0.0, noise_sigma, n_art)
        else:
            drive = rng.normal(0.0, step_sigma, n_art)
            drive = drive - (drive @ here) * here
        moved = np.clip(here + drive, 0.0, None)
        norm = np.linalg.norm(moved)
        if norm == 0.0:
            positions[week + 1] = here
        else:
            positions[week + 1] = moved / norm
        steps[week] = positions[week + 1] - here
    return positions, steps


def generate_charts(hierarchy: PlantedHierarchy, config: SynthConfig) -> ChartStore:
    """All weekly charts for the run, as one store.

    Every week in [0, n_weeks) is charted, including config.missing_weeks,
    which the store flags and a chart file leaves to its missing-week file.
    A chart holds the artists of at least one listener, at most
    MAX_CHART_ENTRIES of them: the top counts, ties to the smaller label. A
    single generator seeded from config.seed is consumed city by city in
    topological order, so equal inputs reproduce byte-identical files.
    """
    order = hierarchy.topological_order()
    in_edges = hierarchy.in_edges()
    max_lag = max((e.lag_weeks for e in hierarchy.edges), default=MIN_LAG)
    preroll = len(order) * max_lag + WINDOW_WEEKS
    horizon = config.n_weeks + preroll
    rng = np.random.default_rng(config.seed)
    activity = {c.city_id: c.activity for c in hierarchy.cities}
    labels = [artist_label(j) for j in range(config.n_artists)]
    by_label = np.argsort(labels)  # labels are distinct, so any sort gives this order
    steps: dict[str, np.ndarray] = {}
    parts: dict[str, tuple[np.ndarray, ...]] = {}
    for city_id in order:
        positions, steps[city_id] = _walk_city(rng, config, horizon, in_edges[city_id], steps)
        # One row per week, one column per artist in label order.
        counts = np.rint(activity[city_id] * positions[preroll : preroll + config.n_weeks, by_label])
        kept = counts >= 1.0
        for week in np.flatnonzero(kept.sum(axis=1) > MAX_CHART_ENTRIES):
            top = np.argsort(-counts[week], kind="stable")[:MAX_CHART_ENTRIES]
            kept[week] = False
            kept[week, top] = True
        if kept.any():
            sizes = kept.sum(axis=1)
            weeks = np.flatnonzero(sizes)  # one chart a week with an entry
            parts[city_id] = (weeks, sizes[weeks], np.nonzero(kept)[1], counts[kept].astype(np.int64))
    cities = tuple(sorted(parts))
    none = np.zeros(0, dtype=np.int64)  # a run that charts nothing still concatenates
    week, size, column, count = (np.concatenate([none, *(parts[c][k] for c in cities)]) for k in range(4))
    charted, artist = np.unique(column, return_inverse=True)  # label ranks; codes into them
    universe = ArtistUniverse(labels[j] for j in by_label[charted])
    city = np.repeat(np.arange(len(cities), dtype=np.int32), [len(parts[c][0]) for c in cities])
    entries = SparseRows.from_sizes(count, artist.astype(np.int32), size, len(universe))
    return ChartStore(cities, universe, week, city, entries, config.missing_weeks)


def shuffle_null(store: ChartStore, seed: int) -> ChartStore:
    """Null model: each city's charts keep their content, weeks permuted.

    Per city the permutation comes from an independent generator keyed
    by (seed, city rank in sorted order), so the draws never depend on
    the order charts arrive in. Only chart weeks move; the store puts the
    charts back in (week, city) order.
    """
    by_city = np.argsort(store.city, kind="stable")  # each city's charts, by week
    opens = np.unique(store.city[by_city], return_index=True)[1]  # each city's first in by_city
    shuffled = np.empty_like(store.week)
    for rank, charts in enumerate(np.split(by_city, opens[1:])):
        weeks = store.week[charts]  # the city's charted weeks, ascending
        perm = np.random.default_rng([seed, rank]).permutation(len(weeks))
        shuffled[charts[perm]] = weeks  # the chart of week weeks[perm[i]] moves to week weeks[i]
    return ChartStore(store.cities, store.universe, shuffled, store.city, store.entries,
                      store.missing_weeks)


# The JSON kind of every field of a hierarchy's city and edge entries, in
# the order SynthCity and PlantedEdge take them, and of the config's scalars.
_CITY_FIELDS = {"city": str, "population": int, "activity": float}
_EDGE_FIELDS = {"leader": str, "follower": str, "lag": int, "coupling": float}
_CONFIG_FIELDS = {"n_artists": int, "n_weeks": int, "noise_sigma": float, "seed": int,
                  "step_scale": float}


def load_hierarchy(path: str | Path) -> PlantedHierarchy:
    """Hierarchy from JSON: cities with population and activity, and optional
    edges with leader, follower, lag, coupling. A missing field, a value of
    another JSON kind than its field's (`_CITY_FIELDS`, `_EDGE_FIELDS`), or a
    value the hierarchy's own checks reject, is an error naming the file."""
    raw = read_json(path)
    cities = list(json_records(raw, "cities", path, _CITY_FIELDS))
    edges = list(json_records(raw, "edges", path, _EDGE_FIELDS)) if "edges" in raw else []
    try:
        return PlantedHierarchy(
            tuple(SynthCity(*values) for values in cities),
            tuple(PlantedEdge(*values) for values in edges),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_synth_config(path: str | Path) -> SynthConfig:
    """Run configuration from JSON; only n_artists is mandatory. An unknown key,
    a value of another JSON kind than its field's, a missing week that is not
    an integer, or a value SynthConfig rejects, is an error naming the file."""
    raw = read_json(path)
    for key in raw:
        if key not in _CONFIG_FIELDS and key != "missing_weeks":
            raise ValueError(f"{path}: unknown config key {key!r}")
    kwargs: dict = {
        key: json_value(raw, key, path, kind)
        for key, kind in _CONFIG_FIELDS.items() if key in raw or key == "n_artists"
    }
    if "missing_weeks" in raw:
        kwargs["missing_weeks"] = frozenset(json_list(raw, "missing_weeks", path, int))
    try:
        return SynthConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def chain_hierarchy(
    n_cities: int,
    lag_weeks: int = 1,
    coupling: float = 0.9,
    activity: float = 20000.0,
    base_population: int = 1_000_000,
) -> PlantedHierarchy:
    """Linear chain c00 -> c01 -> ... with one planted edge per link.

    Populations decrease along the chain so leaders are the larger
    cities, matching the regime the recovery experiments probe.
    """
    if n_cities < 1:
        raise ValueError(f"n_cities must be positive, got {n_cities}")
    decrement = base_population // (2 * n_cities)
    cities = tuple(
        SynthCity(
            city_id=f"c{i:02d}",
            population=base_population - decrement * i,
            activity=activity,
        )
        for i in range(n_cities)
    )
    edges = tuple(
        PlantedEdge(
            leader=f"c{i:02d}",
            follower=f"c{i + 1:02d}",
            lag_weeks=lag_weeks,
            coupling=coupling,
        )
        for i in range(n_cities - 1)
    )
    return PlantedHierarchy(cities=cities, edges=edges)
