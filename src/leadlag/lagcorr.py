"""Lagged velocity correlations over ordered city pairs.

A velocity is the difference between a city's normalized rows in two
windows 4 weeks apart, so one velocity needs 8 consecutive valid weeks.
For an ordered (follower, leader) pair the machinery dots the follower's
velocity at week t with the leader's at week t - lag, scans lags of 1 to
5 weeks, and keeps the lag with the largest mean dot product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .charts import SparseRows, WindowStack

MIN_LAG = 1
MAX_LAG = 5
LAGS = tuple(range(MIN_LAG, MAX_LAG + 1))
VELOCITY_STEP_WEEKS = 4
DEFAULT_MIN_SAMPLES = 20
# The types json.load gives a number. Checked with type(): bool subclasses int.
_NUMBER = {int, float}


@dataclass(frozen=True)
class VelocitySeries:
    """Week-indexed listening velocities of one city.

    `matrix` holds one sparse row per entry of `weeks`, in the same order.
    """

    city_id: str
    weeks: tuple[int, ...]
    matrix: SparseRows

    def __len__(self) -> int:
        return len(self.weeks)


@dataclass(frozen=True, eq=False)
class DyadResult:
    """Outcome of the lag scan for one ordered (follower, leader) pair.

    `weeks` (int64, increasing) and `values` (float64) hold the samples of
    `best_lag`, the one lag ever tested: the follower's velocity at each
    week dotted with the leader's `best_lag` weeks earlier. `correlation`
    is their mean.
    """

    leader_candidate: str
    follower_candidate: str
    best_lag: int
    correlation: float
    weeks: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weeks", np.asarray(self.weeks, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadResult):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @property
    def per_lag_samples(self) -> Mapping[int, np.ndarray]:
        """`{best_lag: values}`; the benchmark's tracer counts samples through it."""
        return {self.best_lag: self.values}


def compute_all_velocities(windows: WindowStack) -> dict[str, VelocitySeries]:
    """Every city's velocities: for each start week t with a window at t + 4, the
    row of each city active in both windows there minus its row at t.

    Weeks where either window is absent, or where the city is inactive in
    either window, simply have no velocity; nothing is zero-filled. A
    city's velocities are one dense difference of its late and early rows
    over the columns either uses.
    """
    if not windows:
        return {}
    n = len(windows.cities)
    starts = np.asarray(windows.starts, dtype=np.int64)
    early = np.flatnonzero(np.isin(starts + VELOCITY_STEP_WEEKS, starts))
    late = np.searchsorted(starts, starts[early] + VELOCITY_STEP_WEEKS)
    active = windows.active()
    rows, series = windows.matrix, {}
    for c, city in enumerate(windows.cities):
        both = np.flatnonzero(active[early, c] & active[late, c])
        columns, block = rows.take(np.concatenate((late[both], early[both])) * n + c).block()
        velocity = block[: len(both)] - block[len(both) :]
        row, at = np.nonzero(velocity)  # exact zeros are left out
        sizes = np.bincount(row, minlength=len(both))
        matrix = SparseRows.from_sizes(velocity[row, at], columns[at], sizes, rows.n_cols)
        series[city] = VelocitySeries(city, tuple(starts[early[both]].tolist()), matrix)
    return series


def _scan_lags(min_samples: int, lags: Sequence[int] | None) -> tuple[int, ...]:
    """Check the scan arguments; return the lags to scan, sorted."""
    if min_samples < 2:
        raise ValueError(f"min_samples must be at least 2, got {min_samples}")
    scan = LAGS if lags is None else tuple(sorted(set(lags)))
    if not scan:
        raise ValueError("lags must be non-empty")
    for lag in scan:
        if not MIN_LAG <= lag <= MAX_LAG:
            raise ValueError(f"lag must be in {MIN_LAG}..{MAX_LAG}, got {lag}")
    return scan


def scan_dyads(
    series: Mapping[str, VelocitySeries],
    min_samples: int = DEFAULT_MIN_SAMPLES,
    lags: Sequence[int] | None = None,
) -> list[DyadResult]:
    """Score every ordered city pair, in deterministic (leader, follower) order.

    A pair keeps its lag with the largest mean sample among those with at
    least min_samples samples, ties going to the smallest lag; a pair with
    no such lag is dropped. Velocity rows are stacked by week. For each
    follower week t, one dense product of its rows against the rows of
    weeks t - max lag .. t - min lag, over the columns the follower rows
    use, gives every pair's sample at every lag; `samples[r, k, c]` holds
    row r against city c at the k-th lag, NaN where c has no row that week.
    """
    scan = _scan_lags(min_samples, lags)
    present = [series[c] for c in sorted(series) if len(series[c])]
    if len(present) < 2:
        return []
    n = len(present)
    weeks = np.concatenate([np.asarray(s.weeks, dtype=np.int64) for s in present])
    owner = np.repeat(np.arange(n), [len(s) for s in present])
    by_week = np.argsort(weeks, kind="stable")
    week_sorted = weeks[by_week]
    stack = SparseRows.stack([s.matrix for s in present], present[0].matrix.n_cols)
    lag_pos = np.full(MAX_LAG + 1, -1)
    lag_pos[list(scan)] = np.arange(len(scan))

    samples = np.full((len(weeks), len(scan), n), np.nan)
    first = np.flatnonzero(np.diff(week_sorted, prepend=week_sorted[0] - 1))
    last = np.append(first[1:], len(weeks))
    lo = np.searchsorted(week_sorted, week_sorted[first] - scan[-1])
    hi = np.searchsorted(week_sorted, week_sorted[first] - scan[0], side="right")
    for a, b, c, d in zip(*(x.tolist() for x in (first, last, lo, hi))):
        if c == d:
            continue
        pos = lag_pos[week_sorted[a] - week_sorted[c:d]]
        keep = pos >= 0
        columns, follower = stack.take(by_week[a:b]).block()
        block = follower @ stack.take(by_week[c:d][keep]).block(columns)[1].T
        samples[by_week[a:b, None], pos[keep], owner[by_week[c:d]][keep]] = block

    bounds = np.searchsorted(owner, np.arange(n + 1))
    have = ~np.isnan(samples)
    counts = np.add.reduceat(have, bounds[:-1], axis=0, dtype=np.int64)
    means = np.add.reduceat(np.where(have, samples, 0.0), bounds[:-1], axis=0)
    means /= np.maximum(counts, 1)
    means[counts < min_samples] = -np.inf
    best, best_mean = means.argmax(axis=1), means.max(axis=1)
    scored = np.isfinite(best_mean)
    np.fill_diagonal(scored, False)

    dyads = []
    for li, fi in zip(*(x.tolist() for x in np.nonzero(scored.T))):
        k = int(best[fi, li])
        column = samples[bounds[fi] : bounds[fi + 1], k, li]
        sampled = ~np.isnan(column)
        dyads.append(DyadResult(
            present[li].city_id, present[fi].city_id, scan[k], float(best_mean[fi, li]),
            weeks[bounds[fi] : bounds[fi + 1]][sampled], column[sampled],
        ))
    return dyads


def save_dyads(path: str | Path, dyads: Iterable[DyadResult], cities: Iterable[str]) -> None:
    """Write the scanned cities and their dyad results as JSON, stable across reruns.

    The city list keeps cities with no scored dyad, so a graph rebuilt from
    the cache has the nodes of the run that wrote it. Each dyad is encoded
    on its own, so only one dyad's samples are Python objects at a time.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    items = [
        encode({
            "leader": d.leader_candidate,
            "follower": d.follower_candidate,
            "best_lag": d.best_lag,
            "correlation": d.correlation,
            "samples": {str(d.best_lag): list(zip(d.weeks.tolist(), d.values.tolist()))},
        })
        for d in sorted(dyads, key=lambda d: (d.leader_candidate, d.follower_candidate))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"cities":' + encode(sorted(cities)) + ',"dyads":[' + ",".join(items) + "]}\n")


def load_dyads(path: str | Path) -> list[DyadResult]:
    """The dyads of a save_dyads cache, checked as `load_dyad_cache` checks them."""
    return load_dyad_cache(path)[1]


def load_dyad_cache(path: str | Path) -> tuple[tuple[str, ...] | None, list[DyadResult]]:
    """Read a save_dyads cache: its city list and its dyads.

    A cache written before the city list was stored gives None for it;
    caches holding every lag load the same. Raises ValueError, naming the
    file and the dyad, for a cache that would otherwise distort the graph
    silently: a dyad (then named by its 1-based position) or its samples
    not a JSON object, a dyad naming a city outside the city list, a repeated
    (follower, leader) pair, a best lag that is not an integer in 1..5,
    no samples for the best lag, fewer than 2 samples, a sample that is
    not a [week, value] pair, a week that is not an integer, a sample value
    or correlation that is not a JSON number (true and "0.25" are not),
    weeks that do not strictly increase, a NaN or infinite value, or a
    correlation that is not the mean of its samples to within 1e-12.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    items, cities = payload["dyads"], payload.get("cities")
    if cities is not None:
        if not isinstance(cities, list) or not all(isinstance(c, str) for c in cities):
            raise ValueError(f"{path}: cities is not a list of city names")
        cities, known = tuple(cities), set(cities)

    def reject(item: Mapping, problem: str) -> ValueError:
        return ValueError(f"{path}: dyad {item['follower']!r} -> {item['leader']!r} {problem}")

    seen = set()
    sizes, weeks, values = [], [], []
    for number, item in enumerate(items, start=1):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: dyad {number} is not a JSON object")
        pair = (item["follower"], item["leader"])
        if cities is not None and not known.issuperset(pair):
            raise reject(item, "names a city that is not in the cache's city list")
        if pair in seen:
            raise reject(item, "appears twice")
        seen.add(pair)
        lag = item["best_lag"]
        if type(lag) is not int or not MIN_LAG <= lag <= MAX_LAG:
            raise reject(item, f"has best_lag {lag!r}, not an integer in {MIN_LAG}..{MAX_LAG}")
        if not isinstance(item["samples"], dict):
            raise reject(item, "has samples that are not a JSON object")
        samples = item["samples"].get(str(lag))
        if samples is None:
            raise reject(item, f"has no samples for its best lag {lag}")
        if len(samples) < 2:
            raise reject(item, f"has {len(samples)} samples, fewer than 2")
        if set(map(len, samples)) != {2}:
            raise reject(item, "has a sample that is not a [week, value] pair")
        item_weeks, item_values = zip(*samples)
        if set(map(type, item_weeks)) != {int}:
            raise reject(item, "has a week that is not an integer")
        if not set(map(type, item_values)) <= _NUMBER:
            raise reject(item, "has a sample value that is not a number")
        if type(item["correlation"]) not in _NUMBER:
            raise reject(item, "has a correlation that is not a number")
        sizes.append(len(samples))
        weeks.extend(item_weeks)
        values.extend(item_values)
    if not items:
        return cities, []
    bounds = np.cumsum([0] + sizes)
    starts = bounds[:-1]
    flat_weeks = np.array(weeks, dtype=np.int64)
    flat_values = np.array(values, dtype=np.float64)
    correlation = np.array([item["correlation"] for item in items], dtype=np.float64)

    def require(ok: np.ndarray, problem: str) -> None:
        if not ok.all():
            raise reject(items[int(np.argmin(ok))], problem)

    finite = np.logical_and.reduceat(np.isfinite(flat_values), starts) & np.isfinite(correlation)
    require(finite, "has a non-finite correlation or sample value")
    step_up = np.diff(flat_weeks, prepend=flat_weeks[0]) > 0
    step_up[starts] = True
    require(np.logical_and.reduceat(step_up, starts), "has weeks that repeat or are out of order")
    mean = np.add.reduceat(flat_values, starts) / np.diff(bounds)
    require(np.abs(mean - correlation) <= 1e-12,
            "has a correlation that is not the mean of its samples")
    bounds = bounds.tolist()
    return cities, [
        DyadResult(item["leader"], item["follower"], item["best_lag"], c,
                   flat_weeks[a:b], flat_values[a:b])
        for item, c, a, b in zip(items, correlation.tolist(), bounds, bounds[1:])
    ]
