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
from scipy import sparse

from .charts import ListenMatrix

MIN_LAG = 1
MAX_LAG = 5
LAGS = tuple(range(MIN_LAG, MAX_LAG + 1))
VELOCITY_STEP_WEEKS = 4
DEFAULT_MIN_SAMPLES = 20


class DyadUnavailable(LookupError):
    """No lag of the dyad has enough samples to be scored."""


@dataclass(frozen=True)
class VelocitySeries:
    """Week-indexed listening velocities of one city.

    `matrix` holds one sparse row per entry of `weeks`, in the same order.
    """

    city_id: str
    weeks: tuple[int, ...]
    matrix: sparse.csr_matrix

    def __len__(self) -> int:
        return len(self.weeks)

    @classmethod
    def from_vectors(
        cls, city_id: str, vectors: Mapping[int, np.ndarray]
    ) -> "VelocitySeries":
        weeks = tuple(sorted(vectors))
        matrix = np.vstack([vectors[w] for w in weeks]) if weeks else (0, 0)
        return cls(city_id, weeks, sparse.csr_matrix(matrix))


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


def compute_velocities(
    windows: Mapping[int, ListenMatrix], city_id: str
) -> VelocitySeries:
    """Velocities for one city across all start weeks with a window 4 weeks later.

    Weeks where either window is absent, or where the city is inactive in
    either window, simply have no velocity; nothing is zero-filled.
    """
    starts = sorted(windows)
    if not starts:
        raise ValueError("no windows supplied")
    first = windows[starts[0]]
    if city_id not in first.cities:
        raise KeyError(f"unknown city {city_id!r}")
    n_cols = first.values.shape[1]
    weeks = []
    rows = []
    for t in starts:
        early = windows[t]
        late = windows.get(t + VELOCITY_STEP_WEEKS)
        if late is None:
            continue
        if not (early.normalized and late.normalized):
            raise ValueError("windows must be normalized before velocities")
        if early.is_active(city_id) and late.is_active(city_id):
            weeks.append(t)
            rows.append(late.row(city_id) - early.row(city_id))
    matrix = sparse.vstack(rows, format="csr") if rows else sparse.csr_matrix((0, n_cols))
    return VelocitySeries(city_id, tuple(weeks), matrix)


def compute_all_velocities(
    windows: Mapping[int, ListenMatrix]
) -> dict[str, VelocitySeries]:
    """Every city's velocities, as `compute_velocities` gives them one by one.

    One sparse subtraction per start week covers all cities; only the rows
    of cities active in both windows are kept, and each city's rows are
    gathered once at the end.
    """
    starts = sorted(windows)
    if not starts:
        return {}
    first = windows[starts[0]]
    blocks = [sparse.csr_matrix((0, first.values.shape[1]))]
    weeks = [np.empty(0, dtype=np.int64)]
    owners = [np.empty(0, dtype=np.int64)]
    for t in starts:
        early = windows[t]
        late = windows.get(t + VELOCITY_STEP_WEEKS)
        if late is None:
            continue
        if not (early.normalized and late.normalized):
            raise ValueError("windows must be normalized before velocities")
        active = (np.diff(early.values.indptr) > 0) & (np.diff(late.values.indptr) > 0)
        rows = np.flatnonzero(active)
        blocks.append((late.values - early.values)[rows])
        weeks.append(np.full(len(rows), t, dtype=np.int64))
        owners.append(rows)
    owner = np.concatenate(owners)
    by_city = np.argsort(owner, kind="stable")
    stack = sparse.vstack(blocks, format="csr")[by_city]
    week_list = np.concatenate(weeks)[by_city].tolist()
    bounds = np.searchsorted(owner[by_city], np.arange(len(first.cities) + 1)).tolist()
    return {
        city: VelocitySeries(city, tuple(week_list[a:b]), stack[a:b])
        for city, a, b in zip(first.cities, bounds, bounds[1:])
    }


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
    follower week t, one sparse product against the rows of weeks
    t - max lag .. t - min lag gives every pair's sample at every lag;
    `samples[r, k, c]` holds row r against city c at the k-th lag, NaN
    where c has no row that week.
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
    stack = sparse.vstack([s.matrix for s in present], format="csr")[by_week]
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
        block = (stack[a:b] @ stack[c:d].T).toarray()[:, keep]
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


def save_dyads(path: str | Path, dyads: Iterable[DyadResult]) -> None:
    """Write dyad results as JSON, stable across reruns.

    Each dyad is encoded on its own, so only one dyad's samples are Python
    objects at a time.
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
        fh.write('{"dyads":[' + ",".join(items) + "]}\n")


def load_dyads(path: str | Path) -> list[DyadResult]:
    """Read a save_dyads cache; caches holding every lag load the same.

    Raises ValueError, naming the file and the dyad, for a cache that would
    otherwise distort the graph silently: a repeated (follower, leader)
    pair, a best lag that is not an integer in 1..5, fewer than 2 samples,
    a sample that is not a [week, value] pair, a week that is not an
    integer, weeks that do not strictly increase, a NaN or infinite value,
    or a correlation that is not the mean of its samples to within 1e-12.
    """
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)["dyads"]

    def reject(item: Mapping, problem: str) -> ValueError:
        return ValueError(f"{path}: dyad {item['follower']!r} -> {item['leader']!r} {problem}")

    seen = set()
    sizes, weeks, values = [], [], []
    for item in items:
        pair = (item["follower"], item["leader"])
        if pair in seen:
            raise reject(item, "appears twice")
        seen.add(pair)
        lag = item["best_lag"]
        if type(lag) is not int or not MIN_LAG <= lag <= MAX_LAG:
            raise reject(item, f"has best_lag {lag!r}, not an integer in {MIN_LAG}..{MAX_LAG}")
        samples = item["samples"][str(lag)]
        if len(samples) < 2:
            raise reject(item, f"has {len(samples)} samples, fewer than 2")
        if set(map(len, samples)) != {2}:
            raise reject(item, "has a sample that is not a [week, value] pair")
        item_weeks, item_values = zip(*samples)
        if set(map(type, item_weeks)) != {int}:
            raise reject(item, "has a week that is not an integer")
        sizes.append(len(samples))
        weeks.extend(item_weeks)
        values.extend(item_values)
    if not items:
        return []
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
    return [
        DyadResult(item["leader"], item["follower"], item["best_lag"], c,
                   flat_weeks[a:b], flat_values[a:b])
        for item, c, a, b in zip(items, correlation.tolist(), bounds, bounds[1:])
    ]
