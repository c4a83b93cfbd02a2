"""Lagged velocity correlations over ordered city pairs.

A velocity is the difference between a city's normalized rows in two
windows 4 weeks apart, so one velocity needs 8 consecutive valid weeks.
For an ordered (follower, leader) pair the machinery dots the follower's
velocity at week t with the leader's at week t - lag, scans lags of 1 to
5 weeks, and keeps the lag with the largest mean dot product.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .charts import SparseRows, WindowStack, json_list, json_records, json_value, read_json

MIN_LAG = 1
MAX_LAG = 5
LAGS = tuple(range(MIN_LAG, MAX_LAG + 1))
VELOCITY_STEP_WEEKS = 4
DEFAULT_MIN_SAMPLES = 20
# The top-level keys of a save_dyads cache.
_CACHE_KEYS = {"cities", "dyads", "weeks", "values"}
# The JSON kind of each field of a cached dyad, in the order DyadResult takes them.
_DYAD_FIELDS = {"leader": str, "follower": str, "best_lag": int, "correlation": float, "samples": int}


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
    the cache has the nodes of the run that wrote it. Dyads are sorted by
    (leader, follower), each with its sample count; `weeks` and `values`
    hold every dyad's samples in that order as base64 of little-endian
    int64 and float64, so the samples round-trip bit for bit.
    """
    dyads = sorted(dyads, key=lambda d: (d.leader_candidate, d.follower_candidate))
    payload = {
        "cities": sorted(cities),
        "dyads": [
            {
                "leader": d.leader_candidate,
                "follower": d.follower_candidate,
                "best_lag": d.best_lag,
                "correlation": d.correlation,
                "samples": len(d.values),
            }
            for d in dyads
        ],
        "weeks": _encode_column((d.weeks for d in dyads), "<i8"),
        "values": _encode_column((d.values for d in dyads), "<f8"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _encode_column(arrays: Iterable[np.ndarray], dtype: str) -> str:
    """Base64 of the arrays' items as `dtype`, end to end."""
    return base64.b64encode(b"".join(a.astype(dtype).tobytes() for a in arrays)).decode("ascii")


def _decode_column(path: str | Path, payload: dict, name: str, dtype: str) -> np.ndarray:
    """The items of `dtype` that a cache's column `name`, a base64 string, encodes."""
    text = json_value(payload, name, path, str)
    try:
        raw = base64.b64decode(text, validate=True)
        if len(raw) % 8:
            raise ValueError
    except ValueError:  # binascii.Error is a ValueError, as is a non-ASCII character
        raise ValueError(f"{path}: {name} is not base64 of whole 8-byte items") from None
    return np.frombuffer(raw, dtype=dtype)


def load_dyads(path: str | Path) -> list[DyadResult]:
    """The dyads of a save_dyads cache, checked as `load_dyad_cache` checks them."""
    return load_dyad_cache(path)[1]


def load_dyad_cache(path: str | Path) -> tuple[tuple[str, ...], list[DyadResult]]:
    """Read a save_dyads cache: its city list and its dyads.

    Raises ValueError, naming the file, for a file in another layout (such
    as a cache written before the samples were stored as columns, which
    listed [week, value] pairs), for a value `charts.json_value` rejects
    (a missing key, a value of another JSON kind than its field's in
    `_DYAD_FIELDS`, a correlation that is not finite as a double), and for a
    cache that would otherwise distort the graph silently: a weeks or values
    column that is not base64 of whole 8-byte items, sample counts that do
    not sum to the columns' length, or, naming the dyad, a dyad naming a
    city outside the city list, a repeated (follower, leader) pair, a best
    lag outside 1..5, a sample count below 2, weeks that do not strictly
    increase, a NaN or infinite sample, or a correlation that is not the
    mean of its samples to within 1e-12.
    """
    payload = read_json(path)
    if not _CACHE_KEYS <= payload.keys():
        raise ValueError(
            f"{path}: not a dyad cache in the current layout, which stores the samples as "
            "base64 weeks and values columns; rerun `leadlag dyads` or `leadlag run` to rewrite it"
        )
    cities = tuple(json_list(payload, "cities", path, str))
    known = set(cities)

    def reject(row: list, problem: str) -> ValueError:
        return ValueError(f"{path}: dyad {row[1]!r} -> {row[0]!r} {problem}")

    rows, seen = [], set()
    for row in json_records(payload, "dyads", path, _DYAD_FIELDS):
        leader, follower, lag, _, size = row
        if leader not in known or follower not in known:
            raise reject(row, "names a city that is not in the cache's city list")
        if (follower, leader) in seen:
            raise reject(row, "appears twice")
        seen.add((follower, leader))
        if not MIN_LAG <= lag <= MAX_LAG:
            raise reject(row, f"has best_lag {lag!r}, not an integer in {MIN_LAG}..{MAX_LAG}")
        if size < 2:
            raise reject(row, f"has {size} samples, fewer than 2")
        rows.append(row)
    weeks = _decode_column(path, payload, "weeks", "<i8")
    values = _decode_column(path, payload, "values", "<f8")
    sizes = [row[4] for row in rows]
    if not sum(sizes) == len(weeks) == len(values):
        raise ValueError(
            f"{path}: the dyads' sample counts do not sum to the length of the weeks and "
            "values columns"
        )
    if not rows:
        return cities, []
    bounds = np.cumsum([0] + sizes)
    starts = bounds[:-1]

    def require(ok: np.ndarray, problem: str) -> None:
        if not ok.all():
            raise reject(rows[int(np.argmin(ok))], problem)

    require(np.logical_and.reduceat(np.isfinite(values), starts), "has a non-finite sample value")
    step_up = np.diff(weeks, prepend=weeks[0]) > 0
    step_up[starts] = True
    require(np.logical_and.reduceat(step_up, starts), "has weeks that repeat or are out of order")
    mean = np.add.reduceat(values, starts) / np.diff(bounds)
    correlation = np.array([row[3] for row in rows])
    require(np.abs(mean - correlation) <= 1e-12,
            "has a correlation that is not the mean of its samples")
    bounds = bounds.tolist()
    return cities, [
        DyadResult(leader, follower, lag, c, weeks[a:b], values[a:b])
        for (leader, follower, lag, c, _), a, b in zip(rows, bounds, bounds[1:])
    ]
