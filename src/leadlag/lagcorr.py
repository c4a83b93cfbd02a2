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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .charts import SparseRows, WindowStack, json_list, json_value, read_json

MIN_LAG = 1
MAX_LAG = 5
LAGS = tuple(range(MIN_LAG, MAX_LAG + 1))
VELOCITY_STEP_WEEKS = 4
DEFAULT_MIN_SAMPLES = 20
# Each Dyads column, in field order, with the little-endian dtype of its cache column.
_COLUMNS = {"leader": "<i8", "follower": "<i8", "lag": "<i8", "correlation": "<f8",
            "sizes": "<i8", "weeks": "<i8", "values": "<f8"}


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
    """One row of a `Dyads` table: the lag scan's outcome for one ordered
    (follower, leader) pair.

    `weeks` and `values` hold the samples of `best_lag`, the one lag ever
    tested: the follower's velocity at each week dotted with the leader's
    `best_lag` weeks earlier. `correlation` is their mean.
    """

    leader_candidate: str
    follower_candidate: str
    best_lag: int
    correlation: float
    weeks: np.ndarray
    values: np.ndarray

    @property
    def per_lag_samples(self) -> Mapping[int, np.ndarray]:
        """`{best_lag: values}`; the benchmark's tracer counts samples through it."""
        return {self.best_lag: self.values}


@dataclass(frozen=True, eq=False)
class Dyads:
    """The scored ordered city pairs of one scan, one row each, as columns.

    `cities` holds every scanned city, sorted and distinct, whether or not
    it has a scored pair; it is the node set of a graph built from the
    table. `leader` and `follower` are int64 codes into it, and the rows run
    in strictly increasing (leader, follower) order, so no pair repeats.
    `lag`, `correlation` and `sizes` give each row's best lag, the mean of
    its samples and their count; `weeks` (int64, increasing within a row)
    and `values` (float64) hold every row's samples end to end, in row order.
    """

    cities: tuple[str, ...]
    leader: np.ndarray
    follower: np.ndarray
    lag: np.ndarray
    correlation: np.ndarray
    sizes: np.ndarray
    weeks: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.leader)

    def __iter__(self) -> Iterator[DyadResult]:
        """Each row as a DyadResult, in row order."""
        cuts = np.cumsum(self.sizes)[:-1]
        columns = (self.leader, self.follower, self.lag, self.correlation)
        samples = (np.split(self.weeks, cuts), np.split(self.values, cuts))
        for leader, follower, *rest in zip(*(x.tolist() for x in columns), *samples):
            yield DyadResult(self.cities[leader], self.cities[follower], *rest)


def compute_all_velocities(windows: WindowStack) -> dict[str, VelocitySeries]:
    """Every city's velocities: for each start week t with a window at t + 4, the
    row of each city active in both windows there minus its row at t.

    Weeks where either window is absent, or where the city is inactive in
    either window, simply have no velocity; nothing is zero-filled. A
    city's velocities are one dense difference of its late and early rows
    over the columns either uses. Every city of the stack has a series, an
    empty one where it has no velocity, even when the stack has no window.
    """
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
) -> Dyads:
    """Score every ordered pair of the cities of `series`, which become the
    table's city list.

    A pair keeps its lag with the largest mean sample among those with at
    least min_samples samples, ties going to the smallest lag; a pair with
    no such lag is dropped. Velocity rows are stacked by week. For each
    follower week t, one dense product of its rows against the rows of
    weeks t - max lag .. t - min lag, over the columns the follower rows
    use, gives every pair's sample at every lag; `samples[r, k, c]` holds
    row r against city c at the k-th lag, NaN where c has no row that week.
    """
    scan = _scan_lags(min_samples, lags)
    cities = tuple(sorted(series))
    code = np.array([i for i, c in enumerate(cities) if len(series[c])], dtype=np.int64)
    present = [series[cities[i]] for i in code.tolist()]
    if len(present) < 2:
        none = np.zeros(0, dtype=np.int64)
        return Dyads(cities, none, none, none, np.zeros(0), none, none, np.zeros(0))
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

    starts = np.searchsorted(owner, np.arange(n))
    have = ~np.isnan(samples)
    counts = np.add.reduceat(have, starts, axis=0, dtype=np.int64)
    means = np.add.reduceat(np.where(have, samples, 0.0), starts, axis=0)
    del have
    means /= np.maximum(counts, 1)
    means[counts < min_samples] = -np.inf
    best, best_mean = means.argmax(axis=1), means.max(axis=1)  # [follower, leader]
    scored = np.isfinite(best_mean)
    np.fill_diagonal(scored, False)

    # Each row's samples at its best lag against every leader, leader-major,
    # so the scored pairs' samples come out in (leader, follower) order.
    chosen = np.take_along_axis(samples, best[owner][:, None], axis=1)[:, 0].T
    del samples
    sampled = scored.T[:, owner] & ~np.isnan(chosen)
    leader, follower = np.nonzero(scored.T)
    k = best[follower, leader]
    return Dyads(
        cities, code[leader], code[follower], np.array(scan)[k], best_mean[follower, leader],
        counts[follower, k, leader], np.broadcast_to(weeks, sampled.shape)[sampled],
        chosen[sampled],
    )


def save_dyads(path: str | Path, dyads: Dyads) -> None:
    """Write a dyad table as JSON, stable across reruns: `cities`, with those
    that have no scored dyad, so a graph rebuilt from the cache has the run's
    nodes, and each column as base64 of its `_COLUMNS` dtype, bit for bit."""
    payload = {"cities": list(dyads.cities)}
    for name, dtype in _COLUMNS.items():
        payload[name] = base64.b64encode(getattr(dyads, name).astype(dtype).tobytes()).decode()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_dyads(path: str | Path) -> Dyads:
    """Read a save_dyads cache as a dyad table, raising ValueError, naming the
    file, for a file without every column (as written before each field was
    a column), a value `charts.json_value` rejects, and any cache that would
    silently distort a graph: an unsorted or repeating city list, a column
    that is not base64 of whole items, unequal row columns, sample counts
    off the sample columns' length, a city code outside the city list, or,
    naming the dyad, a pair of one city or not above the row before it, a
    lag outside 1..5, fewer than 2 samples, weeks that do not increase, a
    non-finite correlation or sample, or a correlation off its samples' mean by 1e-12."""
    payload = read_json(path)
    if not {"cities", *_COLUMNS} <= payload.keys():
        raise ValueError(f"{path}: not a dyad cache in the current layout, which stores every "
                         "dyad field as a base64 column; rerun `leadlag dyads` or `leadlag run` "
                         "to rewrite it")
    cities = tuple(json_list(payload, "cities", path, str))
    for before, city in zip(cities, cities[1:]):
        if before >= city:
            problem = "appears twice in" if before == city else "is out of order in"
            raise ValueError(f"{path}: city {city!r} {problem} the cache's city list, "
                             "which must be sorted")
    columns = []
    for name, dtype in _COLUMNS.items():
        text = json_value(payload, name, path, str)
        try:  # binascii.Error, a non-ASCII character and a part-item tail are ValueErrors
            columns.append(np.frombuffer(base64.b64decode(text, validate=True), dtype=dtype))
        except ValueError:
            raise ValueError(f"{path}: {name} is not base64 of whole 8-byte items") from None
    leader, follower, lag, correlation, sizes, weeks, values = columns
    if len({len(c) for c in columns[:5]}) > 1:
        raise ValueError(f"{path}: the columns of one item per dyad differ in length")
    ends = np.cumsum(sizes)  # no negative end: the sum did not overflow
    if not sizes.sum() == len(weeks) == len(values) or (ends < 0).any():
        raise ValueError(f"{path}: the dyads' sample counts do not sum to the length of the "
                         "weeks and values columns")
    n = len(cities)
    inside = (leader >= 0) & (leader < n) & (follower >= 0) & (follower < n)
    if not inside.all():
        raise ValueError(f"{path}: dyad {np.argmin(inside)} names a city outside the city list")

    def require(ok: np.ndarray, problem: str, *shown: np.ndarray) -> None:
        """Reject the first dyad where `ok` fails; `problem` shows its items of `shown`."""
        if not ok.all():
            at = int(np.argmin(ok))
            dyad = f"{cities[follower[at]]!r} -> {cities[leader[at]]!r}"
            raise ValueError(f"{path}: dyad {dyad} " + problem.format(*(c[at] for c in shown)))

    step = np.diff(leader * n + follower, prepend=-1)
    require(step != 0, "appears twice")
    require(step > 0, "is out of (leader, follower) order")
    require(leader != follower, "pairs a city with itself")
    require((lag >= MIN_LAG) & (lag <= MAX_LAG),
            f"has best_lag {{}}, not an integer in {MIN_LAG}..{MAX_LAG}", lag)
    require(sizes >= 2, "has {} samples, fewer than 2", sizes)
    require(np.isfinite(correlation), "has correlation {}, not a finite number", correlation)
    starts = ends - sizes
    require(np.logical_and.reduceat(np.isfinite(values), starts), "has a non-finite sample value")
    step_up = np.diff(weeks, prepend=0) > 0
    step_up[starts] = True
    require(np.logical_and.reduceat(step_up, starts), "has weeks that repeat or are out of order")
    require(np.abs(np.add.reduceat(values, starts) / sizes - correlation) <= 1e-12,
            "has a correlation that is not the mean of its samples")
    return Dyads(cities, *columns)
