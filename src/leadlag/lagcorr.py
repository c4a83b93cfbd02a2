"""Lagged velocity correlations over ordered city pairs.

A velocity is the difference between a city's normalized rows in two
windows 4 weeks apart, so one velocity needs 8 consecutive valid weeks.
For an ordered (follower, leader) pair the machinery dots the follower's
velocity at week t with the leader's at week t - lag, scans lags of 1 to
5 weeks, and keeps the lag with the largest mean dot product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "_row_of", {w: i for i, w in enumerate(self.weeks)})

    def __len__(self) -> int:
        return len(self.weeks)

    def has_week(self, week: int) -> bool:
        return week in self._row_of

    @classmethod
    def from_vectors(
        cls, city_id: str, vectors: Mapping[int, np.ndarray]
    ) -> "VelocitySeries":
        weeks = tuple(sorted(vectors))
        if weeks:
            matrix = sparse.csr_matrix(np.vstack([vectors[w] for w in weeks]))
        else:
            matrix = sparse.csr_matrix((0, 0))
        return cls(city_id, weeks, matrix)


@dataclass(frozen=True)
class LagSample:
    follower_week: int
    lag: int
    value: float


@dataclass(frozen=True)
class DyadResult:
    """Outcome of the lag scan for one ordered (follower, leader) pair.

    `per_lag_samples` holds only `best_lag`, the one lag ever tested.
    """

    leader_candidate: str
    follower_candidate: str
    per_lag_samples: Mapping[int, tuple[LagSample, ...]]
    best_lag: int
    correlation: float

    def best_samples(self) -> tuple[LagSample, ...]:
        return self.per_lag_samples[self.best_lag]


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
    if rows:
        matrix = sparse.vstack(rows, format="csr")
    else:
        matrix = sparse.csr_matrix((0, n_cols))
    return VelocitySeries(city_id, tuple(weeks), matrix)


def compute_all_velocities(
    windows: Mapping[int, ListenMatrix]
) -> dict[str, VelocitySeries]:
    starts = sorted(windows)
    if not starts:
        return {}
    cities = windows[starts[0]].cities
    return {city: compute_velocities(windows, city) for city in cities}


def lagged_samples(
    follower: VelocitySeries, leader: VelocitySeries, lag: int
) -> list[LagSample]:
    """One dot-product sample per week where both velocities exist."""
    if not MIN_LAG <= lag <= MAX_LAG:
        raise ValueError(f"lag must be in {MIN_LAG}..{MAX_LAG}, got {lag}")
    common = [t for t in follower.weeks if leader.has_week(t - lag)]
    if not common:
        return []
    f_idx = [follower._row_of[t] for t in common]
    l_idx = [leader._row_of[t - lag] for t in common]
    a = follower.matrix[f_idx]
    b = leader.matrix[l_idx]
    values = np.asarray(a.multiply(b).sum(axis=1)).ravel()
    return [LagSample(t, lag, float(v)) for t, v in zip(common, values)]


def best_dyad(
    follower: VelocitySeries,
    leader: VelocitySeries,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    lags: Sequence[int] | None = None,
) -> DyadResult:
    """Scan lags 1..5 and keep the one with the largest mean dot product.

    Lags with fewer than min_samples samples are ineligible; ties go to
    the smallest lag. With no eligible lag the dyad is unavailable and
    the caller drops it. A narrower lag set may be passed explicitly.
    """
    if min_samples < 2:
        raise ValueError(f"min_samples must be at least 2, got {min_samples}")
    scan = LAGS if lags is None else tuple(sorted(set(lags)))
    if not scan:
        raise ValueError("lags must be non-empty")
    best_lag = None
    best_mean = -math.inf
    best_samples: tuple[LagSample, ...] = ()
    for lag in scan:
        samples = tuple(lagged_samples(follower, leader, lag))
        if len(samples) < min_samples:
            continue
        mean = math.fsum(s.value for s in samples) / len(samples)
        if mean > best_mean:
            best_lag, best_mean, best_samples = lag, mean, samples
    if best_lag is None:
        raise DyadUnavailable(
            f"no lag of {follower.city_id!r} -> {leader.city_id!r} "
            f"reaches {min_samples} samples"
        )
    return DyadResult(
        leader_candidate=leader.city_id,
        follower_candidate=follower.city_id,
        per_lag_samples={best_lag: best_samples},
        best_lag=best_lag,
        correlation=best_mean,
    )


def scan_dyads(
    series: Mapping[str, VelocitySeries],
    min_samples: int = DEFAULT_MIN_SAMPLES,
    lags: Sequence[int] | None = None,
) -> list[DyadResult]:
    """Score every ordered city pair, in deterministic (leader, follower) order.

    Gives, bit for bit, the `best_dyad` of every pair that has one. All
    velocity rows are stacked once; per leader and lag, one row gather per
    side and one sparse product per path group score every follower.
    Rejects the arguments `best_dyad` rejects, for any number of cities.
    """
    if min_samples < 2:
        raise ValueError(f"min_samples must be at least 2, got {min_samples}")
    scan = LAGS if lags is None else tuple(sorted(set(lags)))
    if not scan:
        raise ValueError("lags must be non-empty")
    for lag in scan:
        if not MIN_LAG <= lag <= MAX_LAG:
            raise ValueError(f"lag must be in {MIN_LAG}..{MAX_LAG}, got {lag}")
    present = [series[c] for c in sorted(series) if len(series[c])]
    if len(present) < 2:
        return []
    stack = sparse.vstack([s.matrix for s in present], format="csr")
    week_of_row = [w for s in present for w in s.weeks]
    weeks = np.array(week_of_row, dtype=np.int64)
    owner = np.repeat(np.arange(len(present)), [len(s) for s in present])
    # scipy multiplies two CSR operands by a sorted merge only when every
    # row of both has strictly increasing column indices, and otherwise
    # emits each row's products in another order, which `sum` then rounds
    # differently. A pair's samples match `lagged_samples` only if they go
    # through the path its own rows select, so each batch is split into
    # the pairs whose gathered rows are all sorted and all other pairs.
    entry_row = np.repeat(np.arange(len(weeks)), np.diff(stack.indptr))
    step_back = (np.diff(stack.indices) <= 0) & (entry_row[1:] == entry_row[:-1])
    row_sorted = np.bincount(entry_row[1:][step_back], minlength=len(weeks)) == 0
    # Leader row by week, offset so that week - lag never indexes below 0.
    base = int(weeks.min()) - MAX_LAG
    span = int(weeks.max()) - base + 1

    dyads = []
    for li, leader in enumerate(present):
        mine = owner == li
        leader_row = np.full(span, -1)
        leader_row[weeks[mine] - base] = np.flatnonzero(mine)
        per_lag = []
        for lag in scan:
            l_rows = leader_row[weeks - lag - base]
            f_rows = np.flatnonzero((l_rows >= 0) & ~mine)
            l_rows, pair_of = l_rows[f_rows], owner[f_rows]
            unsorted = ~(row_sorted[f_rows] & row_sorted[l_rows])
            general = np.bincount(pair_of, unsorted, len(present))[pair_of] > 0
            values = np.empty(len(f_rows))
            for group in (general, ~general):
                a, b = stack[f_rows[group]], stack[l_rows[group]]
                values[group] = np.asarray(a.multiply(b).sum(axis=1)).ravel()
            bounds = np.searchsorted(pair_of, np.arange(len(present) + 1)).tolist()
            per_lag.append((lag, f_rows, values.tolist(), bounds))
        for fi, follower in enumerate(present):
            best, best_mean = None, -math.inf
            for lag, f_rows, values, bounds in per_lag:
                s, e = bounds[fi], bounds[fi + 1]
                if e - s < min_samples:
                    continue
                mean = math.fsum(values[s:e]) / (e - s)
                if mean > best_mean:
                    best, best_mean = (lag, f_rows[s:e].tolist(), values[s:e]), mean
            if best is not None:
                lag, rows, values = best
                samples = tuple(LagSample(week_of_row[r], lag, v) for r, v in zip(rows, values))
                dyads.append(DyadResult(
                    leader.city_id, follower.city_id, {lag: samples}, lag, best_mean
                ))
    return dyads


def save_dyads(path: str | Path, dyads: Iterable[DyadResult]) -> None:
    """Write dyad results as JSON, stable across reruns."""
    payload = {
        "dyads": [
            {
                "leader": d.leader_candidate,
                "follower": d.follower_candidate,
                "best_lag": d.best_lag,
                "correlation": d.correlation,
                "samples": {
                    str(d.best_lag): [[s.follower_week, s.value] for s in d.best_samples()]
                },
            }
            for d in sorted(
                dyads, key=lambda d: (d.leader_candidate, d.follower_candidate)
            )
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_dyads(path: str | Path) -> list[DyadResult]:
    """Read a save_dyads cache; caches holding every lag load the same."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    dyads = []
    for item in payload["dyads"]:
        lag = int(item["best_lag"])
        samples = tuple(
            LagSample(int(week), lag, float(value))
            for week, value in item["samples"][str(lag)]
        )
        dyads.append(
            DyadResult(
                leader_candidate=item["leader"],
                follower_candidate=item["follower"],
                per_lag_samples={lag: samples},
                best_lag=lag,
                correlation=float(item["correlation"]),
            )
        )
    return dyads
