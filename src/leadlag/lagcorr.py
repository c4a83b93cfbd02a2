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

    Unavailable dyads are dropped.
    """
    cities = sorted(series)
    dyads = []
    for leader in cities:
        for follower in cities:
            if leader == follower:
                continue
            try:
                dyads.append(best_dyad(series[follower], series[leader], min_samples, lags))
            except DyadUnavailable:
                pass
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
