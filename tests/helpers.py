"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json

import numpy as np
from scipy import sparse

from leadlag.charts import ArtistUniverse, ChartStore, WeeklyChart, WindowStack
from leadlag.lagcorr import VelocitySeries

from oracles import from_scipy, per_window_windows


def store_from_cells(cells, missing=frozenset()):
    """ChartStore from a {(week, city, artist): count} dict."""
    by_chart = {}
    for (week, city, artist), count in cells.items():
        by_chart.setdefault((week, city), []).append((artist, count))
    charts = [WeeklyChart(w, c, tuple(es)) for (w, c), es in sorted(by_chart.items())]
    universe = ArtistUniverse(a for _, _, a in cells)
    return ChartStore(charts, universe, missing)


def window_stack(windows):
    """Normalized windows keyed by start week, built one at a time, as one stack
    whose rows hold their entries in ascending column order."""
    starts = sorted(windows)
    first = windows[starts[0]]
    stacked = sparse.vstack([windows[s].values for s in starts], format="csr")
    matrix = from_scipy(stacked.sorted_indices())
    return WindowStack(starts, first.cities, first.universe, matrix)


def normalized_windows(store):
    """The store's windows as the per-window oracle builds them, stacked."""
    return window_stack(per_window_windows(store))


def velocity_series(city_id, vectors):
    """VelocitySeries from a {week: dense vector} dict."""
    weeks = tuple(sorted(vectors))
    matrix = np.vstack([vectors[w] for w in weeks]) if weeks else (0, 0)
    return VelocitySeries(city_id, weeks, from_scipy(matrix))


def distort(payload, case):
    """Change one dyad of a one-dyad cache the way `case` names."""
    [item] = payload["dyads"]
    lag = str(item["best_lag"])
    samples = item["samples"][lag]
    if case.startswith("lag "):
        item["best_lag"] = json.loads(case[4:])
        item["samples"][str(item["best_lag"])] = samples
    elif case == "fractional week":
        samples[3][0] += 0.5
    elif case == "week as text":
        samples[3][0] = str(samples[3][0])
    elif case == "value true":
        samples[2][1] = True
    elif case == "value as text":
        samples[2][1] = str(samples[2][1])
    elif case == "correlation as text":
        item["correlation"] = str(item["correlation"])
    elif case == "repeated week":
        samples[4][0] = samples[3][0]
    elif case == "weeks out of order":
        samples[3], samples[4] = samples[4], samples[3]
    elif case == "repeated pair":
        payload["dyads"].append(json.loads(json.dumps(item)))
    elif case == "correlation off its samples":
        item["correlation"] = 0.9
    elif case == "one sample":
        item["samples"][lag] = samples[:1]
        item["correlation"] = samples[0][1]
    elif case == "sample of three fields":
        samples[2].append(1.0)
    elif case == "no samples at the best lag":
        item["best_lag"] = 1
        item["samples"] = {"2": samples}
    elif case == "city outside the city list":
        payload["cities"] = [item["leader"]]
    elif case == "samples as a list":
        item["samples"] = samples
    elif case == "dyad as a number":
        payload["dyads"] = [5]
    return payload


# Each distortion of a dyad cache, with the problem load_dyads reports for it.
DISTORTIONS = {
    "lag 9": "has best_lag 9, not an integer in 1..5",
    "lag 0": "has best_lag 0, not an integer in 1..5",
    "lag 2.0": "has best_lag 2.0, not an integer in 1..5",
    "lag true": "has best_lag True, not an integer in 1..5",
    "fractional week": "has a week that is not an integer",
    "week as text": "has a week that is not an integer",
    "value true": "has a sample value that is not a number",
    "value as text": "has a sample value that is not a number",
    "correlation as text": "has a correlation that is not a number",
    "repeated week": "has weeks that repeat or are out of order",
    "weeks out of order": "has weeks that repeat or are out of order",
    "repeated pair": "appears twice",
    "correlation off its samples": "has a correlation that is not the mean of its samples",
    "one sample": "has 1 samples, fewer than 2",
    "sample of three fields": "has a sample that is not a [week, value] pair",
    "city outside the city list": "names a city that is not in the cache's city list",
    "no samples at the best lag": "has no samples for its best lag 1",
    "samples as a list": "has samples that are not a JSON object",
    "dyad as a number": "is not a JSON object",
}


def cache_rejection(path, follower, leader, case):
    """The message load_dyads gives for the distortion `case` of a one-dyad cache."""
    dyad = "1" if case == "dyad as a number" else f"{follower!r} -> {leader!r}"
    return f"{path}: dyad {dyad} {DISTORTIONS[case]}"
