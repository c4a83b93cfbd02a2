"""Shared fixture builders for the test suite."""

from __future__ import annotations

import base64
import json

import numpy as np
from scipy import sparse

from leadlag.charts import ArtistUniverse, ChartStore, WeeklyChart, WindowStack
from leadlag.lagcorr import Dyads, VelocitySeries

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


def dyad_table(rows, cities=None):
    """The Dyads table of DyadResult rows, sorted into (leader, follower) order,
    over `cities`, or else over the cities the rows name."""
    rows = sorted(rows, key=lambda d: (d.leader_candidate, d.follower_candidate))
    if cities is None:
        cities = {c for d in rows for c in (d.leader_candidate, d.follower_candidate)}
    names = tuple(sorted(cities))
    index = {c: i for i, c in enumerate(names)}

    def ints(items):
        return np.array(list(items), dtype=np.int64)

    return Dyads(
        names,
        ints(index[d.leader_candidate] for d in rows),
        ints(index[d.follower_candidate] for d in rows),
        ints(d.best_lag for d in rows),
        np.array([d.correlation for d in rows], dtype=np.float64),
        ints(len(d.values) for d in rows),
        np.concatenate([ints(())] + [np.asarray(d.weeks, dtype=np.int64) for d in rows]),
        np.concatenate([np.zeros(0)] + [np.asarray(d.values, dtype=np.float64) for d in rows]),
    )


DYAD_COLUMNS = ("leader", "follower", "lag", "correlation", "sizes", "weeks", "values")


def assert_same_dyads(got, want):
    """Two Dyads tables with the same cities and the same columns, bit for bit."""
    assert got.cities == want.cities
    for name in DYAD_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


# The dtype of each sample column of a dyad cache.
CACHE_COLUMNS = {"weeks": "<i8", "values": "<f8"}


def column(payload, name):
    """A dyad cache payload's decoded weeks or values column, writable."""
    return np.frombuffer(base64.b64decode(payload[name]), CACHE_COLUMNS[name]).copy()


def set_column(payload, name, items):
    """Store `items` as a dyad cache payload's weeks or values column."""
    payload[name] = base64.b64encode(np.asarray(items, CACHE_COLUMNS[name]).tobytes()).decode()


def distort(payload, case):
    """Change one dyad of a one-dyad cache the way `case` names."""
    [item] = payload["dyads"]
    weeks, values = column(payload, "weeks"), column(payload, "values")
    if case.startswith("lag "):
        item["best_lag"] = json.loads(case[4:])
    elif case == "correlation as text":
        item["correlation"] = str(item["correlation"])
    elif case == "repeated week":
        weeks[4] = weeks[3]
    elif case == "weeks out of order":
        weeks[[3, 4]], values[[3, 4]] = weeks[[4, 3]], values[[4, 3]]
    elif case == "repeated pair":
        payload["dyads"].append(json.loads(json.dumps(item)))
        weeks, values = np.tile(weeks, 2), np.tile(values, 2)
    elif case == "correlation off its samples":
        item["correlation"] = 0.9
    elif case == "one sample":
        weeks, values = weeks[:1], values[:1]
        item["samples"], item["correlation"] = 1, float(values[0])
    elif case == "city outside the city list":
        payload["cities"] = [item["leader"]]
    elif case in ("city repeated", "cities out of order"):
        # Just before the follower: the follower again, or "~", which sorts after every name.
        cities, follower = payload["cities"], item["follower"]
        cities.insert(cities.index(follower), "~" if case == "cities out of order" else follower)
    elif case == "pairs out of order":
        # Both orientations, the larger (leader, follower) pair first.
        swapped = dict(item, leader=item["follower"], follower=item["leader"])
        payload["dyads"] = sorted([item, swapped], key=lambda d: (d["leader"], d["follower"]))[::-1]
        weeks, values = np.tile(weeks, 2), np.tile(values, 2)
    elif case == "leader as a list":
        item["leader"] = [item["leader"]]
    elif case == "dyad as a number":
        payload["dyads"] = [5]
    elif case == "dyads as a number":
        payload["dyads"] = 5
    elif case == "count as text":
        item["samples"] = str(item["samples"])
    elif case == "count true":
        item["samples"] = True
    elif case == "counts short of the columns":
        item["samples"] -= 1
    set_column(payload, "weeks", weeks)
    set_column(payload, "values", values)
    if case == "weeks not base64":
        payload["weeks"] = "*" + payload["weeks"][1:]
    elif case == "values not whole items":
        payload["values"] = base64.b64encode(base64.b64decode(payload["values"])[:-4]).decode()
    elif case == "pair layout":
        item["samples"] = {str(item["best_lag"]): [[w, v] for w, v in zip(weeks.tolist(), values.tolist())]}
        del payload["weeks"], payload["values"]
    return payload


# Each distortion of a dyad cache, with the problem load_dyads reports for
# it, or the start of it; {dyad} stands for {follower} -> {leader}, the names' reprs, and
# {smaller} for the orientation of the pair that is smaller in (leader, follower) order.
DISTORTIONS = {
    "lag 9": "dyad {dyad} has best_lag 9, not an integer in 1..5",
    "lag 0": "dyad {dyad} has best_lag 0, not an integer in 1..5",
    "lag 2.0": "dyads: 0: best_lag: expected an integer, got 2.0",
    "lag true": "dyads: 0: best_lag: expected an integer, got True",
    "correlation as text": "dyads: 0: correlation: expected a number, got '",
    "repeated week": "dyad {dyad} has weeks that repeat or are out of order",
    "weeks out of order": "dyad {dyad} has weeks that repeat or are out of order",
    "repeated pair": "dyad {dyad} appears twice",
    "correlation off its samples": "dyad {dyad} has a correlation that is not the mean of its samples",
    "one sample": "dyad {dyad} has 1 samples, fewer than 2",
    "city outside the city list": "dyad {dyad} names a city that is not in the cache's city list",
    "city repeated": "city {follower} appears twice in the cache's city list, which must be sorted",
    "cities out of order":
        "city {follower} is out of order in the cache's city list, which must be sorted",
    "pairs out of order": "dyad {smaller} is out of (leader, follower) order",
    "leader as a list": "dyads: 0: leader: expected a string, got [{leader}]",
    "dyad as a number": "dyads: 0: expected a JSON object, got 5",
    "dyads as a number": "dyads: expected a list, got 5",
    "count as text": "dyads: 0: samples: expected an integer, got '",
    "count true": "dyads: 0: samples: expected an integer, got True",
    "weeks not base64": "weeks is not base64 of whole 8-byte items",
    "values not whole items": "values is not base64 of whole 8-byte items",
    "pair layout": "not a dyad cache in the current layout, which stores the samples as base64 "
        "weeks and values columns; rerun `leadlag dyads` or `leadlag run` to rewrite it",
    "counts short of the columns":
        "the dyads' sample counts do not sum to the length of the weeks and values columns",
}


def cache_rejection(path, follower, leader, case):
    """The message load_dyads gives for the distortion `case` of a one-dyad cache."""
    f, l = repr(follower), repr(leader)
    smaller = f"{f} -> {l}" if leader < follower else f"{l} -> {f}"
    return f"{path}: " + DISTORTIONS[case].format(
        dyad=f"{f} -> {l}", follower=f, leader=l, smaller=smaller
    )
