"""Shared fixture builders for the test suite."""

from __future__ import annotations

import base64
import importlib.util
import sys
from pathlib import Path

import numpy as np
from scipy import sparse

from leadlag.charts import WeeklyChart, WindowStack
from leadlag.lagcorr import Dyads, VelocitySeries

from oracles import chart_store, from_scipy, per_window_windows


def store_from_cells(cells, missing=frozenset()):
    """ChartStore from a {(week, city, artist): count} dict."""
    by_chart = {}
    for (week, city, artist), count in cells.items():
        by_chart.setdefault((week, city), []).append((artist, count))
    charts = [WeeklyChart(w, c, tuple(es)) for (w, c), es in sorted(by_chart.items())]
    return chart_store(charts, missing)


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


# The little-endian dtype of each column of a dyad cache, in the order of the Dyads fields.
CACHE_COLUMNS = {"leader": "<i8", "follower": "<i8", "lag": "<i8", "correlation": "<f8",
                 "sizes": "<i8", "weeks": "<i8", "values": "<f8"}


def column(payload, name):
    """A dyad cache payload's decoded column `name`, writable."""
    return np.frombuffer(base64.b64decode(payload[name]), CACHE_COLUMNS[name]).copy()


def set_column(payload, name, items):
    """Store `items` as a dyad cache payload's column `name`."""
    payload[name] = base64.b64encode(np.asarray(items, CACHE_COLUMNS[name]).tobytes()).decode()


def cache_payload(cities, **columns):
    """A dyad cache payload over `cities` whose columns hold `columns`' items."""
    payload = {"cities": list(cities)}
    for name, items in columns.items():
        set_column(payload, name, items)
    return payload


def distort(payload, case):
    """Change the one dyad of a one-dyad cache the way `case` names."""
    columns = {name: column(payload, name) for name in CACHE_COLUMNS}
    leader, follower, lag, correlation, sizes, weeks, values = columns.values()
    names = payload["cities"][leader[0]], payload["cities"][follower[0]]
    if case.startswith("lag "):
        lag[0] = int(case[4:])
    elif case == "repeated week":
        weeks[4] = weeks[3]
    elif case == "weeks out of order":
        weeks[[3, 4]], values[[3, 4]] = weeks[[4, 3]], values[[4, 3]]
    elif case in ("repeated pair", "pairs out of order"):
        columns = {name: np.tile(items, 2) for name, items in columns.items()}
        if case == "pairs out of order":
            # Both orientations, the larger (leader, follower) pair first.
            pairs = sorted([(leader[0], follower[0]), (follower[0], leader[0])], reverse=True)
            columns["leader"], columns["follower"] = np.array(pairs).T
    elif case == "correlation off its samples":
        correlation[0] = 0.9
    elif case == "NaN correlation":
        correlation[0] = np.nan
    elif case == "one sample":
        columns.update(sizes=[1], correlation=values[:1], weeks=weeks[:1], values=values[:1])
    elif case == "city outside the city list":
        payload["cities"] = [names[0]]
    elif case in ("city repeated", "cities out of order"):
        # Just before the follower: the follower again, or "~", which sorts after every name.
        cities = payload["cities"]
        cities.insert(cities.index(names[1]), "~" if case == "cities out of order" else names[1])
    elif case == "code past the city list":
        follower[0] = len(payload["cities"])
    elif case == "negative code":
        leader[0] = -1
    elif case == "self pair":
        leader[0] = follower[0]
    elif case == "unequal columns":
        columns["lag"] = np.tile(lag, 2)
    elif case == "counts short of the columns":
        sizes[0] -= 1
    elif case == "counts that overflow":
        # Three rows whose counts, wrapping round int64, sum to the columns' length.
        columns.update({name: np.tile(columns[name], 3)
                        for name in ("leader", "follower", "lag", "correlation")})
        columns["sizes"] = [2**62, 2**62, len(weeks) - 2**63]
    for name, items in columns.items():
        set_column(payload, name, items)
    if case == "weeks not base64":
        payload["weeks"] = "*" + payload["weeks"][1:]
    elif case in ("values not whole items", "leader not whole items"):
        name = case.split()[0]
        payload[name] = base64.b64encode(base64.b64decode(payload[name])[:-4]).decode()
    elif case in ("pair layout", "records layout"):
        # The layouts before every field was a column: one record per dyad, holding its
        # [week, value] pairs, or their count beside weeks and values columns.
        pairs = {str(lag[0]): [[w, v] for w, v in zip(weeks.tolist(), values.tolist())]}
        payload["dyads"] = [{
            "leader": names[0], "follower": names[1], "best_lag": int(lag[0]),
            "correlation": float(correlation[0]),
            "samples": pairs if case == "pair layout" else int(sizes[0]),
        }]
        for name in ("leader", "follower", "lag", "correlation", "sizes"):
            del payload[name]
        if case == "pair layout":
            del payload["weeks"], payload["values"]
    return payload


# Each distortion of a dyad cache, with the problem load_dyads reports for
# it, or the start of it; {dyad} stands for {follower} -> {leader}, the names' reprs, and
# {smaller} for the orientation of the pair that is smaller in (leader, follower) order.
LAYOUT = ("not a dyad cache in the current layout, which stores every dyad field as a base64 "
          "column; rerun `leadlag dyads` or `leadlag run` to rewrite it")
DISTORTIONS = {
    "lag 9": "dyad {dyad} has best_lag 9, not an integer in 1..5",
    "lag 0": "dyad {dyad} has best_lag 0, not an integer in 1..5",
    "repeated week": "dyad {dyad} has weeks that repeat or are out of order",
    "weeks out of order": "dyad {dyad} has weeks that repeat or are out of order",
    "repeated pair": "dyad {dyad} appears twice",
    "correlation off its samples": "dyad {dyad} has a correlation that is not the mean of its samples",
    "NaN correlation": "dyad {dyad} has correlation nan, not a finite number",
    "one sample": "dyad {dyad} has 1 samples, fewer than 2",
    "city outside the city list": "dyad 0 names a city outside the city list",
    "code past the city list": "dyad 0 names a city outside the city list",
    "negative code": "dyad 0 names a city outside the city list",
    "city repeated": "city {follower} appears twice in the cache's city list, which must be sorted",
    "cities out of order":
        "city {follower} is out of order in the cache's city list, which must be sorted",
    "pairs out of order": "dyad {smaller} is out of (leader, follower) order",
    "self pair": "dyad {follower} -> {follower} pairs a city with itself",
    "unequal columns": "the columns of one item per dyad differ in length",
    "weeks not base64": "weeks is not base64 of whole 8-byte items",
    "values not whole items": "values is not base64 of whole 8-byte items",
    "leader not whole items": "leader is not base64 of whole 8-byte items",
    "pair layout": LAYOUT,
    "records layout": LAYOUT,
    "counts short of the columns":
        "the dyads' sample counts do not sum to the length of the weeks and values columns",
    "counts that overflow":
        "the dyads' sample counts do not sum to the length of the weeks and values columns",
}


def cache_rejection(path, follower, leader, case):
    """The message load_dyads gives for the distortion `case` of a one-dyad cache."""
    f, l = repr(follower), repr(leader)
    smaller = f"{f} -> {l}" if leader < follower else f"{l} -> {f}"
    return f"{path}: " + DISTORTIONS[case].format(
        dyad=f"{f} -> {l}", follower=f, leader=l, smaller=smaller
    )


def bench_module(name, monkeypatch):
    """The benchmark's module bench/{name}.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
