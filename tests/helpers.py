"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json

from leadlag.charts import ArtistUniverse, ChartStore, WeeklyChart, normalize_rows


def store_from_cells(cells, missing=frozenset()):
    """ChartStore from a {(week, city, artist): count} dict."""
    by_chart = {}
    for (week, city, artist), count in cells.items():
        by_chart.setdefault((week, city), []).append((artist, count))
    charts = [WeeklyChart(w, c, tuple(es)) for (w, c), es in sorted(by_chart.items())]
    universe = ArtistUniverse(a for _, _, a in cells)
    return ChartStore(charts, universe, missing)


def normalized_windows(store):
    return {s: normalize_rows(store.window(s)) for s in store.valid_window_starts()}


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
    return payload


# Each distortion of a dyad cache, with the problem load_dyads reports for it.
DISTORTIONS = {
    "lag 9": "has best_lag 9, not an integer in 1..5",
    "lag 0": "has best_lag 0, not an integer in 1..5",
    "lag 2.0": "has best_lag 2.0, not an integer in 1..5",
    "lag true": "has best_lag True, not an integer in 1..5",
    "fractional week": "has a week that is not an integer",
    "week as text": "has a week that is not an integer",
    "repeated week": "has weeks that repeat or are out of order",
    "weeks out of order": "has weeks that repeat or are out of order",
    "repeated pair": "appears twice",
    "correlation off its samples": "has a correlation that is not the mean of its samples",
    "one sample": "has 1 samples, fewer than 2",
    "sample of three fields": "has a sample that is not a [week, value] pair",
}
