from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag.charts import (
    ArtistUniverse,
    ChartFormatError,
    ChartStore,
    WeeklyChart,
    WindowUnavailable,
    build_window,
    filter_genre,
    ingest_charts,
    normalize_rows,
    read_chart_csv,
    read_genre_catalog,
    read_missing_weeks,
    write_chart_csv,
)

HEADER = "week,city,artist,listeners"


def chart_file(tmp_path, rows, name="charts.csv"):
    path = tmp_path / name
    lines = [HEADER] + [",".join(str(f) for f in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_ingest_small_fixture(tmp_path):
    rows = [
        (0, "berlin", "art_b", 10),
        (0, "berlin", "art_a", 3),
        (0, "paris", "art_c", 7),
        (1, "paris", "art_a", 2),
    ]
    charts, universe = ingest_charts(chart_file(tmp_path, rows))
    assert universe.artists == ("art_a", "art_b", "art_c")
    assert len(universe) == 3
    assert [c.city_id for c in charts] == ["berlin", "paris", "paris"]
    assert charts[0].entries == (("art_b", 10), ("art_a", 3))


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    charts, universe = ingest_charts(path)
    assert charts == []
    assert len(universe) == 0


def test_ingest_header_only(tmp_path):
    charts, universe = ingest_charts(chart_file(tmp_path, []))
    assert charts == []
    assert len(universe) == 0


def test_study_period_spans_all_weeks(tmp_path):
    rows = [(w, "city", "artist", 1) for w in range(153)]
    store = ChartStore.from_files(chart_file(tmp_path, rows))
    assert store.study_weeks == 153


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("week,city,artist\n0,a,b\n", encoding="utf-8")
    with pytest.raises(ChartFormatError, match="header"):
        read_chart_csv(path)


def test_malformed_week_names_line(tmp_path):
    rows = [(0, "c", "a", 1), ("x", "c", "a", 1)]
    with pytest.raises(ChartFormatError, match=":3:"):
        read_chart_csv(chart_file(tmp_path, rows))


def test_nonpositive_listeners_rejected(tmp_path):
    with pytest.raises(ChartFormatError, match="positive"):
        read_chart_csv(chart_file(tmp_path, [(0, "c", "a", 0)]))
    with pytest.raises(ChartFormatError, match="positive"):
        read_chart_csv(chart_file(tmp_path, [(0, "c", "a", -3)]))


def test_duplicate_triple_rejected(tmp_path):
    rows = [(0, "c", "a", 1), (0, "c", "a", 2)]
    with pytest.raises(ChartFormatError, match="duplicate"):
        read_chart_csv(chart_file(tmp_path, rows))


def test_wrong_field_count_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + "\n0,c,a,1,extra\n", encoding="utf-8")
    with pytest.raises(ChartFormatError, match="4 fields"):
        read_chart_csv(path)


def test_entry_cap_enforced(tmp_path):
    rows = [(0, "c", f"a{i:04d}", 1) for i in range(501)]
    with pytest.raises(ChartFormatError, match="cap"):
        read_chart_csv(chart_file(tmp_path, rows))


def test_week_gap_needs_missing_flag(tmp_path):
    rows = [(0, "c", "a", 1), (1, "c", "a", 1), (3, "c", "a", 1)]
    path = chart_file(tmp_path, rows)
    with pytest.raises(ChartFormatError, match="gaps"):
        ingest_charts(path)
    charts, universe = ingest_charts(path, missing_weeks=frozenset({2}))
    assert len(charts) == 3


def test_missing_week_outside_charted_range_rejected(tmp_path):
    rows = [(0, "c", "a", 1), (1, "c", "a", 1), (3, "c", "a", 1)]
    path = chart_file(tmp_path, rows)
    for stray in (4, 5000):
        with pytest.raises(ChartFormatError, match=f"missing week {stray} lies outside"):
            ingest_charts(path, missing_weeks=frozenset({2, stray}))


def test_window_sums_weekly_counts(tmp_path):
    rows = [
        (0, "c", "a", 10),
        (2, "c", "a", 5),
        (3, "c", "a", 5),
        (1, "c", "b", 1),
    ]
    matrix = build_window(read_chart_csv(chart_file(tmp_path, rows)), 0)
    col = matrix.universe.column("a")
    assert matrix.values[0, col] == 20.0
    assert matrix.width_weeks == 4


def test_window_overlapping_missing_week_unavailable(tmp_path):
    rows = [(w, "c", "a", 1) for w in range(10) if w != 5]
    charts, universe = ingest_charts(chart_file(tmp_path, rows), frozenset({5}))
    store = ChartStore(charts, universe, frozenset({5}))
    with pytest.raises(WindowUnavailable, match="missing week 5"):
        store.window(3)
    store.window(6)


def test_window_outside_study_period_unavailable(tmp_path):
    rows = [(w, "c", "a", 1) for w in range(6)]
    store = ChartStore.from_files(chart_file(tmp_path, rows))
    with pytest.raises(WindowUnavailable):
        store.window(3)
    with pytest.raises(WindowUnavailable):
        store.window(-1)


def test_valid_window_start_count(tmp_path):
    rows = [(w, "c", "a", 1) for w in range(10) if w != 5]
    store = ChartStore(*ingest_charts(chart_file(tmp_path, rows), frozenset({5})), frozenset({5}))
    starts = store.valid_window_starts()
    assert starts == [0, 1, 6]
    blocked = [s for s in range(0, 7) if s <= 5 <= s + 3]
    assert len(starts) == (store.study_weeks - 3) - len(blocked)


def test_normalize_three_four_five():
    charts = [WeeklyChart(0, "c", (("a", 3), ("b", 4)))] + [
        WeeklyChart(w, "c", (("z", 1),)) for w in (1, 2, 3)
    ]
    matrix = filter_genre(build_window(charts, 0), ["a", "b"])
    normed = normalize_rows(matrix)
    assert normed.values[0, normed.universe.column("a")] == pytest.approx(0.6, abs=1e-12)
    assert normed.values[0, normed.universe.column("b")] == pytest.approx(0.8, abs=1e-12)


def test_normalize_axis_vector():
    charts = [WeeklyChart(w, "c", (("a", 5),)) for w in range(4)]
    normed = normalize_rows(build_window(charts, 0))
    assert normed.values[0, 0] == 1.0


def test_normalize_keeps_zero_rows_inactive():
    charts = [WeeklyChart(w, "c", (("a", 2),)) for w in range(4)]
    charts += [WeeklyChart(0, "quiet", (("a", 1),))]
    matrix = build_window(charts, 0)
    matrix = filter_genre(matrix, [])
    normed = normalize_rows(matrix)
    assert normed.values.nnz == 0
    assert not normed.is_active("c")
    assert normed.active_cities() == ()


def test_normalized_rows_have_unit_norm():
    rng = np.random.default_rng(7)
    charts = []
    for w in range(4):
        for city in ("c1", "c2", "c3"):
            entries = tuple(
                (f"a{j}", int(rng.integers(1, 500))) for j in range(int(rng.integers(1, 9)))
            )
            charts.append(WeeklyChart(w, city, entries))
    normed = normalize_rows(build_window(charts, 0))
    norms = np.sqrt(np.asarray(normed.values.multiply(normed.values).sum(axis=1)).ravel())
    assert np.all(np.abs(norms - 1.0) <= 1e-12)


def test_double_normalize_rejected():
    charts = [WeeklyChart(w, "c", (("a", 5),)) for w in range(4)]
    normed = normalize_rows(build_window(charts, 0))
    with pytest.raises(ValueError):
        normalize_rows(normed)


def test_filter_disjoint_genre_zeroes_matrix():
    charts = [WeeklyChart(w, "c", (("a", 5), ("b", 2))) for w in range(4)]
    filtered = filter_genre(build_window(charts, 0), ["other1", "other2"])
    assert filtered.values.nnz == 0


def test_filter_superset_genre_is_identity():
    charts = [WeeklyChart(w, "c", (("a", 5), ("b", 2))) for w in range(4)]
    matrix = build_window(charts, 0)
    filtered = filter_genre(matrix, ["a", "b", "extra"])
    assert (filtered.values != matrix.values).nnz == 0


def test_filter_keeps_exactly_genre_columns():
    entries = (("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5))
    charts = [WeeklyChart(0, "x", entries)] + [
        WeeklyChart(w, "x", (("a", 1),)) for w in (1, 2, 3)
    ]
    matrix = build_window(charts, 0)
    filtered = filter_genre(matrix, ["b", "d"])
    dense = filtered.values.toarray()[0]
    u = matrix.universe
    assert dense[u.column("b")] == 2 and dense[u.column("d")] == 4
    assert dense[u.column("a")] == dense[u.column("c")] == dense[u.column("e")] == 0


def test_filter_after_normalize_rejected():
    charts = [WeeklyChart(w, "c", (("a", 5),)) for w in range(4)]
    normed = normalize_rows(build_window(charts, 0))
    with pytest.raises(ValueError):
        filter_genre(normed, ["a"])


def test_filter_then_normalize_commutes_with_hand_filtering():
    entries = (("a", 3), ("b", 4), ("c", 12))
    charts = [WeeklyChart(0, "x", entries)] + [
        WeeklyChart(w, "x", (("a", 1), ("b", 1))) for w in (1, 2, 3)
    ]
    matrix = build_window(charts, 0)
    via_filter = normalize_rows(filter_genre(matrix, ["a", "b"]))
    hand_charts = [WeeklyChart(0, "x", (("a", 3), ("b", 4)))] + [
        WeeklyChart(w, "x", (("a", 1), ("b", 1))) for w in (1, 2, 3)
    ]
    hand = normalize_rows(build_window(hand_charts, 0))
    u = matrix.universe
    for artist in ("a", "b"):
        got = via_filter.values[0, u.column(artist)]
        want = hand.values[0, hand.universe.column(artist)]
        assert got == pytest.approx(want, abs=1e-12)


def test_ingest_deterministic(tmp_path):
    rows = [(w, c, a, 1 + w) for w in range(4) for c in ("p", "q") for a in ("x", "y")]
    path = chart_file(tmp_path, rows)
    first = ChartStore.from_files(path)
    second = ChartStore.from_files(path)
    assert first.universe == second.universe
    m1, m2 = first.window(0), second.window(0)
    assert (m1.values != m2.values).nnz == 0
    assert m1.cities == m2.cities


def test_chart_csv_round_trip(tmp_path):
    charts = [
        WeeklyChart(0, "c1", (("a", 3), ("b", 9))),
        WeeklyChart(1, "c1", (("a", 4),)),
        WeeklyChart(0, "c2", (("b", 1),)),
    ]
    path = tmp_path / "out.csv"
    write_chart_csv(path, charts)
    back = read_chart_csv(path)
    flat = {(c.week_index, c.city_id, a, n) for c in back for a, n in c.entries}
    want = {(c.week_index, c.city_id, a, n) for c in charts for a, n in c.entries}
    assert flat == want


def test_read_missing_weeks(tmp_path):
    path = tmp_path / "missing.txt"
    path.write_text("3\n\n14\n7\n", encoding="utf-8")
    assert read_missing_weeks(path) == frozenset({3, 7, 14})


def test_read_missing_weeks_rejects_garbage(tmp_path):
    path = tmp_path / "missing.txt"
    path.write_text("3\nxyz\n", encoding="utf-8")
    with pytest.raises(ChartFormatError, match=":2:"):
        read_missing_weeks(path)
    path.write_text("-1\n", encoding="utf-8")
    with pytest.raises(ChartFormatError, match="negative"):
        read_missing_weeks(path)


def test_read_genre_catalog(tmp_path):
    path = tmp_path / "genres.csv"
    path.write_text(
        "genre,rank,artist\nrock,2,art_b\nrock,1,art_a\njazz,1,art_c\n",
        encoding="utf-8",
    )
    catalog = read_genre_catalog(path)
    assert catalog.genre_ids() == ("jazz", "rock")
    assert catalog.artists("rock") == ("art_a", "art_b")
    with pytest.raises(KeyError, match="unknown genre"):
        catalog.artists("polka")


def test_genre_catalog_validation(tmp_path):
    path = tmp_path / "genres.csv"
    path.write_text("genre,rank,artist\nrock,0,a\n", encoding="utf-8")
    with pytest.raises(ChartFormatError, match="rank"):
        read_genre_catalog(path)
    path.write_text("genre,rank,artist\nrock,1,a\nrock,1,b\n", encoding="utf-8")
    with pytest.raises(ChartFormatError, match="duplicate rank"):
        read_genre_catalog(path)
    path.write_text("genre,rank,artist\nrock,1,a\nrock,2,a\n", encoding="utf-8")
    with pytest.raises(ChartFormatError, match="twice"):
        read_genre_catalog(path)


week_city_artist = st.tuples(
    st.integers(0, 6),
    st.sampled_from(["c0", "c1", "c2"]),
    st.sampled_from(["a0", "a1", "a2", "a3", "a4"]),
)


@given(
    cells=st.dictionaries(week_city_artist, st.integers(1, 99), min_size=1, max_size=40),
    start=st.integers(0, 3),
)
@settings(max_examples=120, deadline=None)
def test_window_matches_bruteforce_summation(cells, start):
    by_chart: dict[tuple[int, str], list[tuple[str, int]]] = {}
    for (week, city, artist), count in cells.items():
        by_chart.setdefault((week, city), []).append((artist, count))
    # Filler rows keep the week range contiguous regardless of the draw.
    for week in range(7):
        by_chart.setdefault((week, "fill"), [("a0", 1)])
    charts = [WeeklyChart(w, c, tuple(es)) for (w, c), es in sorted(by_chart.items())]
    matrix = build_window(charts, start)

    expected: dict[tuple[str, str], int] = {}
    for (week, city, artist), count in cells.items():
        if start <= week < start + 4:
            key = (city, artist)
            expected[key] = expected.get(key, 0) + count
    for (city, artist), total in expected.items():
        row = matrix.cities.index(city)
        col = matrix.universe.column(artist)
        assert matrix.values[row, col] == float(total)
    assert matrix.values.sum() == sum(expected.values()) + 4
