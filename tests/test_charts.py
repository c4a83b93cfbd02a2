from __future__ import annotations

import csv
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadlag import charts as charts_module
from leadlag.charts import (
    ChartFormatError,
    ChartStore,
    WeeklyChart,
    read_chart_csv,
    read_genre_catalog,
    read_missing_weeks,
    write_chart_csv,
)

from oracles import (
    WindowUnavailable,
    active_cities,
    build_window,
    chart_store,
    filter_genre,
    is_active,
    normalize_rows,
    window,
)

HEADER = "week,city,artist,listeners"


def chart_file(tmp_path, rows, name="charts.csv"):
    path = tmp_path / name
    lines = [HEADER] + [",".join(str(f) for f in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def missing_file(tmp_path, weeks):
    path = tmp_path / "missing.txt"
    path.write_text("".join(f"{w}\n" for w in sorted(weeks)), encoding="utf-8")
    return path


def csv_store(path, missing_path=None):
    """The store `from_files` reads with the byte reader off: the csv reader's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charts_module, "_read_chart_columns", lambda path: None)
        return ChartStore.from_files(path, missing_path)


def test_ingest_small_fixture(tmp_path):
    rows = [
        (0, "berlin", "art_b", 10),
        (0, "berlin", "art_a", 3),
        (0, "paris", "art_c", 7),
        (1, "paris", "art_a", 2),
    ]
    store = read_chart_csv(chart_file(tmp_path, rows))
    assert store.universe.artists == ("art_a", "art_b", "art_c")
    assert len(store.universe) == 3
    charts = list(store)
    assert [c.city_id for c in charts] == ["berlin", "paris", "paris"]
    assert charts[0].entries == (("art_b", 10), ("art_a", 3))


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    store = read_chart_csv(path)
    assert list(store) == []
    assert len(store.universe) == 0


def test_ingest_header_only(tmp_path):
    store = read_chart_csv(chart_file(tmp_path, []))
    assert list(store) == []
    assert len(store.universe) == 0


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
        csv_store(path)
    assert csv_store(path, missing_file(tmp_path, {2})).chart_count == 3


def test_missing_week_outside_charted_range_rejected(tmp_path):
    rows = [(0, "c", "a", 1), (1, "c", "a", 1), (3, "c", "a", 1)]
    path = chart_file(tmp_path, rows)
    for stray in (4, 5000):
        with pytest.raises(ChartFormatError, match=f"missing week {stray} lies outside"):
            csv_store(path, missing_file(tmp_path, {2, stray}))


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
    store = csv_store(chart_file(tmp_path, rows), missing_file(tmp_path, {5}))
    with pytest.raises(WindowUnavailable, match="missing week 5"):
        window(store, 3)
    window(store, 6)


def test_window_outside_study_period_unavailable(tmp_path):
    rows = [(w, "c", "a", 1) for w in range(6)]
    store = ChartStore.from_files(chart_file(tmp_path, rows))
    with pytest.raises(WindowUnavailable):
        window(store, 3)
    with pytest.raises(WindowUnavailable):
        window(store, -1)


def test_valid_window_start_count(tmp_path):
    rows = [(w, "c", "a", 1) for w in range(10) if w != 5]
    store = csv_store(chart_file(tmp_path, rows), missing_file(tmp_path, {5}))
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
    assert not is_active(normed, "c")
    assert active_cities(normed) == ()


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
    m1, m2 = window(first, 0), window(second, 0)
    assert (m1.values != m2.values).nnz == 0
    assert m1.cities == m2.cities


def test_chart_csv_round_trip(tmp_path):
    """Every count is written back exactly, up to int64's largest."""
    charts = [
        WeeklyChart(0, "c1", (("b", 3), ("a", 2**63 - 1))),
        WeeklyChart(1, "c1", (("a", 4),)),
        WeeklyChart(0, "c2", (("b", 2**53 + 1),)),
    ]
    path = tmp_path / "out.csv"
    write_chart_csv(path, chart_store(charts))
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        f"0,c1,a,{2**63 - 1}", "0,c1,b,3", f"0,c2,b,{2**53 + 1}", "1,c1,a,4"
    ]
    assert list(read_chart_csv(path)) == [
        WeeklyChart(0, "c1", (("a", 2**63 - 1), ("b", 3))),
        WeeklyChart(0, "c2", (("b", 2**53 + 1),)),
        WeeklyChart(1, "c1", (("a", 4),)),
    ]


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


def chart_rows(store):
    """The store's (week, city, artist, count) rows, sorted."""
    return sorted((c.week_index, c.city_id, a, n) for c in store for a, n in c.entries)


def assert_same_store(got, want):
    """Equal cities, universe, weeks, charts, rows and bit-equal window CSR arrays."""
    assert chart_rows(got) == chart_rows(want)
    assert got.cities == want.cities
    assert got.universe == want.universe
    assert (got.first_week, got.last_week) == (want.first_week, want.last_week)
    assert got.missing_weeks == want.missing_weeks
    assert got.chart_count == want.chart_count
    assert got.valid_window_starts() == want.valid_window_starts()
    for start in want.valid_window_starts():
        a, b = window(got, start).values, window(want, start).values
        for part in ("indptr", "indices", "data"):
            x, y = getattr(a, part), getattr(b, part)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (start, part)


def outcome(load):
    """The store `load` builds, or the type and text of what it raises."""
    try:
        return load()
    except Exception as exc:  # compared between the two readers below
        return type(exc), str(exc)


def assert_columnar_matches_csv(path, missing=frozenset()):
    """`from_files` either raises what the csv reader raises or gives its store."""
    missing_path = missing_file(path.parent, missing)
    got = outcome(lambda: ChartStore.from_files(path, missing_path))
    want = outcome(lambda: csv_store(path, missing_path))
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert_same_store(got, want)


@pytest.fixture
def csv_reads(monkeypatch):
    """Counts the calls that reach the csv reader."""
    calls = []
    read = charts_module.read_chart_csv

    def counted(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(charts_module, "read_chart_csv", counted)
    return calls


def test_gap_between_distant_weeks_is_found_fast(tmp_path):
    path = chart_file(tmp_path, [(0, "c", "a", 1), (10**12, "c", "a", 1)])
    message = "week range 0..1000000000000 has unexplained gaps (first: 1)"
    for load in (lambda: csv_store(path), lambda: ChartStore.from_files(path)):
        start = time.perf_counter()
        with pytest.raises(ChartFormatError, match=re.escape(message)):
            load()
        assert time.perf_counter() - start < 1.0


def test_first_gap_skips_missing_weeks(tmp_path):
    rows = [(w, "c", "a", 1) for w in (0, 1, 3, 6)]
    path = chart_file(tmp_path, rows)
    with pytest.raises(ChartFormatError, match=r"\(first: 4\)"):
        csv_store(path, missing_file(tmp_path, {2, 5}))
    assert_columnar_matches_csv(path, frozenset({2, 5}))
    assert_columnar_matches_csv(path, frozenset({2, 4, 5}))


@pytest.mark.parametrize("text", ["", HEADER + "\n", HEADER + "\r\n\r\n\n"])
def test_empty_chart_file_gives_empty_store(tmp_path, text):
    path = tmp_path / "charts.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = ChartStore.from_files(path)
    assert_same_store(store, chart_store([]))
    assert (store.cities, len(store.universe), store.chart_count) == ((), 0, 0)
    assert (store.first_week, store.last_week, store.valid_window_starts()) == (0, -1, [])


def test_plain_file_is_read_by_columns(tmp_path, monkeypatch, csv_reads):
    """Names a fixed-width read could truncate, drop or misread still load exactly,
    without the csv reader."""
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", 40)
    names = ["a", "abcdefghijklmnopqrstuvwxyz", "#hash", " spaced ", "漢字", "Björk", "\u3000x"]
    names.append("l" * 300)  # a fixed-width read would widen every name of its chunk to this
    names += ["z\x00", "z"]  # fixed-width numpy strings drop trailing NULs
    pairs = [(c, a) for c in ("p", "#q") for a in names]
    rows = [(w, c, a, 1 + w + i) for w in range(6) for i, (c, a) in enumerate(pairs)]
    lines = [HEADER] + [",".join(str(f) for f in row) for row in rows]
    path = tmp_path / "charts.csv"
    path.write_text("\r\n".join(lines[:9] + [""] + lines[9:]) + "\r\n", encoding="utf-8")
    store = ChartStore.from_files(path)
    assert csv_reads == []
    assert store.universe.artists == tuple(sorted(names))
    assert store.cities == ("#q", "p")
    assert store.chart_count == 12
    assert_columnar_matches_csv(path)


def test_parsed_chunks_are_not_kept_alive(tmp_path, monkeypatch):
    """A view into a parsed block would keep the block's names alive."""
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", 411_000)  # 1,000 lines
    names = [(f"{'c' * 200}{i % 7}", f"a{i % 50:03d}{'x' * 200}") for i in range(10000)]
    path = chart_file(tmp_path, [(w, city, artist, 1) for w in (0, 1) for city, artist in names])
    tracemalloc.start()
    try:
        charts_module._read_chart_columns(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each block holds 2,000 names of about 200 bytes, about 0.4 MB: keeping all
    # 20 alive would need about 8 MB.
    assert peak < 5 * 2**20


def store_bytes(week, city, entries):
    """The bytes of a store's arrays: per chart, week and city; per entry, its CSR arrays."""
    return sum(a.nbytes for a in (week, city, entries.data, entries.indices, entries.indptr))


def traced_peak(load):
    """What `load()` returns, and the peak of traced memory while it ran."""
    tracemalloc.start()
    try:
        return load(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def blocks_of_charts(tmp_path, monkeypatch):
    """A file of 24,600 rows in 492 charts, read in 24 blocks of about 1,000 lines."""
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", 13_000)
    rows = [(w, f"c{c}", f"a{a}", a + 1) for w in range(123) for c in range(4) for a in range(50)]
    return chart_file(tmp_path, rows)


def test_read_peak_stays_near_its_final_arrays(tmp_path, monkeypatch):
    """Entries go straight into columns of the final size, and a parsed block goes before the next."""
    path = blocks_of_charts(tmp_path, monkeypatch)
    (_, _, *arrays), peak = traced_peak(lambda: charts_module._read_chart_columns(path))
    # All blocks' rows plus their joined copy would be about 2x the final arrays.
    assert peak < 1.5 * store_bytes(*arrays)


def test_from_files_peak_stays_near_its_store(tmp_path, monkeypatch):
    """The checks after the read (the entry cap, repeated artists, the week range) run
    per chart, with no array as long as the entries, so the whole ingest peaks near the
    store it returns."""
    path = blocks_of_charts(tmp_path, monkeypatch)
    store, peak = traced_peak(lambda: ChartStore.from_files(path))
    assert peak < 1.5 * store_bytes(store.week, store.city, store.entries)


def test_windows_peak_stays_near_their_stack(tmp_path, monkeypatch):
    """Every row is sized first, so the stack is allocated once and each window is
    written into its slice; holding every window until one stack copies them peaked
    at 2.3 times the stack."""
    store = ChartStore.from_files(blocks_of_charts(tmp_path, monkeypatch))
    windows, peak = traced_peak(store.windows)
    matrix = windows.matrix
    assert peak < 1.3 * sum(a.nbytes for a in (matrix.data, matrix.indices, matrix.indptr))


NAMES = ["c0", "c1", "é", "c0 ", "c0\x00", "a" * 8, "a" * 8 + "b", "a" * 16, "a" * 16 + "\x00",
         "z"]


@given(
    rows=st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)), min_size=1,
                  max_size=60),
    block=st.sampled_from([40, 100, 1 << 19]),
)
@settings(max_examples=150, deadline=None)
def test_name_codes_are_ranks_across_blocks(tmp_path_factory, rows, block):
    """Each row's city and artist codes are the ranks of its names among all names of their column,
    whichever blocks the names fall in."""
    rows = [(w, city, artist, 1) for w, (city, artist) in enumerate(rows)]
    path = chart_file(tmp_path_factory.mktemp("codes"), rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charts_module, "_BLOCK_BYTES", block)
        cities, universe, week, city, entries = charts_module._read_chart_columns(path)
    sizes = np.diff(entries.indptr)  # a chart a week here
    week, city = np.repeat(week, sizes), np.repeat(city, sizes)
    artist, count = entries.indices, entries.data
    order = np.argsort(week)  # lines split by csv follow the other lines of their block
    for k, codes, names in ((1, city, cities), (2, artist, universe.artists)):
        assert names == tuple(sorted({r[k] for r in rows}))
        assert codes.dtype == np.int32
        assert codes[order].tolist() == [names.index(r[k]) for r in rows]
    assert week[order].tolist() == list(range(len(rows))) and count.tolist() == [1] * len(rows)


def test_names_sharing_a_key_go_through_csv_reader(tmp_path, monkeypatch, csv_reads):
    """With every name key equal, no two names are taken for one: the file goes to csv.
    One row a week, so names taken for one would make no duplicate rows."""
    monkeypatch.setattr(charts_module, "_MIX", np.uint64(0))
    names = ["a", "b", "a" * 20, "a" * 19 + "b"]
    rows = [(w, "cd"[w % 2], a, w + 1) for w, a in enumerate(names)]
    path = chart_file(tmp_path, rows)
    assert_columnar_matches_csv(path)
    assert len(csv_reads) == 2


@pytest.mark.parametrize(
    "text",
    [
        '0,"c,d",a,1\n0,c,"x ""y""",2\n',  # csv quoting
        '0,c,"a\nb",1\n',  # a quoted line break
        "\n\n\r\n",  # blank lines only
        "0,c,b,1_0\n",  # int() reads it, the byte path takes only digits
    ],
    ids=range(4),
)
def test_odd_chunk_is_split_by_csv(tmp_path, csv_reads, text):
    """Lines the byte path must not split are split by csv; the file is not read again."""
    path = tmp_path / "charts.csv"
    path.write_text(f"{HEADER}\n0,c,a,3\n{text}", encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store = ChartStore.from_files(path)
    assert csv_reads == [] and len(store.cities) >= 1
    assert_columnar_matches_csv(path)


def test_quoted_line_leaves_other_lines_to_the_byte_path(tmp_path, monkeypatch, csv_reads):
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", 40)
    rows = [(w, c, a, w + 1) for w in range(4) for c, a in (("c", "a"), ("d", "b"), ("e", "a"))]
    path = chart_file(tmp_path, rows + [(4, "c", '"x,y"', 5), (4, "d", "b", 1)])
    runs = []  # the lines csv splits
    split = charts_module._csv_part

    def recorded(lines):
        runs.extend(lines)
        return split(lines)

    monkeypatch.setattr(charts_module, "_csv_part", recorded)
    store = ChartStore.from_files(path)
    assert csv_reads == []
    assert runs == [b'4,c,"x,y",5\n']
    assert "x,y" in store.universe
    assert_columnar_matches_csv(path)


@pytest.mark.parametrize(
    "tail",
    [
        '0,c,"x\ny",1\n1,c,a,2\n',  # valid: the field closes in the next block
        '0,d,a,"1\n1,d,b,2\n1,c,a,1\n',  # invalid: the field never closes
    ],
    ids=["closed", "open"],
)
def test_quote_open_at_chunk_end_goes_through_csv_reader(tmp_path, monkeypatch, csv_reads, tail):
    """csv must not close a quoted field where its run of lines ends: the whole file goes to csv.
    The 'closed' field's run ends at the block's end, the 'open' one's at a plain line."""
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", 24)
    path = tmp_path / "charts.csv"
    path.write_text(f"{HEADER}\n0,c,a,1\n0,c,b,1\n{tail}", encoding="utf-8")
    assert_columnar_matches_csv(path)
    assert len(csv_reads) == 2


# Names of 7, 8, 9, 16 and 17 bytes, names equal in their first 8 or 16 bytes, and
# 3-byte characters across the 8th and 16th bytes: the byte reader reads names in
# 8-byte words.
BOUNDARY_NAMES = ["a" * 7, "a" * 8, "a" * 9, "a" * 16, "a" * 17, "abcdefgh1", "abcdefgh2",
                  "abcdefghijklmnop1", "abcdefghijklmnop2", "abcdefg漢", "abcdefghijklmno漢"]


def boundary_lines(end=b"\n", weeks=2):
    """Chart lines naming every boundary name as a city and as an artist, each week."""
    names = [n.encode() for n in BOUNDARY_NAMES]
    return [b"%d,%s,%s,%d" % (w, c, a, w + i + 1) + end
            for w in range(weeks) for i, (c, a) in enumerate(zip(names, names[::-1]))]


@pytest.mark.parametrize("block", [16, 23, 29, 37])
@pytest.mark.parametrize(
    "body",
    [
        b"".join(boundary_lines()),
        b"".join(boundary_lines(b"\r\n")),  # some block reads end between \r and \n
        b"".join(boundary_lines())[:-1],  # a last line with no line end
    ],
    ids=["names", "crlf", "no-last-newline"],
)
def test_byte_path_boundaries_match_csv_reader(tmp_path, monkeypatch, csv_reads, block, body):
    """Block reads that end inside lines, inside names and inside a 3-byte character
    still give the csv reader's store, with no line split by csv."""
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", block)
    runs = []  # the lines csv splits
    split = charts_module._csv_part

    def recorded(lines):
        runs.extend(lines)
        return split(lines)

    monkeypatch.setattr(charts_module, "_csv_part", recorded)
    path = tmp_path / "charts.csv"
    path.write_bytes(HEADER.encode() + b"\n" + body)
    ChartStore.from_files(path)
    assert csv_reads == [] and runs == []
    assert_columnar_matches_csv(path)


@pytest.mark.parametrize("block", [16, 1 << 19])
@pytest.mark.parametrize(
    ("tail", "error"),
    [
        (b"1,c,abcdefg\xe6\xbc,1\n", ": not UTF-8 text"),  # a 3-byte character cut short
        (b"0,c," + b"a" * (csv.field_size_limit() + 1) + b",1\n",
         f":{2 + len(boundary_lines(weeks=100))}: field larger than field limit "
         f"({csv.field_size_limit()})"),
    ],
    ids=["bad-utf8", "long-line"],
)
def test_byte_path_errors_in_a_later_block_match_csv_reader(
    tmp_path, monkeypatch, block, tail, error
):
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", block)
    path = tmp_path / "charts.csv"
    path.write_bytes(HEADER.encode() + b"\n" + b"".join(boundary_lines(weeks=100)) + tail)
    assert outcome(lambda: ChartStore.from_files(path)) == (ChartFormatError, f"{path}{error}")
    assert_columnar_matches_csv(path)


def test_numbers_of_every_width_match_csv_reader(tmp_path, monkeypatch):
    """Weeks of 1 to 20 digits and counts of 1 to 19: up to 18 read a digit at a time,
    more by csv. Every count within int64 is kept exactly; a larger one is rejected."""
    monkeypatch.setattr(charts_module, "_BLOCK_BYTES", 64)
    counts = [int("9876543210" * 2) % 10**k or 1 for k in range(1, 19)]
    counts += [10**17, 10**18 - 1, 10**18, 2**63 - 1]
    weeks = ["0" * k + "1" for k in range(20)]  # week 1 written with up to 19 leading zeros
    rows = [(w, "c", f"a{i}", n) for i, (w, n) in enumerate(zip(["0"] * len(counts), counts))]
    rows += [(w, "d", f"a{i}", 1) for i, w in enumerate(weeks)]
    store = ChartStore.from_files(chart_file(tmp_path, rows))
    assert sorted(store.entries.data.tolist()) == sorted(counts + [1] * len(weeks))
    assert_columnar_matches_csv(chart_file(tmp_path, rows))
    for count in (2**63, int("9876543210" * 2)):
        path = chart_file(tmp_path, rows + [(0, "c", "over", count)])
        message = f"{path}:{len(rows) + 2}: listener count must be at most {2**63 - 1}, got {count}"
        assert outcome(lambda: ChartStore.from_files(path)) == (ChartFormatError, message)
        assert_columnar_matches_csv(path)


def test_undecodable_text_past_a_bad_row_reports_the_bad_row(tmp_path, csv_reads):
    """Bad UTF-8 in a later block does not hide csv's error on line 2."""
    path = tmp_path / "charts.csv"
    padding = "".join(f"1,c,a{i:05d},1\n" for i in range(1000)).encode()
    path.write_bytes(f"{HEADER}\n0,c,a,x\n".encode() + padding + b"1,c,\xff,1\n")
    with pytest.raises(ChartFormatError, match=r":2: bad listener count 'x'"):
        ChartStore.from_files(path)
    assert_columnar_matches_csv(path)


@pytest.mark.parametrize(
    "text",
    [
        "0,c,a,5\x1c\n",  # int() rejects \x1c
        "0,c,\ud800,1\n",  # a lone surrogate cannot be written as UTF-8
        "0,c,a,1\n  \n",  # a whitespace-only line is a 1-field row
        "0,c,a,1\n0,c,a,2\n",  # duplicate
        "0,c,a,0\n",  # non-positive count
        "-1,c,a,1\n",  # negative week
        "0,,a,1\n",  # empty name
        "0,c,a,99999999999999999999\n",  # above int64
        "0,c,a,1,2\n",  # extra field
        "0,c," + "a" * (csv.field_size_limit() + 1) + ",1\n",  # a field over csv's limit
        # "/" and ":" sit on either side of "0".."9", where a digit check is likeliest off by one
        *(f"0,c,a,1\n{week},c,b,{count}\n"
          for week, count in [("/2", 1), ("2:", 1), (0, "1/"), (0, ":5"), (0, "9:")]),
    ],
    ids=[*range(7), *range(8, 16)],
)
def test_odd_file_goes_through_csv_reader(tmp_path, csv_reads, text):
    path = tmp_path / "charts.csv"
    path.write_text(HEADER + "\n" + text, encoding="utf-8", newline="", errors="surrogatepass")
    assert_columnar_matches_csv(path)
    assert len(csv_reads) == 2  # once for from_files, once for the reference store


@pytest.mark.parametrize("digit", ["٥", "२", "５"])
def test_non_ascii_digits_read_as_int_reads_them(tmp_path, digit):
    """A non-ASCII digit sends its line to csv, where int() reads it."""
    path = tmp_path / "charts.csv"
    path.write_text(f"{HEADER}\n0,漢,a,{digit}\n", encoding="utf-8")
    store = ChartStore.from_files(path)
    assert store.entries.data.tolist() == [int(digit)]
    assert_columnar_matches_csv(path)


def test_entry_cap_on_columnar_path(tmp_path):
    rows = [(0, "c", f"a{i:04d}", 1) for i in range(500)]
    assert_columnar_matches_csv(chart_file(tmp_path, rows))
    rows.append((0, "c", "a0500", 1))
    with pytest.raises(ChartFormatError, match="cap is 500"):
        ChartStore.from_files(chart_file(tmp_path, rows))


def test_restrict_to_cities_matches_filtered_charts(tmp_path):
    rows = [(w, "early", f"a{w % 3}", w + 1) for w in range(10)]
    rows += [(w, "late", "a0", w) for w in range(3, 10)] + [(w, "mid", "b", 2) for w in range(10)]
    path = chart_file(tmp_path, rows)
    missing = frozenset({5})
    store = ChartStore.from_files(path, missing_file(tmp_path, missing))
    for subset in (("late",), ("mid", "late"), ("late", "early", "mid")):
        kept = [c for c in store if c.city_id in subset]
        want = chart_store(kept, missing, store.universe)
        assert_same_store(store.restrict(subset), want)
    assert store.restrict(("late",)).first_week == 3
    with pytest.raises(ValueError, match="unknown cities in subset: nowhere"):
        store.restrict(("late", "nowhere"))


PLAIN_NAMES = ["c0", "c1", "a", "b", "漢", "Björk", " sp ", " ", "#hash", "\u3000w", "long_" * 6,
               *BOUNDARY_NAMES]
ODD_NAMES = PLAIN_NAMES + ["x,y", 'q"t', "c\x00", "c", "", "tab\tx", "z\x1c", "n\nl"]
# "/" and ":" are the bytes on either side of "0".."9".
ODD_WEEKS = ["+2", " 3", "-1", "1000000000000", "٣", "x", "", "1_0", "2.0", "/2", "2:"]
ODD_COUNTS = ["+5", "1_0", "٥", "२", "99999999999999999999", "0", "-3", " 7", "7 ", "5\x1c", "",
              "1/", ":5", "9:"]


@st.composite
def chart_texts(draw):
    """Chart CSV text, plain or odd, with the missing weeks to read it with."""
    odd = draw(st.booleans())
    names = st.sampled_from(ODD_NAMES if odd else PLAIN_NAMES)
    weeks = st.integers(0, 6).map(str)
    counts = st.integers(1, 99).map(str)
    if odd:
        weeks = st.one_of(weeks, st.sampled_from(ODD_WEEKS))
        counts = st.one_of(counts, st.sampled_from(ODD_COUNTS))
    quoted = st.lists(st.booleans(), min_size=4, max_size=4) if odd else st.just([False] * 4)
    row = st.tuples(weeks, names, names, counts, quoted)
    # Duplicate (week, city, artist) rows anywhere in odd files; in plain ones, at most
    # one repeat, in a run of its chart after the fill and the big chart.
    rows = draw(st.lists(row, max_size=25, unique_by=None if odd else lambda r: r[:3]))
    repeat = []
    if rows and draw(st.booleans()):
        week, city, artist, *_ = draw(st.sampled_from(rows))
        repeat.append((week, city, artist, draw(counts), [False] * 4))
    if draw(st.booleans()):  # charts every week 0..6, so most files have no gap
        rows += [(str(w), "fill", "a", "1", [False] * 4) for w in range(7)]
    if draw(st.booleans()):  # a chart at or over the 500-entry cap
        big = draw(st.sampled_from([500, 501]))
        rows += [("0", "big", f"a{i:03d}", "1", [False] * 4) for i in range(big)]
    rows += repeat
    ends = st.sampled_from(["\n", "\r\n", "\r"] if odd else ["\n", "\r\n"])
    extra = st.sampled_from(["", " ", "\t"] if odd else [""])
    lines = []
    for *fields, quotes in rows:
        cells = ['"' + f.replace('"', '""') + '"' if q else f for f, q in zip(fields, quotes)]
        lines.append(",".join(cells) + draw(ends))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(extra) + draw(ends))
    header = draw(st.sampled_from([HEADER + "\n"] * 6 + [HEADER + "\r\n", "", "week,city\n"]))
    missing = draw(st.sets(st.integers(0, 8 if odd else 6), max_size=3))
    return header + "".join(lines), frozenset(missing)


@given(chart=chart_texts(), block=st.sampled_from([16, 1 << 19]))
@settings(max_examples=300, deadline=None)
def test_columnar_reader_matches_csv_reader(tmp_path_factory, chart, block):
    text, missing = chart
    path = tmp_path_factory.mktemp("oracle") / "charts.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charts_module, "_BLOCK_BYTES", block)
        assert_columnar_matches_csv(path, missing)
