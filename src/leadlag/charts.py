"""Weekly chart ingestion and sliding-window listen matrices.

Charts arrive as one CSV row per (week, city, artist). The study period is
a contiguous range of 0-based week indices; weeks listed in a missing-week
file are excluded from every downstream computation. Four-week windows
slide one week at a time, and a window whose span touches a missing week
is skipped rather than imputed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

WINDOW_WEEKS = 4
MAX_CHART_ENTRIES = 500
MAX_GENRE_RANK = 1000

CHART_HEADER = ["week", "city", "artist", "listeners"]
GENRE_HEADER = ["genre", "rank", "artist"]

# The columnar chart reader splits this many lines per call; csv splits a chunk with a quote
# or \x1c-\x1f (numpy's integer parser skips these as whitespace, int() does not).
_CHUNK_ROWS = 1 << 14
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'


class ChartFormatError(ValueError):
    """An input file violates its format contract."""


class WindowUnavailable(LookupError):
    """The requested 4-week window overlaps a missing or absent week."""


@dataclass(frozen=True)
class WeeklyChart:
    """Top artists of one city in one week, by unique-listener count."""

    week_index: int
    city_id: str
    entries: tuple[tuple[str, int], ...]


class ArtistUniverse:
    """Shared column space: every artist seen at ingest, ordered lexicographically."""

    def __init__(self, artists: Iterable[str]) -> None:
        self.artists: tuple[str, ...] = tuple(sorted(set(artists)))
        self.index: dict[str, int] = {a: i for i, a in enumerate(self.artists)}

    def __len__(self) -> int:
        return len(self.artists)

    def __contains__(self, artist_id: str) -> bool:
        return artist_id in self.index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArtistUniverse) and self.artists == other.artists

    def column(self, artist_id: str) -> int:
        try:
            return self.index[artist_id]
        except KeyError:
            raise KeyError(f"unknown artist {artist_id!r}") from None


@dataclass(frozen=True)
class ListenMatrix:
    """One 4-week window of summed listener counts, cities by artists.

    Rows follow `cities` order and columns follow the universe order, so
    matrices from different windows of the same store align elementwise.
    An all-zero row means the city charted nothing in the window; such
    cities are excluded from velocities and distances, never treated as
    the zero vector.
    """

    window_start_week: int
    width_weeks: int
    cities: tuple[str, ...]
    universe: ArtistUniverse
    values: sparse.csr_matrix
    normalized: bool

    def row(self, city_id: str) -> sparse.csr_matrix:
        return self.values.getrow(self._row_index(city_id))

    def is_active(self, city_id: str) -> bool:
        i = self._row_index(city_id)
        return self.values.indptr[i] < self.values.indptr[i + 1]

    def active_cities(self) -> tuple[str, ...]:
        return tuple(c for c in self.cities if self.is_active(c))

    def _row_index(self, city_id: str) -> int:
        try:
            return self.cities.index(city_id)
        except ValueError:
            raise KeyError(f"unknown city {city_id!r}") from None


class GenreCatalog:
    """Per-genre ranked artist lists used for column filtering."""

    def __init__(self, genres: Mapping[str, Sequence[str]]) -> None:
        self._genres = {g: tuple(artists) for g, artists in genres.items()}
        for genre_id, artists in self._genres.items():
            if len(set(artists)) != len(artists):
                raise ChartFormatError(f"genre {genre_id!r} lists an artist twice")
            if len(artists) > MAX_GENRE_RANK:
                raise ChartFormatError(
                    f"genre {genre_id!r} has {len(artists)} artists, cap is {MAX_GENRE_RANK}"
                )

    def genre_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._genres))

    def artists(self, genre_id: str) -> tuple[str, ...]:
        try:
            return self._genres[genre_id]
        except KeyError:
            raise KeyError(f"unknown genre {genre_id!r}") from None


def read_missing_weeks(path: str | Path) -> frozenset[int]:
    """Parse a newline-separated list of missing week indices."""
    weeks = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                week = int(text)
            except ValueError:
                raise ChartFormatError(
                    f"{path}:{lineno}: expected a week index, got {text!r}"
                ) from None
            if week < 0:
                raise ChartFormatError(f"{path}:{lineno}: negative week index {week}")
            weeks.add(week)
    return frozenset(weeks)


def write_missing_weeks(path: str | Path, weeks: Iterable[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for week in sorted(set(weeks)):
            fh.write(f"{week}\n")


def read_genre_catalog(path: str | Path) -> GenreCatalog:
    """Parse a genre catalog CSV with header genre,rank,artist."""
    ranked: dict[str, dict[int, str]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != GENRE_HEADER:
            raise ChartFormatError(f"{path}:1: expected header {','.join(GENRE_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ChartFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            genre_id, rank_text, artist_id = row
            try:
                rank = int(rank_text)
            except ValueError:
                raise ChartFormatError(f"{path}:{lineno}: bad rank {rank_text!r}") from None
            if not 1 <= rank <= MAX_GENRE_RANK:
                raise ChartFormatError(
                    f"{path}:{lineno}: rank {rank} outside 1..{MAX_GENRE_RANK}"
                )
            slots = ranked.setdefault(genre_id, {})
            if rank in slots:
                raise ChartFormatError(
                    f"{path}:{lineno}: duplicate rank {rank} for genre {genre_id!r}"
                )
            slots[rank] = artist_id
    genres = {g: [slots[r] for r in sorted(slots)] for g, slots in ranked.items()}
    return GenreCatalog(genres)


def read_chart_csv(path: str | Path) -> list[WeeklyChart]:
    """Parse a chart CSV, validating counts, caps and triple uniqueness."""
    cells: dict[tuple[int, str], list[tuple[str, int]]] = {}
    seen: set[tuple[int, str, str]] = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return []
        if header != CHART_HEADER:
            raise ChartFormatError(f"{path}:1: expected header {','.join(CHART_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ChartFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            week_text, city_id, artist_id, listeners_text = row
            try:
                week = int(week_text)
            except ValueError:
                raise ChartFormatError(f"{path}:{lineno}: bad week {week_text!r}") from None
            if week < 0:
                raise ChartFormatError(f"{path}:{lineno}: negative week index {week}")
            if not city_id or not artist_id:
                raise ChartFormatError(f"{path}:{lineno}: empty city or artist id")
            try:
                listeners = int(listeners_text)
            except ValueError:
                raise ChartFormatError(
                    f"{path}:{lineno}: bad listener count {listeners_text!r}"
                ) from None
            if listeners < 1:
                raise ChartFormatError(
                    f"{path}:{lineno}: listener count must be positive, got {listeners}"
                )
            triple = (week, city_id, artist_id)
            if triple in seen:
                raise ChartFormatError(
                    f"{path}:{lineno}: duplicate entry for week {week}, "
                    f"city {city_id!r}, artist {artist_id!r}"
                )
            seen.add(triple)
            cells.setdefault((week, city_id), []).append((artist_id, listeners))
    charts = []
    for (week, city_id), entries in sorted(cells.items()):
        if len(entries) > MAX_CHART_ENTRIES:
            raise ChartFormatError(
                f"{path}: week {week}, city {city_id!r} has {len(entries)} entries, "
                f"cap is {MAX_CHART_ENTRIES}"
            )
        charts.append(WeeklyChart(week, city_id, tuple(entries)))
    return charts


def write_chart_csv(path: str | Path, charts: Iterable[WeeklyChart]) -> None:
    """Write charts in sorted (week, city, artist) order for stable output."""
    rows = []
    for chart in charts:
        for artist_id, listeners in chart.entries:
            rows.append((chart.week_index, chart.city_id, artist_id, listeners))
    rows.sort()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHART_HEADER)
        writer.writerows(rows)


def ingest_charts(
    chart_path: str | Path, missing_weeks: frozenset[int] = frozenset()
) -> tuple[list[WeeklyChart], ArtistUniverse]:
    """Read a chart file and build the shared artist universe.

    Weeks between the file's minimum and maximum must each either appear
    in the file or be flagged missing; gaps that are neither are format
    errors, and so is a missing week outside that range, which would
    stretch the study period. Charts falling on missing weeks are kept
    (the store flags them) but never enter windows.
    """
    charts = read_chart_csv(chart_path)
    if charts:
        _check_week_range(chart_path, {c.week_index for c in charts}, missing_weeks)
    universe = ArtistUniverse(a for c in charts for a, _ in c.entries)
    return charts, universe


def _check_week_range(chart_path: str | Path, present: set[int], missing: frozenset[int]) -> None:
    """Reject missing weeks outside the charted range, and weeks neither charted nor missing."""
    lo, hi = min(present), max(present)
    stray = sorted(w for w in missing if not lo <= w <= hi)
    if stray:
        raise ChartFormatError(
            f"{chart_path}: missing week {stray[0]} lies outside the charted "
            f"week range {lo}..{hi}"
        )
    covered = sorted(present | missing)
    gaps = [a + 1 for a, b in zip(covered, covered[1:]) if b - a > 1]
    if gaps:
        raise ChartFormatError(
            f"{chart_path}: week range {lo}..{hi} has unexplained gaps "
            f"(first: {gaps[0]}); list them in the missing-week file"
        )


def _intern(names: np.ndarray, table: dict[str, int]) -> np.ndarray:
    """Codes of `names` in `table`, adding unseen names in order of appearance."""
    names = names.tolist()
    for name in dict.fromkeys(names):
        table.setdefault(name, len(table))
    return np.fromiter(map(table.__getitem__, names), dtype=np.int32, count=len(names))


def _split_chunk(lines: list[str]) -> list[np.ndarray]:
    """Week, city, artist and count columns of some chart lines."""
    text = "".join(lines)
    blank = text.isspace()  # loadtxt warns on a chunk of blank lines
    if blank or any(c in text for c in _CSV_ONLY) or max(map(len, lines)) > csv.field_size_limit():
        # strict: a quoted field still open at the chunk's end raises, not closes there.
        table = np.array([row for row in csv.reader(lines, strict=True) if row], dtype=object)
        return list(table.reshape(len(table), 4).T)  # ValueError unless every row has 4 fields
    num = np.int64 if text.isascii() else object  # numpy misreads non-ASCII digits
    dtype = [("week", num), ("city", object), ("artist", object), ("count", num)]
    table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    return [table[name] for name in table.dtype.names]


def _read_chart_columns(path: str | Path):
    """(cities, universe, rows) of a plainly valid chart CSV, or None to leave it to csv."""
    chunks, cities, artists = [], {}, {}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if next(fh, "").rstrip("\r\n") != ",".join(CHART_HEADER):
                return None
            while lines := list(islice(fh, _CHUNK_ROWS)):
                week, city, artist, count = _split_chunk(lines)
                codes = _intern(city, cities), _intern(artist, artists)
                chunks.append((week.astype(np.int64), *codes, count.astype(np.int64)))
        week, city, artist, count = (np.concatenate(column) for column in zip(*chunks))
        del chunks  # before the remapping below, which copies city and artist again
        if week.min() < 0 or count.min() < 1 or "" in cities or "" in artists:
            return None
    except (ValueError, OverflowError, csv.Error):  # also bad UTF-8 and no data rows
        return None
    universe = ArtistUniverse(artists)
    rank = {c: i for i, c in enumerate(sorted(cities))}
    city = np.array([rank[c] for c in cities], dtype=np.int32)[city]
    artist = np.array([universe.index[a] for a in artists], dtype=np.int32)[artist]
    return tuple(rank), universe, (week, city, artist, count.astype(np.float64))


class ChartStore:
    """Charts plus universe plus missing weeks, ready to mint windows. Charts are
    rows of parallel arrays (week, city, artist column, count) sorted by (week, city)."""

    def __init__(
        self,
        charts: Sequence[WeeklyChart],
        universe: ArtistUniverse,
        missing_weeks: frozenset[int] = frozenset(),
    ) -> None:
        charts = list(charts)
        cities = tuple(sorted({c.city_id for c in charts}))
        rank = {c: i for i, c in enumerate(cities)}
        sizes = [len(c.entries) for c in charts]
        week = np.repeat(np.array([c.week_index for c in charts], dtype=np.int64), sizes)
        city = np.repeat(np.array([rank[c.city_id] for c in charts], dtype=np.int32), sizes)
        entries = [e for c in charts for e in c.entries]
        artist = np.array([universe.column(a) for a, _ in entries], dtype=np.int32)
        count = np.array([n for _, n in entries], dtype=np.float64)
        self._set_rows(cities, universe, (week, city, artist, count), missing_weeks)

    def _set_rows(self, cities, universe, rows, missing_weeks) -> "ChartStore":
        step = np.diff(rows[0])  # files written by write_chart_csv are in order already
        if (step < 0).any() or ((step == 0) & (np.diff(rows[1]) < 0)).any():
            order = np.lexsort((rows[1], rows[0]))
            rows = tuple(a[order] for a in rows)
        self._week, self._city, self._artist, self._count = rows
        new_week, new_city = (np.diff(a, prepend=-1) != 0 for a in rows[:2])
        self._starts = new_week | new_city  # the rows that open a (week, city) chart
        self.chart_count = int(np.count_nonzero(self._starts))
        self.cities, self.universe, self.missing_weeks = cities, universe, frozenset(missing_weeks)
        weeks = set(self._week[self._starts].tolist()) | self.missing_weeks
        self.first_week: int = min(weeks, default=0)
        self.last_week: int = max(weeks, default=-1)
        return self

    @classmethod
    def from_files(
        cls, chart_path: str | Path, missing_path: str | Path | None = None
    ) -> "ChartStore":
        """The store `ingest_charts` gives, read by numpy when the file is plainly valid."""
        missing = read_missing_weeks(missing_path) if missing_path else frozenset()
        if (columns := _read_chart_columns(chart_path)) is not None:
            store = cls.__new__(cls)._set_rows(*columns, missing)
            chart = np.cumsum(store._starts) - 1
            # One key per (chart, artist): equal neighbours after sorting are duplicates.
            key = np.sort(chart * len(store.universe) + store._artist)
            if np.bincount(chart).max() <= MAX_CHART_ENTRIES and not (key[1:] == key[:-1]).any():
                _check_week_range(chart_path, set(store._week[store._starts].tolist()), missing)
                return store
        return cls(*ingest_charts(chart_path, missing), missing)

    def restrict(self, cities: Iterable[str]) -> "ChartStore":
        """The rows of the given known cities; the week range shrinks to theirs."""
        kept = tuple(sorted(set(cities)))
        remap = np.full(len(self.cities), -1, dtype=np.int32)
        remap[[self.cities.index(c) for c in kept]] = np.arange(len(kept))
        city = remap[self._city]
        rows = tuple(a[city >= 0] for a in (self._week, city, self._artist, self._count))
        store = type(self).__new__(type(self))
        return store._set_rows(kept, self.universe, rows, self.missing_weeks)

    @property
    def study_weeks(self) -> int:
        if self.last_week < self.first_week:
            return 0
        return self.last_week - self.first_week + 1

    def window_available(self, start_week: int) -> bool:
        span = range(start_week, start_week + WINDOW_WEEKS)
        if span.start < self.first_week or span.stop - 1 > self.last_week:
            return False
        return not any(w in self.missing_weeks for w in span)

    def valid_window_starts(self) -> list[int]:
        last_start = self.last_week - (WINDOW_WEEKS - 1)
        return [s for s in range(self.first_week, last_start + 1) if self.window_available(s)]

    def window(self, start_week: int) -> ListenMatrix:
        """Build the raw (unnormalized) window starting at start_week."""
        span = range(start_week, start_week + WINDOW_WEEKS)
        blocked = [w for w in span if w in self.missing_weeks]
        if blocked:
            raise WindowUnavailable(
                f"window {start_week}..{span.stop - 1} overlaps missing week {blocked[0]}"
            )
        if span.start < self.first_week or span.stop - 1 > self.last_week:
            raise WindowUnavailable(
                f"window {start_week}..{span.stop - 1} leaves the study period "
                f"{self.first_week}..{self.last_week}"
            )
        lo, hi = np.searchsorted(self._week, (span.start, span.stop))
        values = sparse.coo_matrix(
            (self._count[lo:hi], (self._city[lo:hi], self._artist[lo:hi])),
            shape=(len(self.cities), len(self.universe)),
        ).tocsr()
        values.sum_duplicates()
        return ListenMatrix(
            window_start_week=start_week,
            width_weeks=WINDOW_WEEKS,
            cities=self.cities,
            universe=self.universe,
            values=values,
            normalized=False,
        )


def build_window(
    charts: Sequence[WeeklyChart],
    start_week: int,
    missing_weeks: frozenset[int] = frozenset(),
) -> ListenMatrix:
    """One-shot window construction from a bare chart list."""
    charts_list = list(charts)
    universe = ArtistUniverse(a for c in charts_list for a, _ in c.entries)
    return ChartStore(charts_list, universe, missing_weeks).window(start_week)


def normalize_rows(matrix: ListenMatrix) -> ListenMatrix:
    """Scale every non-empty row to unit Euclidean norm; zero rows stay zero."""
    if matrix.normalized:
        raise ValueError("matrix is already normalized")
    sq = np.asarray(matrix.values.multiply(matrix.values).sum(axis=1)).ravel()
    norms = np.sqrt(sq)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    values = sparse.diags(inv).dot(matrix.values).tocsr()
    return ListenMatrix(
        window_start_week=matrix.window_start_week,
        width_weeks=matrix.width_weeks,
        cities=matrix.cities,
        universe=matrix.universe,
        values=values,
        normalized=True,
    )


def filter_genre(matrix: ListenMatrix, genre_artists: Iterable[str]) -> ListenMatrix:
    """Zero out every column not in the genre list.

    The column space itself is preserved so filtered matrices stay aligned
    with unfiltered ones; dot products and norms see only genre columns
    either way. Filtering precedes normalization.
    """
    if matrix.normalized:
        raise ValueError("filter before normalizing, not after")
    keep = np.zeros(len(matrix.universe), dtype=np.float64)
    for artist_id in genre_artists:
        col = matrix.universe.index.get(artist_id)
        if col is not None:
            keep[col] = 1.0
    values = matrix.values.dot(sparse.diags(keep)).tocsr()
    values.eliminate_zeros()
    return ListenMatrix(
        window_start_week=matrix.window_start_week,
        width_weeks=matrix.width_weeks,
        cities=matrix.cities,
        universe=matrix.universe,
        values=values,
        normalized=False,
    )
