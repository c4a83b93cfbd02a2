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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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
class SparseRows:
    """Rows of `n_cols` columns in CSR arrays: row r holds data[indptr[r]:indptr[r + 1]]
    in the columns indices[indptr[r]:indptr[r + 1]], each column at most once."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    n_cols: int

    @classmethod
    def from_sizes(cls, data, indices, sizes, n_cols: int) -> "SparseRows":
        """Rows of the given entry counts, whose entries follow one another in data and indices."""
        return cls(data, indices, np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))), n_cols)

    @classmethod
    def stack(cls, parts: Sequence["SparseRows"], n_cols: int) -> "SparseRows":
        """The rows of `parts`, one part after another."""
        parts = [cls.from_sizes(np.empty(0), np.empty(0, dtype=np.int32), [], n_cols), *parts]
        data, indices = (np.concatenate([getattr(p, f) for p in parts]) for f in ("data", "indices"))
        sizes = np.concatenate([np.diff(p.indptr) for p in parts])
        return cls.from_sizes(data, indices, sizes, n_cols)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows: np.ndarray) -> "SparseRows":
        """The given rows, in the given order."""
        sizes = np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        at = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], sizes)
        return SparseRows(self.data[at], self.indices[at], indptr, self.n_cols)

    def block(self, columns: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(columns, the rows as a dense array over them); other columns are dropped.
        The columns default to the sorted ones in which some row has an entry."""
        slot = np.full(self.n_cols, -1)
        if columns is None:
            slot[self.indices] = 0
            columns = np.flatnonzero(slot == 0)
        slot[columns] = np.arange(len(columns))
        pos = slot[self.indices]
        hit = pos >= 0
        out = np.zeros((len(self), len(columns)))
        out[np.repeat(np.arange(len(self)), np.diff(self.indptr))[hit], pos[hit]] = self.data[hit]
        return columns, out


class WindowStack:
    """Normalized windows stacked in one `matrix` whose row
    i * len(cities) + c is city c in the window starting at starts[i].

    A row with no entries means the city charted nothing in that window;
    such cities are left out of velocities and distances there, never
    treated as the zero vector.
    """

    def __init__(
        self,
        starts: Iterable[int],
        cities: tuple[str, ...],
        universe: ArtistUniverse,
        matrix: SparseRows,
    ) -> None:
        self.starts: tuple[int, ...] = tuple(starts)
        self.cities, self.universe, self.matrix = cities, universe, matrix

    def __len__(self) -> int:
        return len(self.starts)

    def active(self) -> np.ndarray:
        """(window, city) booleans: which rows chart anything."""
        return np.diff(self.matrix.indptr).reshape(len(self), len(self.cities)) > 0

    def grams(self) -> Iterator[np.ndarray]:
        """Each window's (city, city) dot products of its rows, in window order:
        one dense product over the columns that window uses."""
        n = len(self.cities)
        for i in range(len(self)):
            _, block = self.matrix.take(np.arange(i * n, (i + 1) * n)).block()
            yield block @ block.T


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


def csv_rows(
    path: str | Path, header: Sequence[str], error: type[ValueError]
) -> Iterator[tuple[str, list[str]]]:
    """(f"{path}:{line}", fields) of each non-blank row after `header`, which must open the file.

    `line` is the physical line on which the row ends, so a quoted line
    break in an earlier row does not shift it. Raises `error` when the first
    row is not `header` (an empty file has no first row) and for a row whose
    field count differs from the header's.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise error(f"{path}:1: expected header {','.join(header)}")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise error(f"{where}: expected {len(header)} fields, got {len(row)}")
            yield where, row


def parse_number(kind: type, text: str, problem: str, error: type[ValueError]):
    """`kind(text)`, or `error(problem)` when `text` is not such a number."""
    try:
        return kind(text)
    except ValueError:
        raise error(problem) from None


def json_value(raw, key, where: str | Path, kind: type = float, error: type[ValueError] = ValueError):
    """raw[key] as `kind`, raising `error` naming `where` and `key` unless JSON gave it a
    value of that kind: a float takes any JSON number, an int no 2.0 and no true."""
    allowed, wanted = {float: ({int, float}, "a number"), int: ({int}, "an integer"),
                       bool: ({bool}, "true or false"), str: ({str}, "a string")}[kind]
    if type(raw[key]) not in allowed:  # type(), not isinstance: bool subclasses int
        raise error(f"{where}: {key}: expected {wanted}, got {raw[key]!r}")
    return kind(raw[key])


def read_missing_weeks(path: str | Path) -> frozenset[int]:
    """Parse a newline-separated list of missing week indices."""
    weeks = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            problem = f"{path}:{lineno}: expected a week index, got {text!r}"
            week = parse_number(int, text, problem, ChartFormatError)
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
    for where, (genre_id, rank_text, artist_id) in csv_rows(path, GENRE_HEADER, ChartFormatError):
        rank = parse_number(int, rank_text, f"{where}: bad rank {rank_text!r}", ChartFormatError)
        if not 1 <= rank <= MAX_GENRE_RANK:
            raise ChartFormatError(f"{where}: rank {rank} outside 1..{MAX_GENRE_RANK}")
        slots = ranked.setdefault(genre_id, {})
        if rank in slots:
            raise ChartFormatError(f"{where}: duplicate rank {rank} for genre {genre_id!r}")
        slots[rank] = artist_id
    genres = {g: [slots[r] for r in sorted(slots)] for g, slots in ranked.items()}
    return GenreCatalog(genres)


def read_chart_csv(path: str | Path) -> list[WeeklyChart]:
    """Parse a chart CSV, validating counts, caps and triple uniqueness.

    A zero-byte file holds no charts; `csv_rows` would reject it for its header.
    """
    if Path(path).stat().st_size == 0:
        return []
    cells: dict[tuple[int, str], list[tuple[str, int]]] = {}
    seen: set[tuple[int, str, str]] = set()
    for where, row in csv_rows(path, CHART_HEADER, ChartFormatError):
        week_text, city_id, artist_id, listeners_text = row
        week = parse_number(int, week_text, f"{where}: bad week {week_text!r}", ChartFormatError)
        if week < 0:
            raise ChartFormatError(f"{where}: negative week index {week}")
        if not city_id or not artist_id:
            raise ChartFormatError(f"{where}: empty city or artist id")
        problem = f"{where}: bad listener count {listeners_text!r}"
        listeners = parse_number(int, listeners_text, problem, ChartFormatError)
        if listeners < 1:
            raise ChartFormatError(f"{where}: listener count must be positive, got {listeners}")
        triple = (week, city_id, artist_id)
        if triple in seen:
            raise ChartFormatError(
                f"{where}: duplicate entry for week {week}, city {city_id!r}, artist {artist_id!r}"
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


def _intern_runs(names: np.ndarray, table: dict[str, int]) -> np.ndarray:
    """`_intern` for names that repeat in long runs: only each run's first name is looked up."""
    new = np.ones(len(names), dtype=bool)
    new[1:] = names[1:] != names[:-1]
    head = np.flatnonzero(new)
    return np.repeat(_intern(names[head], table), np.diff(head, append=len(names)))


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


def _chunk_columns(lines: list[str], cities: dict, artists: dict) -> list[np.ndarray]:
    """Week, city code, artist code and count of some chart lines; the parsed table
    and its names are freed on return."""
    week, city, artist, count = _split_chunk(lines)
    # Charts arrive whole, so a city repeats for a chart's length; artists do not.
    codes = _intern_runs(city, cities), _intern(artist, artists)
    return [week.astype(np.int64), *codes, count.astype(np.int64).astype(np.float64)]


def _join_column(chunks: list[list[np.ndarray]], k: int) -> np.ndarray:
    """Column k of all chunks as one array; each chunk's copy is dropped once it is joined."""
    column = np.concatenate([chunk[k] for chunk in chunks])
    for chunk in chunks:
        chunk[k] = None
    return column


def _read_chart_columns(path: str | Path):
    """(cities, universe, rows) of a plainly valid chart CSV, or None to leave it to csv."""
    chunks, cities, artists = [], {}, {}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if next(fh, "").rstrip("\r\n") != ",".join(CHART_HEADER):
                return None
            while lines := list(islice(fh, _CHUNK_ROWS)):
                chunks.append(_chunk_columns(lines, cities, artists))
        week, city, artist, count = (_join_column(chunks, k) for k in range(4))
        if week.min() < 0 or count.min() < 1 or "" in cities or "" in artists:
            return None
    except (ValueError, OverflowError, csv.Error):  # also bad UTF-8 and no data rows
        return None
    universe = ArtistUniverse(artists)
    rank = {c: i for i, c in enumerate(sorted(cities))}
    city = np.array([rank[c] for c in cities], dtype=np.int32)[city]
    artist = np.array([universe.index[a] for a in artists], dtype=np.int32)[artist]
    return tuple(rank), universe, (week, city, artist, count)


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
        # The rows that open a (week, city) chart; compared in place, with no int64 copies.
        self._starts = np.ones(len(rows[0]), dtype=bool)
        self._starts[1:] = (rows[0][1:] != rows[0][:-1]) | (rows[1][1:] != rows[1][:-1])
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
            chart = np.cumsum(store._starts)  # numbered from 1
            # One key per (chart, artist), sorted in place: equal neighbours are duplicates.
            key = chart * len(store.universe)
            key += store._artist
            key.sort()
            if np.bincount(chart).max() <= MAX_CHART_ENTRIES and not (key[1:] == key[:-1]).any():
                _check_week_range(chart_path, set(store._week[store._starts].tolist()), missing)
                return store
        return cls(*ingest_charts(chart_path, missing), missing)

    def restrict(self, cities: Iterable[str]) -> "ChartStore":
        """The rows of the given cities, each of which must be known; the week range
        shrinks to theirs."""
        kept = tuple(sorted(set(cities)))
        unknown = sorted(set(kept) - set(self.cities))
        if unknown:
            raise ValueError(f"unknown cities in subset: {', '.join(unknown)}")
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

    def windows(self, genre_artists: Iterable[str] | None = None) -> WindowStack:
        """Every valid window, filtered to the genre's columns when given, rows at unit norm.

        A window is one bincount over the (city, artist) cells of its 4 weeks,
        whose rows are contiguous in the store; counts are integers, so the sums
        are exact. Every row is scaled and stored in ascending column order.
        """
        starts = np.array(self.valid_window_starts(), dtype=np.int64)
        n_cities, n_artists = len(self.cities), len(self.universe)
        week, city, artist, count = self._week, self._city, self._artist, self._count
        if genre_artists is not None:
            keep = np.zeros(n_artists, dtype=bool)
            keep[[self.universe.index[a] for a in genre_artists if a in self.universe]] = True
            week, city, artist, count = (a[keep[self._artist]] for a in (week, city, artist, count))
        parts = []
        for lo, hi in np.searchsorted(week, np.add.outer(starts, (0, WINDOW_WEEKS))).tolist():
            cell = city[lo:hi].astype(np.int64) * n_artists + artist[lo:hi]
            # float64 even for a window with no rows, where bincount gives int64
            total = np.bincount(cell, count[lo:hi], n_cities * n_artists).astype(np.float64)
            found = np.flatnonzero(total)  # by city, then by ascending artist
            sizes = np.bincount(found // n_artists, minlength=n_cities)
            indices = (found % n_artists).astype(np.int32)
            parts.append(unit_rows(SparseRows.from_sizes(total[found], indices, sizes, n_artists)))
        matrix = SparseRows.stack(parts, n_artists)
        return WindowStack(starts.tolist(), self.cities, self.universe, matrix)


def unit_rows(values: SparseRows) -> SparseRows:
    """`values` with every non-empty row scaled in place to unit Euclidean norm.

    Each row's squares are summed in its stored order by `np.add.reduceat`,
    as scipy's row sums do.
    """
    sizes = np.diff(values.indptr)
    sq = np.zeros(len(sizes))
    sq[sizes > 0] = np.add.reduceat(values.data * values.data, values.indptr[:-1][sizes > 0])
    inv = np.divide(1.0, np.sqrt(sq), out=np.zeros_like(sq), where=sq > 0)
    values.data[:] *= np.repeat(inv, sizes)
    return values
