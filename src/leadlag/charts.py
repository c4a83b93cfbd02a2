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
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

WINDOW_WEEKS = 4
MAX_CHART_ENTRIES = 500
MAX_GENRE_RANK = 1000

CHART_HEADER = ["week", "city", "artist", "listeners"]
GENRE_HEADER = ["genre", "rank", "artist"]


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
        present = {c.week_index for c in charts}
        lo, hi = min(present), max(present)
        stray = sorted(w for w in missing_weeks if not lo <= w <= hi)
        if stray:
            raise ChartFormatError(
                f"{chart_path}: missing week {stray[0]} lies outside the charted "
                f"week range {lo}..{hi}"
            )
        gaps = [w for w in range(lo, hi + 1) if w not in present and w not in missing_weeks]
        if gaps:
            raise ChartFormatError(
                f"{chart_path}: week range {lo}..{hi} has unexplained gaps "
                f"(first: {gaps[0]}); list them in the missing-week file"
            )
    universe = ArtistUniverse(a for c in charts for a, _ in c.entries)
    return charts, universe


class ChartStore:
    """Charts plus universe plus missing weeks, ready to mint windows."""

    def __init__(
        self,
        charts: Sequence[WeeklyChart],
        universe: ArtistUniverse,
        missing_weeks: frozenset[int] = frozenset(),
    ) -> None:
        self.charts = tuple(charts)
        self.universe = universe
        self.missing_weeks = frozenset(missing_weeks)
        self.cities: tuple[str, ...] = tuple(sorted({c.city_id for c in self.charts}))
        weeks = sorted({c.week_index for c in self.charts} | self.missing_weeks)
        self.first_week: int = weeks[0] if weeks else 0
        self.last_week: int = weeks[-1] if weeks else -1
        # Per (week, city) column/count arrays so window assembly is array work.
        self._cells: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}
        for chart in self.charts:
            cols = np.array([universe.column(a) for a, _ in chart.entries], dtype=np.int64)
            counts = np.array([n for _, n in chart.entries], dtype=np.float64)
            self._cells[(chart.week_index, chart.city_id)] = (cols, counts)

    @classmethod
    def from_files(
        cls, chart_path: str | Path, missing_path: str | Path | None = None
    ) -> "ChartStore":
        missing = read_missing_weeks(missing_path) if missing_path else frozenset()
        charts, universe = ingest_charts(chart_path, missing)
        return cls(charts, universe, missing)

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
        row_idx: list[np.ndarray] = []
        col_idx: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for i, city in enumerate(self.cities):
            for week in span:
                cell = self._cells.get((week, city))
                if cell is None:
                    continue
                cols, counts = cell
                row_idx.append(np.full(cols.shape, i, dtype=np.int64))
                col_idx.append(cols)
                vals.append(counts)
        shape = (len(self.cities), len(self.universe))
        if row_idx:
            coo = sparse.coo_matrix(
                (np.concatenate(vals), (np.concatenate(row_idx), np.concatenate(col_idx))),
                shape=shape,
            )
            values = coo.tocsr()
            values.sum_duplicates()
        else:
            values = sparse.csr_matrix(shape)
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
    store = ChartStore(charts_list, universe, missing_weeks)
    return store.window(start_week)


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
