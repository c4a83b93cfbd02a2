"""Weekly chart ingestion and sliding-window listen matrices.

Charts arrive as one CSV row per (week, city, artist). The study period is
a contiguous range of 0-based week indices; weeks listed in a missing-week
file are excluded from every downstream computation. Four-week windows
slide one week at a time, and a window whose span touches a missing week
is skipped rather than imputed.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

WINDOW_WEEKS = 4
MAX_CHART_ENTRIES = 500
MAX_GENRE_RANK = 1000

CHART_HEADER = ["week", "city", "artist", "listeners"]
GENRE_HEADER = ["genre", "rank", "artist"]

# The chart reader reads this many bytes at a time and parses the whole lines among them.
_BLOCK_BYTES = 1 << 19
# Multiplier of the chart-name keys: odd, so multiplying by it loses no bits.
_MIX = np.uint64(0x9E3779B97F4A7C15)
# Word reads run up to 15 bytes past a name, so a buffer of names has this many after them.
_SPARE = 16
# _MASK[n] keeps the first n bytes of a big-endian word.
_MASK = np.array([(1 << 64) - (1 << 64 - 8 * n) for n in range(9)], dtype=np.uint64)
# Byte lanes of a word of ASCII digits: their high nibbles, their low nibbles, '0's, and
# 6s, which carry into the high nibble of a low nibble above 9.
_HIGH, _LOW = np.uint64(0xF0F0F0F0F0F0F0F0), np.uint64(0x0F0F0F0F0F0F0F0F)
_ZEROS, _SIXES = np.uint64(0x3030303030303030), np.uint64(0x0606060606060606)
# For n digits read little-endian: the shift that moves them to the top lanes, '0's for
# the lanes below them, and 10**n.
_SHIFT = np.array([64 - 8 * n for n in range(9)], dtype=np.uint64)
_FILL = np.array([0x3030303030303030 >> 8 * n for n in range(9)], dtype=np.uint64)
_POWERS = 10 ** np.arange(9, dtype=np.uint64)
# The largest week and count a chart holds, and the largest integer json_value takes.
_INT64_MAX = (1 << 63) - 1
# For each kind json_value reads: the types json.load gives a value of it, checked with
# type() because bool subclasses int, and its name in a rejection.
_JSON_KINDS = {
    float: ({int, float}, "a number"), int: ({int}, "an integer"), bool: ({bool}, "true or false"),
    str: ({str}, "a string"), list: ({list}, "a list"), dict: ({dict}, "a JSON object"),
}
# The largest magnitude json_value takes for a numeric kind, and the kind's name then: a
# number must stay finite as a double, and an integer fit numpy's int64.
_JSON_LIMITS = {float: (sys.float_info.max, "a finite number"),
                int: (_INT64_MAX, "an integer within int64")}


class ChartFormatError(ValueError):
    """An input file violates its format contract."""


@dataclass(frozen=True)
class WeeklyChart:
    """Top artists of one city in one week, by unique-listener count: a ChartStore's row."""

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
    row is not `header` (an empty file has no first row), for a row whose
    field count differs from the header's, for a row csv cannot split (a field
    longer than `csv.field_size_limit()`) and for bytes that are not UTF-8.
    A caller that may stop early closes the rows (`contextlib.closing`), and so the file.
    """
    with closing(_text_lines(path, error)) as lines:
        reader = csv.reader(lines)
        try:
            if next(reader, None) != list(header):
                raise error(f"{path}:1: expected header {','.join(header)}")
            for row in reader:
                if not row:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != len(header):
                    raise error(f"{where}: expected {len(header)} fields, got {len(row)}")
                yield where, row
        except csv.Error as exc:
            raise error(f"{path}:{reader.line_num}: {exc}") from None


def _text_lines(path: str | Path, error: type[ValueError]) -> Iterator[str]:
    """The lines of `path` as the csv module reads them, raising `error`, naming the file,
    at bytes that are not UTF-8."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None


def parse_number(kind: type, text: str, problem: str, error: type[ValueError]):
    """`kind(text)`, or `error(problem)` when `text` is not such a number."""
    try:
        return kind(text)
    except ValueError:
        raise error(problem) from None


def read_json(path: str | Path, error: type[ValueError] = ValueError) -> dict:
    """The JSON object in `path`, raising `error`, naming the file, for bytes that are not
    UTF-8, text that is not JSON and JSON that is not an object. Read its values with
    `json_value`, which checks each one's kind."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise error(f"{path}: not JSON: {exc}") from None
    if type(raw) is not dict:
        raise error(f"{path}: expected a JSON object")
    return raw


def json_value(raw, key, where: str | Path, kind: type = float, error: type[ValueError] = ValueError):
    """raw[key], from a JSON object or array, as `kind`; raises `error` naming `where` and
    `key` when it is missing or JSON gave it a value of another kind. A float takes any
    JSON number that stays finite as a double, an int a JSON integer within int64 (no
    2.0, no true), and a list or dict the array or object as it is."""
    try:
        value = raw[key]
    except (KeyError, IndexError):
        raise error(f"{where}: missing {key!r}") from None
    types, wanted = _JSON_KINDS[kind]
    if type(value) in types:
        if kind not in _JSON_LIMITS:
            return value
        limit, wanted = _JSON_LIMITS[kind]
        if abs(value) <= limit:  # false for NaN
            return float(value) if kind is float else value
    raise error(f"{where}: {key}: expected {wanted}, got {value!r}")


def json_list(raw, key, where: str | Path, kind: type, error: type[ValueError] = ValueError) -> list:
    """raw[key], a JSON array, with each item read by `json_value` as `kind`."""
    items = json_value(raw, key, where, list, error)
    return [json_value(items, i, f"{where}: {key}", kind, error) for i in range(len(items))]


def json_records(
    raw, key, where: str | Path, fields: Mapping[str, type], error: type[ValueError] = ValueError
) -> Iterator[list]:
    """For each JSON object in the array raw[key], the values of `fields` in their order,
    each read by `json_value` as its kind."""
    for i, record in enumerate(json_list(raw, key, where, dict, error)):
        at = f"{where}: {key}: {i}"
        yield [json_value(record, name, at, kind, error) for name, kind in fields.items()]


def read_missing_weeks(path: str | Path) -> frozenset[int]:
    """Parse a newline-separated list of missing week indices."""
    weeks = set()
    with closing(_text_lines(path, ChartFormatError)) as lines:
        for lineno, line in enumerate(lines, start=1):
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
    with closing(csv_rows(path, GENRE_HEADER, ChartFormatError)) as rows:
        for where, (genre_id, rank_text, artist_id) in rows:
            rank = parse_number(int, rank_text, f"{where}: bad rank {rank_text!r}", ChartFormatError)
            if not 1 <= rank <= MAX_GENRE_RANK:
                raise ChartFormatError(f"{where}: rank {rank} outside 1..{MAX_GENRE_RANK}")
            slots = ranked.setdefault(genre_id, {})
            if rank in slots:
                raise ChartFormatError(f"{where}: duplicate rank {rank} for genre {genre_id!r}")
            slots[rank] = artist_id
    genres = {g: [slots[r] for r in sorted(slots)] for g, slots in ranked.items()}
    return GenreCatalog(genres)


def read_chart_csv(path: str | Path) -> "ChartStore":
    """Parse a chart CSV, validating counts, caps and triple uniqueness, into a store
    whose charts keep their entries in file order. Weeks and counts must fit int64.

    A zero-byte file holds no charts; `csv_rows` would reject it for its header.
    """
    rows: dict[tuple[int, str, str], int] = {}  # listeners by (week, city, artist), in file order
    with closing(csv_rows(path, CHART_HEADER, ChartFormatError)) as lines:
        for where, (week_text, city_id, artist_id, listeners_text) in (
            lines if Path(path).stat().st_size else ()
        ):
            week = parse_number(int, week_text, f"{where}: bad week {week_text!r}", ChartFormatError)
            if week < 0:
                raise ChartFormatError(f"{where}: negative week index {week}")
            if week > _INT64_MAX:
                raise ChartFormatError(f"{where}: week index must be at most {_INT64_MAX}, got {week}")
            if not city_id or not artist_id:
                raise ChartFormatError(f"{where}: empty city or artist id")
            problem = f"{where}: bad listener count {listeners_text!r}"
            listeners = parse_number(int, listeners_text, problem, ChartFormatError)
            if listeners < 1:
                raise ChartFormatError(f"{where}: listener count must be positive, got {listeners}")
            if listeners > _INT64_MAX:
                raise ChartFormatError(
                    f"{where}: listener count must be at most {_INT64_MAX}, got {listeners}"
                )
            if (week, city_id, artist_id) in rows:
                raise ChartFormatError(
                    f"{where}: duplicate entry for week {week}, city {city_id!r}, artist {artist_id!r}"
                )
            rows[week, city_id, artist_id] = listeners
    cities = tuple(sorted({c for _, c, _ in rows}))
    universe = ArtistUniverse(a for _, _, a in rows)
    code = {c: i for i, c in enumerate(cities)}
    store = ChartStore(cities, universe, (
        np.array([w for w, _, _ in rows], dtype=np.int64),
        np.array([code[c] for _, c, _ in rows], dtype=np.int32),
        np.array([universe.index[a] for _, _, a in rows], dtype=np.int32),
        np.array(list(rows.values()), dtype=np.int64),
    ))
    for chart in store:
        if len(chart.entries) > MAX_CHART_ENTRIES:
            raise ChartFormatError(f"{path}: week {chart.week_index}, city {chart.city_id!r} has "
                                   f"{len(chart.entries)} entries, cap is {MAX_CHART_ENTRIES}")
    return store


def write_chart_csv(path: str | Path, store: "ChartStore") -> None:
    """Write a store's rows in sorted (week, city, artist) order for stable output; codes
    are ranks of names, so one lexsort of the columns gives the order of the names."""
    week, city, artist, count = store.columns
    order = np.lexsort((count, artist, city, week))
    cities, artists = (np.array(names, dtype=object) for names in (store.cities, store.universe.artists))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHART_HEADER)
        writer.writerows(zip(week[order].tolist(), cities[city[order]].tolist(),
                             artists[artist[order]].tolist(), count[order].tolist()))


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


def _blocks(fh) -> Iterator[np.ndarray]:
    """The rest of `fh` as blocks of whole lines, each a uint8 view that ends in b"\\n"
    and carries `_SPARE` more bytes, which word reads may pass over. Every block is
    read into one buffer, so a block is overwritten by the next; a line longer than
    the buffer doubles it, and a last line with no line end gets one."""
    buf = bytearray(_BLOCK_BYTES + _SPARE)
    held = 0  # bytes of a line the last block cut, moved to the front
    while True:
        if held == len(buf) - _SPARE:
            buf = buf + bytes(len(buf) - _SPARE)  # a new buffer: the last block may still be viewed
        size = held + fh.readinto(memoryview(buf)[held:-_SPARE])
        if size == held:  # end of file
            if held:
                buf[held] = 10
                yield np.frombuffer(buf, dtype=np.uint8, count=held + 1 + _SPARE)
            return
        cut = buf.rfind(b"\n", 0, size) + 1
        if not cut:  # no line ends yet
            held = size
            continue
        yield np.frombuffer(buf, dtype=np.uint8, count=cut + _SPARE)
        held = size - cut
        buf[:held] = buf[cut:size]


def _words(content: np.ndarray, at: np.ndarray, dtype: str = ">u8") -> np.ndarray:
    """The 8-byte words of `content` that start at `at`, read as `dtype`, as native uint64."""
    return np.ndarray((len(content) - 7,), dtype, content, strides=(1,))[at].astype(np.uint64)


def _chunks(content: np.ndarray, at: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 16 bytes of `content` at each of `at` as two big-endian words, masked to the
    first `left` of them."""
    return (_words(content, at) & _MASK[np.minimum(left, 8)],
            _words(content, at + 8) & _MASK[np.clip(left - 8, 0, 8)])


def _digits(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the numbers b[lo:hi], and whether each is 1 to 18 ASCII digits.

    Each 8 bytes of a number are read as one little-endian word, whose first
    digit is its lowest byte. Shifted to the top and led by '0's, they are
    checked, and summed in pairs, fours and eights, all lanes at once.
    """
    width = hi - lo
    ok = (width >= 1) & (width <= 18)
    value = np.zeros(len(lo), dtype=np.uint64)
    for j in range(0, min(int(width.max(initial=0)), 18), 8):
        n = np.clip(width - j, 0, 8)  # digits in this word
        x = _words(b, np.minimum(lo + j, hi), "<u8") << _SHIFT[n] | _FILL[n]
        ok &= (x & _HIGH == _ZEROS) & (x + _SIXES & _HIGH == _ZEROS)
        x &= _LOW
        x = (x * 10 + (x >> 8)) & 0x00FF00FF00FF00FF
        x = (x * 100 + (x >> 16)) & 0x0000FFFF0000FFFF
        value = value * _POWERS[n] + ((x * 10000 + (x >> 32)) & 0xFFFFFFFF)
    return value.astype(np.int64), ok


def _intern(content: np.ndarray, start: np.ndarray, length: np.ndarray):
    """(codes, first): int32 codes of the names content[start[i]:start[i] + length[i]],
    equal exactly when the names are, and the index of one name of each code.

    A name is read as 16-byte chunks of two big-endian words, the last chunk
    masked to the name. Its key mixes its chunks with the bytes left from each;
    sorting the keys numbers them. Each name is then compared chunk by chunk
    with its code's name, and two different names with one key (about 2**-64
    per pair) raise ValueError. At least 15 bytes must follow every name in
    `content`.
    """
    chunks = (length + 15) // 16
    first = np.cumsum(chunks) - chunks  # each name's first chunk
    total = int(first[-1] + chunks[-1])
    if total == len(length):  # one chunk each: chunk i is name i
        at, left = start, length
    else:
        at = 16 * np.arange(total) - np.repeat(16 * first - start, chunks)
        left = np.repeat(start + length, chunks) - at  # bytes of the name from each chunk on
    hi, lo = _chunks(content, at, left)
    del at  # temporaries go as soon as they are used: a block's names are its largest arrays
    mixed = hi ^ left.astype(np.uint64)
    del left
    mixed *= _MIX
    mixed ^= lo
    mixed *= _MIX
    mixed ^= mixed >> 32
    key = np.add.reduceat(mixed, first)
    del mixed
    order = np.argsort(key)
    key = key[order]
    new = np.concatenate(([True], key[1:] != key[:-1]))
    codes = np.empty(len(key), dtype=np.int32)
    codes[order] = np.cumsum(new) - 1
    named = order[new]
    head = named[codes]
    same = head  # the chunk of the code's name that each chunk is compared with
    if total > len(length):
        same = np.repeat(first[head] - first, chunks) + np.arange(total)
    if (length[head] != length).any() or (hi[same] != hi).any() or (lo[same] != lo).any():
        raise ValueError("two chart names share a key")
    return codes, named


def _run_starts(content: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Whether each field content[start[i]:start[i] + length[i]] differs from the one
    before it; a field of over 16 bytes is not compared and counts as different."""
    hi, lo = _chunks(content, start, length)
    new = np.ones(len(start), dtype=bool)
    new[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1]) | (length[1:] != length[:-1])
    return new | (length > 16)


def _table(content: np.ndarray, start: np.ndarray, length: np.ndarray, new=None):
    """(codes, distinct) of some names, as `_intern` codes them: distinct holds each
    coded name once, as (its bytes one after another, their lengths). Given `new`,
    only the names it marks are looked up; each other name equals the one before it."""
    if not length.all():
        raise ValueError("empty name")  # left to the csv reader's message
    if new is None:
        codes, first = _intern(content, start, length)
    else:
        head = np.flatnonzero(new)
        codes, first = _intern(content, start[head], length[head])
        codes, first = codes[np.cumsum(new) - 1], head[first]
    start, length = start[first], length[first]
    at = np.arange(length.sum()) + np.repeat(start - (np.cumsum(length) - length), length)
    return codes, (content[at], length)


def _csv_part(runs: list[bytes]) -> list[tuple]:
    """The part, as `_parse_block` makes them, of some runs of whole lines split by csv."""
    # strict: a quoted field still open at a run's end raises, not closes there.
    lines = (io.StringIO(run.decode(), newline="") for run in runs)
    rows = [r for run in lines for r in csv.reader(run, strict=True) if r]
    if not rows:
        return []
    if {len(r) for r in rows} != {4}:
        raise ValueError("not 4 fields")
    tables = []
    for k in (1, 2):
        names = [r[k].encode() for r in rows]
        length = np.array([len(n) for n in names], dtype=np.int64)
        content = np.frombuffer(b"".join(names) + bytes(_SPARE), dtype=np.uint8)
        tables.append(_table(content, np.cumsum(length) - length, length))
    (city, cities), (artist, artists) = tables
    week, count = (np.array([int(r[k]) for r in rows], dtype=np.int64) for k in (0, 3))
    return [((week, city, artist, count), (cities, artists))]


def _lines(text: np.ndarray, limit: int):
    """(start, line_end, odd, plain, commas) of the lines of `text`, which ends in b"\\n":
    where each starts and ends, which must go to csv (as `_split_lines` says, but for
    their numbers), the others' indices, and the positions of their 3 commas, as 3 rows."""
    sep = np.flatnonzero((text == 10) | (text == 44))
    nl = np.flatnonzero(text[sep] == 10)
    line_end = sep[nl]
    start = np.concatenate(([0], line_end[:-1] + 1))
    odd = (np.diff(nl, prepend=-1) != 4) | (line_end - start > limit)
    stray = np.flatnonzero((text < 32) & (text != 10) | (text == 34))
    stray = stray[(text[stray] != 13) | (text[stray + 1] != 10)]  # \r right before \n ends a line
    odd[np.searchsorted(line_end, stray)] = True
    plain = np.flatnonzero(~odd)
    last = nl[plain]
    return start, line_end, odd, plain, np.stack([sep[last - 3], sep[last - 2], sep[last - 1]])


def _split_lines(b: np.ndarray, limit: int):
    """(week, count, commas, new, runs) of a `_blocks` block: the week, count and 3
    comma positions of each line split here, whether its week and city differ from
    the line before's, and the runs of the other lines, for csv.

    A line is split here when it has 3 commas, week and count fields of 1 to 18
    ASCII digits, no quote and no byte below 0x20 but its line end, and is no
    longer than csv's field size limit.
    """
    start, line_end, odd, plain, (c0, c1, c2) = _lines(b[:-_SPARE], limit)
    first = start[plain]
    new = _run_starts(b, first, c1 - first)  # a chart's lines repeat its week and city
    run = np.cumsum(new) - 1
    week, ok = (a[run] for a in _digits(b, first[new], c0[new]))
    stop = line_end[plain]
    stop -= b[stop - 1] == 13  # a \r right before \n ends the line too
    count, count_ok = _digits(b, c2 + 1, stop)
    ok &= count_ok
    if not ok.all():
        odd[plain[~ok]] = True
        week, count, c0, c1, c2, run = (a[ok] for a in (week, count, c0, c1, c2, run))
        new = np.diff(run, prepend=-1) != 0
    lines = np.flatnonzero(odd)
    runs = np.split(lines, np.flatnonzero(np.diff(lines) != 1) + 1)
    runs = [b[start[r[0]] : line_end[r[-1]] + 1].tobytes() for r in runs if len(r)]
    return week, count, (c0, c1, c2), new, runs


def _parse_block(b: np.ndarray, limit: int) -> list[tuple]:
    """Parts ((week, city codes, artist codes, count), (distinct cities, distinct
    artists)) of a `_blocks` block, as `_table` gives codes and distinct names: one
    of the lines split by `_split_lines`, one of those split by csv."""
    week, count, (c0, c1, c2), new, runs = _split_lines(b, limit)
    parts = []
    if len(week):
        (city, cities), (artist, artists) = (
            _table(b, c0 + 1, c1 - c0 - 1, new), _table(b, c1 + 1, c2 - c1 - 1))
        parts.append(((week, city, artist, count), (cities, artists)))
    return parts + _csv_part(runs)


def _rank(tables: list) -> tuple[list[str], list[np.ndarray]]:
    """The sorted distinct names of some `_table` tables, and for each table the
    positions of its names there. Only the distinct names are decoded (raising
    ValueError for bad UTF-8); UTF-8 byte order is `str` order, so their ranks are
    the ranks of the decoded names."""
    length = np.concatenate([t[1] for t in tables])
    content = np.concatenate([t[0] for t in tables] + [np.zeros(_SPARE, dtype=np.uint8)])
    start = np.cumsum(length) - length
    codes, first = _intern(content, start, length)
    spans = zip(start[first].tolist(), (start + length)[first].tolist())
    names = [content[a:z].tobytes().decode() for a, z in spans]
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    split = np.cumsum([len(t[1]) for t in tables])[:-1]
    return [names[i] for i in order], np.split(rank[codes], split)


def _read_chart_columns(path: str | Path):
    """(cities, universe, rows) of a plainly valid chart CSV, or None to leave it to csv.

    A first pass counts the lines, which bound the rows, so each column is
    allocated once; every block's rows are written straight into them, with
    codes local to their part until all names are ranked.
    """
    limit = csv.field_size_limit()
    try:
        with open(path, "rb") as fh:
            if fh.readline().rstrip(b"\r\n") != ",".join(CHART_HEADER).encode():
                return None
            body, lines, buf = fh.tell(), 1, bytearray(_BLOCK_BYTES)
            while size := fh.readinto(buf):
                lines += np.count_nonzero(np.frombuffer(buf, dtype=np.uint8, count=size) == 10)
            fh.seek(body)
            rows = [np.empty(lines, dtype=t) for t in (np.int64, np.int32, np.int32, np.int64)]
            spans, names, n = [], [], 0
            for block in _blocks(fh):
                for columns, distinct in _parse_block(block, limit):
                    end = n + len(columns[0])
                    if end > lines:
                        return None  # the file grew between the passes
                    for column, part in zip(rows, columns):
                        column[n:end] = part
                    spans.append((n, end))
                    names.append(distinct)
                    n = end
        if not n:
            return None
        cities, city_ranks = _rank([t for t, _ in names])
        artists, artist_ranks = _rank([t for _, t in names])
    except (ValueError, OverflowError, csv.Error):  # also bad UTF-8 and no data rows
        return None
    week, city, artist, count = (column[:n] for column in rows)
    for (a, z), cr, ar in zip(spans, city_ranks, artist_ranks):
        city[a:z] = cr[city[a:z]]
        artist[a:z] = ar[artist[a:z]]
    if week.min() < 0 or count.min() < 1:
        return None
    return tuple(cities), ArtistUniverse(artists), (week, city, artist, count)


class ChartStore:
    """Charts plus universe plus missing weeks, ready to mint windows. The charts are one
    table of parallel columns (week, city, artist, listeners): int64 weeks, int32 codes
    into `cities` and the universe, and int64 counts. The constructor sorts the columns
    in place, stably, by (week, city), so a chart's entries keep the order they came in.
    Iterating a store yields its charts as WeeklyChart rows."""

    def __init__(
        self,
        cities: tuple[str, ...],
        universe: ArtistUniverse,
        columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        missing_weeks: frozenset[int] = frozenset(),
    ) -> None:
        week, city = columns[:2]
        step = np.diff(week)  # files written by write_chart_csv are in order already
        unsorted = (step < 0).any() or ((step == 0) & (np.diff(city) < 0)).any()
        del step
        if unsorted:
            order = np.lexsort((city, week))
            for a in columns:
                a[:] = a[order]  # in place: each column's copy goes before the next is made
        self.columns = tuple(columns)
        # The rows that open a (week, city) chart; compared in place, with no int64 copies.
        self._starts = np.ones(len(week), dtype=bool)
        self._starts[1:] = (week[1:] != week[:-1]) | (city[1:] != city[:-1])
        self.chart_count = int(np.count_nonzero(self._starts))
        self.cities, self.universe, self.missing_weeks = cities, universe, frozenset(missing_weeks)
        weeks = set(week[self._starts].tolist()) | self.missing_weeks
        self.first_week: int = min(weeks, default=0)
        self.last_week: int = max(weeks, default=-1)

    def __iter__(self) -> Iterator[WeeklyChart]:
        """Each chart in (week, city) order, with its entries in the order of its rows."""
        week, city, artist, count = (a.tolist() for a in self.columns)
        names = self.universe.artists
        bounds = [*np.flatnonzero(self._starts).tolist(), len(week)]
        for a, z in zip(bounds, bounds[1:]):
            entries = tuple(zip([names[i] for i in artist[a:z]], count[a:z]))
            yield WeeklyChart(week[a], self.cities[city[a]], entries)

    @classmethod
    def from_files(
        cls, chart_path: str | Path, missing_path: str | Path | None = None
    ) -> "ChartStore":
        """The store of a chart file, read as bytes by `_read_chart_columns` when the file
        is plainly valid, and by `read_chart_csv` otherwise. Each week from the first
        charted to the last must be charted or missing, and every missing week lies between
        them; charts on missing weeks are kept (the store flags them) but enter no window."""
        missing = read_missing_weeks(missing_path) if missing_path else frozenset()
        store = None
        if (columns := _read_chart_columns(chart_path)) is not None:
            store = cls(*columns, missing)
            chart = np.cumsum(store._starts)  # numbered from 1
            # One key per (chart, artist), sorted in place: equal neighbours are duplicates.
            key = chart * len(store.universe)
            key += store.columns[2]
            key.sort()
            if np.bincount(chart).max() > MAX_CHART_ENTRIES or (key[1:] == key[:-1]).any():
                store = None
        if store is None:
            rows = read_chart_csv(chart_path)
            store = cls(rows.cities, rows.universe, rows.columns, missing)
        if store.chart_count:
            _check_week_range(chart_path, set(store.columns[0][store._starts].tolist()), missing)
        return store

    def restrict(self, cities: Iterable[str]) -> "ChartStore":
        """The rows of the given cities, each of which must be known; the week range
        shrinks to theirs."""
        kept = tuple(sorted(set(cities)))
        unknown = sorted(set(kept) - set(self.cities))
        if unknown:
            raise ValueError(f"unknown cities in subset: {', '.join(unknown)}")
        remap = np.full(len(self.cities), -1, dtype=np.int32)
        remap[[self.cities.index(c) for c in kept]] = np.arange(len(kept))
        week, city, artist, count = self.columns
        city = remap[city]
        columns = tuple(a[city >= 0] for a in (week, city, artist, count))
        return type(self)(kept, self.universe, columns, self.missing_weeks)

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
        week, city, artist, count = self.columns
        if genre_artists is not None:
            keep = np.zeros(n_artists, dtype=bool)
            keep[[self.universe.index[a] for a in genre_artists if a in self.universe]] = True
            week, city, artist, count = (a[keep[self.columns[2]]] for a in self.columns)
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
