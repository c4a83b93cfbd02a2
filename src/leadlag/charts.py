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
# The line between two runs of lines that csv splits: a row of one field, but inside a
# quoted field a quote followed by a byte other than a comma or a quote, which strict csv
# rejects.
_JOIN, _JOIN_ROW = b'a"b\n', ['a"b']
# _MASK[n] keeps the first n bytes of a little-endian word.
_MASK = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# The largest week and count a chart holds, the largest population, and the largest integer
# json_value takes.
INT64_MAX = (1 << 63) - 1
# For each kind json_value reads: the types json.load gives a value of it, checked with
# type() because bool subclasses int, and its name in a rejection.
_JSON_KINDS = {
    float: ({int, float}, "a number"), int: ({int}, "an integer"), bool: ({bool}, "true or false"),
    str: ({str}, "a string"), list: ({list}, "a list"), dict: ({dict}, "a JSON object"),
}
# The largest magnitude json_value takes for a numeric kind, and the kind's name then: a
# number must stay finite as a double, and an integer fit numpy's int64.
_JSON_LIMITS = {float: (sys.float_info.max, "a finite number"),
                int: (INT64_MAX, "an integer within int64")}


class FormatError(ValueError):
    """An input file violates its format: what every input reader raises, naming the file."""


@dataclass(frozen=True)
class WeeklyChart:
    """Top artists of one city in one week, by unique-listener count: a ChartStore's row."""

    week_index: int
    city_id: str
    entries: tuple[tuple[str, int], ...]


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
        universe: tuple[str, ...],
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


def csv_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[str, list[str]]]:
    """(f"{path}:{line}", fields) of each non-blank row after `header`, which must open the file.

    `line` is the physical line on which the row ends, so a quoted line
    break in an earlier row does not shift it. Raises FormatError when the first
    row is not `header` (an empty file has no first row), for a row whose
    field count differs from the header's, for a row csv cannot split (a field
    longer than `csv.field_size_limit()`) and for bytes that are not UTF-8.
    A caller that may stop early closes the rows (`contextlib.closing`), and so the file.
    """
    with closing(_text_lines(path)) as lines:
        reader = csv.reader(lines)
        try:
            if next(reader, None) != list(header):
                raise FormatError(f"{path}:1: expected header {','.join(header)}")
            for row in reader:
                if not row:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != len(header):
                    raise FormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
                yield where, row
        except csv.Error as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None


def _text_lines(path: str | Path) -> Iterator[str]:
    """The lines of `path` as the csv module reads them, raising FormatError, naming the file,
    at bytes that are not UTF-8."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None


def parse_number(kind: type, text: str, problem: str):
    """`kind(text)`, or FormatError(problem) when `text` is not such a number."""
    try:
        return kind(text)
    except ValueError:
        raise FormatError(problem) from None


def read_json(path: str | Path) -> dict:
    """The JSON object in `path`, raising FormatError, naming the file, for bytes that are not
    UTF-8, text that is not JSON and JSON that is not an object. Read its values with
    `json_value`, which checks each one's kind."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise FormatError(f"{path}: not JSON: {exc}") from None
    if type(raw) is not dict:
        raise FormatError(f"{path}: expected a JSON object")
    return raw


def json_value(raw, key, where: str | Path, kind: type = float):
    """raw[key], from a JSON object or array, as `kind`; raises FormatError naming `where` and
    `key` when it is missing or JSON gave it a value of another kind. A float takes any
    JSON number that stays finite as a double, an int a JSON integer within int64 (no
    2.0, no true), and a list or dict the array or object as it is."""
    try:
        value = raw[key]
    except (KeyError, IndexError):
        raise FormatError(f"{where}: missing {key!r}") from None
    types, wanted = _JSON_KINDS[kind]
    if type(value) in types:
        if kind not in _JSON_LIMITS:
            return value
        limit, wanted = _JSON_LIMITS[kind]
        if abs(value) <= limit:  # false for NaN
            return float(value) if kind is float else value
    raise FormatError(f"{where}: {key}: expected {wanted}, got {value!r}")


def json_list(raw, key, where: str | Path, kind: type) -> list:
    """raw[key], a JSON array, with each item read by `json_value` as `kind`."""
    items = json_value(raw, key, where, list)
    return [json_value(items, i, f"{where}: {key}", kind) for i in range(len(items))]


def json_records(raw, key, where: str | Path, fields: Mapping[str, type]) -> Iterator[list]:
    """For each JSON object in the array raw[key], the values of `fields` in their order,
    each read by `json_value` as its kind."""
    for i, record in enumerate(json_list(raw, key, where, dict)):
        at = f"{where}: {key}: {i}"
        yield [json_value(record, name, at, kind) for name, kind in fields.items()]


def read_missing_weeks(path: str | Path) -> frozenset[int]:
    """Parse a newline-separated list of missing week indices."""
    weeks = set()
    with closing(_text_lines(path)) as lines:
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text:
                continue
            week = parse_number(int, text, f"{path}:{lineno}: expected a week index, got {text!r}")
            if week < 0:
                raise FormatError(f"{path}:{lineno}: negative week index {week}")
            weeks.add(week)
    return frozenset(weeks)


def write_missing_weeks(path: str | Path, weeks: Iterable[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for week in sorted(set(weeks)):
            fh.write(f"{week}\n")


def read_genre_catalog(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Each genre's artists in rank order, from a genre catalog CSV with header
    genre,rank,artist; no id is empty, a genre's ranks lie in 1..MAX_GENRE_RANK,
    and neither a rank nor an artist appears twice in one genre."""
    ranked: dict[str, dict[int, str]] = {}
    listed: set[tuple[str, str]] = set()  # (genre, artist) pairs
    with closing(csv_rows(path, GENRE_HEADER)) as rows:
        for where, (genre_id, rank_text, artist_id) in rows:
            if not genre_id or not artist_id:
                raise FormatError(f"{where}: empty genre or artist id")
            rank = parse_number(int, rank_text, f"{where}: bad rank {rank_text!r}")
            if not 1 <= rank <= MAX_GENRE_RANK:
                raise FormatError(f"{where}: rank {rank} outside 1..{MAX_GENRE_RANK}")
            slots = ranked.setdefault(genre_id, {})
            if rank in slots:
                raise FormatError(f"{where}: duplicate rank {rank} for genre {genre_id!r}")
            if (genre_id, artist_id) in listed:
                raise FormatError(f"{where}: genre {genre_id!r} lists artist {artist_id!r} twice")
            listed.add((genre_id, artist_id))
            slots[rank] = artist_id
    return {g: tuple(slots[r] for r in sorted(slots)) for g, slots in ranked.items()}


def read_chart_csv(path: str | Path) -> "ChartStore":
    """Parse a chart CSV, validating counts, caps and triple uniqueness, into a store
    whose charts keep their entries in file order. Weeks and counts must fit int64.

    A zero-byte file holds no charts; `csv_rows` would reject it for its header.
    """
    rows: dict[tuple[int, str, str], int] = {}  # listeners by (week, city, artist), in file order
    with closing(csv_rows(path, CHART_HEADER)) as lines:
        for where, (week_text, city_id, artist_id, listeners_text) in (
            lines if Path(path).stat().st_size else ()
        ):
            week = parse_number(int, week_text, f"{where}: bad week {week_text!r}")
            if week < 0:
                raise FormatError(f"{where}: negative week index {week}")
            if week > INT64_MAX:
                raise FormatError(f"{where}: week index must be at most {INT64_MAX}, got {week}")
            if not city_id or not artist_id:
                raise FormatError(f"{where}: empty city or artist id")
            problem = f"{where}: bad listener count {listeners_text!r}"
            listeners = parse_number(int, listeners_text, problem)
            if listeners < 1:
                raise FormatError(f"{where}: listener count must be positive, got {listeners}")
            if listeners > INT64_MAX:
                raise FormatError(
                    f"{where}: listener count must be at most {INT64_MAX}, got {listeners}"
                )
            if (week, city_id, artist_id) in rows:
                raise FormatError(
                    f"{where}: duplicate entry for week {week}, city {city_id!r}, artist {artist_id!r}"
                )
            rows[week, city_id, artist_id] = listeners
    cities = tuple(sorted({c for _, c, _ in rows}))
    universe = tuple(sorted({a for _, _, a in rows}))
    code, column = ({name: i for i, name in enumerate(names)} for names in (cities, universe))
    entries = SparseRows.from_sizes(  # one chart a row, which the store joins
        np.array(list(rows.values()), dtype=np.int64),
        np.array([column[a] for _, _, a in rows], dtype=np.int32),
        np.ones(len(rows), dtype=np.int64), len(universe))
    store = ChartStore(cities, universe, np.array([w for w, _, _ in rows], dtype=np.int64),
                       np.array([code[c] for _, c, _ in rows], dtype=np.int32), entries)
    sizes = np.diff(store.entries.indptr)
    for i in np.flatnonzero(sizes > MAX_CHART_ENTRIES)[:1].tolist():
        raise FormatError(f"{path}: week {store.week[i]}, city {store.cities[store.city[i]]!r} "
                          f"has {sizes[i]} entries, cap is {MAX_CHART_ENTRIES}")
    return store


def write_chart_csv(path: str | Path, store: "ChartStore") -> None:
    """Write a store's rows in sorted (week, city, artist) order for stable output; codes
    are ranks of names and charts are in (week, city) order, so one lexsort of each
    entry's chart, artist and count gives the order of the names."""
    entries = store.entries
    chart = np.repeat(np.arange(store.chart_count), np.diff(entries.indptr))
    order = np.lexsort((entries.data, entries.indices, chart))
    chart = chart[order]
    cities, artists = (np.array(names, dtype=object) for names in (store.cities, store.universe))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHART_HEADER)
        writer.writerows(zip(store.week[chart].tolist(), cities[store.city[chart]].tolist(),
                             artists[entries.indices[order]].tolist(), entries.data[order].tolist()))


def _check_week_range(chart_path: str | Path, present: set[int], missing: frozenset[int]) -> None:
    """Reject missing weeks outside the charted range, and weeks neither charted nor missing."""
    lo, hi = min(present), max(present)
    stray = sorted(w for w in missing if not lo <= w <= hi)
    if stray:
        raise FormatError(f"{chart_path}: missing week {stray[0]} lies outside the charted "
                          f"week range {lo}..{hi}")
    covered = sorted(present | missing)
    gaps = [a + 1 for a, b in zip(covered, covered[1:]) if b - a > 1]
    if gaps:
        raise FormatError(f"{chart_path}: week range {lo}..{hi} has unexplained gaps "
                          f"(first: {gaps[0]}); list them in the missing-week file")


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


def _read(content: np.ndarray, at: np.ndarray, size: int) -> np.ndarray:
    """The `size` bytes of `content` at each of `at` as size // 8 native uint64 words a row,
    each read little-endian (a word's first byte is its lowest). The bytes are gathered
    as one void item each, which numpy copies faster than unaligned words."""
    items = np.ndarray((len(content) - size + 1,), f"V{size}", content, strides=(1,))
    return items[at].view("<u8").reshape(len(at), size // 8).astype(np.uint64, copy=False)


def _chunks(content: np.ndarray, at: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 16 bytes of `content` at each of `at` as two `_read` words, masked to the first
    `left` of them."""
    hi, lo = _read(content, at, 16).T
    hi &= _MASK[np.minimum(left, 8)]
    lo &= _MASK[np.clip(left - 8, 0, 8)]
    return hi, lo


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + counts[i] - 1 for each i, end to end."""
    return np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(int(counts.sum()))


def _digits(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of the numbers b[lo:hi], and whether each is 1 to 18 ASCII digits.

    Digits are read one position at a time, from the right, one byte a number.
    """
    width = hi - lo
    ok = (width >= 1) & (width <= 18)
    value = np.zeros(len(lo), dtype=np.int64)
    for j in range(min(int(width.max(initial=0)), 18)):
        digit = b[np.maximum(hi - 1 - j, lo)]
        digit -= 48  # in uint8, so any byte but "0".."9" gives 10 or more
        digit[width <= j] = 0  # the number has fewer digits
        ok &= digit < 10
        value += np.multiply(digit, 10**j, dtype=np.int64)  # int64 products with no int64 copy
    return value, ok


class _Names:
    """The distinct names of one chart column, held across blocks: `code` gives each
    name its position here, a name not yet here being added at the end.

    A name is read as 16-byte chunks of two words, the last chunk masked to
    the name, and kept as a copy of those chunks. Its key mixes its chunks
    with the bytes left from each. An index maps the top bits of a key to
    the code of one stored key with those bits, with 2 to 4 such ranges for
    each stored key, so most names are found there with no sort. The other
    names' distinct keys are looked up in a dict of every stored key's code,
    and those not there are added in key order. Every name of a block
    is then compared chunk by chunk with the stored name of its code, so two
    different names with one key (about 2**-64 per pair) raise ValueError,
    however long they are.
    """

    def __init__(self) -> None:
        self.code_of: dict[int, int] = {}  # of each key
        self.key = np.empty(0, dtype=np.uint64)  # of each code
        self.index = np.full(2, -1, dtype=np.int32)  # a code by key >> shift, or -1
        self.shift = np.uint64(63)
        self.length = np.empty(0, dtype=np.int64)  # of each name, by code
        self.first = np.empty(0, dtype=np.int64)  # each name's first chunk in hi and lo
        self.hi = self.lo = np.empty(0, dtype=np.uint64)

    def code(self, content: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
        """int32 codes of the names content[start[i]:start[i] + length[i]], at least 15
        bytes of `content` following each."""
        if not length.all():
            raise ValueError("empty name")  # left to the csv reader's message
        chunks = (length + 15) // 16
        total = int(chunks.sum())
        first = None  # each name's first chunk, when some name has more than one
        if total == len(length):  # one chunk each: chunk i is name i
            at, left = start, length
        else:
            first = np.cumsum(chunks) - chunks
            at = 16 * np.arange(total) - np.repeat(16 * first - start, chunks)
            left = np.repeat(start + length, chunks) - at  # bytes of the name from each chunk on
        hi, lo = _chunks(content, at, left)
        del at  # temporaries go as soon as they are used: a block's names are its largest arrays
        key = left.astype(np.uint64)
        del left
        key ^= hi
        key *= _MIX
        key ^= lo
        key *= _MIX
        key ^= key >> 32
        if first is not None:
            key = np.add.reduceat(key, first)
        code = self.index[key >> self.shift]
        miss = code < 0
        miss |= self.key[code] != key if len(self.key) else True
        rest = np.flatnonzero(miss)  # the names the index does not find
        del miss
        if len(rest):
            distinct, local = np.unique(key[rest], return_inverse=True)  # each name's distinct key
            del key
            codes = np.array([self.code_of.get(k, -1) for k in distinct.tolist()], dtype=np.int32)
            added = np.flatnonzero(codes < 0)
            if len(added):
                named = np.empty(len(distinct), dtype=np.intp)  # a name of each distinct key
                named[local] = np.arange(len(local))
                name = rest[named[added]]
                kept = name if first is None else _ranges(first[name], chunks[name])
                codes[added] = self._add(distinct[added], length[name], hi[kept], lo[kept])
            code[rest] = codes[local]
            del local
        if (self.length[code] != length).any():
            raise ValueError("two chart names share a key")
        same = self.first[code] if first is None else _ranges(self.first[code], chunks)
        if (self.hi[same] != hi).any() or (self.lo[same] != lo).any():
            raise ValueError("two chart names share a key")
        return code

    def _add(self, keys, length, hi, lo) -> np.ndarray:
        """The codes, after the table's last, of new names of the given lengths and keys,
        whose chunks are hi and lo end to end."""
        size = (length + 15) // 16
        codes = len(self.length) + np.arange(len(length), dtype=np.int32)
        self.first = np.concatenate((self.first, len(self.hi) + np.cumsum(size) - size))
        self.length = np.concatenate((self.length, length))
        self.hi, self.lo = np.concatenate((self.hi, hi)), np.concatenate((self.lo, lo))
        self.code_of.update(zip(keys.tolist(), codes.tolist()))
        self.key = np.concatenate((self.key, keys))
        if 2 * len(self.key) > len(self.index):  # over one key in two ranges: 2 to 4 ranges a key
            bits = (2 * len(self.key)).bit_length()
            self.index, self.shift = np.full(1 << bits, -1, dtype=np.int32), np.uint64(64 - bits)
            self._fill(self.key, np.arange(len(self.key), dtype=np.int32))
        else:
            self._fill(keys, codes)
        return codes

    def _fill(self, keys, codes) -> None:
        """Index each key's code in its range if no code is there yet."""
        at = keys >> self.shift
        free = self.index[at] < 0
        self.index[at[free]] = codes[free]

    def names(self) -> list[bytes]:
        """The bytes of each name, in code order."""
        raw = np.stack((self.hi, self.lo), axis=1).astype("<u8").tobytes()
        return [raw[16 * f : 16 * f + n] for f, n in zip(self.first.tolist(), self.length.tolist())]

    def ranked(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The sorted names, and the rank among them of each code. Only the table's
        names are decoded (raising ValueError for bad UTF-8); UTF-8 byte order is `str`
        order, so their ranks are the ranks of the decoded names."""
        names = [name.decode() for name in self.names()]
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(names), dtype=np.int32)
        rank[order] = np.arange(len(names), dtype=np.int32)
        return tuple(names[i] for i in order), rank


def _run_starts(content: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Whether each field content[start[i]:start[i] + length[i]] differs from the one
    before it; a field of over 16 bytes is not compared and counts as different. When
    no field has over 8 bytes, one word each is compared."""
    if length.max(initial=0) > 8:
        words = _chunks(content, start, length)
    else:
        words = (_read(content, start, 8)[:, 0] & _MASK[length],)
    new = np.ones(len(start), dtype=bool)
    new[1:] = length[1:] != length[:-1]
    for word in words:
        new[1:] |= word[1:] != word[:-1]
    return new | (length > 16)


def _csv_part(runs: list[bytes]) -> list[tuple]:
    """The part, as `_parse_block` codes them, of some runs of whole lines split by csv:
    a run of lines a line, as the store joins runs of one chart, with each name as
    (content, start, length), and the run in `runs` each line came from.

    One csv reader reads the runs end to end, with the line `_JOIN` between each
    two. It is a row of its own, but a quoted field still open where a run ends
    makes it raise (strict), as the end of the last run does, rather than close in
    the next run.
    """
    if not runs:
        return []
    reader = csv.reader(io.StringIO(_JOIN.join(runs).decode(), newline=""), strict=True)
    rows = [r for r in reader if r]  # blank lines give empty rows
    joins = np.array([r == _JOIN_ROW for r in rows], dtype=bool)
    if joins.sum() != len(runs) - 1:
        raise ValueError("a chart line reads as the line between runs")
    run = np.cumsum(joins)[~joins]
    rows = [r for r in rows if r != _JOIN_ROW]
    if not rows:
        return []
    if {len(r) for r in rows} != {4}:
        raise ValueError("not 4 fields")
    week, city, artist, count = zip(*rows)
    names = []
    for column in (city, artist):
        encoded = list(map(str.encode, column))
        length = np.fromiter(map(len, encoded), np.int64, len(encoded))
        content = np.frombuffer(b"".join(encoded) + bytes(_SPARE), dtype=np.uint8)
        names.append((content, np.cumsum(length) - length, length))
    week, count = (np.fromiter(map(int, column), np.int64, len(rows)) for column in (week, count))
    return [((week, names[0], np.ones(len(rows), dtype=np.int64)), (names[1], count), run)]


def _lines(text: np.ndarray, limit: int):
    """(start, line_end, odd, commas) of the lines of `text`, which ends in b"\\n", as
    positions in `text`: where each starts and ends, which must go to csv (as
    `_split_lines` says, but for their numbers), and the positions of the others' 3
    commas, as 3 rows. Positions are int32 in a block shorter than 2 GiB.

    Line ends and commas are found by one scan each. When every line has 3 commas
    the rows are strided views of the commas; otherwise each line's commas are
    counted by where its end falls among them. Quotes and bytes below 0x20 but the
    line ends are looked up in every block.
    """
    at = np.int32 if len(text) < 1 << 31 else np.int64
    mask = text == 10  # one mask, rewritten for each byte looked for: masks are as long as the text
    line_end = np.flatnonzero(mask).astype(at)
    commas = np.flatnonzero(np.equal(text, 44, out=mask)).astype(at)
    start = np.concatenate((np.zeros(1, dtype=at), line_end[:-1] + 1))
    odd = line_end - start > min(limit, len(text))
    # Every line has 3 commas when there are 3 a line and each line's third comma
    # lies before its end, the next line's first after it.
    three = (len(commas) == 3 * len(line_end) and (commas[2::3] < line_end).all()
             and (commas[3::3] > line_end[:-1]).all())
    if not three:
        upto = np.searchsorted(commas, line_end)  # the commas before each line's end
        odd |= np.diff(upto, prepend=0) != 3
    np.less(text, 32, out=mask)  # quotes and bytes below 0x20 but line ends
    mask[line_end] = False
    mask |= text == 34
    stray = np.flatnonzero(mask)
    del mask
    stray = stray[(text[stray] != 13) | (text[stray + 1] != 10)]  # \r right before \n ends a line
    odd[np.searchsorted(line_end, stray)] = True
    if not three:
        return start, line_end, odd, commas[upto[~odd] + np.array([[-3], [-2], [-1]])]
    commas = commas.reshape(-1, 3)
    return start, line_end, odd, (commas[~odd] if odd.any() else commas).T


def _split_lines(b: np.ndarray, limit: int):
    """(week, new, count, commas, runs, at) of a `_blocks` block: for the lines split
    here, the week of each run of consecutive lines that repeat one week and city,
    whether each line opens such a run, its count and its 3 comma positions; the runs of
    the other lines, for csv; and the block line number of the first line of each run
    of both kinds (None for the first kind when no line is left to csv).

    A line is split here when it has 3 commas, week and count fields of 1 to 18
    ASCII digits, no quote and no byte below 0x20 but its line end, and is no
    longer than csv's field size limit.
    """
    start, line_end, odd, (c0, c1, c2) = _lines(b[:-_SPARE], limit)
    stop = line_end[~odd]
    stop -= b[stop - 1] == 13  # a \r right before \n ends the line too
    count, ok = _digits(b, c2 + 1, stop)
    del stop
    first = start[~odd]
    new = _run_starts(b, first, c1 - first)  # a chart's lines repeat its week and city
    week, week_ok = _digits(b, first[new], c0[new])  # one a run
    del first
    ok &= week_ok[np.cumsum(new) - 1]
    if not ok.all():
        run = np.cumsum(new) - 1
        odd[np.flatnonzero(~odd)[~ok]] = True
        count, c0, c1, c2, run = (a[ok] for a in (count, c0, c1, c2, run))
        new = np.diff(run, prepend=-1) != 0
        week = week[run[new]]
    lines = np.flatnonzero(odd)
    at = None  # with no line left to csv, no run needs its place
    if len(lines):  # a line left to csv ends the run before it
        line = np.flatnonzero(~odd)
        cut = new | (np.diff(line, prepend=-1) > 1)
        week, new, at = week[np.cumsum(new) - 1][cut], cut, line[cut]
    opens = np.diff(lines, prepend=-2) != 1  # a run of odd lines opens, or closes, at a gap
    closes = np.diff(lines, append=len(odd) + 1) != 1
    text = memoryview(b)
    spans = zip(start[lines[opens]].tolist(), (line_end[lines[closes]] + 1).tolist())
    runs = [text[a:z].tobytes() for a, z in spans]
    return week, new, count, (c0, c1, c2), runs, (at, lines[opens])


def _parse_block(b: np.ndarray, limit: int, cities: _Names, artists: _Names) -> list[tuple]:
    """Parts ((week, city code, size) of each run of lines, (artist codes, counts) of
    each line) of a `_blocks` block, names coded by the tables `cities` and `artists`:
    one of the lines split by `_split_lines` or one of those split by csv, or, when the
    block has both, one of both with its runs in line order. A run's lines repeat one
    week and city."""
    week, new, count, (c0, c1, c2), runs, (at, run_at) = _split_lines(b, limit)
    parts = []
    if len(count):
        head = np.flatnonzero(new)
        sizes = np.diff(head, append=len(new))
        city = (b, c0[head] + 1, c1[head] - c0[head] - 1)
        parts.append(((week, city, sizes), ((b, c1 + 1, c2 - c1 - 1), count), at))
    parts = [((week, cities.code(*city), sizes), (artists.code(*artist), count), place)
             for (week, city, sizes), (artist, count), place in parts + _csv_part(runs)]
    if len(parts) < 2:
        return [part[:2] for part in parts]
    (charts, entries, at), (csv_charts, csv_entries, run) = parts
    into = np.searchsorted(at, run_at[run])  # the runs split here that come before each csv line
    lines = np.concatenate(([0], np.cumsum(charts[2])))[into]
    return [(tuple(np.insert(column, into, rows) for column, rows in zip(charts, csv_charts)),
             tuple(np.insert(column, lines, rows) for column, rows in zip(entries, csv_entries)))]


def _read_chart_columns(path: str | Path):
    """(cities, universe, week, city, entries) of a plainly valid chart CSV, as the
    ChartStore constructor takes them, or None to leave it to csv.

    A first pass counts the lines, which bound the entries, so the artist and
    count columns are allocated once and every block's entries are written
    straight into them. Its charts are kept as runs of lines that repeat one
    week and city, which the store joins, and its names are coded by one
    running `_Names` table per column, whose codes are ranked once all blocks
    are read.
    """
    limit = csv.field_size_limit()
    try:
        with open(path, "rb") as fh:
            if fh.readline().rstrip(b"\r\n") != ",".join(CHART_HEADER).encode():
                return None
            # Freeing the first pass's 2 MiB reads lifts glibc's trim threshold to twice
            # that, so the blocks keep their temporaries' pages instead of faulting them in
            # again block after block.
            body, lines = fh.tell(), 1
            while part := fh.read(4 * _BLOCK_BYTES):
                lines += np.count_nonzero(np.frombuffer(part, dtype=np.uint8) == 10)
            del part
            fh.seek(body)
            artist, count = np.empty(lines, dtype=np.int32), np.empty(lines, dtype=np.int64)
            city_names, artist_names, runs, ends, n = _Names(), _Names(), [], [], 0
            for block in _blocks(fh):
                for (week, city, sizes), (codes, counts) in _parse_block(
                    block, limit, city_names, artist_names
                ):
                    end = n + len(codes)
                    if end > lines:
                        return None  # the file grew between the passes
                    artist[n:end] = codes
                    count[n:end] = counts
                    runs.append((week, city, sizes))
                    ends.append(end)
                    n = end
                codes = counts = None  # a block's lines go before the next block is parsed
        if not n:
            return None
        cities, city_rank = city_names.ranked()
        artists, artist_rank = artist_names.ranked()
    except (ValueError, OverflowError, csv.Error):  # also bad UTF-8 and no data rows
        return None
    for a, z in zip([0, *ends], ends):
        artist[a:z] = artist_rank[artist[a:z]]
    week, city, sizes = (np.concatenate(k) for k in zip(*runs))
    artist, count = artist[:n], count[:n]
    if week.min() < 0 or count.min() < 1:
        return None
    entries = SparseRows.from_sizes(count, artist, sizes, len(artists))
    return cities, artists, week, city_rank[city], entries


def _repeats(rows: SparseRows) -> bool:
    """Whether a row of `rows`, each of at most MAX_CHART_ENTRIES entries, holds a column
    twice. The rows are sorted as (row, column) keys 64 rows at a time, so keys never
    span the table."""
    for lo in range(0, len(rows), 64):
        ptr = rows.indptr[lo : lo + 65]
        key = np.repeat(np.arange(len(ptr) - 1, dtype=np.int64) * rows.n_cols, np.diff(ptr))
        key += rows.indices[ptr[0] : ptr[-1]]
        key.sort()
        if (key[1:] == key[:-1]).any():
            return True
    return False


class ChartStore:
    """Charts plus universe plus missing weeks, ready to mint windows. `cities` and the
    artists' `universe` are sorted tuples of distinct names. The charts are a table of
    two levels: per chart, its int64 `week` and its int32 `city` code into `cities`, in
    (week, city) order; per entry, `entries`, whose row i holds chart i's int32 artist
    codes into the universe (`indices`) and int64 counts (`data`). The constructor
    takes charts in any order, a (week, city) maybe more than once: it sorts them
    stably and joins equal neighbours, so a chart's entries keep the order they came
    in. Iterating a store yields its charts as WeeklyChart rows."""

    def __init__(
        self,
        cities: tuple[str, ...],
        universe: tuple[str, ...],
        week: np.ndarray,
        city: np.ndarray,
        entries: SparseRows,
        missing_weeks: frozenset[int] = frozenset(),
    ) -> None:
        step = np.diff(week)  # files written by write_chart_csv are in order already
        if (step < 0).any() or ((step == 0) & (np.diff(city) < 0)).any():
            order = np.lexsort((city, week))
            week, city, entries = week[order], city[order], entries.take(order)
        opens = np.ones(len(week) + 1, dtype=bool)  # and the end of the last chart
        opens[1:-1] = (week[1:] != week[:-1]) | (city[1:] != city[:-1])
        if not opens.all():
            week, city = week[opens[:-1]], city[opens[:-1]]
            entries = SparseRows(entries.data, entries.indices, entries.indptr[opens], entries.n_cols)
        self.week, self.city, self.entries = week, city, entries
        self.chart_count = len(week)
        self.cities, self.universe, self.missing_weeks = cities, universe, frozenset(missing_weeks)
        weeks = set(week.tolist()) | self.missing_weeks
        self.first_week: int = min(weeks, default=0)
        self.last_week: int = max(weeks, default=-1)

    def __iter__(self) -> Iterator[WeeklyChart]:
        """Each chart in (week, city) order, with its entries in their stored order; only
        the chart being yielded has its entries as Python lists."""
        names, entries, bounds = self.universe, self.entries, self.entries.indptr.tolist()
        for i, (week, city) in enumerate(zip(self.week.tolist(), self.city.tolist())):
            a, z = bounds[i], bounds[i + 1]
            artists = [names[j] for j in entries.indices[a:z].tolist()]
            yield WeeklyChart(week, self.cities[city], tuple(zip(artists, entries.data[a:z].tolist())))

    @classmethod
    def read(cls, chart_path: str | Path) -> "ChartStore":
        """The charts of a file, read as bytes by `_read_chart_columns` when the file is
        plainly valid, and by `read_chart_csv` otherwise; with no missing weeks, and no
        check of the week range."""
        if (read := _read_chart_columns(chart_path)) is not None:
            store = cls(*read)
            if np.diff(store.entries.indptr).max() <= MAX_CHART_ENTRIES and not _repeats(store.entries):
                return store
        return read_chart_csv(chart_path)

    @classmethod
    def from_files(
        cls, chart_path: str | Path, missing_path: str | Path | None = None
    ) -> "ChartStore":
        """`read` of a chart file, with the missing weeks. Each week from the first charted
        to the last must be charted or missing, and every missing week lies between them;
        charts on missing weeks are kept (the store flags them) but enter no window."""
        missing = read_missing_weeks(missing_path) if missing_path else frozenset()
        read = cls.read(chart_path)
        store = cls(read.cities, read.universe, read.week, read.city, read.entries, missing)
        if store.chart_count:
            _check_week_range(chart_path, set(store.week.tolist()), missing)
        return store

    def restrict(self, cities: Iterable[str]) -> "ChartStore":
        """The charts of the given cities, each of which must be known; the week range
        shrinks to theirs."""
        kept = tuple(sorted(set(cities)))
        unknown = sorted(set(kept) - set(self.cities))
        if unknown:
            raise ValueError(f"unknown cities in subset: {', '.join(unknown)}")
        remap = np.full(len(self.cities), -1, dtype=np.int32)
        remap[[self.cities.index(c) for c in kept]] = np.arange(len(kept))
        city = remap[self.city]
        charts = np.flatnonzero(city >= 0)
        return type(self)(kept, self.universe, self.week[charts], city[charts],
                          self.entries.take(charts), self.missing_weeks)

    @property
    def study_weeks(self) -> int:
        if self.last_week < self.first_week:
            return 0
        return self.last_week - self.first_week + 1

    def valid_window_starts(self) -> list[int]:
        """The start week of every window that lies in the study period and has no missing week."""
        last_start = self.last_week - (WINDOW_WEEKS - 1)
        return [s for s in range(self.first_week, last_start + 1)
                if self.missing_weeks.isdisjoint(range(s, s + WINDOW_WEEKS))]

    def windows(self, genre_artists: Iterable[str] | None = None) -> WindowStack:
        """Every valid window, filtered to the genre's columns when given, rows at unit norm.

        A window is one bincount over the (city, artist) cells of its 4 weeks,
        whose charts, and so their entries, are contiguous in the store; counts
        are integers, so the sums are exact. Every row is scaled and stored in
        ascending column order. A first pass sizes every row, so the stack is
        allocated once and each window is written straight into its slice.
        """
        starts = np.array(self.valid_window_starts(), dtype=np.int64)
        n_cities, n_artists = len(self.cities), len(self.universe)
        entries = self.entries
        if genre_artists is not None:
            keep = np.zeros(n_artists, dtype=bool)
            column = {a: i for i, a in enumerate(self.universe)}
            keep[[column[a] for a in genre_artists if a in column]] = True
            hit = keep[entries.indices]
            kept = np.concatenate(([0], np.cumsum(hit)))[entries.indptr]  # each chart's first kept
            entries = SparseRows(entries.data[hit], entries.indices[hit], kept, n_artists)
        ptr, artist, count = entries.indptr, entries.indices, entries.data
        last = starts + (WINDOW_WEEKS - 1)  # a window's last week fits int64, the week after may not
        bounds = list(zip(np.searchsorted(self.week, starts).tolist(),
                          np.searchsorted(self.week, last, side="right").tolist()))

        def cells(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
            """The window's summed (city, artist) cells, and which are not zero: the
            one test by which both passes find a window's entries."""
            a, z = ptr[lo], ptr[hi]
            cell = np.repeat(self.city[lo:hi].astype(np.int64) * n_artists, np.diff(ptr[lo : hi + 1]))
            cell += artist[a:z]
            # float64 even for a window with no entries, where bincount gives int64
            total = np.bincount(cell, count[a:z], n_cities * n_artists).astype(np.float64, copy=False)
            return total, total != 0

        sizes = np.zeros((len(starts), n_cities), dtype=np.int64)
        for i, (lo, hi) in enumerate(bounds):
            sizes[i] = cells(lo, hi)[1].reshape(n_cities, n_artists).sum(axis=1)
        n = int(sizes.sum())
        matrix = SparseRows.from_sizes(np.empty(n), np.empty(n, dtype=np.int32), sizes.ravel(), n_artists)
        for i, (lo, hi) in enumerate(bounds):
            total, nonzero = cells(lo, hi)
            found = np.flatnonzero(nonzero)  # by city, then by ascending artist
            rows = matrix.indptr[i * n_cities : (i + 1) * n_cities + 1]
            a, z = rows[0], rows[-1]
            np.take(total, found, out=matrix.data[a:z])
            matrix.indices[a:z] = found % n_artists
            unit_rows(SparseRows(matrix.data[a:z], matrix.indices[a:z], rows - a, n_artists))
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
