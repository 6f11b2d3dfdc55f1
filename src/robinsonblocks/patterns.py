"""Patterns and the ``.rbps`` pattern-set file: the canonical byte form
of a block, the ``PatternSet`` store, ``distinct_patterns``, and the
file's writer, reader and inspector, with the cache of a stabilization
scan (``_cached_window_scan``).

Pattern bytes spell each cell out as its canonical (prototile,
rotation, mirror) triple; the scan (``enumerator``) keys windows by
tile ids, one byte a cell, and only what leaves it as a Pattern or a
file record is spelled out here.  A process that counts without a cache
never loads this module.

The ``.rbps`` cache layout is known here alone.  A file's body is a byte
matrix of one record per row.  It is written and read a band of rows at
a time, so neither copies a whole set or file body: a cached rank
reaches the count as its array of id rows, never as a set, and the same
bands that fill it find a file's first bad record.  Every per-cell table
lookup over a window set is a ``bytes.translate`` of a band.  The bands
are sized by ``enumerator._GATHER_BYTES``, the one banding constant, read
at each call.
"""

from __future__ import annotations

import heapq
import io
import itertools
import os
import stat
import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import enumerator
from ._atomic import _atomic_open
from ._record import Record, _integer
from .enumerator import (
    _MIRROR_BYTES,
    _MirrorPairs,
    _bands,
    _lookup,
    _mirror_images,
    _ranks,
    _windows_at,
)
from .supertile import _TURNS, EMPTY
from .tileset import ALL_TILES, IDENTITY, Pose

if TYPE_CHECKING:
    from .grid import TileGrid

MAGIC = b"RBLOCKPS"
FORMAT_VERSION = 1
# Offset of an ``.rbps`` file's first record: the magic, then version, n
# and count as ">HIQ".
_BODY = len(MAGIC) + struct.calcsize(">HIQ")

# Each tile id's canonical (prototile, rotation, mirror) triple, as three
# ``bytes.translate`` tables, one a field; a byte past the tile ids maps
# to 0.
_TRIPLE_BYTES = tuple(
    bytes(field).ljust(256, b"\0")
    for field in zip(*((t.prototile, t.pose.rotation, int(t.pose.mirror)) for t in ALL_TILES))
)
# Its inverse, keyed by p*8 + r*2 + m: the tile id of each canonical
# (prototile, rotation, mirror) triple, EMPTY for every other uint8 key.
_TRIPLE_IDS = np.full(256, EMPTY, dtype=np.uint8)
_TRIPLE_IDS[[p * 8 + r * 2 + m for p, r, m in zip(*_TRIPLE_BYTES)][: len(ALL_TILES)]] = np.arange(
    len(ALL_TILES)
)
_TRIPLE_ID_BYTES = _TRIPLE_IDS.tobytes()  # as a ``bytes.translate`` table


class CorruptPatternFile(ValueError):
    def __init__(self, offset: int, msg: str):
        self.offset = offset
        super().__init__(f"corrupt pattern-set file at byte {offset}: {msg}")


class PatternVersionMismatch(ValueError):
    def __init__(self, found: int):
        self.found = found
        super().__init__(
            f"pattern-set file has format version {found}, "
            f"this build reads version {FORMAT_VERSION}"
        )


def _block_side(n) -> int:
    """``n`` as an int if it is an integer (not a bool) of at least 0, the
    side of a ``Pattern`` or ``PatternSet``; else a TypeError, or a
    ValueError naming n."""
    n = _integer("block side", n)
    if n < 0:
        raise ValueError(f"n={n}: a block side must be non-negative")
    return n


class Pattern(Record):
    """One deduplicated n-by-n block in canonical byte form."""

    __match_args__ = ("n", "data")

    def __init__(self, n: int, data: bytes):
        n = _block_side(n)
        if len(data) != 3 * n * n:  # row-major, 3 bytes per cell
            raise ValueError("pattern data length must be 3*n*n")
        self._set(n, data)


class PatternSet:
    """Dedup store of same-sized Patterns with an exact count."""

    def __init__(self, n: int, members=()):
        self.n = _block_side(n)
        self._members = set()
        for m in members:
            self.add(m)

    def add(self, pattern) -> None:
        data = pattern.data if isinstance(pattern, Pattern) else bytes(pattern)
        if len(data) != 3 * self.n * self.n:
            raise ValueError("pattern size mismatch")
        self._members.add(data)

    @property
    def count(self) -> int:
        return len(self._members)

    def members(self):
        """Member byte strings in lexicographic order."""
        return sorted(self._members)

    def patterns(self):
        return [Pattern(self.n, m) for m in self.members()]

    def __contains__(self, pattern) -> bool:
        data = pattern.data if isinstance(pattern, Pattern) else bytes(pattern)
        return data in self._members

    def __eq__(self, other):
        return (
            isinstance(other, PatternSet)
            and self.n == other.n
            and self._members == other._members
        )

    def __len__(self):
        return self.count


def canonical_encode(window: TileGrid) -> Pattern:
    """Deterministic byte encoding of a square window; injective on
    semantic tile equivalence classes."""
    if window.width != window.height:
        raise ValueError("canonical_encode needs a square window")
    ids = window.ids
    if (ids == EMPTY).any():
        raise ValueError("cannot encode a window with empty cells")
    return Pattern(window.width, _triples(ids).tobytes())


def _pattern_set(n: int, windows) -> PatternSet:
    """The Patterns of a window index from ``_window_scan`` or a cache file,
    made a band at a time.  One bytes object per row, which keeps the one
    member of an n = 0 set."""
    size = 3 * n * n
    triples = (_triples(band).reshape(len(band), size) for band in _bands(windows, n, size))
    return PatternSet(n, itertools.chain.from_iterable(map(bytes, t) for t in triples))


def _triples(ids: np.ndarray, out=None) -> np.ndarray:
    """The (prototile, rotation, mirror) triple of each tile id in the
    uint8 array ``ids``, along a new last axis, written into ``out`` (of
    that shape) if given: one ``bytes.translate`` a field."""
    if out is None:
        out = np.empty(ids.shape + (3,), dtype=np.uint8)
    data = ids.tobytes()
    for i, table in enumerate(_TRIPLE_BYTES):
        out[..., i] = np.frombuffer(data.translate(table), dtype=np.uint8).reshape(ids.shape)
    return out


def _tile_ids(triples: np.ndarray) -> np.ndarray:
    """Inverse of ``_triples``: the tile id of each triple along the last
    axis (of length 3) of the uint8 array ``triples``, EMPTY where a
    triple names no canonical tile."""
    p, r, m = triples[..., 0], triples[..., 1], triples[..., 2]
    key = p * 8
    key += r * 2
    key += m
    ids = _lookup(key, _TRIPLE_ID_BYTES)
    # The uint8 key names its triple only while it cannot wrap or alias.
    if key.size and (p.max() >= 32 or r.max() >= 4 or m.max() >= 2):
        ids = np.where((p >= 32) | (r >= 4) | (m >= 2), EMPTY, ids).astype(np.uint8)
    return ids


def _cached_window_scan(n: int, ranks: range, scan, cache, keep: bool = True):
    """Yield ``(rank, windows)`` for each of ``ranks``, as the NE-facing
    window ``scan`` over them does.  A rank is read from its ``.rbps``
    file in the directory ``cache`` where that exists, and yielded as its
    array of id rows, which ``len`` and ``_scan_value`` take as they take
    an index; or, if not ``keep``, after the same checks, as
    ``range(count)``, which serves ``len`` alone and holds no row.
    Otherwise ``scan`` runs as far as that rank and its set is saved
    there."""
    cache = Path(cache)
    cache.mkdir(parents=True, exist_ok=True)
    for rank in ranks:
        path = cache / f"patterns_n{n}_rank{rank}.rbps"
        if path.exists():
            found, windows = _read_pattern_file(path, keep)
            if not keep:
                windows = range(windows)
            if found != n:  # n is the header field after the magic and version
                raise CorruptPatternFile(len(MAGIC) + 2, f"holds n={found} blocks, not n={n}")
        else:
            windows = next(w for k, w in scan if k == rank)
            _write_records(path, n, windows)
        yield rank, windows
        del windows  # a rank read from its file goes before the next is read


def distinct_patterns(n: int, rank: int, facing: Pose = IDENTITY) -> PatternSet:
    """All distinct n-by-n windows of the rank-``rank`` supertile: the
    NE set with each window turned as the facing turns the supertile."""
    n, ranks = _ranks(n, rank, facing)
    f, rows = facing.rotation, np.frombuffer(b"".join(_windows_at(n, ranks)), dtype=np.uint8)
    turned = _lookup(np.rot90(rows.reshape(-1, n, n), f, axes=(1, 2)), _TURNS[f].tobytes())
    return _pattern_set(n, turned.reshape(-1, n * n))


def _sorted_windows(windows: _MirrorPairs):
    """Yield every window of a scan's index once, in the order ``sorted``
    gives their bytes, as a merge of three sorted runs: the self-mirror
    windows, the pair keys, and the keys' mirror images.  No window is
    copied but the images, and those a band at a time: they are ordered
    by their first rows, one array of n bytes a key, and each band,
    closed under equal first rows, is made and sorted whole."""
    n, size = windows.n, windows.n * windows.n
    keys = sorted(windows.pairs)
    # An image's first row is its key's last column read upward, each
    # tile mirrored: M(w)[0, j] = _MIRROR[w[n - 1 - j, n - 1]].
    firsts = np.frombuffer(
        b"".join(key[size - 1 :: -n] for key in keys).translate(_MIRROR_BYTES), dtype=np.uint8
    ).reshape(len(keys), n)
    order = np.lexsort(firsts.T[::-1])  # by first row, its cells in turn
    firsts = firsts[order]
    # Where each run of equal first rows starts, and the end.
    starts = np.flatnonzero(np.r_[True, (firsts[1:] != firsts[:-1]).any(axis=1), True])
    step = max(1, enumerator._GATHER_BYTES // size)

    def images():
        i = 0
        while i < len(keys):
            # A band of about ``step`` images, ending where a run ends.
            j = starts[np.searchsorted(starts, min(i + step, len(keys)))]
            yield from sorted(_mirror_images([keys[k] for k in order[i:j].tolist()], n))
            i = j

    return heapq.merge(sorted(windows.selfmirror), keys, images())


def _write_records(path, n: int, windows) -> None:
    """Write an ``.rbps`` file whose members are given by ``windows``,
    distinct n*n-byte rows of tile ids as ``bytes``: a scan's
    ``_MirrorPairs`` index, or any iterable of rows.

    The rows are taken in the order Python's ``sorted`` gives their
    bytes (an index's by ``_sorted_windows``); id rows sort as their
    members do, because tile ids sort as their triples.  The header is
    written first, then the records a band of about ``_GATHER_BYTES`` at
    a time, each band filled into one byte matrix of one record per row:
    the big-endian length field in columns 0-3, the member after it."""
    if isinstance(windows, _MirrorPairs):
        rows, count = _sorted_windows(windows), len(windows)
    else:
        rows = sorted(windows)
        count = len(rows)
    size = 3 * n * n
    records = np.empty((0, 4 + size), dtype=np.uint8)  # one band's, made at the first band
    with _atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(">HIQ", FORMAT_VERSION, n, count))
        for ids in _bands(rows, n, 4 + size):
            if len(records) < len(ids):
                records = np.empty((len(ids), 4 + size), dtype=np.uint8)
                records[:, :4] = list(size.to_bytes(4, "big"))
            band = records[: len(ids)]
            _triples(ids, band[:, 4:].reshape(len(ids), n * n, 3))
            fh.write(band)


def save_pattern_set(ps: PatternSet, path) -> None:
    """Write the bit-exact cache format: magic, version, n, count, then
    length-prefixed members in lexicographic order.

    The file ``path`` names, through symlinks or not, is written under a
    temporary name beside it and renamed over it, so a writer that fails
    or is killed by SIGTERM midway never leaves a truncated file there,
    and a symlink stays a symlink.  An n whose 3n^2-byte records
    overflow their length field, or a member with a triple that names no
    canonical tile, raises ``ValueError`` before the path is opened; a
    negative n is refused when the set is made.
    """
    if 3 * ps.n * ps.n >> 32:
        raise ValueError(f"n={ps.n}: a 3n^2-byte record overflows its length field")
    triples = np.frombuffer(b"".join(ps._members), dtype=np.uint8).reshape(-1, 3)
    ids = _tile_ids(triples)
    if (ids == EMPTY).any():
        raise ValueError("a pattern-set member has a triple that names no canonical tile")
    _write_records(path, ps.n, map(bytes, ids.reshape(ps.count, ps.n * ps.n)))


def _read_pattern_file(path, keep: bool = True) -> tuple:
    """Check an ``.rbps`` file as ``load_pattern_set`` states, and return
    its header n and the tile ids of its members, one ``n*n``-byte row
    per member in file order; or, if not ``keep``, their count.  A file
    that is not a regular one (a pipe, a device) is read whole first, so
    that its size is known."""
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh = io.BytesIO(fh.read())
        return _parse_pattern_file(fh, keep)


def _parse_pattern_file(fh, keep: bool = True) -> tuple:
    """``_read_pattern_file`` on a seekable binary stream.

    The body is read a band of records at a time, about
    ``_GATHER_BYTES``, and each band's complete records are viewed as a
    byte matrix, a record per row, so its length fields, order and
    triples are checked in a few array passes; a band's first record is
    compared with the last record before it.  The records before the
    first bad one sit at fixed offsets, so the first bad record is the
    first row with a wrong length field or not greater than the row
    before it, or else the first record the body cuts short; the
    record-by-record checks are then run on that record alone.
    Trailing bytes come next, and the first row with a triple that
    names no canonical tile last.  The id rows are kept in one array
    sized by the header count, or by the records the stream can hold if
    that is fewer, and filled a band at a time."""
    end = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    head = fh.read(_BODY)
    if len(head) < _BODY:
        raise CorruptPatternFile(len(head), "truncated header")
    if head[: len(MAGIC)] != MAGIC:
        raise CorruptPatternFile(0, "bad magic")
    version, n, count = struct.unpack_from(">HIQ", head, len(MAGIC))
    if version != FORMAT_VERSION:
        raise PatternVersionMismatch(version)
    size = 3 * n * n
    if size >> 32:  # n is the header field after the magic and version
        msg = f"n={n}: a 3n^2-byte record overflows its length field"
        raise CorruptPatternFile(len(MAGIC) + 2, msg)
    width = 4 + size
    length = list(size.to_bytes(4, "big"))
    rows = np.empty((min(count, (end - _BODY) // width) if keep else 0, n * n), dtype=np.uint8)
    step = max(1, enumerator._GATHER_BYTES // width)
    done, last, bad = 0, None, None
    while done < count:
        want, offset = min(step, count - done), _BODY + done * width
        band = fh.read(min(want * width, end - offset))  # a short band is the file's end
        whole = len(band) // width
        records = np.frombuffer(band, np.uint8, whole * width).reshape(whole, width)
        ids = _tile_ids(records[:, 4:].reshape(whole, n * n, 3))
        stray = (ids == EMPTY).any(axis=1)
        fault = (records[:, :4] != length).any(axis=1)
        # Tile ids sort as their triples, so the id rows keep the members'
        # order once every triple is canonical.
        fault[1:] |= ~_increasing(records[:, 4:] if stray.any() else ids)
        if whole and last is not None:
            fault[0] |= records[0, 4:].tobytes() <= last
        first = int(fault.argmax()) if fault.any() else whole
        if first < want:
            at = first * width
            if at + 4 > len(band):
                raise CorruptPatternFile(offset + at, "truncated record length")
            (got,) = struct.unpack_from(">I", band, at)
            if got != size:
                raise CorruptPatternFile(offset + at, f"record length {got}, expected {size}")
            if at + 4 + got > len(band):
                raise CorruptPatternFile(offset + at + 4, "truncated record")
            raise CorruptPatternFile(offset + at, "records not in strictly increasing order")
        if bad is None and stray.any():
            bad = offset + int(stray.argmax()) * width
        if keep:
            rows[done : done + whole] = ids
        last = records[-1, 4:].tobytes()
        done += whole
    if _BODY + count * width != end:
        raise CorruptPatternFile(_BODY + count * width, "trailing bytes")
    if bad is not None:
        raise CorruptPatternFile(bad, "triple names no canonical tile")
    return n, rows if keep else count


def _increasing(rows: np.ndarray) -> np.ndarray:
    """Whether each row of a 2-D array after the first is
    lexicographically greater than the row before it, compared at the
    first element where they differ; rows of no elements are equal."""
    before, after = rows[:-1], rows[1:]
    if not rows.shape[1]:
        return np.zeros(len(after), dtype=bool)
    differ = before != after
    first = (np.arange(len(differ)), differ.argmax(axis=1))
    return differ[first] & (before[first] < after[first])


def load_pattern_set(path) -> PatternSet:
    """Inverse of save_pattern_set; load(save(ps)) == ps.

    Every member must be a 3n^2-byte string of canonical triples, and
    members must come in strictly increasing order; otherwise
    CorruptPatternFile names the offset of the first bad record.  A
    header n whose 3n^2-byte records overflow their 4-byte length field
    is named at byte 10, the n field.
    """
    return _pattern_set(*_read_pattern_file(path))


def inspect_pattern_file(path) -> tuple:
    """The header n and the member count of an ``.rbps`` file, after
    every check ``load_pattern_set`` makes; no member is kept."""
    return _read_pattern_file(path, keep=False)
