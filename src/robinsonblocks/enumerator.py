"""The brute-force oracle: slide an n-by-n window over generated
supertiles, deduplicate the blocks exactly, and detect when the count
stops growing with rank.

Windows are deduplicated at the tile-id level, as a set of n*n-byte
rows (one byte per cell, ids already canonical); the externally visible
Pattern bytes spell each cell out as its canonical (prototile, rotation,
mirror) triple.  A scan reaches its windows through slabs, runs of n
whole columns, and their mirror images across the NE-SW diagonal, runs
of n whole rows.  A column slab and its mirror image are one slab
class, keyed by the column slab's cells: a class met before, cut from a
supertile or turned from one, is skipped whole.  Every rank cuts one
strip of its NE build, the rows that hold the windows touching the
central row, the whole supertile at the first rank.  The NE supertile
is its own mirror image, so the columns that hold the windows touching
the central column are that strip mirrored, and its classes key both.

``_window_scan`` is the one route from a rank to its NE window set, and
``count_stabilized`` the one function that runs it to its plateau:
plain or restricted to a corner position, and with or without a
``.rbps`` cache directory of NE sets, read in any facing.
``distinct_patterns`` and ``restricted_count`` take the set the scan
yields at their rank and stop there.  Any other facing's set is the NE
set turned, so a facing is applied only where a window's cells are
read.

The ``.rbps`` cache layout is known here alone.  A file's body is a byte
matrix of one record per row.  It is written and read a band of rows at
a time, so neither copies a whole set or file body: a cached rank
reaches the count as its array of id rows, never as a set, and the same
bands that fill it find a file's first bad record.  Every per-cell table
lookup over a window set is a ``bytes.translate`` of a band.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import stat
import struct
from pathlib import Path

import numpy as np

from ._record import Record, _integer
from .supertile import _MIRROR, _TURNS, EMPTY, SupertileSpec, TileGrid, _build_ids
from .tileset import ALL_TILES, BUMPY_IDS, IDENTITY, Pose

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

# ``_MIRROR``, each tile id's id in a grid's mirror image across its NE-SW
# diagonal, as a ``bytes.translate`` table.
_MIRROR_BYTES = _MIRROR.tobytes()
# The three slab classes the quarter turns make of one (``_turned_keys``),
# named by their column slabs T^2 c, M T c and M T^3 c: c's lines and cells
# reversed (-1) or kept (1), and every tile translated by the table.
_CLASS_TURNS = (
    (-1, -1, _TURNS[2].tobytes()),
    (1, -1, _MIRROR[_TURNS[1]].tobytes()),
    (-1, 1, _MIRROR[_TURNS[3]].tobytes()),
)

# The one banding constant: about this many key bytes are made into
# ``bytes`` objects per ``tolist`` call, slab keys in ``_new_blocks`` and
# window keys in ``_key_blocks``, which copies out the slabs of one band
# at a time; and a path that reads a whole window set (``_bands``) or
# an ``.rbps`` body makes about this many bytes of one band of rows or
# records at a time.
_GATHER_BYTES = 1 << 16


class BlockTooLarge(ValueError):
    """Requested block side exceeds the supertile side 2^rank - 1."""


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


class CountReport(Record):
    __match_args__ = ("n", "rank_used", "count", "stabilized", "counts_by_rank")

    def __init__(
        self, n: int, rank_used: int, count: int, stabilized: bool, counts_by_rank: tuple
    ):
        # counts_by_rank is ((rank, count), ...), one pair per rank probed.
        self._set(n, rank_used, count, stabilized, counts_by_rank)


COUNT_CSV_HEADER = "n,rank,count,stabilized"


def count_report_csv(report: CountReport) -> str:
    """CSV rows for a stabilization probe, one per rank."""
    lines = [COUNT_CSV_HEADER]
    for rank, count in report.counts_by_rank:
        stab = report.stabilized and rank == report.rank_used
        lines.append(f"{report.n},{rank},{count},{str(stab).lower()}")
    return "\n".join(lines) + "\n"


def canonical_encode(window: TileGrid) -> Pattern:
    """Deterministic byte encoding of a square window; injective on
    semantic tile equivalence classes."""
    if window.width != window.height:
        raise ValueError("canonical_encode needs a square window")
    ids = window.ids
    if (ids == EMPTY).any():
        raise ValueError("cannot encode a window with empty cells")
    return Pattern(window.width, _triples(ids).tobytes())


def _column_slabs(ids: np.ndarray, n: int) -> np.ndarray:
    """The column slabs of a tile-id array at least n high and n wide, as
    a 1-D void array: item j keys slab j, the array's columns j to
    j + n - 1, by their bytes, one column after another."""
    height, width = ids.shape
    lines = np.ascontiguousarray(ids.T)
    return np.ndarray((width - n + 1,), np.dtype((np.void, n * height)), lines, strides=(height,))


def _add_classes(keys: np.ndarray, n: int, windows: set, slabs: set) -> np.ndarray:
    """Add to ``windows`` the windows of each slab class, named by a
    column slab of the 1-D void array ``keys``, that ``slabs`` lacks, and
    return those column slabs as ``_new_blocks`` does."""
    blocks = _new_blocks(keys, n, slabs)
    _key_blocks(blocks, windows)
    return blocks


def _new_blocks(keys: np.ndarray, n: int, met: set) -> np.ndarray:
    """The slabs keyed by the 1-D void array ``keys`` that ``met`` lacks,
    each once, as one ``(slabs, n, cells)`` uint8 array; they are added
    to ``met``.  Keys become ``bytes`` in slices of about
    ``_GATHER_BYTES``."""
    step = max(1, _GATHER_BYTES // keys.itemsize)
    fresh = dict.fromkeys(
        key
        for i in range(0, len(keys), step)
        for key in keys[i : i + step].tolist()
        if key not in met
    )
    met.update(fresh)
    return np.frombuffer(b"".join(fresh), dtype=np.uint8).reshape(len(fresh), n, keys.itemsize // n)


def _key_blocks(blocks: np.ndarray, windows: set) -> None:
    """Add to ``windows`` the n-by-n windows of the slab classes whose
    column slabs are ``blocks``, an array of shape ``(slabs, n, cells)``
    holding each slab's n columns.

    This is the one window-dedup kernel: set membership compares the
    row bytes (a window's tile ids in row-major order) for equality, so
    the dedup is exact.  Every window of an array lies in exactly one
    column slab c, at the column it starts on, so an array's windows are
    its column slabs' windows.  The mirror image across the NE-SW
    diagonal, ``_MIRROR[ids[::-1, ::-1].T]``, makes an array's column at
    j its row at L - 1 - j (L the array's width), so it makes c a row
    slab M(c): ``c[::-1, ::-1]`` translated by ``_MIRROR_BYTES``, its
    lines and each line's cells reversed and every tile mirrored.  c and
    M(c) are one slab class, and both are keyed here: c's windows, then
    M(c)'s.

    The slabs are copied out in bands whose windows hold about
    ``_GATHER_BYTES``, and each band's windows are added to the set by
    one ``tolist``.  A column slab is copied row-major, n bytes per row,
    so its window at row r is the n*n contiguous bytes starting at byte
    r*n, and a strided void view hands those bytes to ``tolist`` without
    copying each window.  A row slab's windows are copied out whole, one
    after another, each as its n rows of n bytes: the copy moves n-byte
    void items, not single cells.
    """
    count, n, cells = blocks.shape
    per_slab = cells - n + 1
    mirrored = blocks[:, ::-1, ::-1].tobytes().translate(_MIRROR_BYTES)
    shape, strides = (count, per_slab, n), (n * cells, 1, cells)
    rows = np.ndarray(shape, np.dtype((np.void, n)), mirrored, 0, strides)
    step = max(1, _GATHER_BYTES // (per_slab * n * n))
    # ``view[i]`` is slab i as it is copied out: (cells, n) cells for c,
    # its ``per_slab`` windows of n n-byte rows for M(c).
    for view, stride in ((blocks.transpose(0, 2, 1), n), (rows, n * n)):
        for i in range(0, count, step):
            band = np.ascontiguousarray(view[i : i + step]).view(np.uint8)
            shape, strides = (len(band), per_slab), (band.strides[0], stride)
            keys = np.ndarray(shape, np.dtype((np.void, n * n)), band, 0, strides)
            windows.update(*keys.tolist())


def _turned_keys(blocks: np.ndarray) -> np.ndarray:
    """The keys of the slab classes the other three quarter turns make
    of the classes whose column slabs are ``blocks``, a ``(slabs, n,
    cells)`` array, as one 1-D void array.

    An array turned ``t`` times is ``T^t(ids) = TURN^t[np.rot90(ids,
    t)]``, and the mirror M makes a quarter turn its inverse, ``T^t M ==
    M T^-t``.  So turn t of a class {c, M(c)} is {T^t c, M T^-t c}, and
    the three turns together are the classes of the column slabs T^2 c,
    M T c and M T^3 c: turn 2 is the first, and turns 1 and 3 each give
    one half of the other two.  Each of those column slabs is c with its
    lines, its cells or both reversed and every tile through one row of
    ``_CLASS_TURNS``, its bytes the key the turned array's own class
    would have.
    """
    data = b"".join(
        blocks[:, ::lines, ::cells].tobytes().translate(table)
        for lines, cells, table in _CLASS_TURNS
    )
    return np.frombuffer(data, dtype=np.dtype((np.void, blocks.shape[1] * blocks.shape[2])))


def _bands(windows, n: int, row_bytes: int):
    """A collection of n*n-byte id rows, an array of them from a cache
    file or an iterable of ``bytes`` (a scan's set, a sorted list), as
    uint8 arrays of consecutive rows, ``_GATHER_BYTES // row_bytes`` of
    them (at least one) a band: a reader that makes ``row_bytes`` bytes
    of each row holds about ``_GATHER_BYTES`` at a time."""
    step = max(1, _GATHER_BYTES // max(1, row_bytes))
    if isinstance(windows, np.ndarray):
        for i in range(0, len(windows), step):
            yield windows[i : i + step]
        return
    rows = iter(windows)
    while band := list(itertools.islice(rows, step)):
        yield np.frombuffer(b"".join(band), dtype=np.uint8).reshape(len(band), n * n)


def _pattern_set(n: int, windows) -> PatternSet:
    """The Patterns of a window set from ``_window_scan`` or a cache file,
    made a band at a time.  One bytes object per row, which keeps the one
    member of an n = 0 set."""
    size = 3 * n * n
    triples = (_triples(band).reshape(len(band), size) for band in _bands(windows, n, size))
    return PatternSet(n, itertools.chain.from_iterable(map(bytes, t) for t in triples))


def _lookup(ids: np.ndarray, table: bytes) -> np.ndarray:
    """``table[ids]`` for a uint8 array and a 256-byte table, as one
    ``bytes.translate``: no index array is made."""
    return np.frombuffer(ids.tobytes().translate(table), dtype=np.uint8).reshape(ids.shape)


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
    """Inverse of ``_TRIPLE_LUT``: the tile id of each triple along the
    last axis (of length 3) of the uint8 array ``triples``, EMPTY where a
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


def _ranks(n: int, k_max: int, facing: Pose) -> tuple:
    """``(n, ranks)``: the block side as an int, and the ranks a scan of
    the ``facing`` supertile probes, from the first whose supertile can
    host an n-by-n block through ``k_max``.  Raises ``TypeError`` for an
    n or k_max that is no integer (or is a bool), then ``BlockTooLarge``
    if no rank can host the block, then ``TypeError`` for a facing that
    is no ``Pose`` or ``ValueError`` for a mirrored one, before anything
    is built."""
    n, k_max = _integer("block side", n), _integer("rank", k_max)
    if n < 1:
        raise ValueError(f"block side must be >= 1, got {n}")
    side = (1 << k_max) - 1
    if n > side:
        raise BlockTooLarge(f"block side {n} exceeds rank-{k_max} supertile side {side}")
    SupertileSpec(k_max, facing)
    return n, range(n.bit_length(), k_max + 1)


def _window_scan(n: int, ranks: range):
    """Yield ``(rank, windows)`` for each of ``ranks``, where ``windows``
    is the set of distinct n-by-n windows of the NE supertile, as tile-id
    row bytes.

    Only windows that touch the central row or column are extracted, from
    the two strips of lines that hold them.  A rank-(k+1) window either
    touches the central cross or lies inside a quadrant, and the four
    quadrants are exactly the four facings of rank k.  So the windows of
    every facing of rank k plus the NE supertile's own cross-touching
    windows are the rank-(k+1) set.  At the first rank, k =
    n.bit_length(), the quadrant side 2^(k-1) - 1 is below n, so every
    window touches the cross and the strip of rows is the whole
    supertile.

    Only one strip is cut: the strip of rows, a view of the NE build, as
    column slabs.  The strip of columns is its mirror image, because the
    NE supertile is its own mirror image across its NE-SW diagonal,
    ``ne == M[ne[::-1, ::-1].T]`` with ``M = _MIRROR``:

    - the rules are invariant under the mirror: it makes an east pair
      (a, b) the south pair (M[b], M[a]), and ``EAST_OK[a, b] ==
      SOUTH_OK[M[b], M[a]]``; it makes a 2x2 window a 2x2 window, and
      ``BUMPY_IDS[M] == BUMPY_IDS``;
    - it keeps the centre corner and maps the quadrants onto each
      other: it swaps the SE-facing and NW-facing ones and keeps the
      other two.  Each facing is the NE supertile of the rank below
      turned, that supertile is its own mirror image (by induction on
      the rank), and the mirror makes a quarter turn its inverse;
    - ``_build_ids`` solves each cross cell to exactly one tile, given
      the quadrants, the centre and the cells solved before it; the
      mirrored grid obeys the rules, so its tile at each cross cell is
      that tile, and it is the same grid.

    So the strip of columns is the mirror image of the strip of rows,
    and ``_key_blocks``, which keys the windows of a column slab and of
    its mirror image, keys both from the cut: each column slab c of the
    strip of rows and its mirror image M(c), a row slab of the strip of
    columns, are one slab class, and a class met before is skipped whole.
    At the first rank the mirror image is the whole supertile again.  A
    cross strip holds only a few times n distinct classes, whatever the
    rank (112 of 2032 for n = 16 at rank 11), and a scan meets most of
    them at its lower ranks.  A column slab holds at most n*(2n - 1)
    cells: every strip is at most 2n - 1 rows high, the whole supertile
    of the first rank included.

    Only the NE facing is ever cut.  The facing t quarter turns on is the
    NE one turned, ``TURN^t[np.rot90(ids, t)]``, so its cross strips are
    the NE strips turned, the rows strip becoming the columns strip at
    odd t.  A turned array's windows are its windows turned, and an
    array's windows are its slabs' windows.  So the other facings of rank
    k add exactly the turns of the windows extracted up to rank k, and
    those are the turns of the new slab classes keyed up to rank k:
    ``_turned_keys`` names the three turned classes of each.  So facing
    t's set is this set turned, and the readers of cells turn what they
    read.

    The scan keeps three things: ``windows``, the set of windows keyed;
    ``slabs``, the keys of the classes met; and ``new``, the column slabs
    of the classes the last cut met first.  The yielded set is the
    scan's own, live: it is valid until the scan is resumed, which adds
    to it.  Rank k is yielded as soon as its strip's classes are keyed;
    the turned classes of rank k belong to rank k+1's set and are keyed
    only when the scan is resumed, so a scan that stops at its plateau
    never turns the classes of its last rank.
    """
    windows, slabs = set(), set()
    new = np.empty((0, n, n), dtype=np.uint8)  # no class is met before the first cut
    for k in ranks:
        _add_classes(_turned_keys(new), n, windows, slabs)
        ne = _build_ids(k)
        c = ne.shape[0] // 2
        new = _add_classes(_column_slabs(ne[max(c - n + 1, 0) : c + n], n), n, windows, slabs)
        yield k, windows


def _cached_window_scan(n: int, ranks: range, scan, cache: Path):
    """Yield ``(rank, windows)`` for each of ``ranks``, as the NE-facing
    window ``scan`` over them does.  A rank is read from its ``.rbps``
    file in ``cache`` where that exists, and yielded as its array of id
    rows, which ``len`` and ``_scan_value`` take as they take a set;
    otherwise ``scan`` runs as far as that rank and its set is saved
    there."""
    cache.mkdir(parents=True, exist_ok=True)
    for rank in ranks:
        path = cache / f"patterns_n{n}_rank{rank}.rbps"
        if path.exists():
            found, windows = _read_pattern_file(path)
            if found != n:  # n is the header field after the magic and version
                raise CorruptPatternFile(len(MAGIC) + 2, f"holds n={found} blocks, not n={n}")
        else:
            windows = next(w for k, w in scan if k == rank)
            _write_records(path, n, windows)
        yield rank, windows
        del windows  # a rank read from its file goes before the next is read


def _windows_at(n: int, ranks: range) -> set:
    """The NE window set a scan over ``ranks`` yields at its last rank.
    The scan is never resumed past it, so the slabs of that rank are
    never turned."""
    return next(w for k, w in _window_scan(n, ranks) if k == ranks[-1])


def distinct_patterns(n: int, rank: int, facing: Pose = IDENTITY) -> PatternSet:
    """All distinct n-by-n windows of the rank-``rank`` supertile: the
    NE set with each window turned as the facing turns the supertile."""
    n, ranks = _ranks(n, rank, facing)
    f, rows = facing.rotation, np.frombuffer(b"".join(_windows_at(n, ranks)), dtype=np.uint8)
    turned = _lookup(np.rot90(rows.reshape(-1, n, n), f, axes=(1, 2)), _TURNS[f].tobytes())
    return _pattern_set(n, turned.reshape(-1, n * n))


def count_stabilized(
    n: int, k_max: int, facing: Pose = IDENTITY, corner_pos=None, cache=None
) -> CountReport:
    """Increase the rank until two consecutive ranks agree on the
    distinct-window count of the fixed-facing supertile.

    ``corner_pos`` counts only windows whose bumpy-corner lattice starts
    there (see ``restricted_count``).  ``cache`` is a directory of one
    ``.rbps`` file per rank, read where present and written otherwise;
    a file holds the rank's NE set, which serves every facing, as the
    scan's own set does.  Every argument is checked before anything is
    built or written.

    The stop rule is a heuristic plateau, not a proven bound.
    Non-stabilization within k_max is reported, not raised.
    """
    n, ranks = _ranks(n, k_max, facing)
    value = _scan_value(n, corner_pos, facing)
    scan = _window_scan(n, ranks)
    if cache is not None:
        scan = _cached_window_scan(n, ranks, scan, Path(cache))
    counts = []
    for k, windows in scan:
        counts.append((k, value(windows)))
        del windows  # a rank read from its file goes before the next is read
        if len(counts) > 1 and counts[-2][1] == counts[-1][1]:
            return CountReport(n, k, counts[-1][1], True, tuple(counts))
    return CountReport(n, ranks[-1], counts[-1][1], False, tuple(counts))


def _scan_value(n: int, corner_pos, facing: Pose):
    """What a stabilization scan reports for each NE window set, read as
    the ``facing`` supertile's set, ``TURN^f[np.rot90(w, f)]`` of each
    window w: its size, or with ``corner_pos`` ([row, col], 1-based, both
    in 1..2) how many of its windows have their bumpy-corner lattice
    start exactly there.  ``TURN`` keeps bumpy corners bumpy, so that
    mask is turned back, ``np.rot90(mask, -f)``, not the windows.  The
    windows are read a band at a time, each cell through a 0/1 bumpy
    table.  A bad ``corner_pos`` raises here, before any window set is
    made."""
    if corner_pos is None:
        return len
    try:
        r, c = corner_pos
    except (TypeError, ValueError):
        raise ValueError(f"corner_pos must be a [row, col] pair, got {corner_pos!r}") from None
    r, c = _integer("corner_pos row", r), _integer("corner_pos column", c)
    if not (1 <= r <= min(2, n) and 1 <= c <= min(2, n)):
        raise ValueError(f"corner_pos must lie in the leading 2x2, got {corner_pos}")
    parity = np.arange(n) % 2
    want = (parity == r - 1)[:, None] & (parity == c - 1)[None, :]
    want = np.rot90(want, -facing.rotation).reshape(-1)
    bumpy = BUMPY_IDS.tobytes().ljust(256, b"\0")

    def hits(windows) -> int:
        # A band's rows are read, looked up and compared: three bytes a cell.
        bands = _bands(windows, n, 3 * n * n)
        return sum(int((_lookup(band, bumpy) == want).all(axis=1).sum()) for band in bands)

    return hits


def restricted_count(m: int, corner_pos, rank: int, facing: Pose = IDENTITY) -> int:
    """Distinct m-by-m patterns whose bumpy-corner lattice starts exactly
    at ``corner_pos`` ([row, col], 1-based, both in 1..2)."""
    m, ranks = _ranks(m, rank, facing)
    return _scan_value(m, corner_pos, facing)(_windows_at(m, ranks))


class _Terminated(BaseException):
    """SIGTERM, raised inside ``_sigterm_unwinds``."""


def _raise_terminated(signum, frame):
    raise _Terminated


@contextlib.contextmanager
def _sigterm_unwinds():
    """Make SIGTERM unwind the block, so that ``_atomic_open`` removes its
    temporary file, then end the process by SIGTERM all the same.  The
    default action ends a process without unwinding.  Only while SIGTERM
    has that action, and only on the main thread, the one that may set
    a handler.  ``signal`` is imported here, as it costs about 3 ms."""
    import signal

    armed = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    if armed:
        try:
            signal.signal(signal.SIGTERM, _raise_terminated)
        except ValueError:  # not the main thread
            armed = False
    try:
        yield
    except _Terminated:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        if armed:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


@contextlib.contextmanager
def _atomic_open(path, mode: str):
    """Open ``path`` for writing so that a writer that fails or is killed
    by SIGTERM midway never leaves a partial file there.  Every file the
    package writes by name is opened here.

    A path that names nothing yet, or reaches a regular file, through
    symlinks or not, stands for the file it resolves to.  That file is
    written under a temporary name beside it, renamed over it when the
    block ends (keeping an existing file's permission bits) and removed
    if the block raises or SIGTERM arrives, so a symlink stays a symlink
    and keeps its file whole.  An error on the temporary names ``path``.
    Anything else (a FIFO, a device, a terminal, a pipe) is opened and
    written directly, as a plain ``open`` would: it cannot be replaced
    by a rename.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, mode) as fh:
            yield fh
        return
    file = os.path.realpath(path)
    tmp = f"{file}.{os.getpid()}.tmp"
    # Outside the ``try``: a SIGTERM re-raised inside it would end the
    # process before the temporary is removed.
    with _sigterm_unwinds():
        try:
            with open(tmp, mode) as fh:
                if st is not None:
                    os.chmod(tmp, stat.S_IMODE(st.st_mode))
                yield fh
            os.replace(tmp, file)
        except BaseException as exc:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            if isinstance(exc, OSError) and exc.filename == tmp and exc.filename2 is None:
                exc.filename = os.fspath(path)  # name the file asked for, not the temporary
            raise


def _write_records(path, n: int, windows) -> None:
    """Write an ``.rbps`` file whose members are given by ``windows``,
    distinct n*n-byte rows of tile ids as ``bytes``.

    The rows are taken in the order Python's ``sorted`` gives their
    bytes; id rows sort as their members do, because tile ids sort as
    their triples.  The header is written first, then the records a band
    of about ``_GATHER_BYTES`` at a time, each band filled into one byte
    matrix of one record per row: the big-endian length field in columns
    0-3, the member after it."""
    rows = sorted(windows)
    size = 3 * n * n
    records = np.empty((0, 4 + size), dtype=np.uint8)  # one band's, made at the first band
    with _atomic_open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(">HIQ", FORMAT_VERSION, n, len(rows)))
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
    step = max(1, _GATHER_BYTES // width)
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
