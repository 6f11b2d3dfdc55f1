"""The brute-force oracle: slide an n-by-n window over generated
supertiles, deduplicate the blocks exactly, and detect when the count
stops growing with rank.

Windows are deduplicated at the tile-id level, as sets of n*n-byte
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
So the scan's window set is closed under the mirror, and it is kept as
an index of mirror pairs, ``_MirrorPairs``: each pair of a window w and
its mirror image M(w) is keyed once, by the lesser of the two, and a
window equal to its mirror image on its own.  The index holds half the
set's windows; iterating it makes the mirror images a band at a time,
and the corner mask reads a pair's key for both of its windows.

``_window_scan`` is the one route from a rank to its NE window set, and
``count_stabilized`` the one function that runs it to its plateau:
plain or restricted to a corner position, and with or without a
``.rbps`` cache directory of NE sets, read in any facing.
``restricted_count`` and ``patterns.distinct_patterns`` take the index
the scan yields at their rank and stop there.  Any other facing's set is
the NE set turned, so a facing is applied only where a window's cells
are read.

This module holds what a count runs.  Patterns and the ``.rbps`` file
live in ``patterns``, which ``count_stabilized`` imports only when it is
given a cache.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._record import Record, _integer
from .supertile import _MIRROR, _TURNS, SupertileSpec, _build_ids
from .tileset import BUMPY_IDS, IDENTITY, Pose

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
# at a time; and a path that reads a whole window set (``_bands``, the
# mirror images ``_MirrorPairs`` makes) or an ``.rbps`` body makes about
# this many bytes of one band of rows or records at a time.  ``patterns``
# reads it from here at each call, so that it stays one constant.
_GATHER_BYTES = 1 << 16


class BlockTooLarge(ValueError):
    """Requested block side exceeds the supertile side 2^rank - 1."""


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


def _column_slabs(ids: np.ndarray, n: int) -> np.ndarray:
    """The column slabs of a tile-id array at least n high and n wide, as
    a 1-D void array: item j keys slab j, the array's columns j to
    j + n - 1, by their bytes, one column after another."""
    height, width = ids.shape
    lines = np.ascontiguousarray(ids.T)
    return np.ndarray((width - n + 1,), np.dtype((np.void, n * height)), lines, strides=(height,))


class _MirrorPairs:
    """A window set closed under the mirror M across the NE-SW diagonal,
    ``M(w) = _MIRROR[w[::-1, ::-1].T]``, that keys each mirror pair
    {w, M(w)} once: ``pairs`` holds min(w, M(w)) of each pair with w !=
    M(w), and ``selfmirror`` each window w == M(w), as n*n-byte tile-id
    rows.  Its length is the set's size.  Iterating it yields every
    window of the set once: the self-mirror windows, then the pair keys
    a band of about ``_GATHER_BYTES`` at a time, each band's keys and
    then their mirror images, made by one ``bytes.translate`` of the
    band reversed and transposed."""

    def __init__(self, n: int):
        self.n = n
        self.pairs, self.selfmirror = set(), set()

    def __len__(self) -> int:
        return 2 * len(self.pairs) + len(self.selfmirror)

    def __iter__(self):
        n = self.n
        yield from self.selfmirror
        keys = iter(self.pairs)
        while band := list(itertools.islice(keys, max(1, _GATHER_BYTES // (n * n)))):
            yield from band
            yield from _mirror_images(band, n)


def _mirror_images(windows: list, n: int) -> list:
    """The mirror images of a list of n*n-byte windows, as ``bytes``,
    made by one ``bytes.translate`` of them all reversed and
    transposed."""
    ids = np.frombuffer(b"".join(windows), dtype=np.uint8).reshape(len(windows), n, n)
    images = ids[:, ::-1, ::-1].transpose(0, 2, 1).tobytes().translate(_MIRROR_BYTES)
    return np.frombuffer(images, np.dtype((np.void, n * n))).tolist()


def _add_classes(keys: np.ndarray, n: int, windows: _MirrorPairs, slabs: set) -> np.ndarray:
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


def _key_blocks(blocks: np.ndarray, windows: _MirrorPairs) -> None:
    """Add to the index ``windows`` the n-by-n windows of the slab
    classes whose column slabs are ``blocks``, an array of shape
    ``(slabs, n, cells)`` holding each slab's n columns.

    This is the one window-dedup kernel: set membership compares the
    row bytes (a window's tile ids in row-major order) for equality, so
    the dedup is exact.  Every window of an array lies in exactly one
    column slab c, at the column it starts on, so an array's windows are
    its column slabs' windows.  The mirror image across the NE-SW
    diagonal, ``_MIRROR[ids[::-1, ::-1].T]``, makes an array's column at
    j its row at L - 1 - j (L the array's width), so it makes c a row
    slab M(c): ``c[::-1, ::-1]`` translated by ``_MIRROR_BYTES``, its
    lines and each line's cells reversed and every tile mirrored.  c and
    M(c) are one slab class, and both are keyed here, one mirror pair of
    windows at a time: c's window at offset r and M(c)'s at ``per_slab -
    1 - r`` are a window w and its mirror image M(w), and min(w, M(w))
    is the pair's key, or w is a self-mirror window if w == M(w).

    The slabs are copied out in bands whose windows hold about
    ``_GATHER_BYTES``, and each band's keys are added to the index by
    one ``tolist``.  A column slab is copied row-major, n bytes per row,
    so its window at row r is the n*n contiguous bytes starting at byte
    r*n; a row slab's windows are copied out whole, one after another,
    each as its n rows of n bytes: the copy moves n-byte void items, not
    single cells.  So both slabs' windows are strided views of n*n-byte
    strings, which numpy compares as bytes, lexicographically, and
    ``np.where`` picks each pair's key from them without copying each
    window on its own.
    """
    count, n, cells = blocks.shape
    per_slab = cells - n + 1
    mirrored = blocks[:, ::-1, ::-1].tobytes().translate(_MIRROR_BYTES)
    shape, strides = (count, per_slab, n), (n * cells, 1, cells)
    rows = np.ndarray(shape, np.dtype((np.void, n)), mirrored, 0, strides)
    step = max(1, _GATHER_BYTES // (per_slab * n * n))
    strings, keys = np.dtype(("S", n * n)), np.dtype((np.void, n * n))
    for i in range(0, count, step):
        band = np.ascontiguousarray(blocks[i : i + step].transpose(0, 2, 1))
        images = np.ascontiguousarray(rows[i : i + step]).view(np.uint8)
        # c's windows, and M(c)'s last first: item (s, r) of the two is a pair.
        shape = (len(band), per_slab)
        w = np.ndarray(shape, strings, band, 0, (band.strides[0], n))
        m = np.ndarray(shape, strings, images, (per_slab - 1) * n * n, (images.strides[0], -n * n))
        pairs = np.where(w < m, w, m).view(keys).reshape(-1)
        windows.pairs.update(pairs.tolist())
        same = (w == m).reshape(-1)
        if same.any():
            selfmirror = pairs[same].tolist()
            windows.pairs.difference_update(selfmirror)
            windows.selfmirror.update(selfmirror)


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
    file or an iterable of ``bytes`` (a scan's index, a sorted list), as
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


def _lookup(ids: np.ndarray, table: bytes) -> np.ndarray:
    """``table[ids]`` for a uint8 array and a 256-byte table, as one
    ``bytes.translate``: no index array is made."""
    return np.frombuffer(ids.tobytes().translate(table), dtype=np.uint8).reshape(ids.shape)


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
    is a ``_MirrorPairs`` index of the distinct n-by-n windows of the NE
    supertile, as tile-id row bytes.

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

    The scan keeps three things: ``windows``, the index of the windows
    keyed, which keys each mirror pair of them once, as ``_key_blocks``
    meets both windows of a pair together; ``slabs``, the keys of the
    classes met; and ``new``, the column slabs of the classes the last
    cut met first.  The yielded index is the scan's own, live: it is
    valid until the scan is resumed, which adds to it.  Rank k is
    yielded as soon as its strip's classes are keyed; the turned classes
    of rank k belong to rank k+1's set and are keyed only when the scan
    is resumed, so a scan that stops at its plateau never turns the
    classes of its last rank.
    """
    windows, slabs = _MirrorPairs(n), set()
    new = np.empty((0, n, n), dtype=np.uint8)  # no class is met before the first cut
    for k in ranks:
        _add_classes(_turned_keys(new), n, windows, slabs)
        ne = _build_ids(k)
        c = ne.shape[0] // 2
        new = _add_classes(_column_slabs(ne[max(c - n + 1, 0) : c + n], n), n, windows, slabs)
        yield k, windows


def _windows_at(n: int, ranks: range) -> _MirrorPairs:
    """The NE window index a scan over ``ranks`` yields at its last rank.
    The scan is never resumed past it, so the slabs of that rank are
    never turned."""
    return next(w for k, w in _window_scan(n, ranks) if k == ranks[-1])


def count_stabilized(
    n: int, k_max: int, facing: Pose = IDENTITY, corner_pos=None, cache=None
) -> CountReport:
    """Increase the rank until two consecutive ranks agree on the
    distinct-window count of the fixed-facing supertile.

    ``corner_pos`` counts only windows whose bumpy-corner lattice starts
    there (see ``restricted_count``).  ``cache`` is a directory of one
    ``.rbps`` file per rank, read where present and written otherwise;
    a file holds the rank's NE set, which serves every facing, as the
    scan's own index does.  Every argument is checked before anything is
    built or written.

    The stop rule is a heuristic plateau, not a proven bound.
    Non-stabilization within k_max is reported, not raised.
    """
    n, ranks = _ranks(n, k_max, facing)
    value = _scan_value(n, corner_pos, facing)
    scan = _window_scan(n, ranks)
    if cache is not None:
        from .patterns import _cached_window_scan

        scan = _cached_window_scan(n, ranks, scan, cache, keep=corner_pos is not None)
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
    mirror keeps them bumpy too, ``BUMPY_IDS[_MIRROR] == BUMPY_IDS``, so
    a scan's pair key w is read once for both windows of its pair: M(w)
    has the mask's corners where w has them mirrored, ``mask[::-1,
    ::-1].T``, and no mirror image is made.  The windows are read a band
    at a time, each cell through a 0/1 bumpy table.  A bad
    ``corner_pos`` raises here, before any window set is made."""
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
    want = np.rot90(want, -facing.rotation)
    want, mirrored = want.reshape(-1), want[::-1, ::-1].T.reshape(-1)
    bumpy = BUMPY_IDS.tobytes().ljust(256, b"\0")

    def hits(rows, *masks) -> int:
        # A band's rows are read, looked up and compared: three bytes a cell.
        total = 0
        for band in _bands(rows, n, 3 * n * n):
            bumps = _lookup(band, bumpy)
            total += sum(int((bumps == mask).all(axis=1).sum()) for mask in masks)
        return total

    def value(windows) -> int:
        if isinstance(windows, _MirrorPairs):
            return hits(windows.selfmirror, want) + hits(windows.pairs, want, mirrored)
        return hits(windows, want)

    return value


def restricted_count(m: int, corner_pos, rank: int, facing: Pose = IDENTITY) -> int:
    """Distinct m-by-m patterns whose bumpy-corner lattice starts exactly
    at ``corner_pos`` ([row, col], 1-based, both in 1..2)."""
    m, ranks = _ranks(m, rank, facing)
    return _scan_value(m, corner_pos, facing)(_windows_at(m, ranks))
