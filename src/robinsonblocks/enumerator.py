"""The brute-force oracle: slide an n-by-n window over generated
supertiles, deduplicate the blocks exactly, and detect when the count
stops growing with rank.

Windows are deduplicated at the tile-id level, as a set of n*n-byte
rows (one byte per cell, ids already canonical); the externally visible
Pattern bytes spell each cell out as its canonical (prototile, rotation,
mirror) triple.  A scan reaches its windows through slabs, runs of n
whole rows or columns, each keyed by its own cells: a slab met before,
cut from a supertile or turned from one, is skipped whole.  Every rank
is cut from the NE build as its cross band, the whole supertile at the
first rank: the lines that hold the windows touching the central cross.

``_window_scan`` is the one route from a rank to its NE window set, and
``count_stabilized`` the one function that runs it to its plateau:
plain or restricted to a corner position, and with or without a
``.rbps`` cache directory (NE facing only).  ``distinct_patterns`` and
``restricted_count`` take the set the scan yields at their rank and
stop there.  Any other facing's set is the NE set turned, so a facing
is applied only where a window's cells are read.

The ``.rbps`` cache layout is known here alone.  A file's body is a byte
matrix of one record per row.  It is written from one sorted matrix with
one ``write`` and read by viewing it as one: a cached rank reaches the
count as its array of id rows, never as a set.  The same array passes
that check a file find its first bad record.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
from pathlib import Path

import numpy as np

from ._record import Record
from .supertile import _TURNS, EMPTY, SupertileSpec, TileGrid, _build_ids, _integer
from .tileset import ALL_TILES, BUMPY_IDS, IDENTITY, Pose

MAGIC = b"RBLOCKPS"
FORMAT_VERSION = 1
# Offset of an ``.rbps`` file's first record: the magic, then version, n
# and count as ">HIQ".
_BODY = len(MAGIC) + struct.calcsize(">HIQ")

# Per-tile-id canonical (prototile, rotation, mirror) triple, flattened.
_TRIPLE_LUT = np.array(
    [
        [t.prototile, t.pose.rotation, int(t.pose.mirror)]
        for t in ALL_TILES
    ],
    dtype=np.uint8,
)
# Its inverse, keyed by p*8 + r*2 + m: the tile id of each canonical
# (prototile, rotation, mirror) triple, EMPTY for every other uint8 key.
_TRIPLE_IDS = np.full(256, EMPTY, dtype=np.uint8)
_TRIPLE_IDS[_TRIPLE_LUT @ np.array([8, 2, 1], dtype=np.uint8)] = np.arange(len(ALL_TILES))
_TRIPLE_ID_BYTES = _TRIPLE_IDS.tobytes()  # as a ``bytes.translate`` table

# ``TURN`` applied t times, for t = 0..3, as ``bytes.translate`` tables;
# a byte past the tile ids maps to itself.
_TURN_BYTES = [table.tobytes() for table in _TURNS]

# The one banding constant: about this many key bytes are made into
# ``bytes`` objects per ``tolist`` call, slab keys in ``_new_blocks`` and
# window keys in ``_key_blocks``, which copies out the slabs of one band
# at a time; and ``_write_records`` gathers the triples of about this
# many tile ids per ``np.take``, which makes its indices 8-byte intp.
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


class Pattern(Record):
    """One deduplicated n-by-n block in canonical byte form."""

    __match_args__ = ("n", "data")

    def __init__(self, n: int, data: bytes):
        if len(data) != 3 * n * n:  # row-major, 3 bytes per cell
            raise ValueError("pattern data length must be 3*n*n")
        self._set(n, data)


class PatternSet:
    """Dedup store of same-sized Patterns with an exact count."""

    def __init__(self, n: int, members=()):
        self.n = n
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


class _WindowIndex:
    """What one scan of the dedup kernel has met so far.

    ``windows`` is the set of distinct n-by-n windows, as n*n-byte rows
    (the window's tile ids in row-major order).  ``slabs`` holds the
    slabs met, per orientation (row slabs, column slabs), each keyed by
    its cells: the bytes of its n lines, one after another.  ``grown``
    holds ``(blocks, by_columns)`` for each extraction that met new slabs
    ``blocks`` since ``_add_turned_slabs`` last ran.
    """

    __slots__ = ("windows", "slabs", "grown")

    def __init__(self):
        self.windows: set = set()
        self.slabs = (set(), set())
        self.grown: list = []


def _unique_windows(ids: np.ndarray, n: int, index: _WindowIndex | None = None) -> set:
    """Add the distinct n-by-n windows of a tile-id array to ``index``
    (a fresh one by default) and return its window set.

    This is the one window-dedup kernel: set membership compares the
    row bytes for equality, so the dedup is exact.  The array is cut
    into lines along its long axis (its columns if it is at least as
    wide as tall, else its rows), and n consecutive lines make a slab,
    keyed by their bytes.  Every window of the array lies in exactly
    one slab, at the line it starts on, so the array's windows are its
    slabs' windows.  Windows are keyed (``_key_blocks``) only for slabs
    this index has not met in that orientation, and those slabs, if any,
    go on ``index.grown``.  A cross strip of a scan holds only a few
    times n distinct slabs, whatever the rank (112 of 2032 for n = 16 at
    rank 11), and a scan meets most of them at its lower ranks.  In a
    scan a slab holds at most n*(2n - 1) cells: every strip a scan cuts
    is at most 2n - 1 lines wide, the whole supertile of its first rank
    included.  Slab keys are checked, and windows keyed, in bands of
    about ``_GATHER_BYTES`` key bytes.
    """
    if index is None:
        index = _WindowIndex()
    height, width = ids.shape
    if min(height, width) < n:
        return index.windows
    by_columns = width >= height
    lines = np.ascontiguousarray(ids.T if by_columns else ids)
    count, cells = lines.shape
    keys = np.ndarray((count - n + 1,), np.dtype((np.void, n * cells)), lines, strides=(cells,))
    blocks = _new_blocks(keys, n, index.slabs[by_columns])
    if len(blocks):
        _key_blocks(blocks, by_columns, index)
        index.grown.append((blocks, by_columns))
    return index.windows


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


def _key_blocks(blocks: np.ndarray, by_columns: bool, index: _WindowIndex) -> None:
    """Add to ``index`` the windows of the slabs ``blocks``, an array of
    shape ``(slabs, n, cells)`` holding each slab's n lines: columns if
    ``by_columns``, else rows.

    The slabs are copied out in bands whose windows hold about
    ``_GATHER_BYTES``, and each band's windows are added to the set by
    one ``tolist``.  A column slab is copied row-major, n bytes per row,
    so its window at row r is the n*n contiguous bytes starting at byte
    r*n, and a strided void view hands those bytes to ``tolist`` without
    copying each window.  A row slab's windows are copied out whole, one
    after another.
    """
    count, n, cells = blocks.shape
    if not count:
        return
    per_slab = cells - n + 1
    # ``view[i]`` is slab i as it is copied out: (cells, n) for a column
    # slab, its ``per_slab`` n-by-n windows for a row slab.
    if by_columns:
        view, stride = blocks.transpose(0, 2, 1), n
    else:
        shape, strides = (count, per_slab, n, n), (n * cells, 1, cells, 1)
        view, stride = np.ndarray(shape, np.uint8, np.ascontiguousarray(blocks), 0, strides), n * n
    step = max(1, _GATHER_BYTES // (per_slab * n * n))
    for i in range(0, count, step):
        band = np.ascontiguousarray(view[i : i + step])
        shape, strides = (len(band), per_slab), (band.strides[0], stride)
        keys = np.ndarray(shape, np.dtype((np.void, n * n)), band, 0, strides)
        index.windows.update(*keys.tolist())


def _turn_reverses(by_columns: bool, t: int) -> bool:
    """Whether ``t`` quarter turns of an array reverse the order of its
    columns (if ``by_columns``) or of its rows.  A quarter turn makes the
    column at j of an array L columns wide its row at L - 1 - j, and its
    row at i a column at i."""
    return t == 2 or by_columns == (t == 1)


def _add_turned_slabs(index: _WindowIndex, n: int) -> None:
    """Add to ``index`` the windows of the other three quarter turns of
    each new slab on ``index.grown``, and empty that list.

    An array turned ``t`` times is ``TURN^t[np.rot90(ids, t)]``, and its
    slabs are the array's slabs turned, column slabs becoming row slabs
    at odd t.  A slab's lines come out reversed if the turn reverses
    their order, and each line's cells if it reverses the order of the
    lines of the other orientation; every tile turns with them.  So turn
    t of a block is ``blocks[:, ::a, ::b]`` translated by
    ``_TURN_BYTES[t]``, its bytes the key the turned array's own slab
    would have.  Turned blocks are gathered into one buffer per
    orientation and line length they turn into, so a rank's turns take
    one ``_new_blocks`` and one ``_key_blocks`` call per orientation.  A
    turned slab whose key was met is skipped, as in ``_unique_windows``:
    its windows are in the set already.
    """
    grown, index.grown = index.grown, []
    turned: dict = {}
    for blocks, by_columns in grown:
        for t in (1, 2, 3):
            a = -1 if _turn_reverses(by_columns, t) else 1
            b = -1 if _turn_reverses(not by_columns, t) else 1
            data = turned.setdefault((by_columns != (t % 2 == 1), blocks.shape[2]), bytearray())
            data += blocks[:, ::a, ::b].tobytes().translate(_TURN_BYTES[t])
    for (by_columns, cells), data in turned.items():
        keys = np.frombuffer(data, dtype=np.dtype((np.void, n * cells)))
        _key_blocks(_new_blocks(keys, n, index.slabs[by_columns]), by_columns, index)


def _id_rows(windows, n: int) -> np.ndarray:
    """A window set, from ``_unique_windows`` or a cache file, as one
    n*n-byte row per window.  An array of rows is passed through."""
    if isinstance(windows, np.ndarray):
        return windows
    return np.frombuffer(b"".join(windows), dtype=np.uint8).reshape(-1, n * n)


def _pattern_set(n: int, windows) -> PatternSet:
    """The Patterns of a window set from ``_window_scan`` or a cache file.
    One bytes object per row, which keeps the one member of an n = 0 set."""
    triples = _triples(_id_rows(windows, n)).reshape(len(windows), 3 * n * n)
    return PatternSet(n, map(bytes, triples))


def _triples(ids: np.ndarray) -> np.ndarray:
    """``_TRIPLE_LUT[ids]``: the (prototile, rotation, mirror) triple of
    each tile id in ``ids``, along a new last axis."""
    return np.take(_TRIPLE_LUT, ids, axis=0)


def _tile_ids(triples: np.ndarray) -> np.ndarray:
    """Inverse of ``_TRIPLE_LUT``: the tile id of each triple along the
    last axis (of length 3) of the uint8 array ``triples``, EMPTY where a
    triple names no canonical tile."""
    p, r, m = triples[..., 0], triples[..., 1], triples[..., 2]
    key = p * 8
    key += r * 2
    key += m
    ids = np.frombuffer(key.tobytes().translate(_TRIPLE_ID_BYTES), dtype=np.uint8)
    ids = ids.reshape(key.shape)
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
    the two strips of lines that hold them, views of the NE build.  A
    rank-(k+1) window either touches the central cross or lies inside a
    quadrant, and the four quadrants are exactly the four facings of rank
    k.  So the windows of every facing of rank k plus the NE supertile's
    own cross-touching windows are the rank-(k+1) set.  At the first
    rank, k = n.bit_length(), the quadrant side 2^(k-1) - 1 is below n,
    so every window touches the cross: the whole supertile is cut, once.

    Only the NE facing is ever cut.  The facing t quarter turns on is the
    NE one turned, ``TURN^t[np.rot90(ids, t)]``, so its cross strips are
    the NE strips turned, the rows strip becoming the columns strip at
    odd t.  A turned array's windows are its windows turned, and an
    array's windows are its slabs' windows.  So the other facings of rank
    k add exactly the turns of the windows extracted up to rank k, and
    those are the turns of the new slabs keyed up to rank k:
    ``_add_turned_slabs`` turns the cells of each new slab three times.
    So facing t's set is this set turned, and the readers of cells turn
    what they read.

    Every extraction adds into one window index, so the yielded set is
    the scan's own, live: it is valid until the scan is resumed, which
    adds to it.  Rank k is yielded as soon as its strips are extracted;
    the turned slabs of rank k belong to rank k+1's set and are added
    only when the scan is resumed, so a scan that stops at its plateau
    never turns the slabs of its last rank.
    """
    index = _WindowIndex()
    for k in ranks:
        _add_turned_slabs(index, n)
        ne = _build_ids(k)
        c = ne.shape[0] // 2
        band = slice(c - n + 1, c + n)
        for strip in (ne,) if k == ranks.start else (ne[band], ne[:, band]):
            _unique_windows(strip, n, index)
        yield k, index.windows


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
            _write_records(path, n, _id_rows(windows, n))
        yield rank, windows


def _windows_at(n: int, ranks: range) -> set:
    """The NE window set a scan over ``ranks`` yields at its last rank.
    The scan is never resumed past it, so the slabs of that rank are
    never turned."""
    return next(w for k, w in _window_scan(n, ranks) if k == ranks[-1])


def distinct_patterns(n: int, rank: int, facing: Pose = IDENTITY) -> PatternSet:
    """All distinct n-by-n windows of the rank-``rank`` supertile: the
    NE set with each window turned as the facing turns the supertile."""
    n, ranks = _ranks(n, rank, facing)
    f, rows = facing.rotation, _id_rows(_windows_at(n, ranks), n).reshape(-1, n, n)
    return _pattern_set(n, _TURNS[f][np.rot90(rows, f, axes=(1, 2))].reshape(-1, n * n))


def count_stabilized(
    n: int, k_max: int, facing: Pose = IDENTITY, corner_pos=None, cache=None
) -> CountReport:
    """Increase the rank until two consecutive ranks agree on the
    distinct-window count of the fixed-facing supertile.

    ``corner_pos`` counts only windows whose bumpy-corner lattice starts
    there (see ``restricted_count``).  ``cache`` is a directory of one
    ``.rbps`` file per rank, read where present and written otherwise;
    the file names carry no facing, so it takes the NE facing only.
    Every argument is checked before anything is built or written.

    The stop rule is a heuristic plateau, not a proven bound.
    Non-stabilization within k_max is reported, not raised.
    """
    n, ranks = _ranks(n, k_max, facing)
    value = _scan_value(n, corner_pos, facing)
    scan = _window_scan(n, ranks)
    if cache is not None:
        if facing != IDENTITY:
            raise ValueError(f"a pattern cache holds NE-facing sets only, got {facing}")
        scan = _cached_window_scan(n, ranks, scan, Path(cache))
    counts = []
    for k, windows in scan:
        counts.append((k, value(windows)))
        if len(counts) > 1 and counts[-2][1] == counts[-1][1]:
            return CountReport(n, k, counts[-1][1], True, tuple(counts))
    return CountReport(n, ranks[-1], counts[-1][1], False, tuple(counts))


def _scan_value(n: int, corner_pos, facing: Pose):
    """What a stabilization scan reports for each NE window set, read as
    the ``facing`` supertile's set, ``TURN^f[np.rot90(w, f)]`` of each
    window w: its size, or with ``corner_pos`` ([row, col], 1-based, both
    in 1..2) how many of its windows have their bumpy-corner lattice
    start exactly there.  ``TURN`` keeps bumpy corners bumpy, so that
    mask is turned back, ``np.rot90(mask, -f)``, not the windows.  A bad
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
    want = np.rot90(want, -facing.rotation).reshape(-1)

    def hits(windows) -> int:
        return int((BUMPY_IDS[_id_rows(windows, n)] == want).all(axis=1).sum())

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


def _write_records(path, n: int, rows: np.ndarray) -> None:
    """Write an ``.rbps`` file whose members are given by the rows of the
    uint8 array ``rows``, distinct rows of n*n tile ids.

    The rows are sorted as void keys; id rows sort as their members do,
    because tile ids sort as their ``_TRIPLE_LUT`` triples.  The header
    and the body are filled into one buffer, the body viewed as a byte
    matrix of one record per row: the big-endian length field in columns
    0-3, the member after it, filled a band of rows at a time.  The
    buffer is written by one call."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).reshape(-1)
    rows = np.sort(keys).view(np.uint8).reshape(rows.shape)
    count, size = len(rows), 3 * n * n
    out = np.empty(_BODY + count * (4 + size), dtype=np.uint8)
    out[:_BODY] = list(MAGIC + struct.pack(">HIQ", FORMAT_VERSION, n, count))
    records = out[_BODY:].reshape(count, 4 + size)
    records[:, :4] = list(size.to_bytes(4, "big"))
    members = records[:, 4:].reshape(count, n * n, 3)
    step = max(1, _GATHER_BYTES // max(1, n * n))
    for i in range(0, count, step):
        members[i : i + step] = _triples(rows[i : i + step])
    with _atomic_open(path, "wb") as fh:
        fh.write(out)


def save_pattern_set(ps: PatternSet, path) -> None:
    """Write the bit-exact cache format: magic, version, n, count, then
    length-prefixed members in lexicographic order.

    The file ``path`` names, through symlinks or not, is written under a
    temporary name beside it and renamed over it, so a writer that fails
    or is killed by SIGTERM midway never leaves a truncated file there,
    and a symlink stays a symlink.  A negative n, an n whose 3n^2-byte
    records overflow their length field, or a member with a triple that
    names no canonical tile, raises ``ValueError`` before the path is
    opened.
    """
    if ps.n < 0:
        raise ValueError(f"n={ps.n}: a block side must be non-negative")
    if 3 * ps.n * ps.n >> 32:
        raise ValueError(f"n={ps.n}: a 3n^2-byte record overflows its length field")
    triples = np.frombuffer(b"".join(ps._members), dtype=np.uint8).reshape(-1, 3)
    ids = _tile_ids(triples)
    if (ids == EMPTY).any():
        raise ValueError("a pattern-set member has a triple that names no canonical tile")
    _write_records(path, ps.n, ids.reshape(ps.count, ps.n * ps.n))


def _read_pattern_file(path) -> tuple:
    """Check an ``.rbps`` file as ``load_pattern_set`` states, and return
    its header n and the tile ids of its members, one ``n*n``-byte row
    per member in file order."""
    with open(path, "rb") as fh:
        return _parse_pattern_file(fh.read())


def _parse_pattern_file(blob: bytes) -> tuple:
    """``_read_pattern_file`` on the bytes of a file.

    The body's complete records are viewed as one byte matrix, a record
    per row, so every length field, order and triple is checked in a few
    array passes.  The records before the first bad one sit at fixed
    offsets, so the first bad record is the first row with a wrong
    length field or not greater than the row before it, or else the
    first record the body cuts short; the record-by-record checks are
    then run on that record alone.  Trailing bytes come next, and the
    first row with a triple that names no canonical tile last."""
    if len(blob) < _BODY:
        raise CorruptPatternFile(len(blob), "truncated header")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptPatternFile(0, "bad magic")
    version, n, count = struct.unpack_from(">HIQ", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise PatternVersionMismatch(version)
    size = 3 * n * n
    if size >> 32:  # n is the header field after the magic and version
        msg = f"n={n}: a 3n^2-byte record overflows its length field"
        raise CorruptPatternFile(len(MAGIC) + 2, msg)
    width = 4 + size
    whole = min(count, (len(blob) - _BODY) // width)
    records = np.frombuffer(blob, np.uint8, whole * width, _BODY).reshape(whole, width)
    ids = _tile_ids(records[:, 4:].reshape(whole, n * n, 3))
    bad = (ids == EMPTY).any(axis=1)
    fault = (records[:, :4] != list(size.to_bytes(4, "big"))).any(axis=1)
    # Tile ids sort as their triples, so the id rows keep the members'
    # order once every triple is canonical.
    fault[1:] |= ~_increasing(records[:, 4:] if bad.any() else ids)
    first = int(fault.argmax()) if fault.any() else whole
    offset = _BODY + first * width
    if first < count:
        if offset + 4 > len(blob):
            raise CorruptPatternFile(offset, "truncated record length")
        (length,) = struct.unpack_from(">I", blob, offset)
        if length != size:
            raise CorruptPatternFile(offset, f"record length {length}, expected {size}")
        if offset + 4 + length > len(blob):
            raise CorruptPatternFile(offset + 4, "truncated record")
        raise CorruptPatternFile(offset, "records not in strictly increasing order")
    if offset != len(blob):
        raise CorruptPatternFile(offset, "trailing bytes")
    if bad.any():
        offset = _BODY + int(bad.argmax()) * width
        raise CorruptPatternFile(offset, "triple names no canonical tile")
    return n, ids


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
    every check ``load_pattern_set`` makes; no ``PatternSet`` is built."""
    n, ids = _read_pattern_file(path)
    return n, len(ids)
