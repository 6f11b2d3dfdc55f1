"""One facing per scan: the other facings' windows are its slabs turned.

``_window_scan`` cuts only the NE facing from each supertile.  Each
other facing is that facing turned, ``TURN^t[np.rot90(ids, t)]``, so
when the scan is resumed it adds the three turns of the new slabs of
the rank it yielded, and any facing's set is the NE set turned.  These
tests keep the scan that extracted the plain windows of all four
facings' strips into one set as the reference, and check the gather of
slabs, the keying of a slab class and the turn of each class on random
arrays."""

from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from test_cross_turn import _turn_table
from test_enumerator import _index_windows
from robinsonblocks import enumerator, supertile
from robinsonblocks.complexity import closed_form_A
from robinsonblocks.enumerator import (
    _CLASS_TURNS,
    _MirrorPairs,
    _add_classes,
    _column_slabs,
    _key_blocks,
    _pattern_set,
    _ranks,
    _scan_value,
    _turned_keys,
    _window_scan,
    count_stabilized,
    distinct_patterns,
    restricted_count,
)
from robinsonblocks.supertile import _MIRROR, _TURNS, _build_ids, _facing_ids
from robinsonblocks.tileset import ALL_TILES, BUMPY_IDS, IDENTITY, TURN, Pose

FACINGS = [Pose(r, False) for r in range(4)]
POSITIONS = ((1, 1), (1, 2), (2, 1), (2, 2))


def _plain_windows(ids, n):
    """The distinct n-by-n windows of ``ids`` alone, not of its mirror
    image, as row bytes: ``sliding_window_view`` over each distinct slab
    of n lines along the array's long axis, found by one ``np.unique``."""
    if min(ids.shape) < n:
        return set()
    tall = ids.shape[0] > ids.shape[1]
    lines = ids.T if tall else ids
    height = lines.shape[0]
    slabs = np.ascontiguousarray(sliding_window_view(lines, n, axis=1).transpose(1, 0, 2))
    slabs = np.unique(slabs.reshape(-1, height * n).view(np.dtype((np.void, height * n))))
    # windows[s, r, j, i] is cell (r + i, j) of slab s of ``lines``.
    windows = sliding_window_view(slabs.view(np.uint8).reshape(-1, height, n), n, axis=1)
    return set(map(bytes, (windows if tall else windows.transpose(0, 1, 3, 2)).reshape(-1, n * n)))


def _reference_cross_band(ids, n):
    """The windows of the whole grid ``ids`` that touch its central row
    or column: both strips cut from ``ids``."""
    s = ids.shape[0]
    c = (s - 1) // 2
    lo, hi = max(0, c - n + 1), min(c, s - n)
    return _plain_windows(ids[lo : hi + n, :], n) | _plain_windows(ids[:, lo : hi + n], n)


def _index_of(windows, n):
    """A ``_MirrorPairs`` index of the set ``windows`` and its mirror
    images, filled by hand: each window is looked at alone."""
    index = _MirrorPairs(n)
    for w in windows:
        m = _mirror(np.frombuffer(w, dtype=np.uint8).reshape(n, n)).tobytes()
        if w == m:
            index.selfmirror.add(w)
        else:
            index.pairs.add(min(w, m))
    return index


def _four_facing_scan(n, ranks, facing, memo=None):
    """The scan as it was before it turned slabs: every facing of every
    rank below the last is made whole and the plain windows of its
    strips added to one set, after the rank is yielded.  A facing's
    windows are its own: the NW and SE facings are each other's mirror
    images, not their own.  ``memo``, a dict, keeps each facing's
    windows by (n, first rank, rank, facing) for the next scan."""
    memo = {} if memo is None else memo
    windows = set()
    for k in ranks:
        extract = _plain_windows if k == ranks.start else _reference_cross_band
        for f in [facing.rotation] + [f for f in range(4) if f != facing.rotation]:
            key = n, ranks.start, k, f
            if key not in memo:
                memo[key] = extract(_facing_ids(k, f), n)
            windows |= memo[key]
            if f == facing.rotation:
                yield k, windows


def _turned_set(windows, n, turns):
    """The window set ``windows`` with each window turned on its own, as
    the supertile turned ``turns`` quarter turns turns its windows."""
    rows = np.frombuffer(b"".join(windows), dtype=np.uint8).reshape(-1, n, n)
    table = _turn_table(turns).tobytes().ljust(256, b"\0")
    turned = np.frombuffer(np.rot90(rows, turns, axes=(1, 2)).tobytes().translate(table), np.uint8)
    return set(turned.view(np.dtype((np.void, n * n))).tolist())


def _hits(windows, n, pos):
    """How many windows of a set have their bumpy-corner lattice start
    at ``pos``, read cell by cell from each window."""
    rows = np.frombuffer(b"".join(windows), dtype=np.uint8).reshape(-1, n, n)
    parity = np.arange(n) % 2
    want = (parity == pos[0] - 1)[:, None] & (parity == pos[1] - 1)[None, :]
    return int((BUMPY_IDS[rows] == want).all(axis=(1, 2)).sum())


@pytest.fixture(scope="module")
def facing_windows():
    """One memo of each facing's plain windows, rank by rank, for the
    four parametrisations of a test: each facing's windows are made
    once, not once a parametrisation."""
    return {}


@pytest.mark.parametrize("facing", FACINGS)
def test_each_rank_yields_the_four_facing_set(facing, facing_windows):
    # The scan yields the NE set at every rank; turned as the facing
    # turns the supertile, it is the facing's own set.
    for n in range(1, 17):
        _, ranks = _ranks(n, 11, facing)
        pairs = zip(_window_scan(n, ranks), _four_facing_scan(n, ranks, facing, facing_windows))
        for (k, windows), (k_ref, reference) in pairs:
            assert k == k_ref
            # Each mirror pair is keyed once, and yielded as both of its
            # windows: no window twice, and ``len`` the set's size.
            assert not windows.pairs & windows.selfmirror, (n, k)
            assert _turned_set(_index_windows(windows), n, facing.rotation) == reference, (n, k)


def test_a_self_mirror_window_is_keyed_once():
    # A window equal to its mirror image is its own pair: it is yielded
    # and counted once, however often it is keyed.  Its NE-SW diagonal
    # holds tiles the mirror keeps, and each other cell (i, j) the
    # mirror of cell (n - 1 - j, n - 1 - i).
    fixed = np.flatnonzero(_MIRROR[: len(ALL_TILES)] == np.arange(len(ALL_TILES)))
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        w = rng.integers(0, len(ALL_TILES), (n, n)).astype(np.uint8)
        w[np.arange(n), n - 1 - np.arange(n)] = rng.choice(fixed, n)
        below = np.add.outer(np.arange(n), np.arange(n)) > n - 1
        w[below] = _mirror(w)[below]
        assert np.array_equal(_mirror(w), w)
        index = _MirrorPairs(n)
        for _ in range(2):
            _key_blocks(w.T[None], index)  # the one column slab of w
            assert index.selfmirror == {w.tobytes()} and not index.pairs
            assert list(index) == [w.tobytes()] and len(index) == 1
        # A window that is not its own mirror image is a pair: two windows.
        v = w.copy()
        other = (t for t in range(len(ALL_TILES)) if _MIRROR[t] not in (t, v[n - 1, n - 1]))
        v[0, 0] = next(other)
        _key_blocks(v.T[None], index)
        assert _index_windows(index) == {w.tobytes(), v.tobytes(), _mirror(v).tobytes()}


@pytest.mark.parametrize("facing", FACINGS)
def test_restricted_counts_by_rank_match_the_four_facing_scan(facing):
    for n in range(2, 7):
        for pos in POSITIONS:
            value = _scan_value(n, pos, IDENTITY)  # on the facing's own set, not turned
            rep = count_stabilized(n, 9, facing, corner_pos=pos)
            reference = {k: value(w) for k, w in _four_facing_scan(n, _ranks(n, 9, facing)[1], facing)}
            assert all(count == reference[k] for k, count in rep.counts_by_rank), (n, pos)


@pytest.mark.parametrize("facing", FACINGS)
def test_readers_in_every_facing_match_the_four_facing_scan(facing):
    # ``distinct_patterns`` turns the NE windows it reads, and
    # ``restricted_count`` turns its bumpy mask back: each must give the
    # facing's own set and its own count, at every rank and position.
    for n in range(1, 9):
        positions = [pos for pos in POSITIONS if max(pos) <= n]
        for k, reference in _four_facing_scan(n, _ranks(n, 8, facing)[1], facing):
            assert distinct_patterns(n, k, facing) == _pattern_set(n, reference), (n, k)
            for pos in positions:
                assert restricted_count(n, pos, k, facing) == _hits(reference, n, pos), (n, k, pos)


@pytest.mark.parametrize("gather_bytes", [1, 100, enumerator._GATHER_BYTES])
def test_scan_value_turns_its_mask_back(gather_bytes):
    # The scan's offset classes have equal sizes in every facing, so the
    # mask's turn shows on made-up windows only: class i of these holds
    # i + 1 windows, bumpy exactly on the lattice of ``POSITIONS[i]``.
    # The mask reads a band of windows at a time: one window a band, a
    # few (each set's 10 windows split into 2 to 10 bands as n grows), or
    # all.
    rng = np.random.default_rng(2)
    bumpy, plain = np.flatnonzero(BUMPY_IDS), np.flatnonzero(~BUMPY_IDS)
    for n in range(2, 9):
        parity = np.arange(n) % 2
        windows = set()
        for i, (r, c) in enumerate(POSITIONS):
            mask = (parity == r - 1)[:, None] & (parity == c - 1)[None, :]
            for _ in range(i + 1):
                w = np.where(mask, rng.choice(bumpy, (n, n)), rng.choice(plain, (n, n)))
                windows.add(w.astype(np.uint8).tobytes())
        rows = np.frombuffer(b"".join(windows), dtype=np.uint8).reshape(-1, n * n)
        # The windows and their mirror images, keyed one pair at a time.
        index = _index_of(windows, n)
        for facing in FACINGS:
            turned = _turned_set(windows, n, facing.rotation)
            closed = _turned_set(_index_windows(index), n, facing.rotation)
            for pos in POSITIONS:
                with mock.patch.object(enumerator, "_GATHER_BYTES", gather_bytes):
                    value = _scan_value(n, pos, facing)
                    got = value(windows), value(rows)  # a scan's set, a cache file's rows
                    paired = value(index)  # a pair key read for both of its windows
                assert got == (_hits(turned, n, pos),) * 2, (n, pos)
                assert paired == _hits(closed, n, pos), (n, pos)


def test_turn_tables_have_order_four():
    identity = np.arange(256)
    assert np.array_equal(_TURNS[0], identity)
    for t in range(1, 4):
        assert np.array_equal(_TURNS[t], _TURNS[1][_TURNS[t - 1]])
        assert np.array_equal(_TURNS[t][: len(TURN)], _turn_table(t))
    assert np.array_equal(_TURNS[1][_TURNS[3]], identity)  # TURN^4, every byte


@pytest.mark.parametrize("rank", range(1, 9))
def test_turned_ne_build_is_each_facing(rank):
    # The scan's turned classes are the NE build's, turned by ``np.rot90``
    # and a 256-byte table.
    ne = _build_ids(rank)
    for t in range(4):
        turned = np.rot90(ne, t)
        cells = np.frombuffer(turned.tobytes().translate(_TURNS[t].tobytes()), dtype=np.uint8)
        assert np.array_equal(cells.reshape(turned.shape), _facing_ids(rank, t)), t


def _mirror(ids):
    """The mirror image of a tile-id array across its NE-SW diagonal."""
    return _MIRROR[ids[::-1, ::-1].T]


def _turn(ids, t):
    """A tile-id array turned ``t`` quarter turns, as a facing turns."""
    return _turn_table(t)[np.rot90(ids, t)]


@pytest.mark.parametrize("seed", range(4))
def test_class_turn_rows_are_the_turned_arrays_column_slabs(seed):
    # Row i of the table makes each column slab c of an array a the
    # column slab of T^2 a, M T a or M T^3 a that is T^2 c, M T c or
    # M T^3 c: c at start j is the slab at L - n - j of T^2 a and of
    # M T^3 a (L the width of a), and at j of M T a.
    rng = np.random.default_rng(seed)
    height, width = rng.integers(1, 20, 2)
    a = rng.integers(0, len(ALL_TILES), (height, width), dtype=np.uint8)
    n = int(rng.integers(1, min(height, width) + 1))
    images = (_turn(a, 2), _mirror(_turn(a, 1)), _mirror(_turn(a, 3)))
    for (lines, cells, table), image, flip in zip(_CLASS_TURNS, images, (True, False, True)):
        for j in range(width - n + 1):
            slab = a[:, j : j + n].T  # its n columns, each one line of cells
            got = np.frombuffer(slab[::lines, ::cells].tobytes().translate(table), np.uint8)
            start = width - n - j if flip else j
            assert np.array_equal(got, image[:, start : start + n].T.reshape(-1)), j


def test_a_facing_block_is_cut_from_its_grid():
    # The scan cuts its strips as views of the NE build, never copies:
    # each is the NE facing's block, read-only.  Every other facing is
    # one read-only grid, the NE one turned.
    rank, side = 6, 63
    ne = _build_ids(rank)
    assert _facing_ids(rank, 0) is ne
    for rows, cols in (
        (slice(25, 38), slice(None)),
        (slice(None), slice(25, 38)),
        (slice(0, 10), slice(40, 63)),
        (slice(31, 32), slice(0, side)),
    ):
        block = ne[rows, cols]
        assert np.shares_memory(block, ne) and not block.flags.writeable, (rows, cols)
        for f in range(1, 4):
            whole = _facing_ids(rank, f)
            assert not whole.flags.writeable
            assert np.array_equal(whole[rows, cols], _turn_table(f)[np.rot90(ne, f)][rows, cols])


pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def slab_cases(draw):
    """A random tile-id array, wide, tall or square, with n and the
    starts of some of its column slabs.  Its cells take four tile ids at
    most, so slabs and their turns often repeat."""
    height = draw(st.integers(1, 12))
    width = draw(st.sampled_from([height, draw(st.integers(1, 12))]))
    cells = draw(st.lists(st.integers(0, 3), min_size=height * width, max_size=height * width))
    tiles = draw(st.lists(st.integers(0, len(ALL_TILES) - 1), min_size=4, max_size=4))
    ids = np.array(tiles, dtype=np.uint8)[np.array(cells).reshape(height, width)]
    n = draw(st.integers(1, min(height, width)))
    starts = draw(st.lists(st.integers(0, width - n), min_size=1, unique=True))
    return ids, n, starts


@st.composite
def viewed_slab_cases(draw):
    """A tile-id array as the scan may cut it: a random array seen
    whole, transposed, cut to a block, reversed or every other row, or a
    cross strip of an NE supertile (a read-only view of the memoised
    build); with n, the orientation of its slabs and some of their
    starts."""
    kind = draw(st.sampled_from(["whole", "T", "block", "reversed", "step", "ne-rows", "ne-cols"]))
    if kind.startswith("ne"):
        rank = draw(st.integers(2, 6))
        side = (1 << rank) - 1
        c = side // 2
        width = draw(st.integers(1, side))
        band = slice(max(0, c - width + 1), min(c, side - width) + width)
        ids = _build_ids(rank)[band] if kind == "ne-rows" else _build_ids(rank)[:, band]
    else:
        height, width = draw(st.integers(2, 14)), draw(st.integers(2, 14))
        cells = draw(st.lists(st.integers(0, 3), min_size=height * width, max_size=height * width))
        base = np.array(cells, dtype=np.uint8).reshape(height, width)
        ids = {
            "whole": base,
            "T": base.T,
            "block": base[1:, 1:],
            "reversed": base[::-1, ::-1],
            "step": base[::2],
        }[kind]
    n = draw(st.integers(1, min(ids.shape)))
    by_columns = draw(st.booleans())
    starts = draw(st.lists(st.integers(0, ids.shape[by_columns] - n), min_size=1, unique=True))
    return ids, n, by_columns, starts


def _blocks(ids, n, by_columns, starts):
    """The slabs of ``ids`` at ``starts`` as one ``(slabs, n, cells)``
    array of each slab's n lines: the column slabs of ``ids`` if
    ``by_columns``, else those of ``ids.T``, as ``_key_blocks`` takes
    them."""
    lines = ids.T if by_columns else ids
    return lines[np.add.outer(starts, np.arange(n))]


def _gathered_by_sliding_window_view(ids, n, starts, by_columns):
    """The windows of the slabs of ``ids`` at ``starts``, gathered as
    the scan once gathered them through ``sliding_window_view``."""
    if by_columns:
        view, stride = sliding_window_view(ids, n, axis=1).transpose(1, 0, 2), n
    else:
        view, stride = sliding_window_view(ids, (n, n)), n * n
    band = np.ascontiguousarray(view[starts])
    per_slab = ids.shape[not by_columns] - n + 1
    keys = np.ndarray(
        (band.shape[0], per_slab),
        dtype=np.dtype((np.void, n * n)),
        buffer=band,
        strides=(band.strides[0], stride),
    )
    return {key.tobytes() for key in keys.reshape(-1)}


@settings(max_examples=200, deadline=None)
@given(
    viewed_slab_cases(),
    st.sampled_from([1, 7, 64, enumerator._GATHER_BYTES]),
    st.sampled_from(["copy", "read-only", "reversed"]),
)
def test_key_blocks_keys_what_sliding_window_view_gathers(case, gather_bytes, layout):
    # The blocks are column slabs of ``a``, ``ids`` or its transpose, and
    # their mirror images the row slabs of ``a``'s mirror image, whose
    # starts count from the other end: both layouts are keyed.
    ids, n, by_columns, starts = case
    blocks = _blocks(ids, n, by_columns, starts)
    if layout == "read-only":  # as the scan hands them over, from ``np.frombuffer``
        blocks = np.frombuffer(blocks.tobytes(), dtype=np.uint8).reshape(blocks.shape)
    elif layout == "reversed":  # a strided view: the same slabs, last first
        blocks = blocks[::-1]
    windows = _MirrorPairs(n)
    with mock.patch.object(enumerator, "_GATHER_BYTES", gather_bytes):  # one slab a band, or more
        _key_blocks(blocks, windows)
        keyed = _index_windows(windows)  # the mirror images made a band at a time
    a = ids if by_columns else ids.T
    mirrored = [a.shape[1] - n - j for j in starts]
    columns = _gathered_by_sliding_window_view(a, n, starts, True)
    assert keyed == columns | _gathered_by_sliding_window_view(_mirror(a), n, mirrored, False)


def _slab_windows(ids, n, by_columns, starts):
    """The n-by-n windows, as arrays, of the slabs of ``ids`` at ``starts``."""
    windows = sliding_window_view(ids, (n, n))
    return [w for i in starts for w in (windows[:, i] if by_columns else windows[i])]


def _class_windows(ids, n, starts, turns):
    """The windows of the slab classes of ``ids`` at ``starts``, each
    turned on its own ``t`` times for each t in ``turns``, as row bytes:
    those of its column slabs at ``starts`` and of its mirror image's
    row slabs, whose starts count from the other end."""
    width = ids.shape[1]
    windows = _slab_windows(ids, n, True, starts)
    windows += _slab_windows(_mirror(ids), n, False, [width - n - j for j in starts])
    return {_turn(w, t).tobytes() for t in turns for w in windows}


@settings(max_examples=100, deadline=None)
@given(slab_cases())
def test_add_classes_keys_each_slab_and_its_mirror_image(case):
    # A column slab c and its mirror image M(c), a row slab of the
    # array's mirror image, are one class, keyed by c: the windows of
    # both are keyed the first time c is met, and c is handed back once.
    ids, n, starts = case
    slabs = np.ascontiguousarray(_blocks(ids, n, True, starts))
    keys = slabs.reshape(len(starts), -1).view(np.dtype((np.void, slabs[0].size))).reshape(-1)
    windows, slabs = _MirrorPairs(n), set()
    blocks = _add_classes(keys, n, windows, slabs)
    assert sorted(b.tobytes() for b in blocks) == sorted(set(keys.tolist())) == sorted(slabs)
    assert _index_windows(windows) == _class_windows(ids, n, starts, (0,))
    again = _MirrorPairs(n)
    assert len(_add_classes(keys, n, again, set(slabs))) == 0 and not again


@settings(max_examples=100, deadline=None)
@given(slab_cases())
def test_turned_class_keys_are_the_turned_arrays_class_keys(case):
    # The three turned classes of each column slab c of an array a are
    # the classes of the column slabs of T^2 a, M T a and M T^3 a: the
    # classes the scan keys for those arrays, whose windows are those of
    # the three turns of a and of its mirror image.
    ids, n, _ = case
    slabs = set()
    blocks = _add_classes(_column_slabs(ids, n), n, _MirrorPairs(n), slabs)  # every class, once
    assert len(blocks) == len(slabs)
    windows, turned = _MirrorPairs(n), set()
    _add_classes(_turned_keys(blocks), n, windows, turned)
    reference, reference_slabs = _MirrorPairs(n), set()
    for image in (_turn(ids, 2), _mirror(_turn(ids, 1)), _mirror(_turn(ids, 3))):
        _add_classes(_column_slabs(image, n), n, reference, reference_slabs)
    assert turned == reference_slabs
    every = range(ids.shape[1] - n + 1)
    expected = _class_windows(ids, n, every, (1, 2, 3))
    assert _index_windows(windows) == _index_windows(reference) == expected


@settings(max_examples=100, deadline=None)
@given(slab_cases())
def test_turned_keys_add_the_turned_windows(case):
    # Through the resume step itself: the three turned classes of the
    # classes a cut met first, each skipped if its key was met (another
    # turn of one of them), and keyed otherwise.
    ids, n, starts = case
    windows = _MirrorPairs(n)
    _add_classes(_turned_keys(_blocks(ids, n, True, starts)), n, windows, set())
    assert _index_windows(windows) == _class_windows(ids, n, starts, (1, 2, 3))


@pytest.mark.parametrize("n", (1, 2, 5, 16))
def test_scan_turns_each_cut_class_once_a_rank_later(n, monkeypatch):
    # The classes a cut meets first are turned once, when the scan is
    # resumed past their rank, and never again; the classes of the last
    # rank are never turned, even when the scan runs out.
    added, turned = [], []
    add_classes, turned_keys = enumerator._add_classes, enumerator._turned_keys

    def recording_add(keys, n, windows, slabs):
        blocks = add_classes(keys, n, windows, slabs)
        added.append(blocks)
        return blocks

    def recording_turn(blocks):
        turned.append(blocks)
        return turned_keys(blocks)

    monkeypatch.setattr(enumerator, "_add_classes", recording_add)
    monkeypatch.setattr(enumerator, "_turned_keys", recording_turn)
    ranks = _ranks(n, 9, IDENTITY)[1]
    for i, (k, _) in enumerate(_window_scan(n, ranks)):
        # Each rank keys the turned classes, then the cut's.
        assert len(turned) == i + 1 and len(added) == 2 * (i + 1), k
        assert all(t is c for t, c in zip(turned[1:], added[1::2])), k
    assert len(turned[0]) == 0  # nothing is met before the first cut
    assert len(turned) == len(ranks) and sum(map(len, added[1::2])) > 0


@pytest.mark.slow
def test_the_plateau_holds_through_rank_13(monkeypatch):
    # One facing per rank keeps rank 13 cheap: the scan cuts one strip
    # of the NE build and turns only its new slab classes.  The memo is the
    # test's own, so the rank-13 grid is let go afterwards.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    for n in range(2, 9):
        counts = {k: len(w) for k, w in _window_scan(n, _ranks(n, 13, IDENTITY)[1])}
        plateau = count_stabilized(n, 13).rank_used - 1
        assert all(counts[k] == closed_form_A(n) for k in range(plateau, 14)), (n, counts)


@pytest.mark.slow
def test_the_oracle_meets_the_formula_at_n_48(monkeypatch):
    # Each mirror pair of windows is keyed once, so the n = 48 scan
    # through rank 12 holds half its windows' bytes (about 220 MB peak
    # in a fresh process).  The memo is the test's own, so the rank-12
    # grid is let go afterwards.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    report = count_stabilized(48, 12)
    assert report.stabilized and report.count == closed_form_A(48)
