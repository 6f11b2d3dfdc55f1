"""One facing per scan: the other facings' windows are its slabs turned.

``_window_scan`` cuts only the NE facing from each supertile.  Each
other facing is that facing turned, ``TURN^t[np.rot90(ids, t)]``, so
when the scan is resumed it adds the three turns of the new slabs of
the rank it yielded, and any facing's set is the NE set turned.  These
tests keep the scan that extracted all four facings' strips into one
index as the reference, and check the gather of slabs and the turn of
each slab on random arrays."""

from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from test_cross_turn import _turn_table
from robinsonblocks import enumerator, supertile
from robinsonblocks.complexity import closed_form_A
from robinsonblocks.enumerator import (
    _TURN_BYTES,
    _WindowIndex,
    _add_turned_slabs,
    _key_blocks,
    _pattern_set,
    _ranks,
    _scan_value,
    _unique_windows,
    _window_scan,
    count_stabilized,
    distinct_patterns,
    restricted_count,
)
from robinsonblocks.supertile import _build_ids, _facing_ids
from robinsonblocks.tileset import ALL_TILES, BUMPY_IDS, IDENTITY, TURN, Pose

FACINGS = [Pose(r, False) for r in range(4)]
POSITIONS = ((1, 1), (1, 2), (2, 1), (2, 2))


def _reference_cross_band(ids, n, index):
    """The windows of the whole grid ``ids`` that touch its central row
    or column, added to ``index``: both strips cut from ``ids``."""
    s = ids.shape[0]
    c = (s - 1) // 2
    lo, hi = max(0, c - n + 1), min(c, s - n)
    _unique_windows(ids[lo : hi + n, :], n, index)
    return _unique_windows(ids[:, lo : hi + n], n, index)


def _four_facing_scan(n, ranks, facing):
    """The scan as it was before it turned slabs: every facing of every
    rank below the last is made whole and its strips extracted into one
    index, after the rank is yielded."""
    index = _WindowIndex()
    for k in ranks:
        extract = _unique_windows if k == ranks.start else _reference_cross_band
        yield k, extract(_facing_ids(k, facing.rotation), n, index)
        for f in range(4):
            if f != facing.rotation:
                extract(_facing_ids(k, f), n, index)


def _turned_set(windows, n, turns):
    """The window set ``windows`` with each window turned on its own, as
    the supertile turned ``turns`` quarter turns turns its windows."""
    rows = np.frombuffer(b"".join(windows), dtype=np.uint8).reshape(-1, n, n)
    return {w.tobytes() for w in _turn_table(turns)[np.rot90(rows, turns, axes=(1, 2))]}


def _hits(windows, n, pos):
    """How many windows of a set have their bumpy-corner lattice start
    at ``pos``, read cell by cell from each window."""
    rows = np.frombuffer(b"".join(windows), dtype=np.uint8).reshape(-1, n, n)
    parity = np.arange(n) % 2
    want = (parity == pos[0] - 1)[:, None] & (parity == pos[1] - 1)[None, :]
    return int((BUMPY_IDS[rows] == want).all(axis=(1, 2)).sum())


@pytest.mark.parametrize("facing", FACINGS)
def test_each_rank_yields_the_four_facing_set(facing):
    # The scan yields the NE set at every rank; turned as the facing
    # turns the supertile, it is the facing's own set.
    for n in range(1, 17):
        _, ranks = _ranks(n, 11, facing)
        pairs = zip(_window_scan(n, ranks), _four_facing_scan(n, ranks, facing))
        for (k, windows), (k_ref, reference) in pairs:
            assert k == k_ref
            assert _turned_set(windows, n, facing.rotation) == reference, (n, k)


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


def test_scan_value_turns_its_mask_back():
    # The scan's offset classes have equal sizes in every facing, so the
    # mask's turn shows on made-up windows only: class i of these holds
    # i + 1 windows, bumpy exactly on the lattice of ``POSITIONS[i]``.
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
        for facing in FACINGS:
            turned = _turned_set(windows, n, facing.rotation)
            for pos in POSITIONS:
                assert _scan_value(n, pos, facing)(windows) == _hits(turned, n, pos), (n, pos)


def test_turn_tables_have_order_four():
    identity = bytes(range(256))
    assert _TURN_BYTES[0] == identity
    for t in range(1, 4):
        assert _TURN_BYTES[t] == _TURN_BYTES[t - 1].translate(_TURN_BYTES[1])
        assert np.array_equal(np.frombuffer(_TURN_BYTES[t], np.uint8)[: len(TURN)], _turn_table(t))
    assert _TURN_BYTES[3].translate(_TURN_BYTES[1]) == identity  # TURN^4, every byte


@pytest.mark.parametrize("rank", range(1, 9))
def test_turned_ne_build_is_each_facing(rank):
    # The scan turns its slabs by ``np.rot90`` and ``_TURN_BYTES``.
    ne = _build_ids(rank)
    for t in range(4):
        turned = np.rot90(ne, t)
        cells = np.frombuffer(turned.tobytes().translate(_TURN_BYTES[t]), dtype=np.uint8)
        assert np.array_equal(cells.reshape(turned.shape), _facing_ids(rank, t)), t


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
    """A random tile-id array, wide, tall or square, with n, the
    orientation of its slabs and some of their starts.  Its cells take
    four tile ids at most, so slabs and their turns often repeat."""
    height = draw(st.integers(1, 12))
    width = draw(st.sampled_from([height, draw(st.integers(1, 12))]))
    cells = draw(st.lists(st.integers(0, 3), min_size=height * width, max_size=height * width))
    tiles = draw(st.lists(st.integers(0, len(ALL_TILES) - 1), min_size=4, max_size=4))
    ids = np.array(tiles, dtype=np.uint8)[np.array(cells).reshape(height, width)]
    n = draw(st.integers(1, min(height, width)))
    by_columns = draw(st.booleans())
    length = ids.shape[by_columns]
    starts = draw(st.lists(st.integers(0, length - n), min_size=1, unique=True))
    return ids, n, by_columns, starts


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
    """The slabs of ``ids`` at ``starts`` as ``_key_blocks`` takes them:
    one ``(slabs, n, cells)`` array of each slab's n lines."""
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
    ids, n, by_columns, starts = case
    blocks = _blocks(ids, n, by_columns, starts)
    if layout == "read-only":  # as the scan hands them over, from ``np.frombuffer``
        blocks = np.frombuffer(blocks.tobytes(), dtype=np.uint8).reshape(blocks.shape)
    elif layout == "reversed":  # a strided view: the same slabs, last first
        blocks = blocks[::-1]
    index = _WindowIndex()
    with mock.patch.object(enumerator, "_GATHER_BYTES", gather_bytes):  # one slab a band, or more
        _key_blocks(blocks, by_columns, index)
    assert index.windows == _gathered_by_sliding_window_view(ids, n, starts, by_columns)


def _slab_windows(ids, n, by_columns, starts):
    """The n-by-n windows, as arrays, of the slabs of ``ids`` at ``starts``."""
    windows = sliding_window_view(ids, (n, n))
    return [w for i in starts for w in (windows[:, i] if by_columns else windows[i])]


def _turned_windows(ids, n, by_columns, starts, turns):
    """Each window of those slabs turned on its own, as row bytes."""
    return {
        _turn_table(t)[np.rot90(w, t)].tobytes()
        for t in turns
        for w in _slab_windows(ids, n, by_columns, starts)
    }


@settings(max_examples=100, deadline=None)
@given(slab_cases().filter(lambda case: case[0].shape[0] != case[0].shape[1]))
def test_turned_block_keys_are_the_turned_arrays_slab_keys(case):
    # ``_unique_windows`` keys a non-square array's slabs along its long
    # axis, so the turned array's slabs are keyed in the turned
    # orientation: row slabs at odd turns of a wide array, and so on.
    ids, n, _, _ = case
    by_columns = ids.shape[1] > ids.shape[0]
    index = _WindowIndex()
    _unique_windows(ids, n, index)
    (blocks, grown_by_columns), = index.grown  # every slab, once
    assert grown_by_columns == by_columns
    index.slabs[by_columns].clear()
    _add_turned_slabs(index, n)
    reference = _WindowIndex()
    for t in (1, 2, 3):
        _unique_windows(_turn_table(t)[np.rot90(ids, t)], n, reference)
    assert index.slabs == reference.slabs


@settings(max_examples=100, deadline=None)
@given(slab_cases())
def test_add_turned_slabs_adds_the_turned_windows(case):
    # Through the resume step itself: the three turns of the slabs on
    # ``grown``, each skipped if its key was met (another turn of one of
    # them), and keyed otherwise.
    ids, n, by_columns, starts = case
    index = _WindowIndex()
    index.grown.append((_blocks(ids, n, by_columns, starts), by_columns))
    _add_turned_slabs(index, n)
    assert index.grown == []
    assert index.windows == _turned_windows(ids, n, by_columns, starts, (1, 2, 3))


@pytest.mark.slow
def test_the_plateau_holds_through_rank_13(monkeypatch):
    # One facing per rank keeps rank 13 cheap: the scan cuts two strips
    # of the NE build and turns only its new slabs.  The memo is the
    # test's own, so the rank-13 grid is let go afterwards.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    for n in range(2, 9):
        counts = {k: len(w) for k, w in _window_scan(n, _ranks(n, 13, IDENTITY)[1])}
        plateau = count_stabilized(n, 13).rank_used - 1
        assert all(counts[k] == closed_form_A(n) for k in range(plateau, 14)), (n, counts)
