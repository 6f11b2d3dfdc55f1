"""Brute-force oracle tests: window dedup, stabilization, restricted
counts, and the cache file format."""

import contextlib
import io
import itertools
import os
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from robinsonblocks.cli import main
from robinsonblocks.complexity import RecurrenceTable, closed_form_A
from robinsonblocks.enumerator import (
    BlockTooLarge,
    CorruptPatternFile,
    FORMAT_VERSION,
    MAGIC,
    Pattern,
    PatternSet,
    PatternVersionMismatch,
    canonical_encode,
    count_report_csv,
    count_stabilized,
    distinct_patterns,
    inspect_pattern_file,
    load_pattern_set,
    restricted_count,
    save_pattern_set,
)
from robinsonblocks import supertile
from robinsonblocks import enumerator
from robinsonblocks.enumerator import (
    _BODY,
    _GATHER_BYTES,
    _MirrorPairs,
    _add_classes,
    _column_slabs,
    _pattern_set,
    _scan_value,
)
from robinsonblocks.supertile import Pose, TileGrid, build
from robinsonblocks.tileset import ALL_TILES, BUMPY_IDS, IDENTITY, OrientedTile, Prototile

FACINGS = [Pose(r, False) for r in range(4)]
POSITIONS = ((1, 1), (1, 2), (2, 1), (2, 2))


def test_small_grid_window_bound():
    # A 3x3 grid has only four 2x2 windows.
    assert distinct_patterns(2, 2).count <= 4


def test_block_too_large():
    with pytest.raises(BlockTooLarge):
        distinct_patterns(4, 2)
    with pytest.raises(BlockTooLarge):
        count_stabilized(8, 2)


def test_stabilized_counts_match_closed_form():
    assert count_stabilized(2, 11).count == 224
    assert count_stabilized(3, 11).count == 528
    rep5 = count_stabilized(5, 11)
    assert rep5.stabilized and rep5.count == 1472 == closed_form_A(5)


def test_stabilized_counts_past_16_match_both_formulas():
    table = RecurrenceTable()
    for n in range(17, 25):
        rep = count_stabilized(n, 12)
        assert rep.stabilized
        assert rep.count == closed_form_A(n) == table.A(n), n


def test_counts_by_rank_non_decreasing():
    for n in (2, 3, 4, 6):
        rep = count_stabilized(n, 9)
        counts = [c for _, c in rep.counts_by_rank]
        assert counts == sorted(counts)


def test_incremental_counts_equal_plain_extraction():
    # Every rank the scan reports, against every window of the full grid.
    for facing in FACINGS:
        for n in (2, 3, 5):
            full = {}
            rep = count_stabilized(n, 8, facing)
            for rank, count in rep.counts_by_rank:
                full[rank] = _plain_windows(supertile._facing_ids(rank, facing.rotation), n)
                assert count == len(full[rank])
                assert distinct_patterns(n, rank, facing) == _pattern_set(n, full[rank])
            for pos in POSITIONS:
                rep = count_stabilized(n, 8, facing, corner_pos=pos)
                for rank, count in rep.counts_by_rank:
                    expected = _scan_value(n, pos, FACINGS[0])(full[rank])  # the facing's own set
                    assert count == restricted_count(n, pos, rank, facing) == expected


def _reference_rows(ids, n):
    """Distinct n-by-n windows of ``ids`` by an independent method: one
    sort over every window row at once, no bands, no sets."""
    rows = np.ascontiguousarray(sliding_window_view(ids, (n, n)).reshape(-1, n * n))
    keys = rows.view(np.dtype((np.void, n * n))).reshape(-1)
    return np.unique(keys).view(np.uint8).reshape(-1, n * n)


def _plain_windows(ids, n):
    """The distinct n-by-n windows of ``ids`` alone, as row bytes."""
    return {row.tobytes() for row in _reference_rows(ids, n)}


def _mirror(ids):
    """The mirror image of a tile-id array across its NE-SW diagonal."""
    return supertile._MIRROR[ids[::-1, ::-1].T]


def _index_windows(index):
    """The windows a ``_MirrorPairs`` index yields, as a set, once it is
    checked that it yields no window twice and that its length counts
    each window once."""
    windows = list(index)
    assert len(windows) == len(set(windows)) == len(index)
    return set(windows)


def _kernel(ids, n, windows=None, slabs=None):
    """Key the slab classes of the column slabs of ``ids`` as the scan
    keys a cut strip's, into the index ``windows`` and the set ``slabs``
    (fresh ones by default), and return the windows the index yields."""
    windows = _MirrorPairs(n) if windows is None else windows
    _add_classes(_column_slabs(ids, n), n, windows, set() if slabs is None else slabs)
    return _index_windows(windows)


def _kernel_reference(ids, n):
    """What ``_kernel`` yields for ``ids``: the plain windows of the
    array and of its mirror image."""
    return _plain_windows(ids, n) | _plain_windows(_mirror(ids), n)


def _count_keyed_slabs(monkeypatch):
    """Record the shape ``(slabs, n, cells)`` of each block of slab
    classes the kernel hands ``_key_blocks`` from now on."""
    shapes = []
    real = enumerator._key_blocks

    def counting(blocks, windows):
        shapes.append(blocks.shape)
        return real(blocks, windows)

    monkeypatch.setattr(enumerator, "_key_blocks", counting)
    return shapes


def _gather_bands(shape):
    """The gather bands ``_key_blocks`` cuts a block of slab classes of
    that shape into, the column slabs with their mirror images: each
    band holds as many slabs as fit their windows in ``_GATHER_BYTES``."""
    slabs, n, cells = shape
    return -(-slabs // max(1, _GATHER_BYTES // ((cells - n + 1) * n * n)))


def test_dedup_kernel_matches_a_sort_over_all_windows(monkeypatch):
    triples = np.array(
        [[t.prototile, t.pose.rotation, int(t.pose.mirror)] for t in ALL_TILES], dtype=np.uint8
    )
    ids = build(9).ids
    for n in (2, 3):
        shapes = _count_keyed_slabs(monkeypatch)
        rows = _reference_rows(ids, n)
        index = _MirrorPairs(n)
        windows = _kernel(ids, n, index)
        # The NE supertile is its own mirror image: its windows alone.
        assert windows == {row.tobytes() for row in rows} == _kernel_reference(ids, n)
        assert sum(map(_gather_bands, shapes)) > 1  # a gather band boundary is crossed
        expected = sorted(triples[row].tobytes() for row in rows)
        assert _pattern_set(n, index).members() == expected
    # Nearly every window of random ids is distinct, so a window lost at
    # any band boundary, or at either edge of the array or its mirror
    # image, shows.  Every array, wide, tall, square or a strided view,
    # is cut into column slabs, keyed with their mirror images as one
    # block of classes; for the tall and the wide one the slabs and
    # their mirror images each cross at least two band boundaries.
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        slabs = 2 * _GATHER_BYTES // (40 * n) + 7
        tall = rng.integers(0, len(ALL_TILES), (2 * _GATHER_BYTES // (40 * n * n) + 7, 40))
        wide = rng.integers(0, len(ALL_TILES), (40, slabs + n - 1))
        square = rng.integers(0, len(ALL_TILES), (300, 300))
        for noise in (tall, wide, square, square[::-1, 1::2], wide.T[::2]):
            noise = noise.astype(np.uint8)
            shapes = _count_keyed_slabs(monkeypatch)
            assert _kernel(noise, n) == _kernel_reference(noise, n)
            assert len(shapes) == 1
            if noise is tall or noise is wide:
                assert min(map(_gather_bands, shapes)) >= 3


def test_dedup_kernel_on_a_non_contiguous_cross_strip():
    # The strip of columns of the NE supertile is the mirror image of
    # its strip of rows, so either strip gives the whole cross band.
    n = 3
    ids = build(9).ids
    c = (ids.shape[0] - 1) // 2
    strip = ids[:, c - n + 1 : c + n]
    assert not strip.flags.c_contiguous
    rows = ids[c - n + 1 : c + n]
    assert np.array_equal(_mirror(strip), rows)
    expected = _plain_windows(strip, n) | _plain_windows(rows, n)
    assert _kernel(strip, n) == _kernel(rows, n) == expected


def test_slab_set_keys_a_class_by_its_whole_column_slab():
    # A slab class is keyed by the bytes of its column slab, which are
    # the slab itself: whichever array a slab is cut from, its class is
    # keyed once, and an array and its transpose fed into one window set
    # and slab set give the windows of both and of their mirror images.
    rng = np.random.default_rng(1)
    for shape in ((3, 40), (40, 3), (12, 12), (5, 6)):
        a = rng.integers(0, 3, shape, dtype=np.uint8)  # few values, many repeated slabs
        for n in (1, 2, 3):
            windows, slabs = _MirrorPairs(n), set()
            _kernel(a, n, windows, slabs)
            assert _index_windows(windows) == _kernel_reference(a, n)
            _kernel(a.T, n, windows, slabs)
            assert _index_windows(windows) == _kernel_reference(a, n) | _kernel_reference(a.T, n)
    # Every column of the 2x8 array is a prefix of a column of the 3x9
    # one, so only keys of whole lines keep the 3x9 array's slabs apart.
    short = np.zeros((2, 8), dtype=np.uint8)
    long = np.zeros((3, 9), dtype=np.uint8)
    long[-1] = 1
    windows, slabs = _MirrorPairs(2), set()
    _kernel(short, 2, windows, slabs)
    expected = {bytes(4), bytes([0, 0, 1, 1])} | _kernel_reference(long, 2)
    assert _kernel(long, 2, windows, slabs) == expected


def test_slab_set_keys_a_strip_once(monkeypatch):
    ids = build(9).ids
    c = (ids.shape[0] - 1) // 2
    for n in (2, 5):
        for strip in (ids[c - n + 1 : c + n, :], ids[:, c - n + 1 : c + n]):
            windows, slabs = _MirrorPairs(n), set()
            first = set(_kernel(strip, n, windows, slabs))
            assert first == _kernel_reference(strip, n)
            shapes = _count_keyed_slabs(monkeypatch)
            assert _kernel(strip, n, windows, slabs) == first
            # Every class was met: none is handed over, so no window is keyed again.
            assert sum(slabs for slabs, _, _ in shapes) == 0
            monkeypatch.undo()


def test_scan_meets_10n_plus_44p_slab_classes(monkeypatch):
    # When ``count_stabilized(n, 12)`` stops, the scan has met exactly
    # 10n + 44p slab classes, p = 2^floor(log2(n - 1)) the power of two
    # with p < n <= 2p: no class is keyed more or fewer than the law
    # says.  The set is read where every class is checked against it.
    met = []
    real = enumerator._new_blocks

    def recording(keys, n, slabs):
        met.append(slabs)
        return real(keys, n, slabs)

    monkeypatch.setattr(enumerator, "_new_blocks", recording)
    for n in range(2, 33):
        met.clear()
        assert count_stabilized(n, 12).stabilized
        p = 1 << ((n - 1).bit_length() - 1)
        assert len({id(slabs) for slabs in met}) == 1, n  # one set per scan
        assert len(met[-1]) == 10 * n + 44 * p, n


def test_first_rank_cross_band_is_the_whole_grid(monkeypatch):
    # At the scan's first rank, k = n.bit_length(), the quadrant side
    # 2^(k-1) - 1 is below n, so every window touches the central cross:
    # the strip of rows is the whole NE supertile.  Every rank cuts one
    # view of its NE build, that strip of at most 2n - 1 rows; the strip
    # of columns is its mirror image and is never cut.
    grids, cut = {}, []

    def build_ids(rank):
        s = (1 << rank) - 1
        return grids.setdefault(rank, np.zeros((s, s), dtype=np.uint8))

    def spy(ids, n):
        cut.append(ids)
        return np.empty(0, np.dtype((np.void, n * n)))  # no slab, so nothing keyed

    monkeypatch.setattr(enumerator, "_build_ids", build_ids)
    monkeypatch.setattr(enumerator, "_column_slabs", spy)
    for n in range(1, 129):
        k = n.bit_length()
        assert (1 << (k - 1)) - 1 < n
        cut.clear()
        scan = enumerator._window_scan(n, range(k, k + 2))
        assert next(scan)[0] == k
        (whole,) = cut
        assert whole.shape == grids[k].shape and whole.base is grids[k], n
        assert np.shares_memory(whole, grids[k][0]) and np.shares_memory(whole, grids[k][-1]), n
        assert next(scan)[0] == k + 1
        s = (1 << (k + 1)) - 1
        c = s // 2
        _, rows = cut
        assert rows.shape == (2 * n - 1, s) and rows.base is grids[k + 1], n
        assert np.shares_memory(rows, grids[k + 1][c - n + 1]), n
        assert np.shares_memory(rows, grids[k + 1][c + n - 1]), n


def test_slab_set_on_full_grids():
    # Feeding all four facings of a rank into one window set gives the union
    # of their sets and their mirror images' sets.  The mirror keeps the
    # NE and SW facings and swaps the NW and SE ones, so the union of
    # the four is the union of their own sets.
    for n in (2, 4):
        windows, slabs, expected = _MirrorPairs(n), set(), set()
        for f in range(4):
            ids = supertile._facing_ids(6, f)
            expected |= _kernel_reference(ids, n)
            _kernel(ids, n, windows, slabs)
            assert _index_windows(windows) == expected
        own = [_plain_windows(supertile._facing_ids(6, f), n) for f in range(4)]
        assert expected == set().union(*own)


@pytest.mark.parametrize("facing", FACINGS)
@pytest.mark.parametrize("pos", [None, *POSITIONS])
def test_scan_never_builds_the_other_facings_of_its_last_rank(facing, pos, monkeypatch):
    # The scan cuts the NE build only, at every rank, whatever the facing:
    # the other facings' windows are its own slabs turned, and the facing
    # asked for is applied where a set is read.  No non-NE grid is made,
    # and the plateau rank is the largest rank probed, so nothing above
    # it is asked for or built.
    asked = []
    build_ids = enumerator._build_ids

    def spy(rank):
        asked.append(rank)
        return build_ids(rank)

    def facing_spy(rank, f):
        raise AssertionError(f"the rank-{rank} grid of facing {f} was made")

    monkeypatch.setattr(enumerator, "_build_ids", spy)
    for module in (supertile, enumerator):
        monkeypatch.setattr(module, "_facing_ids", facing_spy, raising=False)
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    rep = count_stabilized(8, 11, facing, corner_pos=pos)
    assert rep.stabilized
    _check_ranks_asked(asked, rep)
    # The one-rank readers take the scan's set at their rank and stop there.
    asked.clear()
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    if pos is None:
        distinct_patterns(8, rep.rank_used, facing)
    else:
        restricted_count(8, pos, rep.rank_used, facing)
    _check_ranks_asked(asked, rep)


def _check_ranks_asked(asked, rep):
    """The ranks the scan behind ``rep`` ``asked`` for must name every
    probed rank and nothing above ``rep.rank_used``, which is also the
    largest rank built."""
    assert set(asked) == {k for k, _ in rep.counts_by_rank}
    assert max(supertile._BUILD_MEMO) == rep.rank_used


def test_mirrored_facing_is_rejected(tmp_path):
    # The facing is checked before the position and before any cache
    # directory is made.
    mirrored = Pose(1, True)
    for call in (
        lambda: distinct_patterns(2, 3, mirrored),
        lambda: restricted_count(2, (1, 1), 3, mirrored),
        lambda: restricted_count(2, (3, 1), 3, mirrored),
        lambda: count_stabilized(2, 5, mirrored),
        lambda: count_stabilized(2, 5, mirrored, corner_pos=(1, 1)),
        lambda: count_stabilized(2, 5, mirrored, corner_pos=(3, 1)),
        lambda: count_stabilized(2, 5, mirrored, cache=tmp_path / "c"),
    ):
        with pytest.raises(ValueError, match="restricted to the 4 rotations"):
            call()
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: count_stabilized(4, 11.0), "rank must be an integer, got 11.0"),
        (lambda: count_stabilized(4.0, 11), "block side must be an integer, got 4.0"),
        (lambda: count_stabilized(True, 5), "block side must be an integer, got True"),
        (lambda: count_stabilized("4", 11), "block side must be an integer, got '4'"),
        (lambda: distinct_patterns(2, 3.5), "rank must be an integer, got 3.5"),
        (lambda: restricted_count(2, (1, 1), True), "rank must be an integer, got True"),
        (lambda: restricted_count(2.0, (1, 1), 5), "block side must be an integer, got 2.0"),
    ],
)
def test_a_block_side_or_rank_that_is_no_integer_is_rejected(call, message, monkeypatch):
    # Before anything is built.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message
    assert supertile._BUILD_MEMO == {}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: count_stabilized(2, 5, "NE"),
            TypeError,
            "supertile facing must be a Pose, got 'NE'",
        ),
        (
            lambda: distinct_patterns(2, 3, 1),
            TypeError,
            "supertile facing must be a Pose, got 1",
        ),
        (
            lambda: restricted_count(2, (1, 1), 3, "NW"),
            TypeError,
            "supertile facing must be a Pose, got 'NW'",
        ),
        (
            lambda: restricted_count(2, "12", 3),
            TypeError,
            "corner_pos row must be an integer, got '1'",
        ),
        (
            lambda: restricted_count(2, (1.0, 2.0), 3),
            TypeError,
            "corner_pos row must be an integer, got 1.0",
        ),
        (
            lambda: count_stabilized(2, 5, corner_pos=(1, True)),
            TypeError,
            "corner_pos column must be an integer, got True",
        ),
        (
            lambda: restricted_count(2, (1, 1, 1), 3),
            ValueError,
            "corner_pos must be a [row, col] pair, got (1, 1, 1)",
        ),
        (
            lambda: count_stabilized(2, 5, corner_pos=1),
            ValueError,
            "corner_pos must be a [row, col] pair, got 1",
        ),
        (
            lambda: count_stabilized(2, 5, corner_pos=[2]),
            ValueError,
            "corner_pos must be a [row, col] pair, got [2]",
        ),
    ],
)
def test_a_facing_or_corner_position_of_the_wrong_kind_is_rejected(
    call, error, message, monkeypatch
):
    # With the library's own message, before anything is built.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
    assert supertile._BUILD_MEMO == {}


def test_numpy_integer_corner_positions_are_taken():
    assert restricted_count(3, np.array([1, 2]), 8) == 124
    assert count_stabilized(3, 8, corner_pos=(np.int8(1), np.uint16(2))).count == 124


def test_numpy_integer_sides_and_ranks_give_int_results():
    rep = count_stabilized(np.int64(4), np.int64(11))
    assert rep == count_stabilized(4, 11) and repr(rep) == repr(count_stabilized(4, 11))
    assert type(count_stabilized(np.int32(3), np.uint8(4)).rank_used) is int
    ps = distinct_patterns(np.int16(2), np.int64(5))
    assert type(ps.n) is int and ps == distinct_patterns(2, 5)
    assert restricted_count(np.int64(3), (1, 2), np.int8(8)) == 124


def test_non_stabilization_is_reported_not_raised():
    rep = count_stabilized(3, 3)
    assert not rep.stabilized
    assert rep.rank_used == 3


def test_restricted_base_counts():
    assert restricted_count(2, (1, 1), 7) == 56
    assert restricted_count(2, (1, 2), 7) == 56
    assert restricted_count(3, (1, 2), 8) == 124


def test_restricted_partition_of_total():
    total = sum(restricted_count(2, pos, 7) for pos in POSITIONS)
    assert total == 224 == distinct_patterns(2, 7).count


def test_restricted_stabilization_scan():
    rep = count_stabilized(2, 11, corner_pos=(1, 1))
    assert rep.stabilized and rep.count == 56


def test_restricted_rejects_bad_positions(capsys, monkeypatch, tmp_path):
    # A bad position is rejected before anything is built or written.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    for call in (
        lambda: restricted_count(2, (3, 1), 6),
        lambda: restricted_count(2, (0, 1), 6),
        lambda: count_stabilized(2, 11, corner_pos=(3, 1)),
        lambda: count_stabilized(1, 11, corner_pos=(2, 1), cache=tmp_path / "d"),
    ):
        with pytest.raises(ValueError, match="corner_pos must lie in the leading 2x2"):
            call()
    assert supertile._BUILD_MEMO == {}
    code = main(["count", "--n", "1", "--restrict", "2,1", "--cache", str(tmp_path / "d")])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: corner_pos must lie in the leading 2x2, got (2, 1)\n"
    )
    assert supertile._BUILD_MEMO == {}
    assert not (tmp_path / "d").exists()
    # The block size is checked first.
    for call in (
        lambda: restricted_count(5, (3, 1), 2),
        lambda: count_stabilized(5, 2, corner_pos=(3, 1)),
    ):
        with pytest.raises(BlockTooLarge):
            call()


@pytest.mark.parametrize("n", (2, 3))
def test_library_cache_matches_uncached_and_cli(n, capsys, tmp_path):
    # The library and the CLI each fill a fresh cache by the same calls;
    # a second library call reads what the first one wrote.
    lib, cli = tmp_path / "lib", tmp_path / "cli"
    for pos in (None, *POSITIONS):
        plain = count_stabilized(n, 11, corner_pos=pos)
        assert count_stabilized(n, 11, corner_pos=pos, cache=lib) == plain
        assert count_stabilized(n, 11, corner_pos=pos, cache=str(lib)) == plain
        restrict = () if pos is None else ("--restrict", f"{pos[0]},{pos[1]}")
        assert main(["count", "--n", str(n), *restrict, "--cache", str(cli)]) == 0
        assert capsys.readouterr().out == f"{plain.count}\n"
    files = sorted(p.name for p in lib.iterdir())
    assert files and files == sorted(p.name for p in cli.iterdir())
    for name in files:
        assert (lib / name).read_bytes() == (cli / name).read_bytes()
    # A cache holds NE sets, which every facing reads turned: in each
    # facing, a cold and then a warm cached count is the uncached count,
    # and the files written are the NE run's.
    for facing in FACINGS:
        for i, pos in enumerate((None, *POSITIONS)):
            fresh = tmp_path / f"facing{facing.rotation}-{i}"
            plain = count_stabilized(n, 11, facing, corner_pos=pos)
            for _ in ("cold", "warm"):
                assert count_stabilized(n, 11, facing, corner_pos=pos, cache=fresh) == plain
            written = sorted(p.name for p in fresh.iterdir())
            assert written and set(written) <= set(files), (facing, pos)
            for name in written:
                assert (fresh / name).read_bytes() == (lib / name).read_bytes()


def test_facing_independence_of_stabilized_counts():
    for n in (2, 3, 4):
        counts = {count_stabilized(n, 10, facing=f).count for f in FACINGS}
        assert len(counts) == 1


def test_members_all_pass_parity():
    bumpy = int(Prototile.BUMPY_CORNER)
    for n, rank in ((2, 7), (3, 7)):
        for data in distinct_patterns(n, rank).members():
            protos = [data[3 * i] for i in range(n * n)]
            for r in range(n - 1):
                for c in range(n - 1):
                    window = (
                        protos[r * n + c],
                        protos[r * n + c + 1],
                        protos[(r + 1) * n + c],
                        protos[(r + 1) * n + c + 1],
                    )
                    assert sum(p == bumpy for p in window) == 1


def test_canonical_encode_deterministic_and_canonical():
    g = build(3, "NE")
    p1 = canonical_encode(g)
    p2 = canonical_encode(g)
    assert p1 == p2
    assert len(p1.data) == 3 * 49
    # A non-canonical pose of a symmetric tile encodes identically
    # (the terminal arm is fixed by the mirror across its own axis).
    arm = OrientedTile(Prototile.ARM1, Pose(0, False))
    arm_alias = OrientedTile(Prototile.ARM1, Pose(0, True))
    assert arm.labels() == arm_alias.labels()
    ga = TileGrid.from_tiles([[arm]])
    gb = TileGrid.from_tiles([[arm_alias]])
    assert canonical_encode(ga) == canonical_encode(gb)


def test_canonical_encode_requires_square():
    g = TileGrid.from_tiles(
        [[OrientedTile(Prototile.ARM3), OrientedTile(Prototile.ARM3)]]
    )
    with pytest.raises(ValueError):
        canonical_encode(g)


def test_pattern_set_dedup_idempotent():
    ps = PatternSet(1)
    member = canonical_encode(build(1, "NE"))
    ps.add(member)
    ps.add(member)
    assert ps.count == 1
    assert member in ps


def test_members_sorted_lexicographically():
    ps = distinct_patterns(2, 6)
    members = ps.members()
    assert members == sorted(members)


def test_save_load_round_trip(tmp_path):
    ps = distinct_patterns(2, 7)
    path = tmp_path / "n2.rbps"
    save_pattern_set(ps, path)
    loaded = load_pattern_set(path)
    assert loaded == ps
    assert loaded.count == 224


def test_load_truncated_file(tmp_path):
    ps = distinct_patterns(2, 5)
    path = tmp_path / "n2.rbps"
    save_pattern_set(ps, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(CorruptPatternFile) as exc:
        load_pattern_set(path)
    assert exc.value.offset > 0


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.rbps"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
    with pytest.raises(CorruptPatternFile) as exc:
        load_pattern_set(path)
    assert exc.value.offset == 0


def test_load_newer_version(tmp_path):
    ps = distinct_patterns(2, 5)
    path = tmp_path / "n2.rbps"
    save_pattern_set(ps, path)
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) : len(MAGIC) + 2] = (FORMAT_VERSION + 1).to_bytes(2, "big")
    path.write_bytes(bytes(blob))
    with pytest.raises(PatternVersionMismatch) as exc:
        load_pattern_set(path)
    assert exc.value.found == FORMAT_VERSION + 1


_CANONICAL = {(t.prototile, t.pose.rotation, int(t.pose.mirror)) for t in ALL_TILES}
_STRAY_TRIPLE = next(
    t for t in itertools.product(range(6), range(4), range(2)) if t not in _CANONICAL
)


def _rbps(members, count=None, tail=b""):
    """An n = 2 ``.rbps`` file of ``members``, with a header count of
    ``count`` (default: as many as there are) and ``tail`` appended."""
    count = len(members) if count is None else count
    header = MAGIC + struct.pack(">HIQ", FORMAT_VERSION, 2, count)
    return header + b"".join(struct.pack(">I", len(m)) + m for m in members) + tail


def _record_at(members, i):
    """The offset of record i of an ``_rbps`` file of ``members``."""
    return len(_rbps([])) + sum(4 + len(m) for m in members[:i])


# Each corrupts a sorted member list in place and returns the file, the
# offset the loader must name and its message there.
def _short_member(members):
    members[1] = members[1][:-3]
    return _rbps(members), _record_at(members, 1), "record length 9, expected 12"


def _swapped_members(members):
    members[1], members[2] = members[2], members[1]
    return _rbps(members), _record_at(members, 2), "records not in strictly increasing order"


def _repeated_member(members):
    members[2] = members[1]
    return _rbps(members), _record_at(members, 2), "records not in strictly increasing order"


def _triple(triple):
    def put(members):
        bad = bytes(triple) + members[1][3:]
        members[1] = bad
        members.sort()
        at = _record_at(members, members.index(bad))
        return _rbps(members), at, "triple names no canonical tile"

    return put


def _trailing_bytes(members):
    return _rbps(members, tail=b"\x00"), _record_at(members, len(members)), "trailing bytes"


def _count_one_too_large(members):
    at = _record_at(members, len(members))
    return _rbps(members, count=len(members) + 1), at, "truncated record length"


def _length_field_off_by_one(members):
    # The file keeps its size: only record 1's length field changes.
    blob = bytearray(_rbps(members))
    at = _record_at(members, 1)
    blob[at : at + 4] = struct.pack(">I", 13)
    return bytes(blob), at, "record length 13, expected 12"


def _order_fault_before_bad_triple(members):
    # Triples are checked only once every record has been read, so the
    # order fault is named although the bad triple would be too.
    members[1], members[2] = members[2], members[1]
    members[3] = bytes((32, 0, 0)) + members[3][3:]
    return _rbps(members), _record_at(members, 2), "records not in strictly increasing order"


@pytest.mark.parametrize(
    "corrupt",
    [
        _short_member,
        _swapped_members,
        _repeated_member,
        _triple((32, 0, 0)),
        _triple((0, 4, 0)),
        _triple((0, 0, 2)),
        _triple(_STRAY_TRIPLE),
        _trailing_bytes,
        _count_one_too_large,
        _length_field_off_by_one,
        _order_fault_before_bad_triple,
    ],
    ids=[
        "length",
        "order",
        "repeated",
        "prototile-range",
        "rotation-range",
        "mirror-range",
        "non-canonical",
        "trailing",
        "count-too-large",
        "length-field",
        "order-before-triple",
    ],
)
def test_load_rejects_bad_members(tmp_path, capsys, corrupt):
    members = distinct_patterns(2, 2).members()
    blob, offset, message = corrupt(members)
    path = tmp_path / "cache" / "patterns_n2_rank2.rbps"
    path.parent.mkdir()
    path.write_bytes(blob)
    expected = f"corrupt pattern-set file at byte {offset}: {message}"
    with pytest.raises(CorruptPatternFile) as exc:
        load_pattern_set(path)
    assert (exc.value.offset, str(exc.value)) == (offset, expected)
    assert main(["count", "--n", "2", "--cache", str(path.parent)]) == 1
    assert capsys.readouterr() == ("", f"error: {expected}\n")
    assert main(["cache", "--inspect", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {expected}\n")


@pytest.mark.parametrize("n", [2**32 - 1, 70000, 37838])
def test_header_n_whose_records_overflow_the_length_field_is_rejected(tmp_path, capsys, n):
    # A record of 3n^2 bytes cannot be named by its 4-byte length field,
    # so the header's n (at byte 10) is corrupt whatever the count says.
    path = tmp_path / "big.rbps"
    path.write_bytes(MAGIC + struct.pack(">HIQ", FORMAT_VERSION, n, 0))
    assert path.stat().st_size == 22
    expected = (
        f"corrupt pattern-set file at byte 10: "
        f"n={n}: a 3n^2-byte record overflows its length field"
    )
    for read in (load_pattern_set, inspect_pattern_file):
        with pytest.raises(CorruptPatternFile) as exc:
            read(path)
        assert (exc.value.offset, str(exc.value)) == (10, expected)
    assert main(["cache", "--inspect", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {expected}\n")
    # The writer refuses the same n with the library's message, before any
    # array is shaped by n, and leaves no file.
    message = f"n={n}: a 3n^2-byte record overflows its length field"
    with pytest.raises(ValueError) as exc:
        save_pattern_set(PatternSet(n), tmp_path / "out.rbps")
    assert str(exc.value) == message
    assert not (tmp_path / "out.rbps").exists()


@pytest.mark.parametrize(
    "make",
    [
        lambda n: Pattern(n, bytes(3)),  # 3n^2 = 3 for n = -1
        lambda n: Pattern(n, bytes(3 * 2 * 2)),
        PatternSet,
        lambda n: PatternSet(n, [bytes(3)]),
    ],
)
def test_a_block_side_is_a_non_negative_integer(tmp_path, make):
    # Pattern and PatternSet take their side as ``_ranks`` takes a block
    # side: a bool or a non-integer is a TypeError naming it, and a
    # negative side (the header's n field is unsigned) the library's
    # error naming n; n = 0 is a side.
    for bad in (-1, -2, np.int64(-1)):
        with pytest.raises(ValueError) as exc:
            make(bad)
        assert str(exc.value) == f"n={bad}: a block side must be non-negative"
    for bad in (1.5, 2.0, True, "2", None):
        with pytest.raises(TypeError) as exc:
            make(bad)
        assert str(exc.value) == f"block side must be an integer, got {bad!r}"
    assert Pattern(0, b"").n == PatternSet(0).n == 0
    assert type(PatternSet(np.int64(2)).n) is int
    assert Pattern(np.int64(1), bytes(3)) == Pattern(1, bytes(3))
    save_pattern_set(PatternSet(0, [b""]), tmp_path / "zero.rbps")
    assert load_pattern_set(tmp_path / "zero.rbps") == PatternSet(0, [b""])


def test_largest_header_n_whose_records_fit_is_read(tmp_path, capsys):
    n = 37837  # 3n^2 = 4,294,915,707 < 2^32
    blob = MAGIC + struct.pack(">HIQ", FORMAT_VERSION, n, 0)
    found, ids = enumerator._parse_pattern_file(io.BytesIO(blob))
    assert (found, ids.shape) == (n, (0, n * n))
    # An empty set of such an n is saved as that 22-byte header, also
    # from n = 26755, where a 4 + 3n^2-byte record passes 2^31 bytes.
    for n in (26755, 37837):
        path = tmp_path / f"empty{n}.rbps"
        save_pattern_set(PatternSet(n), path)
        assert path.read_bytes() == MAGIC + struct.pack(">HIQ", FORMAT_VERSION, n, 0)
        assert inspect_pattern_file(path) == (n, 0)
        assert main(["cache", "--inspect", str(path)]) == 0
        assert capsys.readouterr() == (f"n,count,version\n{n},0,{FORMAT_VERSION}\n", "")


def test_save_rejects_a_non_canonical_member(tmp_path):
    # Nothing is written: no file at a fresh path, and an existing file
    # at the path keeps every byte.
    bad = PatternSet(1, [bytes([9, 9, 9])])
    fresh = tmp_path / "fresh.rbps"
    with pytest.raises(ValueError, match="names no canonical tile"):
        save_pattern_set(bad, fresh)
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept.rbps"
    save_pattern_set(distinct_patterns(2, 3), kept)
    before = kept.read_bytes()
    with pytest.raises(ValueError, match="names no canonical tile"):
        save_pattern_set(bad, kept)
    assert kept.read_bytes() == before
    assert list(tmp_path.iterdir()) == [kept]


@pytest.fixture
def half_then_fail(monkeypatch):
    """Make the ``.rbps`` writer's one ``write`` put down half the file,
    then fail."""
    atomic_open = enumerator._atomic_open

    @contextlib.contextmanager
    def opened(path, mode):
        with atomic_open(path, mode) as fh:
            def write(data):
                fh.write(memoryview(data)[: len(data) // 2])
                raise OSError("disk full")

            yield SimpleNamespace(write=write)

    monkeypatch.setattr(enumerator, "_atomic_open", opened)


def test_failed_save_through_a_symlink_leaves_its_file_alone(tmp_path, half_then_fail):
    real, link = tmp_path / "real.rbps", tmp_path / "link.rbps"
    real.write_text("old content")
    link.symlink_to(real.name)
    with pytest.raises(OSError, match="disk full"):
        save_pattern_set(distinct_patterns(2, 7), link)
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == b"old content"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.rbps", "real.rbps"]


def test_failed_save_through_a_dangling_symlink_creates_no_file(tmp_path, half_then_fail):
    link = tmp_path / "link.rbps"
    link.symlink_to("missing.rbps")
    with pytest.raises(OSError, match="disk full"):
        save_pattern_set(distinct_patterns(2, 7), link)
    assert link.is_symlink() and os.readlink(link) == "missing.rbps"
    assert [p.name for p in tmp_path.iterdir()] == ["link.rbps"]


# A child that saves a pattern set to argv[1] and receives SIGTERM once
# its one ``write`` has put down half the file.
SIGTERM_INSIDE_A_SAVE = """
import contextlib, os, signal, sys
from robinsonblocks import enumerator

atomic_open = enumerator._atomic_open

class HalfThenTerminated:
    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(memoryview(data)[: len(data) // 2])
        self.fh.flush()
        os.kill(os.getpid(), signal.SIGTERM)

@contextlib.contextmanager
def terminated_inside(path, mode):
    with atomic_open(path, mode) as fh:
        yield HalfThenTerminated(fh)

enumerator._atomic_open = terminated_inside
enumerator.save_pattern_set(enumerator.distinct_patterns(2, 7), sys.argv[1])
"""


@pytest.mark.parametrize("through", ["plain path", "symlink"])
def test_sigterm_inside_a_save_leaves_the_old_file(tmp_path, through):
    real = tmp_path / "real.rbps"
    real.write_text("old content")
    target = real
    if through == "symlink":
        target = tmp_path / "link.rbps"
        target.symlink_to(real.name)
    proc = subprocess.run(
        [sys.executable, "-c", SIGTERM_INSIDE_A_SAVE, str(target)], capture_output=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (-signal.SIGTERM, b"", b"")
    assert real.read_bytes() == b"old content"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({real.name, target.name})


def test_tile_ids_sort_as_their_triples():
    # The .rbps reader checks member order on tile-id rows, and the
    # writer sorts id rows: both rely on this.
    triples = list(zip(*enumerator._TRIPLE_BYTES))[: len(ALL_TILES)]
    assert triples == sorted(set(triples))
    assert len(triples) == len(ALL_TILES)


def test_cached_window_set_is_read_and_mapped_once(tmp_path, monkeypatch):
    count_stabilized(3, 11, cache=tmp_path)
    path = max(tmp_path.glob("*.rbps"))
    calls = []
    tile_ids = enumerator._tile_ids
    monkeypatch.setattr(enumerator, "_tile_ids", lambda data: calls.append(data.nbytes) or tile_ids(data))
    rank = int(path.stem.rsplit("rank", 1)[1])
    ((_, got),) = enumerator._cached_window_scan(3, range(rank, rank + 1), iter(()), tmp_path)
    header = len(MAGIC) + struct.calcsize(">HIQ")
    assert calls == [path.stat().st_size - header - 4 * len(got)]
    assert enumerator._pattern_set(3, got) == load_pattern_set(path)


def _allocated(call):
    """``call()`` and the peak bytes it allocated, as ``tracemalloc``
    counts them."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rbps_io_and_the_corner_mask_hold_a_few_bands(tmp_path):
    # The writer, the reader and the corner mask each work a band of
    # about ``_GATHER_BYTES`` at a time.  On a set of 16 bands of id rows,
    # whose file is 48 bands of records, each allocates at most 3 bands
    # beyond the set, or beyond the id rows it returns; ``inspect`` keeps
    # no row.  A path that copies the whole set or body allocates 16 or
    # 48 bands more.
    n, band = 32, _GATHER_BYTES
    rng = np.random.default_rng(32)
    bumpy, plain = np.flatnonzero(BUMPY_IDS), np.flatnonzero(~BUMPY_IDS)
    parity = np.arange(n) % 2
    lattice = ((parity == 0)[:, None] & (parity == 1)[None, :]).reshape(-1)  # corner_pos (1, 2)
    rows = rng.choice(plain, (16 * band // (n * n), n * n)).astype(np.uint8)
    rows[::3] = np.where(lattice, rng.choice(bumpy, n * n), rows[::3])  # every third row hits
    windows = set(map(bytes, rows))
    path = tmp_path / "w.rbps"

    _, written = _allocated(lambda: enumerator._write_records(path, n, windows))
    (found, ids), read = _allocated(lambda: enumerator._read_pattern_file(path))
    inspected, inspecting = _allocated(lambda: inspect_pattern_file(path))
    value = _scan_value(n, (1, 2), IDENTITY)
    from_set, counting_set = _allocated(lambda: value(windows))
    from_rows, counting_rows = _allocated(lambda: value(ids))

    assert path.stat().st_size >= 48 * band and ids.nbytes >= 16 * band
    assert written <= 3 * band
    assert read - ids.nbytes <= 3 * band
    assert inspecting <= 3 * band
    assert counting_set <= 3 * band and counting_rows <= 3 * band
    assert found == n and sorted(map(bytes, ids)) == sorted(windows)
    assert inspected == (n, len(windows))
    assert from_set == from_rows == len({r.tobytes() for r in rows[::3]})


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_pattern_file_is_read_from_a_fifo(tmp_path):
    # A pipe has no size to seek to, so it is read whole and then checked
    # as a file is: the same set, count and first fault.
    ps = distinct_patterns(3, 5)
    save_pattern_set(ps, tmp_path / "p.rbps")
    blob = (tmp_path / "p.rbps").read_bytes()
    fifo = tmp_path / "p.fifo"
    os.mkfifo(fifo)
    cut = len(blob) - 7
    fault = (_BODY + (cut - _BODY) // 31 * 31 + 4, "truncated record")  # n = 3: 31-byte records
    for data, read, expected in (
        (blob, load_pattern_set, ps),
        (blob, inspect_pattern_file, (3, ps.count)),
        (blob[:cut], inspect_pattern_file, fault),
    ):
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            got = read(fifo)
        except CorruptPatternFile as exc:
            got = exc.offset, str(exc).split(": ", 1)[1]
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert got == expected


def test_count_report_csv_shape():
    rep = count_stabilized(2, 9)
    text = count_report_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "n,rank,count,stabilized"
    assert lines[-1].endswith("true")
    assert len(lines) == len(rep.counts_by_rank) + 1


def test_pattern_rejects_wrong_length():
    with pytest.raises(ValueError):
        Pattern(2, b"\x00" * 5)
