"""Supertile construction, cross solving, and validation tests."""

import json
import tracemalloc

import numpy as np
import pytest

import reference_layouts
from robinsonblocks import supertile
from robinsonblocks.enumerator import distinct_patterns
from robinsonblocks.supertile import (
    EMPTY,
    CrossAmbiguous,
    CrossUnsolvable,
    FACING_ROTATIONS,
    Pose,
    SupertileSpec,
    TileGrid,
    ValidationReport,
    Violation,
    _candidates,
    build,
    build_supertile,
    solve_cross_cell,
    validate,
)
from robinsonblocks.tileset import (
    ALL_TILES,
    BUMPY_IDS,
    EAST_OK,
    SOUTH_OK,
    OrientedTile,
    Prototile,
    TURN,
    Side,
    edge_label,
    label_text,
    mirror_tile,
    tile_id,
)

FACINGS = ("NE", "NW", "SW", "SE")

_KEY_TO_PROTO = {p.key: p for p in Prototile}


def grid_from_literals(cells):
    rows = []
    for row in cells:
        rows.append(
            [OrientedTile(_KEY_TO_PROTO[k], Pose(rot, mir)) for k, rot, mir in row]
        )
    return TileGrid.from_tiles(rows)


def test_rank1_is_single_bumpy_in_requested_facing():
    for name, rot in FACING_ROTATIONS.items():
        g = build(1, name)
        assert (g.width, g.height) == (1, 1)
        tile = g.tile_at(1, 1)
        assert tile.prototile == Prototile.BUMPY_CORNER
        assert tile == OrientedTile(Prototile.BUMPY_CORNER, Pose(rot, False)).canonical()


@pytest.mark.parametrize("rank", range(1, 8))
def test_size_recursion(rank):
    g = build(rank, "NE")
    assert g.width == g.height == 2**rank - 1


def test_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        SupertileSpec(0, Pose(0, False))
    with pytest.raises(ValueError):
        SupertileSpec(2, Pose(1, True))
    for facing in ("NE", 0, (0, False), None):
        with pytest.raises(TypeError) as info:
            SupertileSpec(3, facing)
        assert str(info.value) == f"supertile facing must be a Pose, got {facing!r}"


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((True,), TypeError, "rank must be an integer, got True"),
        ((3.0,), TypeError, "rank must be an integer, got 3.0"),
        (("3",), TypeError, "rank must be an integer, got '3'"),
        ((3, "ne"), ValueError, "facing must be one of NE, NW, SW, SE, got 'ne'"),
        ((3, "N"), ValueError, "facing must be one of NE, NW, SW, SE, got 'N'"),
    ],
)
def test_build_rejects_a_bad_rank_or_facing(args, error, message):
    with pytest.raises(error) as info:
        build(*args)
    assert str(info.value) == message


def test_build_takes_numpy_integer_ranks():
    for rank in (np.int64(3), np.uint8(3), np.int32(3)):
        assert build(rank, "SW") == build(3, "SW")
        assert SupertileSpec(rank) == SupertileSpec(3) and type(SupertileSpec(rank).rank) is int


@pytest.mark.parametrize("facing", FACINGS)
def test_rank2_reference_layout(facing):
    assert build(2, facing) == grid_from_literals(reference_layouts.RANK2[facing])


def test_rank3_reference_layout():
    assert build(3, "NE") == grid_from_literals(reference_layouts.rank3_ne())


def test_build_deterministic():
    a, b = build(4, "SW"), build(4, "SW")
    assert a == b
    assert a.ids.tobytes() == b.ids.tobytes()


@pytest.mark.parametrize("rank", range(2, 8))
@pytest.mark.parametrize("facing", FACINGS)
def test_self_similar_quadrants(rank, facing):
    g = build(rank, facing)
    m = 2 ** (rank - 1)
    ids = g.ids
    quads = {
        "SE": ids[: m - 1, : m - 1],
        "SW": ids[: m - 1, m:],
        "NE": ids[m:, : m - 1],
        "NW": ids[m:, m:],
    }
    for qfacing, sub in quads.items():
        assert np.array_equal(sub, build(rank - 1, qfacing).ids)


@pytest.mark.parametrize("rank", range(1, 9))
@pytest.mark.parametrize("facing", FACINGS)
def test_validate_builds(rank, facing):
    report = validate(build(rank, facing))
    assert report.ok
    assert report.violations == ()


def test_every_2x2_has_one_bumpy():
    from robinsonblocks.tileset import BUMPY_IDS

    ids = build(5, "SE").ids
    bumpy = BUMPY_IDS[ids]
    counts = (
        bumpy[:-1, :-1].astype(int)
        + bumpy[:-1, 1:]
        + bumpy[1:, :-1]
        + bumpy[1:, 1:]
    )
    assert (counts == 1).all()


def test_parity_violation_reported():
    b = OrientedTile(Prototile.BUMPY_CORNER, Pose(0, False))
    arm = OrientedTile(Prototile.ARM3, Pose(0, False))
    grid = TileGrid.from_tiles([[b, b], [arm, arm]])
    report = validate(grid)
    assert not report.ok
    parity = [v for v in report.violations if v.kind == "parity"]
    assert parity and (parity[0].row, parity[0].col) == (1, 1)
    assert "2 bumpy corners" in parity[0].detail


def test_adjacency_violation_reported():
    c = OrientedTile(Prototile.CORNER, Pose(0, False))
    grid = TileGrid.from_tiles([[c, c]])
    report = validate(grid)
    assert not report.ok
    assert any(
        v.kind == "adjacency" and (v.row, v.col, v.detail) == (1, 1, "east")
        for v in report.violations
    )


def test_single_arm_grid_is_vacuously_ok():
    arm = OrientedTile(Prototile.ARM4, Pose(2, True))
    report = validate(TileGrid.from_tiles([[arm]]))
    assert report.ok


def test_partial_grid_validation_skips_empty():
    b = OrientedTile(Prototile.BUMPY_CORNER, Pose(0, False))
    report = validate(TileGrid.from_tiles([[b, None], [None, b]]))
    assert report.ok


def test_solve_center_is_corner_in_spec_facing():
    for facing, rot in FACING_ROTATIONS.items():
        for rank in (2, 3, 4):
            g = build(rank, facing)
            m = 2 ** (rank - 1)
            ids = np.array(g.ids)
            ids[m - 1, m - 1] = EMPTY
            got = solve_cross_cell(TileGrid(ids), (m, m))
            assert got == OrientedTile(Prototile.CORNER, Pose(rot, False)).canonical()


def test_solve_cross_idempotent_everywhere():
    g = build(4, "NW")
    m = 8
    ids0 = g.ids
    for d in range(1, m):
        for r, c in ((m - 1 - d, m - 1), (m - 1 + d, m - 1), (m - 1, m - 1 - d), (m - 1, m - 1 + d)):
            ids = np.array(ids0)
            expected = int(ids[r, c])
            ids[r, c] = EMPTY
            got = solve_cross_cell(TileGrid(ids), (r + 1, c + 1))
            assert tile_id(got) == expected


def test_solve_unique_in_build_order():
    # Blank a whole half-arm and re-solve it outward: each cell sits
    # between two placed quadrants with its inward neighbour known, and
    # the candidate scan must come back unique every time.
    g = build(3, "NE")
    m = 4
    ids = np.array(g.ids)
    for d in range(1, m):
        ids[m - 1 - d, m - 1] = EMPTY
    for d in range(1, m):
        r, c = m - 1 - d, m - 1
        got = solve_cross_cell(TileGrid(ids), (r + 1, c + 1))
        assert tile_id(got) == int(g.ids[r, c])
        ids[r, c] = tile_id(got)


def test_cross_unsolvable():
    b = OrientedTile(Prototile.BUMPY_CORNER, Pose(0, False))
    partial = TileGrid.from_tiles(
        [[None, b, None], [b, None, b], [None, b, None]]
    )
    with pytest.raises(CrossUnsolvable) as exc:
        solve_cross_cell(partial, (2, 2))
    assert exc.value.pos == (2, 2)


def test_cross_ambiguous_when_underconstrained():
    partial = TileGrid.from_tiles([[OrientedTile(Prototile.CORNER), None]])
    with pytest.raises(CrossAmbiguous) as exc:
        solve_cross_cell(partial, (1, 2))
    assert len(exc.value.candidates) > 1


@pytest.mark.parametrize("pos", [(0, 1), (1, 0), (3, 1), (1, 4), (-1, 2)])
def test_solve_rejects_a_cell_outside_the_grid(pos):
    partial = TileGrid.from_tiles([[OrientedTile(Prototile.CORNER), None, None]] * 2)
    with pytest.raises(ValueError, match="outside"):
        solve_cross_cell(partial, pos)


@pytest.mark.parametrize(
    "pos, error, message",
    [
        ((1.5, 1), TypeError, "cell row must be an integer, got 1.5"),
        ((1, 2.0), TypeError, "cell column must be an integer, got 2.0"),
        ((True, 1), TypeError, "cell row must be an integer, got True"),
        (5, ValueError, "cell must be a [row, col] pair, got 5"),
        ((1, 2, 3), ValueError, "cell must be a [row, col] pair, got (1, 2, 3)"),
        (None, ValueError, "cell must be a [row, col] pair, got None"),
    ],
)
def test_solve_rejects_a_cell_that_is_no_pair_of_integers(pos, error, message):
    # The check names the cell, not numpy's slicing or Python's unpacking.
    partial = TileGrid.from_tiles([[OrientedTile(Prototile.CORNER), None, None]] * 2)
    with pytest.raises(error) as exc:
        solve_cross_cell(partial, pos)
    assert str(exc.value) == message
    with pytest.raises(CrossAmbiguous):  # numpy integers name a cell, which is solved
        solve_cross_cell(partial, (np.int64(1), np.int64(2)))


def test_border_side_arrows_concentrate_at_facing_midpoints():
    # The supertile acts as a scaled corner tile: its border shows side
    # arrows only at the midpoint cells of the two facing sides; every
    # other border edge carries the bare principal mark.
    outer = {"N": Side.N, "E": Side.E, "S": Side.S, "W": Side.W}
    facing_sides = {"NE": "NE", "NW": "NW", "SW": "SW", "SE": "SE"}
    for facing in FACINGS:
        for rank in (2, 3, 4, 5):
            g = build(rank, facing)
            s = g.width
            mid = 2 ** (rank - 1)
            borders = {
                "N": [(1, c) for c in range(1, s + 1)],
                "S": [(s, c) for c in range(1, s + 1)],
                "W": [(r, 1) for r in range(1, s + 1)],
                "E": [(r, s) for r in range(1, s + 1)],
            }
            for side_name, cells in borders.items():
                is_facing = side_name in facing_sides[facing]
                for r, c in cells:
                    text = label_text(edge_label(g.tile_at(r, c), outer[side_name]))
                    at_mid = (r == mid) if side_name in "EW" else (c == mid)
                    if is_facing and at_mid:
                        assert text in ("SP.", ".PS"), (facing, rank, side_name, r, c)
                    else:
                        assert text == ".P.", (facing, rank, side_name, r, c)


def test_json_round_trip():
    g = build(3, "SE")
    doc = json.loads(g.to_json())
    assert doc["width"] == doc["height"] == 7
    assert len(doc["cells"]) == 49
    assert all(isinstance(c, list) and len(c) == 3 for c in doc["cells"])
    assert TileGrid.from_json(g.to_json()) == g


def test_json_field_shape_is_normative():
    g = build(1, "NE")
    doc = json.loads(g.to_json())
    assert set(doc) == {"width", "height", "cells"}
    tile, rotation, mirror = doc["cells"][0]
    assert tile == "bumpy_corner"
    assert isinstance(rotation, int)
    assert isinstance(mirror, bool)


def test_json_cells_are_the_compact_json_of_each_tile():
    want = [
        json.dumps([t.prototile.key, t.pose.rotation, t.pose.mirror], separators=(",", ":"))
        for t in ALL_TILES
    ]
    assert supertile._JSON_CELLS == want + ["null"] * (256 - len(ALL_TILES))


@pytest.mark.parametrize("bad", [32, 40, 254, 256, -1, 1.5, "3"])
def test_grid_rejects_ids_that_name_no_tile(bad):
    with pytest.raises(ValueError, match="tile ids"):
        TileGrid([[0, bad], [2, 3]])
    assert TileGrid([[0, EMPTY], [2, 31]]).tile_at(1, 2) is None


def test_build_hands_out_the_memoised_grid_without_a_copy():
    g = build(5, "NE")
    memo = supertile._BUILD_MEMO[5]
    assert np.shares_memory(g.ids, memo) and not g.ids.flags.writeable
    assert TileGrid(memo) == g and not np.shares_memory(TileGrid(memo).ids, memo)
    # Any other facing is a fresh read-only array, which the memo does
    # not keep.
    sw = build(5, "SW").ids
    assert not np.shares_memory(sw, memo) and not sw.flags.writeable
    assert not np.shares_memory(sw, build(5, "SW").ids)


def test_an_ne_build_holds_one_grid_per_rank(monkeypatch):
    # The rank-11 grid and its border and the NE grids of ranks 1..10
    # (about a third of it): about 1.35 grids.  Copying a turned facing
    # into each quadrant peaked at about 1.6 grids, and memoising every
    # facing of every rank at about 2.35.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    monkeypatch.setattr(supertile, "_ARM_MEMO", {})
    tracemalloc.start()
    try:
        build(11, "NE")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2047**2
    assert sorted(supertile._BUILD_MEMO) == list(range(1, 12))


def test_from_json_reads_each_cell_as_it_reads_it_alone():
    # Equal entries of different JSON types share one memo entry, so each
    # must read as the same tile when read alone.
    entries = [
        ["bumpy_corner", 1, False],
        ["bumpy_corner", 1.0, 0],
        ["bumpy_corner", True, False],
        ["corner", 3, 1.0],
        ["corner", 3.0, 1.0],
        ["corner", 3, True],
        ["corner", 3, 0],
        ["bumpy_corner", 1, 1],
        ["corner", 3, 0.0],
        None,
    ]
    doc = {"width": 5, "height": 2, "cells": entries}
    grid = TileGrid.from_json(json.dumps(doc))
    for i, entry in enumerate(entries):
        alone = TileGrid.from_json(json.dumps({"width": 1, "height": 1, "cells": [entry]}))
        assert grid.ids[divmod(i, 5)] == alone.ids[0, 0], entry
    cells = [entries[0]] * 3 + [["bumpy_corner", 9, 0]]
    bad = json.dumps({"width": 2, "height": 2, "cells": cells})
    with pytest.raises(ValueError, match=r"cell \[2, 2\]"):
        TileGrid.from_json(bad)
    # An unhashable mirror and an object cell name no pose, after an
    # accepted cell or alone.
    for entry in (["corner", 3, [1]], {"corner": 0, "2": 0, "": 0}):
        for cells in ([entries[5], entry], [entry]):
            doc = json.dumps({"width": len(cells), "height": 1, "cells": cells})
            with pytest.raises(ValueError, match=rf"cell \[1, {len(cells)}\]"):
                TileGrid.from_json(doc)


@pytest.mark.parametrize(
    "entry",
    [
        ["arm_both", 1.5, False],
        ["arm_both", "1", False],
        ["arm_both", 0, "no"],
        ["arm_both", 0, 2],
    ],
)
def test_from_json_rejects_a_rotation_or_mirror_it_would_misread(entry):
    # Rotation and mirror are compared by value: none of these is one.
    doc = json.dumps({"width": 1, "height": 1, "cells": [entry]})
    with pytest.raises(ValueError, match=r"^grid JSON cell \[1, 1\] is not a "):
        TileGrid.from_json(doc)


def test_a_pose_takes_only_a_mirror_equal_to_false_or_true():
    for mirror in (2, -1, "no", None, [1], 0.5):
        with pytest.raises(ValueError, match="^mirror must be False or True, got "):
            Pose(0, mirror)
    # A mirror that compares equal to one is the same pose, and names a tile.
    assert Pose(1, 1) == Pose(1, 1.0) == Pose(1, True) and Pose(2, 0) == Pose(2, False)
    assert tile_id(OrientedTile(Prototile.ARM1, Pose(0, 1))) == tile_id(
        OrientedTile(Prototile.ARM1, Pose(0, True))
    )


def test_a_pose_stores_an_int_rotation_and_a_bool_mirror():
    # Equal values of another type index and print like the int and bool.
    assert repr(Pose(True, 1.0)) == "Pose(rotation=1, mirror=True)"
    assert distinct_patterns(2, 4, Pose(1.0, False)) == distinct_patterns(2, 4, Pose(1, False))
    assert build_supertile(SupertileSpec(3, Pose(2.0, False))) == build_supertile(
        SupertileSpec(3, Pose(2, False))
    )


def test_grids_are_immutable():
    g = build(2, "NE")
    with pytest.raises(ValueError):
        g.ids[0, 0] = 3


def _reference_candidates(ids, r, c):
    """The matching rules evaluated directly on the grid, one neighbour
    at a time, with no memo: the per-cell form the rule memo replaced."""
    h, w = ids.shape
    ok = np.ones(len(ALL_TILES), dtype=bool)
    if r > 0 and ids[r - 1, c] != EMPTY:
        ok &= SOUTH_OK[ids[r - 1, c], :]
    if r < h - 1 and ids[r + 1, c] != EMPTY:
        ok &= SOUTH_OK[:, ids[r + 1, c]]
    if c > 0 and ids[r, c - 1] != EMPTY:
        ok &= EAST_OK[ids[r, c - 1], :]
    if c < w - 1 and ids[r, c + 1] != EMPTY:
        ok &= EAST_OK[:, ids[r, c + 1]]
    for r0 in (r - 1, r):
        for c0 in (c - 1, c):
            if not (0 <= r0 and r0 + 1 < h and 0 <= c0 and c0 + 1 < w):
                continue
            others = [
                ids[rr, cc] for rr in (r0, r0 + 1) for cc in (c0, c0 + 1) if (rr, cc) != (r, c)
            ]
            if EMPTY in others:
                continue
            bumpy = sum(bool(BUMPY_IDS[i]) for i in others)
            ok &= BUMPY_IDS if bumpy == 0 else ~BUMPY_IDS if bumpy == 1 else False
    return tuple(int(i) for i in np.nonzero(ok)[0])


def _reference_validate(ids):
    """The two rules checked one pair and one 2x2 window at a time, with
    no shared masks, in ``validate``'s order: by top-left cell, then east
    pair, south pair and window."""
    h, w = ids.shape
    found = []
    for r in range(h):
        for c in range(w):
            for side, ok, rr, cc in (("east", EAST_OK, r, c + 1), ("south", SOUTH_OK, r + 1, c)):
                if rr < h and cc < w and EMPTY not in (ids[r, c], ids[rr, cc]):
                    if not ok[ids[r, c], ids[rr, cc]]:
                        found.append(Violation("adjacency", r + 1, c + 1, side))
            window = ids[r : r + 2, c : c + 2].ravel().tolist()
            if len(window) == 4 and EMPTY not in window:
                bumpy = sum(bool(BUMPY_IDS[i]) for i in window)
                if bumpy != 1:
                    found.append(Violation("parity", r + 1, c + 1, f"{bumpy} bumpy corners"))
    return tuple(found)


def test_validate_matches_a_per_pair_per_window_reference():
    # Every shape from 0x0 to 5x5, the one-row and one-column grids
    # included: cuts of a supertile (mostly lawful) and random tiles, each
    # with some cells replaced by random tiles and some left EMPTY.
    rng = np.random.default_rng(11)
    whole = build(4, "NE").ids
    for h in range(6):
        for w in range(6):
            for trial in range(24):
                if trial % 2:
                    ids = rng.integers(0, len(ALL_TILES), (h, w)).astype(np.uint8)
                else:
                    r, c = rng.integers(0, 16 - h), rng.integers(0, 16 - w)
                    ids = whole[r : r + h, c : c + w].copy()
                changed = rng.random((h, w))
                ids[changed < 0.1] = rng.integers(0, len(ALL_TILES))
                ids[changed > 0.8] = EMPTY
                want = _reference_validate(ids)
                assert validate(TileGrid(ids)) == ValidationReport(not want, want), ids


def _padded(ids):
    """``ids`` inside a one-cell EMPTY border, the grid form ``_candidates`` reads."""
    return np.pad(ids, 1, constant_values=EMPTY)


def _cross_cells(rank):
    """Cross cells of a rank-``rank`` supertile in build order, 0-based."""
    cc = (1 << (rank - 1)) - 1
    for d in range(1, cc + 1):
        yield from ((cc - d, cc), (cc + d, cc), (cc, cc - d), (cc, cc + d))


@pytest.mark.parametrize("facing", FACINGS)
def test_rule_memo_matches_a_direct_evaluation(facing, monkeypatch):
    # Re-solve every cross cell of ranks <= 6 in build order, from the
    # neighbourhood the build saw (outer cross cells still empty), and in
    # the finished grid (every neighbour placed).
    for rank in range(2, 7):
        done = build(rank, facing).ids
        ids = np.array(done)
        cross = list(_cross_cells(rank))
        for r, c in cross:
            ids[r, c] = EMPTY
        for state in ("build order", "finished"):
            for r, c in cross:
                memoised = _candidates(_padded(ids), r, c)
                with monkeypatch.context() as m:
                    m.setattr(supertile, "_ARM_MEMO", {})
                    fresh = _candidates(_padded(ids), r, c)
                assert memoised == fresh == _reference_candidates(ids, r, c), (state, r, c)
                assert memoised == (done[r, c],), (state, r, c)
                ids[r, c] = done[r, c]
            assert np.array_equal(ids, done)


def test_rule_memo_on_random_partial_grids(monkeypatch):
    # Every cell of small random grids, half their cells empty: the rules
    # must read every neighbour, the grid border included, and a second
    # evaluation must agree.
    monkeypatch.setattr(supertile, "_ARM_MEMO", {})
    rng = np.random.default_rng(5)
    for _ in range(300):
        h, w = rng.integers(1, 5, size=2)
        ids = rng.integers(0, len(ALL_TILES), (h, w)).astype(np.uint8)
        ids[rng.random((h, w)) < 0.5] = EMPTY
        padded = _padded(ids)
        for r in range(h):
            for c in range(w):
                expected = _reference_candidates(ids, r, c)
                assert _candidates(padded, r, c) == expected == _candidates(padded, r, c)


def _arm_neighbourhood(key):
    """The 3x3 neighbourhood an ``_ARM_MEMO`` key names, its centre
    EMPTY: the key's cells placed in the view that turns its half-arm
    north, then turned back."""
    t, before_w, before_e, own_w, own_e, after_w, after_e, before = key.to_bytes(8, "little")
    north_up = np.array(
        [[after_w, EMPTY, after_e], [own_w, EMPTY, own_e], [before_w, before, before_e]],
        dtype=np.uint8,
    )
    return np.rot90(north_up, -t)


def test_every_arm_memo_entry_is_the_rules_on_its_neighbourhood(monkeypatch):
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    monkeypatch.setattr(supertile, "_ARM_MEMO", {})
    for rank in range(1, 12):
        build(rank, "NE")
    assert len(supertile._ARM_MEMO) == 52
    arms = set()
    for key, tile in supertile._ARM_MEMO.items():
        nb = _arm_neighbourhood(key)
        assert _reference_candidates(nb, 1, 1) == (tile,), key
        arms.add(key & 0xFF)
    assert arms == {0, 1, 2, 3}


def test_builds_with_cleared_memos_match_the_reference_layouts(monkeypatch):
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    monkeypatch.setattr(supertile, "_ARM_MEMO", {})
    for facing in FACINGS:
        assert build(2, facing) == grid_from_literals(reference_layouts.RANK2[facing])
    assert build(3, "NE") == grid_from_literals(reference_layouts.rank3_ne())
    for rank in range(1, 7):
        for facing in FACINGS:
            assert validate(build(rank, facing)).ok


def test_a_memo_hit_never_hides_a_cross_error():
    b = OrientedTile(Prototile.BUMPY_CORNER, Pose(0, False))
    unsolvable = TileGrid.from_tiles([[None, b, None], [b, None, b], [None, b, None]])
    ambiguous = TileGrid.from_tiles([[OrientedTile(Prototile.CORNER), None]])
    for _ in range(2):
        with pytest.raises(CrossUnsolvable) as exc:
            solve_cross_cell(unsolvable, (2, 2))
        assert exc.value.pos == (2, 2)
        with pytest.raises(CrossAmbiguous) as exc:
            solve_cross_cell(ambiguous, (1, 2))
        assert exc.value.pos == (1, 2) and len(exc.value.candidates) > 1


def test_the_mirror_table_is_an_involution_that_keeps_the_rules():
    # ``_MIRROR`` maps each id to its id in a grid's mirror image across
    # the NE-SW diagonal: the tile reflected across a vertical axis, then
    # turned three quarters.
    table, tiles = supertile._MIRROR, len(ALL_TILES)
    assert table.dtype == np.uint8 and table.shape == (256,)
    mirrored = np.array([tile_id(mirror_tile(t)) for t in ALL_TILES])
    assert np.array_equal(table[:tiles], TURN[TURN[TURN[mirrored]]])
    assert np.array_equal(table[tiles:], np.arange(tiles, 256))
    assert np.array_equal(table[table], np.arange(256))
    # An east pair (a, b) becomes the south pair (M[b], M[a]); bumpy
    # corners stay bumpy.
    m = table[:tiles]
    assert np.array_equal(EAST_OK, SOUTH_OK[m[None, :], m[:, None]])
    assert np.array_equal(BUMPY_IDS[m], BUMPY_IDS)
    for proto in (Prototile.CORNER, Prototile.BUMPY_CORNER):
        centre = tile_id(OrientedTile(proto))
        assert table[centre] == centre


@pytest.mark.parametrize(
    "rank", [pytest.param(k, marks=pytest.mark.slow if k > 12 else ()) for k in range(1, 15)]
)
def test_the_ne_supertile_is_its_own_mirror_image(rank, monkeypatch):
    # ``ne == _MIRROR[ne[::-1, ::-1].T]``: the scan cuts only the strip
    # of rows and keys the strip of columns as its mirror image.  Checked
    # a band of rows at a time; rank 14 holds the NE grids of ranks 1..14.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    ne = supertile._build_ids(rank)
    image = ne[::-1, ::-1].T
    step = 1024
    for r in range(0, ne.shape[0], step):
        assert np.array_equal(ne[r : r + step], supertile._MIRROR[image[r : r + step]]), r
