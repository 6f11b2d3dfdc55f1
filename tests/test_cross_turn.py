"""One build per rank: the NE supertile is built, the other facings turn its cross.

The four facings of a rank share their quadrants, and each facing is
the NE supertile turned: ``_facing_ids(k, f) == TURN^f[np.rot90(ne, f)]``.
So the builder solves, checks and memoises only the NE supertile of
each rank, and ``_facing_ids`` reads any other facing from it with its
centre row and column turned.  These tests keep the whole-grid turn and
the old per-facing, per-cell outward solve as the references for every
facing's cross, the NE one that the half-arm solve builds included."""

import numpy as np
import pytest

import reference_layouts
from test_supertile import grid_from_literals
from robinsonblocks import supertile
from robinsonblocks.supertile import (
    EMPTY,
    CrossUnsolvable,
    FACING_ROTATIONS,
    _build_ids,
    _candidates,
    _facing_ids,
    build,
)
from robinsonblocks.tileset import (
    ALL_TILES,
    TURN,
    OrientedTile,
    Pose,
    Prototile,
    rotate_tile,
    tile_id,
)

FACINGS = ("NE", "NW", "SW", "SE")


def _turn_table(turns):
    """``TURN`` applied ``turns`` times, as one lookup table."""
    table = np.arange(len(ALL_TILES), dtype=np.uint8)
    for _ in range(turns):
        table = TURN[table]
    return table


def _turned(ne, turns):
    """The grid ``ne`` turned ``turns`` counter-clockwise quarter turns."""
    return _turn_table(turns)[np.rot90(ne, turns)]


def _outward_cross(ids, facing):
    """The cross as the builder solved it for every facing before it
    turned the NE one: the facing's corner at the centre, then each cell
    outward along the four half-arms, from the quadrants of ``ids``.
    Every cell must admit exactly one tile."""
    side = ids.shape[0]
    cc = side // 2
    padded = np.pad(ids, 1, constant_values=EMPTY)
    padded[cc + 1, 1:-1] = EMPTY
    padded[1:-1, cc + 1] = EMPTY
    padded[cc + 1, cc + 1] = tile_id(OrientedTile(Prototile.CORNER, Pose(facing, False)))
    for d in range(1, cc + 1):
        for r, c in ((cc - d, cc), (cc + d, cc), (cc, cc - d), (cc, cc + d)):
            cands = _candidates(padded, r, c)
            assert len(cands) == 1, (side, facing, r, c, cands)
            padded[r + 1, c + 1] = cands[0]
    return padded[1:-1, 1:-1]


def _clear_memos(monkeypatch):
    for name in ("_BUILD_MEMO", "_ARM_MEMO"):
        monkeypatch.setattr(supertile, name, {})


def test_turn_is_rotate_tile_and_has_order_four():
    for i, tile in enumerate(ALL_TILES):
        assert TURN[i] == tile_id(rotate_tile(tile, 1))
    assert TURN.dtype == np.uint8
    assert np.array_equal(_turn_table(4), np.arange(len(ALL_TILES)))
    assert sorted(TURN) == list(range(len(ALL_TILES)))


@pytest.mark.parametrize("rank", range(1, 13))
def test_each_facing_is_the_ne_build_turned(rank, monkeypatch):
    # A copy of the memo, so the largest grids built here are let go.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", dict(supertile._BUILD_MEMO))
    ne = _build_ids(rank)
    for f in range(4):
        assert np.array_equal(_facing_ids(rank, f), _turned(ne, f)), f


@pytest.mark.parametrize("facing", FACINGS)
def test_turned_crosses_are_the_outward_solves(facing, monkeypatch):
    # The memos start empty, so every rank is built here by the half-arm
    # solve, and the reference solves each cell from the rules.
    _clear_memos(monkeypatch)
    f = FACING_ROTATIONS[facing]
    for rank in range(2, 12):
        ids = _facing_ids(rank, f)
        assert np.array_equal(_outward_cross(ids, f), ids), rank


def test_ranks_up_to_10_solve_only_the_ne_crosses(monkeypatch):
    _clear_memos(monkeypatch)
    cells, evaluations = [], []
    solve_arm, candidates = supertile._solve_arm, supertile._candidates

    def arm_spy(padded, t):
        # A half-arm of a rank-k cross holds 2^(k-1) - 1 cells.
        cells.append(padded.shape[0] // 2 - 1)
        return solve_arm(padded, t)

    def rule_spy(padded, r, c):
        evaluations.append((r, c))
        return candidates(padded, r, c)

    monkeypatch.setattr(supertile, "_solve_arm", arm_spy)
    monkeypatch.setattr(supertile, "_candidates", rule_spy)
    for rank in range(1, 11):
        for facing in FACINGS:
            build(rank, facing)
    # 4 * (2^(k-1) - 1) cells for each rank k = 2..10, once per rank.
    assert len(cells) == 4 * 9
    assert sum(cells) == 4052 == sum(4 * ((1 << (k - 1)) - 1) for k in range(2, 11))
    assert len(evaluations) == len(supertile._ARM_MEMO) == 52
    assert sorted(supertile._BUILD_MEMO) == list(range(1, 11))


@pytest.mark.parametrize("facing", FACINGS[1:])
def test_a_non_ne_build_builds_no_other_facing_of_its_rank(facing, monkeypatch):
    _clear_memos(monkeypatch)
    ids = build(9, facing).ids
    # The memo holds the NE grid of each rank and nothing else; the
    # facing's grid is a copy of it, not kept.
    assert sorted(supertile._BUILD_MEMO) == list(range(1, 10))
    ne = supertile._BUILD_MEMO[9]
    assert ne.shape == ids.shape and not np.shares_memory(ne, ids)
    assert np.array_equal(_turned(ids, 4 - FACING_ROTATIONS[facing]), ne)


@pytest.mark.parametrize("facing", FACINGS)
def test_a_failed_cross_is_not_memoised(facing, monkeypatch):
    _clear_memos(monkeypatch)
    solve = supertile._solve

    def failing(padded, r, c):
        # Rank 3 (a 9-square padded grid), at the second cell of the
        # north half-arm, after the first has solved: a key no rank
        # below meets, so it reaches the rules.
        if padded.shape[0] == 9 and (r, c) == (1, 3):
            raise CrossUnsolvable((r + 1, c + 1))
        return solve(padded, r, c)

    with monkeypatch.context() as m:
        m.setattr(supertile, "_solve", failing)
        with pytest.raises(CrossUnsolvable):
            build(3, facing)
    assert sorted(supertile._BUILD_MEMO) == [1, 2]
    ids = build(3, facing).ids
    assert np.array_equal(_outward_cross(ids, FACING_ROTATIONS[facing]), ids)
    assert build(3, "NE") == grid_from_literals(reference_layouts.rank3_ne())


@pytest.mark.slow
@pytest.mark.parametrize("rank", [13, 14])
def test_each_facing_is_the_ne_build_turned_at_high_ranks(rank, monkeypatch):
    # Rank 14 holds the NE grids of ranks 1..14 and one other facing at
    # a time.
    monkeypatch.setattr(supertile, "_BUILD_MEMO", {})
    ne = _build_ids(rank)
    step = 1024
    for f in range(1, 4):
        table, turned = _turn_table(f), np.rot90(ne, f)
        ids = _facing_ids(rank, f)
        for r in range(0, ids.shape[0], step):
            assert np.array_equal(ids[r : r + step], table[turned[r : r + step]]), (f, r)
        del ids
