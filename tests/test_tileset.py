"""Pose group, edge labels, and matching-rule tests."""

import itertools

import pytest

from robinsonblocks.tileset import (
    ALL_TILES,
    Adjacency,
    EAST_OK,
    IDENTITY,
    OrientedTile,
    Pose,
    Prototile,
    Side,
    SOUTH_OK,
    all_oriented_tiles,
    compatible,
    edge_label,
    is_bumpy_corner,
    label_text,
    mirror_label,
    mirror_tile,
    rotate_tile,
    tile_id,
)

ALL_POSES = [Pose(r, m) for r in range(4) for m in (False, True)]

# Recorded regression value: compatible ordered east-pairs over all 32
# distinct oriented tiles, found by the brute-force double loop below.
EAST_PAIR_COUNT = 176


def test_pose_group_laws():
    for p, q, r in itertools.product(ALL_POSES, repeat=3):
        assert p.compose(q).compose(r) == p.compose(q.compose(r))
    for p in ALL_POSES:
        assert p.compose(IDENTITY) == p
        assert IDENTITY.compose(p) == p
        assert p.compose(p.inverse()) == IDENTITY
        assert p.inverse().compose(p) == IDENTITY


def test_pose_group_order_eight():
    assert len(set(ALL_POSES)) == 8


def test_rotation_squared_twice_is_identity():
    half = Pose(2, False)
    assert half.compose(half) == IDENTITY
    for proto in Prototile:
        for side in Side:
            assert edge_label(
                OrientedTile(proto, half.compose(half)), side
            ) == edge_label(OrientedTile(proto, IDENTITY), side)


def test_mirror_label_involution():
    for proto in Prototile:
        for pose in ALL_POSES:
            for side in Side:
                lab = edge_label(OrientedTile(proto, pose), side)
                assert mirror_label(mirror_label(lab)) == lab


def test_bumpy_identity_east_label_matches_table():
    # The bumpy corner's transcribed east label: principal head at the
    # center, side head at the near-end (quarter-north) slot.
    lab = edge_label(OrientedTile(Prototile.BUMPY_CORNER), Side.E)
    assert label_text(lab) == ".PS"


def test_identity_table_spot_checks():
    corner = OrientedTile(Prototile.CORNER)
    assert label_text(edge_label(corner, Side.N)) == "SP."
    assert label_text(edge_label(corner, Side.S)) == ".P."
    plain = OrientedTile(Prototile.ARM3)
    assert label_text(edge_label(plain, Side.N)) == ".P."
    assert label_text(edge_label(plain, Side.S)) == ".p."


# Under a quarter turn of the tile, the content of the old east edge
# shows up on the new north edge, and so on around.
_ROTATED_SIDE = {Side.E: Side.N, Side.S: Side.E, Side.W: Side.S, Side.N: Side.W}


def test_edge_label_equivariance_under_rotation():
    for proto in Prototile:
        for pose in ALL_POSES:
            tile = OrientedTile(proto, pose)
            rotated = OrientedTile(proto, Pose(1, False).compose(pose))
            for side in Side:
                assert edge_label(rotated, _ROTATED_SIDE[side]) == edge_label(tile, side)


def test_all_oriented_tiles_census():
    tiles = all_oriented_tiles()
    assert len(tiles) == 32
    assert len(set(tiles)) == 32
    bumpy = [t for t in tiles if t.prototile == Prototile.BUMPY_CORNER]
    assert len(bumpy) == 4
    assert OrientedTile(Prototile.CORNER, IDENTITY) in tiles


def test_all_oriented_tiles_deterministic():
    assert all_oriented_tiles() == all_oriented_tiles()


@pytest.mark.parametrize("proto", list(Prototile))
def test_orbit_reproduces_list_members(proto):
    members = {t for t in all_oriented_tiles() if t.prototile == proto}
    orbit = {OrientedTile(proto, pose).canonical() for pose in ALL_POSES}
    assert orbit == members


def test_canonical_is_lexicographically_smallest():
    for proto in Prototile:
        for pose in ALL_POSES:
            tile = OrientedTile(proto, pose)
            canon = tile.canonical()
            assert canon.labels() == tile.labels()
            equal_label_poses = [
                p
                for p in ALL_POSES
                if OrientedTile(proto, p).labels() == tile.labels()
            ]
            best = min(equal_label_poses, key=lambda p: (p.rotation, p.mirror))
            assert canon.pose == best


def test_is_bumpy_corner():
    for pose in ALL_POSES:
        assert is_bumpy_corner(OrientedTile(Prototile.BUMPY_CORNER, pose))
        assert not is_bumpy_corner(OrientedTile(Prototile.CORNER, pose))


def test_head_meets_head_is_forbidden():
    # Two corner tiles back to back: both facing labels carry a
    # principal head at the center slot.
    a = OrientedTile(Prototile.CORNER, IDENTITY)  # east edge: .PS
    b = OrientedTile(Prototile.CORNER, IDENTITY)  # west edge: .P.
    assert not compatible(a, b, Adjacency.EAST)


def test_supertile_adjacencies_all_compatible():
    from robinsonblocks.supertile import build

    grid = build(2, "NE")
    for r in range(1, 4):
        for c in range(1, 4):
            if c < 3:
                assert compatible(
                    grid.tile_at(r, c), grid.tile_at(r, c + 1), Adjacency.EAST
                )
            if r < 3:
                assert compatible(
                    grid.tile_at(r, c), grid.tile_at(r + 1, c), Adjacency.SOUTH
                )


def test_east_pair_regression_count():
    count = sum(
        compatible(a, b, Adjacency.EAST)
        for a in all_oriented_tiles()
        for b in all_oriented_tiles()
    )
    assert count == EAST_PAIR_COUNT
    assert int(EAST_OK.sum()) == EAST_PAIR_COUNT
    assert int(SOUTH_OK.sum()) == EAST_PAIR_COUNT


def test_compat_tables_match_the_pairwise_loop():
    # The reference: ``compatible`` called for every ordered pair.
    for i, a in enumerate(ALL_TILES):
        for j, b in enumerate(ALL_TILES):
            assert EAST_OK[i, j] == compatible(a, b, Adjacency.EAST), (a, b)
            assert SOUTH_OK[i, j] == compatible(a, b, Adjacency.SOUTH), (a, b)
    assert EAST_OK.shape == SOUTH_OK.shape == (len(ALL_TILES), len(ALL_TILES))
    assert EAST_OK.dtype == SOUTH_OK.dtype == bool


def test_compatibility_equivariance():
    tiles = all_oriented_tiles()
    for a in tiles:
        for b in tiles:
            east = compatible(a, b, Adjacency.EAST)
            # Quarter turn: an east pair becomes a south pair.
            assert east == compatible(rotate_tile(b), rotate_tile(a), Adjacency.SOUTH)
            # Reflection across the shared (vertical) edge swaps the pair.
            assert east == compatible(mirror_tile(b), mirror_tile(a), Adjacency.EAST)


def test_compatibility_reflection_across_horizontal_edge():
    # For south pairs the shared edge is horizontal; reflecting both
    # tiles across it is mirror-then-half-turn.
    flip = Pose(2, True)
    tiles = all_oriented_tiles()
    for a in tiles:
        for b in tiles:
            fa = OrientedTile(a.prototile, flip.compose(a.pose))
            fb = OrientedTile(b.prototile, flip.compose(b.pose))
            assert compatible(a, b, Adjacency.SOUTH) == compatible(
                fb, fa, Adjacency.SOUTH
            )


def test_bumpy_and_corner_share_arrows_but_stay_distinct():
    # The bump is carried by the parity rule, not the arrows, so the two
    # corner prototiles have equal labels yet distinct identities.
    b = OrientedTile(Prototile.BUMPY_CORNER, IDENTITY)
    c = OrientedTile(Prototile.CORNER, IDENTITY)
    assert b.labels() == c.labels()
    assert not b.semantically_equal(c)
    assert tile_id(b) != tile_id(c)


def test_tile_ids_are_canonical_order():
    for i, tile in enumerate(ALL_TILES):
        assert tile_id(tile) == i
        assert tile.canonical() == tile
