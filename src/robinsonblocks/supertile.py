"""Recursive supertile construction: the builder core.

A rank-k supertile is a (2^k - 1)-square grid: four rank-(k-1)
supertiles facing a central corner tile, with the central row and
column (the cross) filled by arm tiles.  The quadrants are fixed; only
the center tile and the cross decorations depend on the requested
facing.  Only the NE supertile of each rank is built: its cross is
solved from the matching rules, and each cell must admit exactly one
tile, so every rank doubles as a consistency check of the tile
transcription.  Each other facing is the NE supertile turned and has
the same quadrants, so it is the NE grid with its cross turned
(``grid._facing_ids``).  Both local rules live in one kernel,
``_faults``, which serves the cross solver and ``grid.validate`` alike.
The rules read only a cell's 3x3 neighbourhood, so the cross is solved
one half-arm at a time from a memo keyed by that neighbourhood
(``_solve_arm``); only a neighbourhood met for the first time runs the
rules, and it must give exactly one tile.

This module holds what a count runs: the rules, the memoised NE build
and the cross turn.  A built supertile becomes a ``TileGrid`` in
``grid``, which ``build`` and ``build_supertile`` import when they are
called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ._record import Record, _integer
from .tileset import (
    ALL_TILES,
    EAST_OK,
    SOUTH_OK,
    TURN,
    BUMPY_IDS,
    IDENTITY,
    OrientedTile,
    Pose,
    Prototile,
    mirror_tile,
    tile_from_id,
    tile_id,
)

if TYPE_CHECKING:
    from .grid import TileGrid

EMPTY = 255

# Facing = the diagonal the corner decoration points at, as a rotation of
# the identity (north-east) orientation, counter-clockwise.
FACING_ROTATIONS = {"NE": 0, "NW": 1, "SW": 2, "SE": 3}


class CrossUnsolvable(Exception):
    """No tile fits a cross cell; signals a faulty tile transcription."""

    def __init__(self, pos, msg=""):
        self.pos = pos
        super().__init__(f"no tile fits cross cell {list(pos)}{': ' + msg if msg else ''}")


class CrossAmbiguous(Exception):
    """More than one tile fits a cross cell; signals a faulty transcription."""

    def __init__(self, pos, candidates):
        self.pos = pos
        self.candidates = candidates
        names = ", ".join(str(tile_from_id(i)) for i in candidates)
        super().__init__(f"{len(candidates)} tiles fit cross cell {list(pos)}: {names}")


class SupertileSpec(Record):
    """Rank plus facing pose (rotations only; supertiles are never mirrored)."""

    __match_args__ = ("rank", "pose")

    def __init__(self, rank: int, pose: Pose = IDENTITY):
        rank = _integer("rank", rank)
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if not isinstance(pose, Pose):
            raise TypeError(f"supertile facing must be a Pose, got {pose!r}")
        if pose.mirror:
            raise ValueError("supertile facing is restricted to the 4 rotations")
        self._set(rank, pose)

    @property
    def side(self) -> int:
        return (1 << self.rank) - 1


# The two rules over every uint8 id, each id past the tile ids read as
# EMPTY: such a pair always abuts, and such a cell weighs 8 bumpy
# corners, so a 2x2 window holding one sums to 8 or more.
_EAST_OK = np.ones((256, 256), dtype=bool)
_EAST_OK[: len(ALL_TILES), : len(ALL_TILES)] = EAST_OK
_SOUTH_OK = np.ones((256, 256), dtype=bool)
_SOUTH_OK[: len(ALL_TILES), : len(ALL_TILES)] = SOUTH_OK
_BUMPY_WEIGHT = np.full(256, 8, dtype=np.int8)
_BUMPY_WEIGHT[: len(ALL_TILES)] = BUMPY_IDS


def _faults(ids: np.ndarray) -> tuple:
    """Robinson's two local rules on uint8 grids shaped ``(..., height,
    width)``.

    Returns the east pairs (by west cell) and south pairs (by north cell)
    whose edges do not abut, the 2x2 windows (by top-left cell) without
    exactly one bumpy corner, and each window's bumpy count.  A pair or
    window touching an EMPTY cell is never at fault; its count is 8 or
    more.
    """
    east = ~_EAST_OK[ids[..., :-1], ids[..., 1:]]
    south = ~_SOUTH_OK[ids[..., :-1, :], ids[..., 1:, :]]
    weight = _BUMPY_WEIGHT[ids]
    row_pairs = weight[..., :-1] + weight[..., 1:]
    del weight  # as large as the grids: freed before the window sums
    counts = row_pairs[..., :-1, :] + row_pairs[..., 1:, :]
    return east, south, (counts != 1) & (counts < 8), counts


def _candidates(padded: np.ndarray, r: int, c: int) -> tuple:
    """Tile ids compatible with every placed neighbour of cell (r, c),
    0-based, of a grid given as ``padded``, the grid inside a one-cell
    EMPTY border (so the cell sits at ``padded[r + 1, c + 1]``).

    Both rules come from ``_faults``, run on the 3x3 neighbourhood once
    per tile id in the centre: a tile fits if no pair through the centre
    and none of the four 2x2 windows (each holds it) is at fault.  The
    border and EMPTY neighbours constrain nothing.
    """
    nb = np.repeat(padded[None, r : r + 3, c : c + 3], len(ALL_TILES), axis=0)
    nb[:, 1, 1] = np.arange(len(ALL_TILES))
    east, south, parity, _ = _faults(nb)
    bad = east[:, 1].any(axis=1) | south[:, :, 1].any(axis=1) | parity.any(axis=(1, 2))
    return tuple(np.flatnonzero(~bad).tolist())


def _solve(padded: np.ndarray, r: int, c: int) -> int:
    """The one tile id fitting 0-based cell (r, c), read from ``padded``
    as ``_candidates`` does.  Errors carry the 1-based position."""
    cands = _candidates(padded, r, c)
    if not cands:
        raise CrossUnsolvable((r + 1, c + 1))
    if len(cands) > 1:
        raise CrossAmbiguous((r + 1, c + 1), list(cands))
    return cands[0]


# ``TURN`` applied t times, for t = 0..3, as one 256-entry lookup table
# each; an id past the tile ids (EMPTY) maps to itself.
_TURNS = np.tile(np.arange(256, dtype=np.uint8), (4, 1))
for _t in range(1, 4):
    _TURNS[_t, : len(TURN)] = TURN[_TURNS[_t - 1, : len(TURN)]]

# Each id's id in a grid's mirror image across its NE-SW diagonal,
# ``_MIRROR[ids[::-1, ::-1].T]``: the tile reflected across a vertical
# axis, then turned three quarters; an id past the tile ids maps to
# itself.  The NE supertile of every rank is its own mirror image (see
# ``enumerator._window_scan``).
_MIRROR = _TURNS[3].copy()
_MIRROR[: len(TURN)] = _TURNS[3][[tile_id(mirror_tile(t)) for t in ALL_TILES]]


def _rot90(ids: np.ndarray, t: int) -> np.ndarray:
    """``np.rot90(ids, t)`` for t = 0..3, a view, without its argument
    handling."""
    return (ids, ids.T[::-1], ids[::-1, ::-1], ids.T[:, ::-1])[t]


# The NE supertile of each rank, a read-only uint8 array keyed by rank.
# Every other facing is read from it by ``_facing_ids``.  A rank is
# stored only once its whole cross has solved.
_BUILD_MEMO: dict = {}
# The tile of each cross cell ``_solve_arm`` has solved, keyed by its
# half-arm and its whole 3x3 neighbourhood.  Building ranks <= 10
# solves 4,052 cross cells, the NE crosses, which show only 52 keys.
_ARM_MEMO: dict = {}
# The step from the centre along the half-arm that ``_rot90(ids, t)``
# turns to the north, for t = 0..3: north, east, south and west.
_ARM_STEPS = ((-1, 0), (0, 1), (1, 0), (0, -1))


def _build_ids(rank: int) -> np.ndarray:
    """The rank-``rank`` NE supertile's ids, built once and memoised."""
    memo = _BUILD_MEMO.get(rank)
    if memo is not None:
        return memo

    # Built with a one-cell EMPTY border, so every cross cell's 3x3
    # neighbourhood is one slice; the memo keeps the interior view.
    side = (1 << rank) - 1
    padded = np.full((side + 2, side + 2), EMPTY, dtype=np.uint8)
    if rank == 1:
        padded[1, 1] = tile_id(OrientedTile(Prototile.BUMPY_CORNER, IDENTITY))
    else:
        m = 1 << (rank - 1)  # 1-based center index, and its index in ``padded``
        ne = _build_ids(rank - 1)
        # Quadrants always face the center, regardless of the outer facing.
        for quadrant, facing in (
            (padded[1:m, 1:m], "SE"),
            (padded[1:m, m + 1 : -1], "SW"),
            (padded[m + 1 : -1, 1:m], "NE"),
            (padded[m + 1 : -1, m + 1 : -1], "NW"),
        ):
            quadrant[...] = ne
            _turn_cross(quadrant, ne, FACING_ROTATIONS[facing])
        padded[m, m] = tile_id(OrientedTile(Prototile.CORNER, IDENTITY))
        # The half-arms meet only beside the center: each horizontal cell
        # there sees the two vertical ones, and no vertical cell sees a
        # horizontal one.  So the vertical half-arms are solved first.
        for t in (0, 2, 1, 3):
            _solve_arm(padded, t)
    padded.setflags(write=False)
    ids = _BUILD_MEMO[rank] = padded[1:-1, 1:-1]
    return ids


def _solve_arm(padded: np.ndarray, t: int) -> None:
    """Solve the half-arm of ``padded``'s cross that ``_rot90(padded, t)``
    holds above its centre, and write it in.

    ``padded`` is a grid in its EMPTY border, with the quadrants, the
    centre and any half-arm solved before placed.  In the turned view, the
    arm cell d steps north of the centre reads the cell before it on the
    arm, the EMPTY cell after it, and the three cells on each side, whose
    two lines are read once.  So a cell's key is (t, its six side cells,
    the cell before it), and a key met before gives its tile from
    ``_ARM_MEMO``.  A new key is solved by ``_solve`` on ``padded``
    itself, with the arm so far written in, so every error and its
    position come from the rules."""
    view = _rot90(padded, t)
    m = view.shape[0] // 2  # the centre, in ``view`` and in ``padded``
    # Row j: the two cells beside the arm's line j steps north of the centre.
    sides = view[m::-1, [m - 1, m + 1]]
    # Little-endian key bytes: t, the sides of the cell before, of the cell
    # and of the cell after, then the cell before, ORed in as it solves.
    keys = np.zeros((m - 1, 8), dtype=np.uint8)
    keys[:, 0] = t
    for j in range(3):
        keys[:, 1 + 2 * j : 3 + 2 * j] = sides[j : j + m - 1]
    dr, dc = _ARM_STEPS[t]
    tiles = []
    tile = int(view[m, m])
    for d, key in enumerate(keys.view("<u8").ravel().tolist(), 1):
        key |= tile << 56
        tile = _ARM_MEMO.get(key)
        if tile is None:
            view[m - 1 : m - d : -1, m] = tiles
            tile = _ARM_MEMO[key] = _solve(padded, m - 1 + d * dr, m - 1 + d * dc)
        tiles.append(tile)
    view[m - 1 : 0 : -1, m] = tiles


def _turned_cross(ne: np.ndarray, facing: int) -> tuple:
    """The centre row and column of the supertile ``facing`` quarter
    turns from ``ne``, an NE supertile: ``ne``'s own, turned."""
    c = ne.shape[0] // 2
    turned = _rot90(ne, facing)
    return _TURNS[facing][turned[c]], _TURNS[facing][turned[:, c]]


def _turn_cross(ids: np.ndarray, ne: np.ndarray, facing: int):
    """Write over ``ids``, a copy of ``ne``, the centre row and column of
    ``ne`` turned ``facing`` quarter turns."""
    c = ne.shape[0] // 2
    ids[c], ids[:, c] = _turned_cross(ne, facing)


def build_supertile(spec: SupertileSpec) -> TileGrid:
    """The validated rank-``spec.rank`` supertile facing ``spec.pose``."""
    from .grid import TileGrid, _facing_ids

    return TileGrid._wrap(_facing_ids(spec.rank, spec.pose.rotation))


def build(rank: int, facing: str = "NE") -> TileGrid:
    """Convenience wrapper taking a facing name (NE, NW, SW, SE)."""
    if facing not in FACING_ROTATIONS:
        raise ValueError(f"facing must be one of {', '.join(FACING_ROTATIONS)}, got {facing!r}")
    return build_supertile(SupertileSpec(rank, Pose(FACING_ROTATIONS[facing], False)))


