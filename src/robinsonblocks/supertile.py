"""Recursive supertile construction and whole-grid validation.

A rank-k supertile is a (2^k - 1)-square grid: four rank-(k-1)
supertiles facing a central corner tile, with the central row and
column (the cross) filled by arm tiles.  The quadrants are fixed; only
the center tile and the cross decorations depend on the requested
facing.  Only the NE supertile of each rank is built: its cross is
solved from the matching rules, and each cell must admit exactly one
tile, so every rank doubles as a consistency check of the tile
transcription.  Each other facing is the NE supertile turned and has
the same quadrants, so it is the NE grid with its cross turned
(``_facing_ids``).  Both local rules live in one kernel, ``_faults``,
which serves the cross solver and ``validate`` alike.  The rules read
only a cell's 3x3 neighbourhood, so the cross is solved one half-arm at
a time from a memo keyed by that neighbourhood (``_solve_arm``); only a
neighbourhood met for the first time runs the rules, and it must give
exactly one tile.
"""

from __future__ import annotations

import numbers
from typing import Optional

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
    _KEY_TO_PROTOTILE,
    mirror_tile,
    tile_from_id,
    tile_id,
)

EMPTY = 255
# Cells per band of a streamed JSON or ASCII document, so writing one
# holds a band in memory and not the whole grid.
_BAND_CELLS = 1 << 14


def _band_rows(width: int) -> int:
    """Rows per band of about ``_BAND_CELLS`` cells, at least one."""
    return max(1, _BAND_CELLS // max(width, 1))


# Facing = the diagonal the corner decoration points at, as a rotation of
# the identity (north-east) orientation, counter-clockwise.
FACING_ROTATIONS = {"NE": 0, "NW": 1, "SW": 2, "SE": 3}

# Each uint8 id's cell as ``to_json`` writes it: its [tile, rotation,
# mirror] triple as compact JSON, or null for EMPTY (ids above the tile
# ids never occur in a TileGrid).  Spelled out here, so that ``json`` is
# imported only by ``from_json``: a key is a plain identifier and needs
# no escaping.
_JSON_CELLS = [
    f'["{t.prototile.key}",{t.pose.rotation},{"true" if t.pose.mirror else "false"}]'
    for t in ALL_TILES
] + ["null"] * (256 - len(ALL_TILES))


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


class TileGrid:
    """A rectangular, row-major array of oriented tiles.

    Coordinates are [row, col], 1-based, row 1 at top.  Cells may be
    empty (None) in partially built grids.  Grids are immutable after
    construction; ids other than tile ids and EMPTY, non-integer values
    included, raise ValueError.
    """

    def __init__(self, ids: np.ndarray):
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError("grid ids must be 2-dimensional")
        bad = f"grid ids must be tile ids below {len(ALL_TILES)} or EMPTY ({EMPTY})"
        if ids.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in ids.flat):
            try:
                ids = ids.astype(float)
            except OverflowError:  # an int too large for a float names no tile
                raise ValueError(bad) from None
        if ids.dtype.kind not in "biuf":  # strings, objects, complex numbers
            raise ValueError(bad)
        # Checked a band of rows at a time, so the check's temporaries
        # are one band, not the size of the grid.
        step = _band_rows(ids.shape[1])
        for r in range(0, ids.shape[0], step):
            band = ids[r : r + step]
            named = (0 <= band) & (band < len(ALL_TILES)) | (band == EMPTY)
            if ids.dtype.kind == "f":  # a float names a tile only if it is whole
                named &= band == np.trunc(band)
            if np.count_nonzero(named) != band.size:
                raise ValueError(bad)
        self._ids = ids.astype(np.uint8)
        self._ids.setflags(write=False)

    @classmethod
    def _wrap(cls, ids: np.ndarray) -> "TileGrid":
        """A grid over ``ids`` itself, a read-only uint8 array of tile
        ids, neither copied nor checked: how ``build_supertile`` hands out
        the memoised build."""
        grid = cls.__new__(cls)
        grid._ids = ids
        return grid

    @classmethod
    def from_tiles(cls, rows) -> "TileGrid":
        """Build from nested lists of OrientedTile (or None for empty)."""
        height = len(rows)
        width = len(rows[0]) if height else 0
        ids = np.full((height, width), EMPTY, dtype=np.uint8)
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError("ragged rows")
            for c, tile in enumerate(row):
                if tile is not None:
                    ids[r, c] = tile_id(tile)
        return cls(ids)

    @property
    def width(self) -> int:
        return self._ids.shape[1]

    @property
    def height(self) -> int:
        return self._ids.shape[0]

    @property
    def ids(self) -> np.ndarray:
        """The canonical tile-id array (read-only view)."""
        return self._ids

    def tile_at(self, row: int, col: int) -> Optional[OrientedTile]:
        """The tile at 1-based [row, col], or None if the cell is empty."""
        idx = self._ids[row - 1, col - 1]
        return None if idx == EMPTY else tile_from_id(int(idx))

    def cells(self):
        """All cells in row-major order (None for empty)."""
        flat = self._ids.reshape(-1)
        return [None if i == EMPTY else tile_from_id(int(i)) for i in flat]

    def __eq__(self, other):
        return isinstance(other, TileGrid) and np.array_equal(self._ids, other._ids)

    def __hash__(self):
        return hash((self._ids.shape, self._ids.tobytes()))

    def __repr__(self):
        return f"TileGrid({self.height}x{self.width})"

    def _json_chunks(self):
        """Yield ``to_json``'s document a band of whole rows, about
        ``_BAND_CELLS`` cells, at a time.  The comma between two bands is
        a chunk of its own, so no band is copied to put it in front."""
        yield f'{{"width":{self.width},"height":{self.height},"cells":['
        step = _band_rows(self.width)
        for r in range(0, self.height if self.width else 0, step):
            band = self._ids[r : r + step].reshape(-1).tolist()
            if r:
                yield ","
            yield ",".join(map(_JSON_CELLS.__getitem__, band))
        yield "]}"

    def to_json(self) -> str:
        """Normative JSON dump: {width, height, cells} with row-major
        [tile, rotation, mirror] triples, null for an empty cell."""
        return "".join(self._json_chunks())

    @classmethod
    def from_json(cls, text: str) -> "TileGrid":
        """Inverse of ``to_json``; a malformed document raises ValueError."""
        import json  # here, so that no other command pays for it

        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("grid JSON nests too deeply") from None
        if not isinstance(doc, dict) or not {"width", "height", "cells"} <= doc.keys():
            raise ValueError("grid JSON must be an object with width, height and cells")
        width, height, cells = doc["width"], doc["height"], doc["cells"]
        # ``type``, not ``isinstance``: JSON's true and false are bools.
        if not (type(width) is int and type(height) is int and min(width, height) >= 0):
            raise ValueError("grid JSON width and height must be non-negative integers")
        if max(width, height) > np.iinfo(np.intp).max:  # numpy's longest axis; no cells
            raise ValueError(f"grid JSON width and height must be at most {np.iinfo(np.intp).max}")
        if not isinstance(cells, list) or len(cells) != width * height:
            raise ValueError("cell count does not match width*height")
        flat = bytearray([EMPTY]) * len(cells)
        # Tile id per distinct cell entry.  A hit returns what the code
        # below returned for an equal entry: its unpacking, the prototile
        # lookup and ``Pose`` all compare values, not types.
        memo = {}
        for i, entry in enumerate(cells):
            if entry is None:
                continue
            try:
                key = tuple(entry)
                flat[i] = memo[key]
                continue
            except KeyError:
                pass
            except TypeError:  # not iterable, or holds an unhashable value
                key = None
            try:
                name, rot, mirror = entry
                tile = OrientedTile(_KEY_TO_PROTOTILE[name], Pose(rot, mirror))
            except (KeyError, TypeError, ValueError):
                r, c = divmod(i, width)
                raise ValueError(
                    f"grid JSON cell [{r + 1}, {c + 1}] is not a [tile, rotation, mirror] "
                    f"triple naming a prototile: {entry!r}"
                ) from None
            flat[i] = tile_id(tile)
            if key is not None:
                memo[key] = flat[i]
        return cls(np.frombuffer(flat, dtype=np.uint8).reshape(height, width))


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


def solve_cross_cell(partial: TileGrid, pos) -> OrientedTile:
    """The unique tile fitting ``pos`` (1-based [row, col]) given the
    already-placed neighbours.  Raises CrossUnsolvable / CrossAmbiguous.
    A ``pos`` that is no pair raises ValueError, a pair of non-integers
    TypeError and a cell outside the grid ValueError, before anything is
    solved."""
    try:
        row, col = pos
    except (TypeError, ValueError):
        raise ValueError(f"cell must be a [row, col] pair, got {pos!r}") from None
    row, col = _integer("cell row", row), _integer("cell column", col)
    if not (1 <= row <= partial.height and 1 <= col <= partial.width):
        raise ValueError(f"cell {list(pos)} lies outside {partial!r}")
    padded = np.pad(partial.ids, 1, constant_values=EMPTY)
    return tile_from_id(_solve(padded, row - 1, col - 1))


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


def _turn_cross(ids: np.ndarray, ne: np.ndarray, facing: int):
    """Write over ``ids``, a copy of ``ne``, the centre row and column of
    ``ne`` turned ``facing`` quarter turns."""
    c = ne.shape[0] // 2
    turned = _rot90(ne, facing)
    ids[c] = _TURNS[facing][turned[c]]
    ids[:, c] = _TURNS[facing][turned[:, c]]


def _facing_ids(rank: int, facing: int) -> np.ndarray:
    """The rank-``rank`` supertile ``facing`` quarter turns from NE,
    read-only.  Each facing is the NE one turned, and shares its
    quadrants: the NE grid itself, or a copy of it with the facing's
    centre row and column written over the NE ones."""
    ne = _build_ids(rank)
    if facing == 0:
        return ne
    ids = ne.copy()
    _turn_cross(ids, ne, facing)
    ids.setflags(write=False)
    return ids


def build_supertile(spec: SupertileSpec) -> TileGrid:
    """The validated rank-``spec.rank`` supertile facing ``spec.pose``."""
    return TileGrid._wrap(_facing_ids(spec.rank, spec.pose.rotation))


def build(rank: int, facing: str = "NE") -> TileGrid:
    """Convenience wrapper taking a facing name (NE, NW, SW, SE)."""
    if facing not in FACING_ROTATIONS:
        raise ValueError(f"facing must be one of {', '.join(FACING_ROTATIONS)}, got {facing!r}")
    return build_supertile(SupertileSpec(rank, Pose(FACING_ROTATIONS[facing], False)))


class Violation(Record):
    __match_args__ = ("kind", "row", "col", "detail")

    def __init__(self, kind: str, row: int, col: int, detail: str = ""):
        # kind is "adjacency" or "parity"; row and col, 1-based, name the
        # west/north cell of a pair, or the top-left cell of a 2x2 window.
        self._set(kind, row, col, detail)


class ValidationReport(Record):
    __match_args__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple):
        self._set(ok, violations)

    def __bool__(self):
        return self.ok


def validate(grid: TileGrid) -> ValidationReport:
    """Check every adjacency and the exactly-one-bumpy-corner parity rule:
    report ``_faults``' masks of the grid as sorted ``Violation``s (pairs
    and 2x2 windows touching an empty cell are vacuously fine)."""
    east, south, parity, counts = _faults(grid.ids)
    violations = [
        Violation("adjacency", int(r) + 1, int(c) + 1, side)
        for side, bad in (("east", east), ("south", south))
        for r, c in zip(*np.nonzero(bad))
    ]
    violations += (
        Violation("parity", int(r) + 1, int(c) + 1, f"{int(counts[r, c])} bumpy corners")
        for r, c in zip(*np.nonzero(parity))
    )
    violations.sort(key=lambda v: (v.row, v.col, v.kind, v.detail))
    return ValidationReport(not violations, tuple(violations))
