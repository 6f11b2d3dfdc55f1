"""Recursive supertile construction and whole-grid validation.

A rank-k supertile is a (2^k - 1)-square grid: four rank-(k-1)
supertiles facing a central corner tile, with the central row and
column (the cross) filled by arm tiles.  The quadrants are fixed; only
the center tile and the cross decorations depend on the requested
facing.  Cross cells are not hard-coded: the NE cross of each rank is
solved from the matching rules, and each of its cells must admit
exactly one tile, so every rank doubles as a consistency check of the
tile transcription.  Each other facing is the NE supertile turned
(``TURN`` applied to ``np.rot90``) and has the same quadrants, so its
cross is the NE cross turned, not solved again.  The rules read only a
cell's 3x3 neighbourhood, so they run once per distinct neighbourhood
and the result is memoised; every solved cell is still checked for
exactly one candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
    tile_from_id,
    tile_id,
)

EMPTY = 255
_EMPTY_BYTE = bytes([EMPTY])
# Cells per band of a streamed JSON or ASCII document, so writing one
# holds a band in memory and not the whole grid.
_BAND_CELLS = 1 << 14


def _band_rows(width: int) -> int:
    """Rows per band of about ``_BAND_CELLS`` cells, at least one."""
    return max(1, _BAND_CELLS // max(width, 1))


# Facing = the diagonal the corner decoration points at, as a rotation of
# the identity (north-east) orientation, counter-clockwise.
FACING_ROTATIONS = {"NE": 0, "NW": 1, "SW": 2, "SE": 3}
FACING_NAMES = {v: k for k, v in FACING_ROTATIONS.items()}

# Each uint8 id's cell as ``to_json`` writes it: the compact ``json.dumps``
# of its [tile, rotation, mirror] triple, or null for EMPTY (ids above the
# tile ids never occur in a TileGrid).
_JSON_CELLS = [
    json.dumps([t.prototile.key, t.pose.rotation, t.pose.mirror], separators=(",", ":"))
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


@dataclass(frozen=True)
class SupertileSpec:
    """Rank plus facing pose (rotations only; supertiles are never mirrored)."""

    rank: int
    pose: Pose = IDENTITY

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.pose.mirror:
            raise ValueError("supertile facing is restricted to the 4 rotations")

    @property
    def side(self) -> int:
        return (1 << self.rank) - 1


class TileGrid:
    """A rectangular, row-major array of oriented tiles.

    Coordinates are [row, col], 1-based, row 1 at top.  Cells may be
    empty (None) in partially built grids.  Grids are immutable after
    construction; ids other than tile ids and EMPTY raise ValueError.
    """

    def __init__(self, ids: np.ndarray):
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValueError("grid ids must be 2-dimensional")
        # Checked a band of rows at a time, so the check's temporaries
        # are one band, not the size of the grid.
        step = _band_rows(ids.shape[1])
        for r in range(0, ids.shape[0], step):
            band = ids[r : r + step]
            tiles = np.count_nonzero((0 <= band) & (band < len(ALL_TILES)))
            if tiles + np.count_nonzero(band == EMPTY) != band.size:
                raise ValueError(
                    f"grid ids must be tile ids below {len(ALL_TILES)} or EMPTY ({EMPTY})"
                )
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
        ``_BAND_CELLS`` cells, at a time."""
        yield f'{{"width":{self.width},"height":{self.height},"cells":['
        step = _band_rows(self.width)
        for r in range(0, self.height if self.width else 0, step):
            band = self._ids[r : r + step].reshape(-1).tolist()
            cells = ",".join(map(_JSON_CELLS.__getitem__, band))
            yield f",{cells}" if r else cells
        yield "]}"

    def to_json(self) -> str:
        """Normative JSON dump: {width, height, cells} with row-major
        [tile, rotation, mirror] triples, null for an empty cell."""
        return "".join(self._json_chunks())

    @classmethod
    def from_json(cls, text: str) -> "TileGrid":
        """Inverse of ``to_json``; a malformed document raises ValueError."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("grid JSON nests too deeply") from None
        if not isinstance(doc, dict) or not {"width", "height", "cells"} <= doc.keys():
            raise ValueError("grid JSON must be an object with width, height and cells")
        width, height, cells = doc["width"], doc["height"], doc["cells"]
        if not (isinstance(width, int) and isinstance(height, int) and min(width, height) >= 0):
            raise ValueError("grid JSON width and height must be non-negative integers")
        if not isinstance(cells, list) or len(cells) != width * height:
            raise ValueError("cell count does not match width*height")
        key_to_proto = {p.key: p for p in Prototile}
        flat = bytearray(_EMPTY_BYTE) * len(cells)
        # Tile id per distinct cell entry.  A hit returns what the code
        # below returned for an equal entry: its unpacking, ``int`` and
        # ``bool`` all agree on equal values.
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
                tile = OrientedTile(key_to_proto[name], Pose(int(rot), bool(mirror)))
            except (KeyError, TypeError, ValueError, OverflowError):  # int(Infinity) overflows
                r, c = divmod(i, width)
                raise ValueError(
                    f"grid JSON cell [{r + 1}, {c + 1}] is not a [tile, rotation, mirror] "
                    f"triple naming a prototile: {entry!r}"
                ) from None
            flat[i] = tile_id(tile)
            if key is not None:
                memo[key] = flat[i]
        return cls(np.frombuffer(flat, dtype=np.uint8).reshape(height, width))


def _candidates(padded: np.ndarray, r: int, c: int) -> tuple:
    """Tile ids compatible with every placed neighbour of cell (r, c),
    0-based, of a grid given as ``padded``, the grid inside a one-cell
    EMPTY border (so the cell sits at ``padded[r + 1, c + 1]``).

    Applies both local rules: arrow matching against the four neighbours
    and the exactly-one-bumpy-corner parity over every fully placed 2x2
    window through the cell (the rule that separates bumpy corners from
    plain ones, whose arrows agree).  The rules read only the cell's 3x3
    neighbourhood, taken as 9 bytes in which the cell itself and cells
    outside the grid (the border) read as EMPTY: an EMPTY neighbour adds
    no arrow constraint, and a 2x2 window touching one is skipped.  So
    the rules run once per distinct neighbourhood, and ``_RULE_MEMO``
    keeps the result.
    """
    block = padded[r : r + 3, c : c + 3].tobytes()
    nb = block[:4] + _EMPTY_BYTE + block[5:]
    cands = _RULE_MEMO.get(nb)
    if cands is not None:
        return cands

    ok = np.ones(len(ALL_TILES), dtype=bool)
    north, west, east, south = nb[1], nb[3], nb[5], nb[7]
    if north != EMPTY:
        ok &= SOUTH_OK[north, :]
    if south != EMPTY:
        ok &= SOUTH_OK[:, south]
    if west != EMPTY:
        ok &= EAST_OK[west, :]
    if east != EMPTY:
        ok &= EAST_OK[:, east]
    for corner in (0, 1, 3, 4):  # top-left cell of each 2x2 window through the centre
        others = [nb[i] for i in (corner, corner + 1, corner + 3, corner + 4) if i != 4]
        if EMPTY in others:
            continue
        placed_bumpy = sum(bool(BUMPY_IDS[i]) for i in others)
        if placed_bumpy == 0:
            ok &= BUMPY_IDS
        elif placed_bumpy == 1:
            ok &= ~BUMPY_IDS
        else:
            ok &= False
    cands = _RULE_MEMO[nb] = tuple(int(i) for i in np.nonzero(ok)[0])
    return cands


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
    already-placed neighbours.  Raises CrossUnsolvable / CrossAmbiguous."""
    row, col = pos
    if not (1 <= row <= partial.height and 1 <= col <= partial.width):
        raise ValueError(f"cell {list(pos)} lies outside {partial!r}")
    padded = np.pad(partial.ids, 1, constant_values=EMPTY)
    return tile_from_id(_solve(padded, row - 1, col - 1))


_BUILD_MEMO: dict = {}
# The NE cross of each rank as its (centre row, centre column), keyed by
# rank alone.  The quadrants do not depend on the facing, so every other
# facing's cross is this one turned.  A rank is stored only once its
# whole cross has solved.
_CROSS_MEMO: dict = {}
# ``_candidates`` per distinct 3x3 neighbourhood.  Building ranks <= 10
# in all four facings solves 4,052 cross cells, the NE crosses, which
# show only 52 distinct neighbourhoods.
_RULE_MEMO: dict = {}


def _build_ids(rank: int, facing: int) -> np.ndarray:
    key = (rank, facing)
    memo = _BUILD_MEMO.get(key)
    if memo is not None:
        return memo

    # Built with a one-cell EMPTY border, so every cross cell's 3x3
    # neighbourhood is one slice; the memo keeps the interior view.
    side = (1 << rank) - 1
    padded = np.full((side + 2, side + 2), EMPTY, dtype=np.uint8)
    if rank == 1:
        padded[1, 1] = tile_id(OrientedTile(Prototile.BUMPY_CORNER, Pose(facing, False)))
    else:
        m = 1 << (rank - 1)  # 1-based center index, and its index in ``padded``
        # Quadrants always face the center, regardless of the outer facing.
        padded[1:m, 1:m] = _build_ids(rank - 1, FACING_ROTATIONS["SE"])
        padded[1:m, m + 1 : -1] = _build_ids(rank - 1, FACING_ROTATIONS["SW"])
        padded[m + 1 : -1, 1:m] = _build_ids(rank - 1, FACING_ROTATIONS["NE"])
        padded[m + 1 : -1, m + 1 : -1] = _build_ids(rank - 1, FACING_ROTATIONS["NW"])
        cross = _CROSS_MEMO.get(rank)
        if cross is None:
            cc = m - 1
            padded[m, m] = tile_id(OrientedTile(Prototile.CORNER, IDENTITY))
            # Center first, then outward along each half-row/half-column,
            # so every cross cell sees at least two placed neighbours.
            for d in range(1, m):
                for r, c in ((cc - d, cc), (cc + d, cc), (cc, cc - d), (cc, cc + d)):
                    padded[r + 1, c + 1] = _solve(padded, r, c)
            cross = _CROSS_MEMO[rank] = (padded[m, 1:-1].copy(), padded[1:-1, m].copy())
        row, col = cross
        for _ in range(facing):  # a quarter turn of the grid, TURN[np.rot90(ids)]
            row, col = TURN[col], TURN[row[::-1]]
        padded[m, 1:-1], padded[1:-1, m] = row, col
    padded.setflags(write=False)
    ids = padded[1:-1, 1:-1]
    _BUILD_MEMO[key] = ids
    return ids


def build_supertile(spec: SupertileSpec) -> TileGrid:
    """The validated rank-``spec.rank`` supertile facing ``spec.pose``."""
    return TileGrid._wrap(_build_ids(spec.rank, spec.pose.rotation))


def build(rank: int, facing: str = "NE") -> TileGrid:
    """Convenience wrapper taking a facing name (NE, NW, SW, SE)."""
    return build_supertile(SupertileSpec(rank, Pose(FACING_ROTATIONS[facing], False)))


@dataclass(frozen=True)
class Violation:
    kind: str  # "adjacency" or "parity"
    row: int  # 1-based position: the west/north cell, or the 2x2 top-left
    col: int
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def validate(grid: TileGrid) -> ValidationReport:
    """Check every adjacency and the exactly-one-bumpy-corner parity rule.

    Violations are reported as data; empty cells are skipped (pairs and
    2x2 windows touching an empty cell are vacuously fine).
    """
    placed = grid.ids != EMPTY
    ids = np.where(placed, grid.ids, 0)  # EMPTY reads as tile 0; ``placed`` masks it
    h, w = ids.shape
    violations = []

    if w > 1:
        a, b = ids[:, :-1], ids[:, 1:]
        bad = placed[:, :-1] & placed[:, 1:] & ~EAST_OK[a, b]
        for r, c in zip(*np.nonzero(bad)):
            violations.append(Violation("adjacency", int(r) + 1, int(c) + 1, "east"))
    if h > 1:
        a, b = ids[:-1, :], ids[1:, :]
        bad = placed[:-1, :] & placed[1:, :] & ~SOUTH_OK[a, b]
        for r, c in zip(*np.nonzero(bad)):
            violations.append(Violation("adjacency", int(r) + 1, int(c) + 1, "south"))
    if h > 1 and w > 1:
        bumpy = BUMPY_IDS[ids] & placed
        window_placed = (
            placed[:-1, :-1] & placed[:-1, 1:] & placed[1:, :-1] & placed[1:, 1:]
        )
        counts = (
            bumpy[:-1, :-1].astype(np.int8)
            + bumpy[:-1, 1:]
            + bumpy[1:, :-1]
            + bumpy[1:, 1:]
        )
        bad = window_placed & (counts != 1)
        for r, c in zip(*np.nonzero(bad)):
            violations.append(
                Violation("parity", int(r) + 1, int(c) + 1, f"{int(counts[r, c])} bumpy corners")
            )

    violations.sort(key=lambda v: (v.row, v.col, v.kind, v.detail))
    return ValidationReport(not violations, tuple(violations))
