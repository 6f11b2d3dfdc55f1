"""Tile grids and their documents: ``TileGrid``, its JSON, the banded
reads every document writer makes (``_bands``), any facing of a built
supertile (``_facing_ids``), whole-grid validation, and the solver of
one cross cell.

The builder core, ``supertile``, makes and memoises the NE supertile of
each rank as a bare id array; a grid is made of it only here, so a
process that only counts never loads this module.  ``build`` and
``build_supertile`` import it when they are called.
"""

from __future__ import annotations

import numbers
from typing import Optional

import numpy as np

from ._record import Record, _integer
from .supertile import EMPTY, _build_ids, _faults, _solve, _turn_cross, _turned_cross
from .tileset import ALL_TILES, _KEY_TO_PROTOTILE, OrientedTile, Pose, tile_from_id, tile_id

# Cells per band of a streamed document (``_bands``), so writing one
# holds a band in memory and not the whole grid.  A JSON band's text and
# lists stay below 128 KB, glibc's default mmap threshold, so each is
# taken from the heap and not mapped afresh; the SVG writer, at most about
# 1.5 KB a cell, takes bands of a thirty-second of it.
_BAND_CELLS = 1 << 11

# Each uint8 id's cell as ``to_json`` writes it: its [tile, rotation,
# mirror] triple as compact JSON, or null for EMPTY (ids above the tile
# ids never occur in a TileGrid).  Spelled out here, so that ``json`` is
# imported only by ``from_json``: a key is a plain identifier and needs
# no escaping.
_JSON_CELLS = [
    f'["{t.prototile.key}",{t.pose.rotation},{"true" if t.pose.mirror else "false"}]'
    for t in ALL_TILES
] + ["null"] * (256 - len(ALL_TILES))


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
        for _, _, band in _bands(ids, _BAND_CELLS):
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

    def _json_chunks(self, facing: int = 0):
        """Yield ``to_json``'s document a band of at most ``_BAND_CELLS``
        cells at a time.  The comma between two bands is a chunk of its
        own, so no band is copied to put it in front.  A ``facing`` is
        read as ``_bands`` reads it: the document is that of the
        supertile ``facing`` quarter turns from this NE one."""
        yield f'{{"width":{self.width},"height":{self.height},"cells":['
        bands = _bands(self._ids, _BAND_CELLS, facing) if self.width else ()  # no cells, no bands
        for r, c, band in bands:
            if r or c:
                yield ","
            yield ",".join(map(_JSON_CELLS.__getitem__, band.reshape(-1).tolist()))
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


def _bands(ids: np.ndarray, cells: int, facing: int = 0):
    """Yield ``(row, column, band)``: ``ids`` in bands of at most
    ``cells`` cells, whole rows where a row fits and each row in pieces
    where it does not, in row-major order.  ``row`` and ``column`` are
    the 0-based cell a band starts at; a grid with no columns still
    yields its rows, in bands of ``cells`` rows.

    A band is a view of ``ids``, or with a ``facing`` a copy: ``ids`` is
    then an NE supertile, and each band gets the centre row and column of
    the supertile ``facing`` quarter turns from it, as ``_turn_cross``
    writes them.  So a document of any facing is written from the NE
    build a band at a time, and no facing's grid is made."""
    height, width = ids.shape
    rows = max(1, cells // max(width, 1))
    if facing:
        centre = height // 2
        cross_row, cross_column = _turned_cross(ids, facing)
    for r in range(0, height, rows):
        for c in range(0, max(width, 1), cells):
            band = ids[r : r + rows, c : c + cells]
            if facing:
                band = band.copy()
                if c <= centre < c + cells:
                    band[:, centre - c] = cross_column[r : r + rows]
                if r <= centre < r + rows:
                    band[centre - r] = cross_row[c : c + cells]
            yield r, c, band


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
