"""Deterministic SVG and text rendering of tile grids.

The SVG drawing is generated from the same edge-label data that drives
matching, so what you see is what the constraint checker checked.  The
ASCII codec is lossless: one character per cell from a 32-letter
alphabet indexed by canonical tile id, parseable back to an equal grid.

ASCII grammar:
    grid  := line (NL line)* NL?
    line  := cell+            -- all lines equally long
    cell  := [0-9A-V] | "."   -- "." is an empty cell
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supertile import EMPTY, TileGrid, _band_rows
from .tileset import ALL_TILES, Side, edge_label

ASCII_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUV"
_CHAR_TO_ID = {c: i for i, c in enumerate(ASCII_ALPHABET)}
# ``bytes.translate`` table from a uint8 id to its character: "." for
# EMPTY and "\n" for _NEWLINE, the byte that ends each row (ids above
# the alphabet never occur in a TileGrid).
_NEWLINE = 254
_ID_TO_CHAR = (ASCII_ALPHABET.ljust(_NEWLINE, ".") + "\n.").encode("ascii")

_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


@dataclass(frozen=True)
class RenderStyle:
    cell_size: float = 24.0
    stroke_width: float = 1.2
    emphasize_principal: bool = True
    rank_overlay: bool = False

    def __post_init__(self):
        if self.cell_size <= 0 or self.stroke_width <= 0:
            raise ValueError("style dimensions must be strictly positive")


def _ascii_chunks(grid: TileGrid):
    """Yield ``render_ascii``'s text a band of whole rows at a time."""
    if grid.height == 0:
        yield "\n"  # the final newline after no lines
        return
    w = grid.width
    step = _band_rows(w)
    for r0 in range(0, grid.height, step):
        band = grid.ids[r0 : r0 + step]
        lines = np.empty((band.shape[0], w + 1), dtype=np.uint8)
        lines[:, :w] = band
        lines[:, w] = _NEWLINE
        yield lines.tobytes().translate(_ID_TO_CHAR).decode("ascii")


def render_ascii(grid: TileGrid) -> str:
    """One character per cell, row per line; lossless w.r.t. tile identity."""
    return "".join(_ascii_chunks(grid))


def parse_ascii(text: str) -> TileGrid:
    """Inverse of render_ascii."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty grid text")
    width = len(lines[0])
    ids = np.full((len(lines), width), EMPTY, dtype=np.uint8)
    for r, ln in enumerate(lines):
        if len(ln) != width:
            raise ValueError(f"ragged line {r + 1}")
        for c, ch in enumerate(ln):
            if ch == ".":
                continue
            if ch not in _CHAR_TO_ID:
                raise ValueError(f"bad cell character {ch!r} at line {r + 1}")
            ids[r, c] = _CHAR_TO_ID[ch]
    return TileGrid(ids)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


# Slot positions along each edge in traversal order (interior on the
# left), as (x, y) offsets within a unit cell.  Traversals: N east-to-
# west, E south-to-north, S west-to-east, W north-to-south.
_SLOT_POINTS = {
    Side.N: ((0.75, 0.0), (0.5, 0.0), (0.25, 0.0)),
    Side.E: ((1.0, 0.75), (1.0, 0.5), (1.0, 0.25)),
    Side.S: ((0.25, 1.0), (0.5, 1.0), (0.75, 1.0)),
    Side.W: ((0.0, 0.25), (0.0, 0.5), (0.0, 0.75)),
}
_INWARD = {Side.N: (0.0, 1.0), Side.E: (-1.0, 0.0), Side.S: (0.0, -1.0), Side.W: (1.0, 0.0)}


def _arrow_axis(o, s, wing, p, d, u, l, out, length):
    """The five coordinates one arrow's marks write along one axis, in
    the order they appear: the shaft's two ends, then the head's three
    points.  ``o`` is the cell's origin on the axis; ``p`` (the slot),
    ``d`` (inward), ``u`` (where the head points) and ``l`` (the head's
    left normal) are components on the axis.  The x coordinates depend
    only on a cell's column and the y coordinates only on its row."""
    a = o + p * s
    b = a + d * length
    h = a if out else b
    base = h - u * wing
    return a, b, base + l * wing, h, base - l * wing


def _cell_template(tile, style: RenderStyle):
    """A tile's cell group as a ``str.format`` template, with its y and
    x recipes.

    The template's fields are numbered in the order ``_svg_rows`` passes
    them: the row label, the y coordinates, the column label, then the x
    coordinates.  Each recipe holds the ``_arrow_axis`` arguments of one
    arrow.  The shaft is drawn inward from the slot; the arrowhead sits
    at the edge for heads pointing out, at the inner end for tails
    entering the tile.
    """
    s = style.cell_size
    xs, ys, widths = [], [], []
    for side in Side:
        dx, dy = _INWARD[side]
        for slot, arrow in enumerate(edge_label(tile, side)):
            if arrow is None:
                continue
            px, py = _SLOT_POINTS[side][slot]
            length = (0.5 if arrow.principal else 0.3) * s
            ux, uy = (-dx, -dy) if arrow.out else (dx, dy)
            xs.append((px, dx, ux, -uy, arrow.out, length))
            ys.append((py, dy, uy, ux, arrow.out, length))
            widths.append(
                style.stroke_width * (1.8 if arrow.principal and style.emphasize_principal else 1.0)
            )
    col = 1 + 5 * len(ys)  # the column label's field; the x fields follow it
    parts = [f'<g class="cell" data-pos="{{0}},{{{col}}}">']
    for i, width in enumerate(widths):
        y = [f"{{{1 + 5 * i + j}}}" for j in range(5)]
        x = [f"{{{col + 1 + 5 * i + j}}}" for j in range(5)]
        parts.append(
            f'<line x1="{x[0]}" y1="{y[0]}" x2="{x[1]}" y2="{y[1]}" '
            f'stroke="#222" stroke-width="{_fmt(width)}"/>'
        )
        parts.append(
            f'<path d="M {x[2]} {y[2]} L {x[3]} {y[3]} L {x[4]} {y[4]}" '
            f'fill="none" stroke="#222" stroke-width="{_fmt(style.stroke_width)}"/>'
        )
    parts.append("</g>\n")
    return "\n".join(parts), xs, ys


def _svg_rows(grid: TileGrid, style: RenderStyle):
    """Yield each row's cell groups as one string.  A tile's formatted
    y coordinates are memoised for the row, and its x coordinates for a
    column within a band of about ``_BAND_CELLS`` cells, so the memo
    holds at most one band."""
    s = style.cell_size
    wing = 0.12 * s
    templates = [_cell_template(tile, style) for tile in ALL_TILES]
    step = _band_rows(grid.width)

    def coords(label, recipes, o):
        return (label, *[_fmt(v) for recipe in recipes for v in _arrow_axis(o, s, wing, *recipe)])

    for r in range(grid.height):
        if r % step == 0:
            by_column = {}  # (tile id, column) -> column label and x coordinates
        by_tile = {}  # tile id -> this row's label and y coordinates
        cells = []
        for c, t in enumerate(grid.ids[r].tolist()):
            if t == EMPTY:
                continue
            text, xs, ys = templates[t]
            y = by_tile.get(t)
            if y is None:
                y = by_tile[t] = coords(r + 1, ys, r * s)
            x = by_column.get((t, c))
            if x is None:
                x = by_column[t, c] = coords(c + 1, xs, c * s)
            cells.append(text.format(*y, *x))
        yield "".join(cells)


def _overlay_squares(side_cells: int, s: float, style: RenderStyle):
    """Nested-square overlay for a (2^k - 1)-sized grid: for every
    sub-supertile of rank >= 2, the square through its four quadrant
    centers, colour-cycled by rank.  Yields one line per square."""

    def center_of(origin_r, origin_c, rank):
        half = 1 << (rank - 1)
        return origin_r + half - 1, origin_c + half - 1

    def recurse(origin_r, origin_c, rank):
        if rank < 2:
            return
        half = 1 << (rank - 1)
        quads = (
            (origin_r, origin_c),
            (origin_r, origin_c + half),
            (origin_r + half, origin_c),
            (origin_r + half, origin_c + half),
        )
        r0, c0 = center_of(*quads[0], rank - 1)
        r1, c1 = center_of(*quads[3], rank - 1)
        colour = _PALETTE[(rank - 2) % len(_PALETTE)]
        x0, y0 = (c0 + 0.5) * s, (r0 + 0.5) * s
        x1, y1 = (c1 + 0.5) * s, (r1 + 0.5) * s
        yield (
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="none" stroke="{colour}" '
            f'stroke-width="{_fmt(style.stroke_width * 1.5)}" opacity="0.6"/>\n'
        )
        for qr, qc in quads:
            yield from recurse(qr, qc, rank - 1)

    rank = (side_cells + 1).bit_length() - 1
    if (1 << rank) - 1 == side_cells:
        yield from recurse(0, 0, rank)


def _svg_chunks(grid: TileGrid, style: RenderStyle):
    """Yield ``render_svg``'s document a band at a time: the header and
    grid lines, then one row of cells per band, then the overlay."""
    s = style.cell_size
    w, h = grid.width * s, grid.height * s
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" fill="#fdfdfd"/>',
    ]
    grid_stroke = style.stroke_width * 0.5
    for r in range(grid.height + 1):
        y = r * s
        head.append(
            f'<line x1="0" y1="{_fmt(y)}" x2="{_fmt(w)}" y2="{_fmt(y)}" '
            f'stroke="#bbb" stroke-width="{_fmt(grid_stroke)}"/>'
        )
    for c in range(grid.width + 1):
        x = c * s
        head.append(
            f'<line x1="{_fmt(x)}" y1="0" x2="{_fmt(x)}" y2="{_fmt(h)}" '
            f'stroke="#bbb" stroke-width="{_fmt(grid_stroke)}"/>'
        )
    yield "\n".join(head) + "\n"
    yield from _svg_rows(grid, style)
    if style.rank_overlay and grid.width == grid.height:
        yield from _overlay_squares(grid.width, s, style)
    yield "</svg>\n"


def render_svg(grid: TileGrid, style: RenderStyle = RenderStyle()) -> str:
    """Byte-deterministic SVG 1.1 document for a validated grid."""
    return "".join(_svg_chunks(grid, style))
