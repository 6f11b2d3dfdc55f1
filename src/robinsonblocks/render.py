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

from .supertile import EMPTY, TileGrid
from .tileset import ALL_TILES, Side, edge_label

ASCII_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUV"
_CHAR_TO_ID = {c: i for i, c in enumerate(ASCII_ALPHABET)}
# ``bytes.translate`` table from a uint8 id to its character; "." for
# EMPTY (ids above the alphabet never occur in a TileGrid).
_ID_TO_CHAR = (ASCII_ALPHABET + "." * (256 - len(ASCII_ALPHABET))).encode("ascii")

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


def render_ascii(grid: TileGrid) -> str:
    """One character per cell, row per line; lossless w.r.t. tile identity."""
    text = grid.ids.tobytes().translate(_ID_TO_CHAR).decode("ascii")
    w = grid.width
    return "\n".join(text[r * w : (r + 1) * w] for r in range(grid.height)) + "\n"


def parse_ascii(text: str) -> TileGrid:
    """Inverse of render_ascii."""
    import numpy as np

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


def _cell_marks(tile, ox: float, oy: float, s: float, style: RenderStyle):
    parts = []
    for side in Side:
        label = edge_label(tile, side)
        dx, dy = _INWARD[side]
        for slot, arrow in enumerate(label):
            if arrow is None:
                continue
            px, py = _SLOT_POINTS[side][slot]
            x0, y0 = ox + px * s, oy + py * s
            length = (0.5 if arrow.principal else 0.3) * s
            x1, y1 = x0 + dx * length, y0 + dy * length
            width = style.stroke_width * (
                1.8 if arrow.principal and style.emphasize_principal else 1.0
            )
            parts.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
                f'stroke="#222" stroke-width="{_fmt(width)}"/>'
            )
            # Arrowhead at the edge for heads pointing out, at the inner
            # end for tails entering the tile.
            hx, hy = (x0, y0) if arrow.out else (x1, y1)
            ux, uy = (-dx, -dy) if arrow.out else (dx, dy)
            wing = 0.12 * s
            lx, ly = -uy, ux
            bx, by = hx - ux * wing, hy - uy * wing
            parts.append(
                f'<path d="M {_fmt(bx + lx * wing)} {_fmt(by + ly * wing)} '
                f'L {_fmt(hx)} {_fmt(hy)} '
                f'L {_fmt(bx - lx * wing)} {_fmt(by - ly * wing)}" '
                f'fill="none" stroke="#222" stroke-width="{_fmt(style.stroke_width)}"/>'
            )
    return parts


def _overlay_squares(side_cells: int, s: float, style: RenderStyle):
    """Nested-square overlay for a (2^k - 1)-sized grid: for every
    sub-supertile of rank >= 2, the square through its four quadrant
    centers, colour-cycled by rank."""
    parts = []

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
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(y1 - y0)}" fill="none" stroke="{colour}" '
            f'stroke-width="{_fmt(style.stroke_width * 1.5)}" opacity="0.6"/>'
        )
        for qr, qc in quads:
            recurse(qr, qc, rank - 1)

    rank = (side_cells + 1).bit_length() - 1
    if (1 << rank) - 1 == side_cells:
        recurse(0, 0, rank)
    return parts


def render_svg(grid: TileGrid, style: RenderStyle = RenderStyle()) -> str:
    """Byte-deterministic SVG 1.1 document for a validated grid."""
    s = style.cell_size
    w, h = grid.width * s, grid.height * s
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" fill="#fdfdfd"/>',
    ]
    grid_stroke = style.stroke_width * 0.5
    for r in range(grid.height + 1):
        y = r * s
        parts.append(
            f'<line x1="0" y1="{_fmt(y)}" x2="{_fmt(w)}" y2="{_fmt(y)}" '
            f'stroke="#bbb" stroke-width="{_fmt(grid_stroke)}"/>'
        )
    for c in range(grid.width + 1):
        x = c * s
        parts.append(
            f'<line x1="{_fmt(x)}" y1="0" x2="{_fmt(x)}" y2="{_fmt(h)}" '
            f'stroke="#bbb" stroke-width="{_fmt(grid_stroke)}"/>'
        )
    for r in range(grid.height):
        for c in range(grid.width):
            tile = grid.tile_at(r + 1, c + 1)
            if tile is None:
                continue
            parts.append(f'<g class="cell" data-pos="{r + 1},{c + 1}">')
            parts.extend(_cell_marks(tile, c * s, r * s, s, style))
            parts.append("</g>")
    if style.rank_overlay and grid.width == grid.height:
        parts.extend(_overlay_squares(grid.width, s, style))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
