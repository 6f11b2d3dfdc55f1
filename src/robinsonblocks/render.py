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

import itertools
from operator import itemgetter

import numpy as np

from ._record import Record
from .supertile import _BAND_CELLS, EMPTY, TileGrid, _bands
from .tileset import ALL_TILES, Side, edge_label

ASCII_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUV"
_CHAR_TO_ID = {c: i for i, c in enumerate(ASCII_ALPHABET)}
# ``bytes.translate`` table from a uint8 id to its character: "." for
# EMPTY and "\n" for _NEWLINE, the byte that ends each row (ids above
# the alphabet never occur in a TileGrid).
_NEWLINE = 254
_ID_TO_CHAR = (ASCII_ALPHABET.ljust(_NEWLINE, ".") + "\n.").encode("ascii")

_PALETTE = ("#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085")


class RenderStyle(Record):
    __match_args__ = ("cell_size", "stroke_width", "emphasize_principal", "rank_overlay")

    def __init__(
        self,
        cell_size: float = 24.0,
        stroke_width: float = 1.2,
        emphasize_principal: bool = True,
        rank_overlay: bool = False,
    ):
        if cell_size <= 0 or stroke_width <= 0:
            raise ValueError("style dimensions must be strictly positive")
        self._set(cell_size, stroke_width, emphasize_principal, rank_overlay)


def _ascii_chunks(grid: TileGrid, facing: int = 0):
    """Yield ``render_ascii``'s text a band of at most ``_BAND_CELLS``
    cells at a time, each row's newline with the band that ends it.  A
    ``facing`` is read as ``supertile._bands`` reads it: the text is that
    of the supertile ``facing`` quarter turns from the NE one ``grid``
    holds."""
    if grid.height == 0:
        yield "\n"  # the final newline after no lines
        return
    for _, c, band in _bands(grid.ids, _BAND_CELLS, facing):
        height, width = band.shape
        ends = int(c + width == grid.width)  # the band holds its rows' last cells
        lines = np.empty((height, width + ends), dtype=np.uint8)
        lines[:, :width] = band
        lines[:, width:] = _NEWLINE
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
    return "%.2f" % v


def _fmt_all(values: np.ndarray) -> list:
    """``_fmt`` of each float of ``values``, in row-major order, by one
    ``%`` over them all."""
    flat = values.ravel().tolist()
    return ("%.2f\n" * len(flat) % tuple(flat)).split("\n")[:-1]


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


def _arrow_axis(o, s, wing, p, d, u, l, out, length) -> np.ndarray:
    """The five coordinates each arrow's marks write along one axis, in
    the order they appear, along a new last axis: the shaft's two ends,
    then the head's three points.  ``o`` holds cells' origins on the
    axis; ``p`` (the slot), ``d`` (inward), ``u`` (where the head
    points) and ``l`` (the head's left normal) are components on the
    axis, and with ``out`` and ``length`` make up arrows' recipes.  All
    are numpy arrays, broadcast together, and each coordinate is one
    chain of float64 operations, the same for every arrow.  The x
    coordinates depend only on a cell's column and the y coordinates only
    on its row."""
    a = o + p * s
    b = a + d * length
    h = np.where(out, a, b)
    base = h - u * wing
    return np.stack((a, b, base + l * wing, h, base - l * wing), axis=-1)


def _cell_template(tile, style: RenderStyle):
    """A tile's cell group as a template, with its x and y recipes.

    The template is a ``str.format`` template of the row label and then
    the y coordinates, numbered in that order, in which the column label
    is a ``%d`` and each x coordinate a ``%.2f`` (``_fmt``): formatted
    with a row's y coordinates it is a ``%`` template of a column's label
    and x coordinates.  Each recipe holds the ``_arrow_axis`` arguments
    of one arrow.  The shaft is drawn inward from the slot; the arrowhead
    sits at the edge for heads pointing out, at the inner end for tails
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
    parts = ['<g class="cell" data-pos="{0},%d">']
    for i, width in enumerate(widths):
        y = [f"{{{1 + 5 * i + j}}}" for j in range(5)]
        parts.append(
            f'<line x1="%.2f" y1="{y[0]}" x2="%.2f" y2="{y[1]}" '
            f'stroke="#222" stroke-width="{_fmt(width)}"/>'
        )
        parts.append(
            f'<path d="M %.2f {y[2]} L %.2f {y[3]} L %.2f {y[4]}" '
            f'fill="none" stroke="#222" stroke-width="{_fmt(style.stroke_width)}"/>'
        )
    parts.append("</g>\n")
    return "\n".join(parts), xs, ys


def _svg_rows(grid: TileGrid, style: RenderStyle, cells: int, facing: int = 0):
    """Yield the cell groups a band of at most ``cells`` cells at a time
    (``supertile._bands``, which also reads a ``facing``), whole rows
    where a row fits and pieces of a row where it does not.

    Coordinates are computed by ``_arrow_axis``, a band's at a time.  The
    32 tiles' arrows have 20 distinct recipes on each axis, against about
    6 per tile: a band's rows format their y coordinates for every y
    recipe with one ``_fmt_all``, and a row formats each of its tiles'
    templates once with them.  Each cell fills its tile's row template
    with its own x coordinates, computed for the band's cells and
    formatted by the template.  So the writer holds one band's
    coordinates, whatever the grid's width."""
    s = style.cell_size
    wing = 0.12 * s
    x_recipes, y_recipes, tiles = {}, {}, []
    for tile in ALL_TILES:
        text, xs, ys = _cell_template(tile, style)
        tiles.append(
            (
                text,
                [x_recipes.setdefault(recipe, len(x_recipes)) for recipe in xs],
                [y_recipes.setdefault(recipe, len(y_recipes)) for recipe in ys],
            )
        )
    # Each recipe field as one array over the recipes of an axis.
    x_fields = np.array(list(x_recipes), dtype=float).T
    y_fields = np.array(list(y_recipes), dtype=float).T
    # A tile's row template takes, from a list of a row's 1-based label
    # and every y recipe's five formatted coordinates, its own, in order.
    y_picks = [itemgetter(0, *[1 + 5 * i + j for i in ys for j in range(5)]) for _, _, ys in tiles]
    # Each tile's x recipe numbers, padded to one length, and which are
    # its own; EMPTY and the ids past the tiles have none.
    most = max(len(xs) for _, xs, _ in tiles)
    slots = np.zeros((256, most), dtype=np.intp)
    own = np.zeros((256, most, 5), dtype=bool)
    for t, (_, xs, _) in enumerate(tiles):
        slots[t, : len(xs)] = xs
        own[t, : len(xs)] = True
    arity = [5 * len(xs) for _, xs, _ in tiles]

    row = first = None
    for r0, c0, band in _bands(grid.ids, cells, facing):
        if r0 != first:  # new rows, not the next piece of a row
            first = r0
            ys = _fmt_all(_arrow_axis(np.arange(r0, r0 + len(band))[:, None] * s, s, wing, *y_fields))
            step = 5 * y_fields.shape[1]
            rows = [[r + 1, *ys[j * step : (j + 1) * step]] for j, r in enumerate(range(r0, r0 + len(band)))]
        # The band's cells' own x coordinates, cell by cell in row-major order.
        o = np.arange(c0, c0 + band.shape[1])[:, None] * s
        xs = _arrow_axis(o, s, wing, *x_fields[:, slots[band]])[own[band]].tolist()
        p = 0
        groups = []
        for r, line in enumerate(band.tolist(), r0):
            if r != row:
                row, by_tile = r, {}  # tile id -> this row's template
            for c, t in enumerate(line, c0):
                if t == EMPTY:
                    continue
                text = by_tile.get(t)
                if text is None:
                    text = by_tile[t] = tiles[t][0].format(*y_picks[t](rows[r - first]))
                q = p + arity[t]
                groups.append(text % (c + 1, *xs[p:q]))
                p = q
        yield "".join(groups)


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


def _svg_chunks(grid: TileGrid, style: RenderStyle, facing: int = 0):
    """Yield ``render_svg``'s document a band at a time: the header and
    grid lines, then the cells, each in bands of a thirty-second of
    ``_BAND_CELLS`` lines or cells (at most about 100 KB of cells), then
    the overlay.  A ``facing`` is read as ``supertile._bands`` reads it."""
    cells = _BAND_CELLS >> 5
    s = style.cell_size
    w, h = grid.width * s, grid.height * s
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" fill="#fdfdfd"/>',
    ]
    stroke = f'stroke="#bbb" stroke-width="{_fmt(style.stroke_width * 0.5)}"/>'

    def grid_lines():
        for r in range(grid.height + 1):
            y = _fmt(r * s)
            yield f'<line x1="0" y1="{y}" x2="{_fmt(w)}" y2="{y}" {stroke}'
        for c in range(grid.width + 1):
            x = _fmt(c * s)
            yield f'<line x1="{x}" y1="0" x2="{x}" y2="{_fmt(h)}" {stroke}'

    lines = itertools.chain(head, grid_lines())
    while band := list(itertools.islice(lines, cells)):
        yield "\n".join(band) + "\n"
    yield from _svg_rows(grid, style, cells, facing)
    if style.rank_overlay and grid.width == grid.height:
        yield from _overlay_squares(grid.width, s, style)
    yield "</svg>\n"


def render_svg(grid: TileGrid, style: RenderStyle = RenderStyle()) -> str:
    """Byte-deterministic SVG 1.1 document for a validated grid."""
    return "".join(_svg_chunks(grid, style))
