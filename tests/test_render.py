"""SVG and ASCII rendering tests."""

import pytest

from robinsonblocks.render import (
    RenderStyle,
    _svg_chunks,
    parse_ascii,
    render_ascii,
    render_svg,
)
from robinsonblocks.supertile import _BAND_CELLS, TileGrid, build
from robinsonblocks.tileset import OrientedTile, Pose, Prototile


def test_ascii_round_trip_all_small_builds():
    for rank in (1, 2, 3, 4):
        for facing in ("NE", "NW", "SW", "SE"):
            g = build(rank, facing)
            assert parse_ascii(render_ascii(g)) == g


def test_ascii_rank2_is_three_lines():
    text = render_ascii(build(2, "NE"))
    assert len(text.strip().splitlines()) == 3


def test_ascii_equal_grids_equal_text():
    a = render_ascii(build(3, "SW"))
    b = render_ascii(build(3, "SW"))
    assert a == b


def test_ascii_handles_empty_cells():
    g = TileGrid.from_tiles([[OrientedTile(Prototile.CORNER), None]])
    text = render_ascii(g)
    assert text.splitlines()[0][1] == "."
    assert parse_ascii(text) == g


def test_ascii_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ascii("ab\nc")
    with pytest.raises(ValueError):
        parse_ascii("!!\n!!")
    with pytest.raises(ValueError):
        parse_ascii("")


def test_svg_deterministic():
    g = build(3, "NE")
    assert render_svg(g) == render_svg(g)
    assert render_svg(g, RenderStyle(rank_overlay=True)) == render_svg(
        g, RenderStyle(rank_overlay=True)
    )


def test_svg_single_cell_group():
    g = build(1, "NE")
    text = render_svg(g)
    assert text.count('<g class="cell"') == 1
    assert text.startswith("<?xml")
    assert text.rstrip().endswith("</svg>")


def test_svg_draws_from_edge_labels():
    # The lone bumpy corner carries six arrows (four principal, two
    # side), each drawn as one shaft and one head.
    text = render_svg(build(1, "NE"))
    body = text.split('<g class="cell"')[1]
    assert body.count("<line") == 6
    assert body.count("<path") == 6


def test_svg_overlay_only_on_power_sizes():
    plain = render_svg(build(2, "NE"), RenderStyle(rank_overlay=True))
    assert "<rect" in plain.split("</g>")[-1]  # one overlay square at rank 2


def test_svg_grid_lines_stream_in_bands():
    # A side of 2^16 cells and no rows: 65,537 vertical grid lines, which
    # reach the writer a band at a time, not as one list: each chunk within
    # the bound every document writer meets, 128 bytes a cell of a band.
    grid = TileGrid.from_json('{"width":65536,"height":0,"cells":[]}')
    chunks = list(_svg_chunks(grid, RenderStyle()))
    assert max(map(len, chunks)) <= 128 * _BAND_CELLS
    lines = "".join(chunks).splitlines()
    assert len(lines) == 3 + 1 + 65537 + 1
    assert lines[-2] == (
        '<line x1="1572864.00" y1="0" x2="1572864.00" y2="0.00" stroke="#bbb" stroke-width="0.60"/>'
    )


def test_style_validation():
    with pytest.raises(ValueError):
        RenderStyle(cell_size=0)
    with pytest.raises(ValueError):
        RenderStyle(stroke_width=-1)


def test_render_never_mutates_grid():
    g = build(2, "SE")
    before = g.ids.tobytes()
    render_svg(g, RenderStyle(rank_overlay=True))
    render_ascii(g)
    assert g.ids.tobytes() == before
