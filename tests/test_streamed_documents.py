"""Documents streamed from the NE build, in bands of bounded size.

``supertile`` writes every facing's document from the memoised NE grid
a band at a time (``grid._bands``), with each band's centre row and
column turned; the library's ``build(rank, facing)`` still makes the
facing's grid whole.  These tests hold the two to the same bytes, and
hold the writers, the cross turn and the ``.rbps`` writer to memory that
does not grow with the grid or the set."""

import tracemalloc

import numpy as np
import pytest

from robinsonblocks import enumerator, grid, patterns, supertile
from robinsonblocks.cli import main
from robinsonblocks.enumerator import _windows_at
from robinsonblocks.grid import _BAND_CELLS, TileGrid, _bands, _facing_ids
from robinsonblocks.render import (
    RenderStyle,
    _ascii_chunks,
    _svg_chunks,
    _svg_rows,
    render_ascii,
    render_svg,
)
from robinsonblocks.supertile import EMPTY, FACING_ROTATIONS, _build_ids, build

FACINGS = tuple(FACING_ROTATIONS)


def _allocated(call):
    """``call()`` and the peak bytes it allocated, as ``tracemalloc``
    counts them."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("facing", FACINGS)
def test_streamed_documents_equal_the_library_output(capsys, tmp_path, facing):
    for rank in range(1, 10):
        grid = build(rank, facing)
        argv = ("supertile", "--rank", str(rank), "--facing", facing, "--out")
        assert _cli(capsys, *argv, "json") == grid.to_json() + "\n", rank
        assert _cli(capsys, *argv, "ascii") == render_ascii(grid), rank
        if rank <= 6:
            assert _cli(capsys, *argv, "svg") == render_svg(grid), rank
        if 2 <= rank <= 6:
            dump, svg = tmp_path / "grid.json", tmp_path / "grid.svg"
            dump.write_text(grid.to_json())
            assert main(["render", "--input", str(dump), "--out", str(svg), "--overlay"]) == 0
            assert svg.read_text() == render_svg(grid, RenderStyle(rank_overlay=True)), rank
    capsys.readouterr()


def test_supertile_turns_no_whole_cross(capsys, monkeypatch):
    # Every facing is streamed from the NE build: the whole-grid cross
    # turn that ``build(rank, facing)`` makes its copy with is never run.
    for rank in range(1, 6):
        _build_ids(rank)

    def whole_grid_turn(*args):
        raise AssertionError("a facing's grid was made")

    for module in (supertile, grid):
        monkeypatch.setattr(module, "_turn_cross", whole_grid_turn)
    for out in ("ascii", "json", "svg"):
        for facing in FACINGS:
            assert main(["supertile", "--rank", "5", "--facing", facing, "--out", out]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("cells", [1, 2, 5, 31, 32, 64, 2048])
def test_bands_cover_each_facing_in_row_major_order(cells):
    for rank in range(1, 7):
        ne = _build_ids(rank)
        side = ne.shape[0]
        for f in range(4):
            whole = _facing_ids(rank, f)
            got = np.full_like(whole, EMPTY)
            cursor = 0
            for r, c, band in _bands(ne, cells, f):
                assert 0 < band.size <= cells
                assert r * side + c == cursor  # each band starts where the last ended
                assert band.shape[1] == side or band.shape[0] == 1  # whole rows, or a piece of one
                got[r : r + band.shape[0], c : c + band.shape[1]] = band
                cursor += band.size
            assert cursor == side * side
            assert np.array_equal(got, whole), (rank, f, cells)
    assert not _build_ids(3).flags.writeable  # a facing's band is a copy


def test_bands_of_a_grid_without_columns_keep_its_rows():
    assert [(r, c, band.shape) for r, c, band in _bands(np.empty((5, 0)), 2)] == [
        (0, 0, (2, 0)),
        (2, 0, (2, 0)),
        (4, 0, (1, 0)),
    ]


def _grids():
    """Grids of every shape the writers band differently: a supertile,
    one a band wide and one a cell wider, single rows and columns wider
    and taller than a band, and empty cells."""
    ids = build(9, "SW").ids
    holes = ids[100:104, : _BAND_CELLS >> 3].copy()
    holes[:, ::7] = EMPTY
    yield build(5, "NE")
    yield TileGrid(ids[:5, : _BAND_CELLS >> 5])
    yield TileGrid(ids[:5, : (_BAND_CELLS >> 5) + 1])
    yield TileGrid(holes)
    yield TileGrid(np.tile(ids[:1, :7], (1, 3 * _BAND_CELLS // 7)))
    yield TileGrid(np.tile(ids[:7, :1], (3 * _BAND_CELLS // 7, 1)))


def test_every_writer_writes_chunks_of_at_most_a_band():
    # Each chunk of every writer holds at most a band: at most 128 bytes a
    # cell of ``_BAND_CELLS``, and less than 128 KB.
    bound = 128 * _BAND_CELLS
    for grid in _grids():
        svg = list(_svg_chunks(grid, RenderStyle(rank_overlay=True)))
        text = list(_ascii_chunks(grid))
        json = list(grid._json_chunks())
        assert "".join(svg) == render_svg(grid, RenderStyle(rank_overlay=True))
        assert "".join(text) == render_ascii(grid) and "".join(json) == grid.to_json()
        assert max(map(len, svg + text + json)) <= bound, grid
        assert max(map(len, svg + text + json)) < 128 * 1024, grid


def test_the_svg_writer_holds_as_much_at_rank_10_as_at_rank_6():
    # Each band computes and formats its own cells' coordinates, and a
    # wide row is written a piece at a time: the writer's traced peak
    # stays about the same, whatever the width.  Keeping x coordinates
    # per (tile, column) for a band of 16k cells peaked at 1.6, 6.1 and
    # 20 MB on these grids.
    peaks = {}
    for rank in (6, 8, 10):
        grid = TileGrid._wrap(_build_ids(rank)[:32])
        _, peaks[rank] = _allocated(lambda: sum(map(len, _svg_chunks(grid, RenderStyle()))))
    assert max(peaks.values()) < 1.5e6, peaks
    assert max(peaks[8], peaks[10]) < 1.25 * peaks[6], peaks


@pytest.mark.parametrize("facing", FACINGS)
def test_svg_rows_in_pieces_equal_whole_rows(facing):
    # A rank-6 grid is 63 cells wide: bands of 128 cells hold two whole
    # rows, the cells of the document the golden SVG hashes pin, and
    # narrower bands write each row in pieces.  Both read the library's
    # turned grid and the NE build streamed with the facing.
    style = RenderStyle()
    grid, turns = build(6, facing), FACING_ROTATIONS[facing]
    whole = "".join(_svg_rows(grid, style, 128))
    assert whole.count('<g class="cell"') == 63 * 63 and whole in render_svg(grid)
    for cells in (1, 5, 16, 62, 63):
        assert "".join(_svg_rows(grid, style, cells)) == whole, cells
        assert "".join(_svg_rows(build(6), style, cells, turns)) == whole, cells


def test_a_turned_json_document_makes_no_grid(tmp_path):
    # The rank-10 NE grid is built and kept; writing its SW document
    # allocates less than one more grid (1023^2 bytes).  A copy of the
    # facing peaked above it.
    _build_ids(10)
    out = tmp_path / "sw.json"
    argv = ["supertile", "--rank", "10", "--facing", "SW", "--out", "json", "--output", str(out)]
    code, peak = _allocated(lambda: main(argv))
    assert code == 0 and peak < 1023**2
    assert out.read_text() == build(10, "SW").to_json() + "\n"


@pytest.mark.parametrize("gather", [None, 1, 3])
def test_ordered_windows_are_the_sorted_set(monkeypatch, gather):
    # ``gather`` multiplies n*n into the band size, so bands of one and of
    # three images, cut only where a run of equal first rows ends, are met.
    for n in range(1, 9):
        if gather is not None:
            monkeypatch.setattr(enumerator, "_GATHER_BYTES", gather * n * n)
        windows = _windows_at(n, range(n.bit_length(), 7))
        ordered = list(patterns._sorted_windows(windows))
        assert ordered == sorted(windows) and len(ordered) == len(windows), n


def test_the_rbps_writer_makes_a_band_of_mirror_images_at_a_time(tmp_path):
    # The index of n = 24 at rank 10 keys 16,896 mirror pairs of 576
    # bytes.  The writer sorts the keys, orders the images by their first
    # rows and makes them a band at a time, so it allocates less than half
    # the images (9.7 MB, about half the set): 3.0 MB, mostly n bytes a
    # key.  Sorting them all made every one, and peaked at 10.7 MB.
    n = 24
    windows = _windows_at(n, range(5, 11))
    path = tmp_path / "w.rbps"
    _, written = _allocated(lambda: patterns._write_records(path, n, windows))
    images = len(windows.pairs) * n * n
    assert written < images / 2, (written, images)
    found, rows = patterns._read_pattern_file(path)
    assert found == n and list(map(bytes, rows)) == sorted(windows)
