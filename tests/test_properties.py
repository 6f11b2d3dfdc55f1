"""Property tests: grid JSON and ASCII codecs, the .rbps cache round
trip and supertile validation on random inputs."""

import functools
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from robinsonblocks import enumerator
from robinsonblocks.enumerator import (
    CorruptPatternFile,
    PatternVersionMismatch,
    _cached_window_scan,
    _parse_pattern_file,
    _pattern_set,
    distinct_patterns,
    load_pattern_set,
    save_pattern_set,
)
from robinsonblocks.render import ASCII_ALPHABET, parse_ascii, render_ascii
from robinsonblocks.supertile import EMPTY, FACING_ROTATIONS, TileGrid, build, validate
from robinsonblocks.tileset import ALL_TILES

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CELL_IDS = st.sampled_from([*range(len(ALL_TILES)), EMPTY])


@st.composite
def grids(draw, min_side=1):
    h = draw(st.integers(min_side, 9))
    w = draw(st.integers(min_side, 9))
    cells = draw(st.lists(CELL_IDS, min_size=h * w, max_size=h * w))
    return TileGrid(np.array(cells, dtype=np.uint8).reshape(h, w))


@given(grids(min_side=0))
def test_json_matches_json_dumps_of_the_cell_list(grid):
    cells = [
        None if t is None else [t.prototile.key, t.pose.rotation, t.pose.mirror]
        for t in grid.cells()
    ]
    doc = {"width": grid.width, "height": grid.height, "cells": cells}
    assert grid.to_json() == json.dumps(doc, separators=(",", ":"))


@given(grids(min_side=0))
def test_json_round_trip(grid):
    assert TileGrid.from_json(grid.to_json()) == grid


@given(grids())
def test_ascii_matches_one_character_per_cell_and_round_trips(grid):
    lines = ("".join("." if v == EMPTY else ASCII_ALPHABET[v] for v in row) for row in grid.ids)
    text = render_ascii(grid)
    assert text == "\n".join(lines) + "\n"
    assert parse_ascii(text) == grid


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(0, len(ALL_TILES) - 1), min_size=n * n, max_size=n * n),
                max_size=40,
            ),
        )
    )
)
def test_rbps_save_load_round_trip(case):
    n, windows = case
    windows = {bytes(w) for w in windows}
    ps = _pattern_set(n, windows)
    assert ps.count == len(windows)
    with tempfile.TemporaryDirectory() as tmp:
        # A scan yielding ``windows`` at rank 1 writes the cache file; a
        # second pass, with nothing to scan, reads it back as id rows.
        saved = list(_cached_window_scan(n, range(1, 2), iter([(1, windows)]), Path(tmp)))
        assert saved == [(1, windows)]
        assert load_pattern_set(os.path.join(tmp, f"patterns_n{n}_rank1.rbps")) == ps
        ((_, rows),) = _cached_window_scan(n, range(1, 2), iter(()), Path(tmp))
        assert rows.shape == (len(windows), n * n)
        assert {row.tobytes() for row in rows} == windows


@functools.lru_cache(maxsize=None)
def _rbps_file(n: int) -> bytes:
    """The bytes of a valid ``.rbps`` file of n-by-n blocks."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.rbps")
        save_pattern_set(distinct_patterns(n, 4), path)
        with open(path, "rb") as fh:
            return fh.read()


def _parsed(blob: bytes):
    try:
        n, ids = _parse_pattern_file(blob)
    except (CorruptPatternFile, PatternVersionMismatch) as exc:
        return type(exc), str(exc)
    return n, ids.shape, ids.tobytes()


@settings(max_examples=300)
@given(st.integers(2, 4), st.integers(0, 2**32), st.integers(1, 255))
def test_rbps_fast_reader_agrees_with_the_record_loop(n, where, flip):
    # One byte of a valid file is changed.  The array reader and the
    # record-by-record reference must reject it with the same message,
    # or both accept it and return the same rows; and the array reader
    # must accept every file the reference accepts.
    blob = bytearray(_rbps_file(n))
    blob[where % len(blob)] ^= flip
    blob = bytes(blob)
    fast = _parsed(blob)
    with mock.patch.object(enumerator, "_fast_ids", lambda *args: None):
        reference = _parsed(blob)
    assert fast == reference
    if not isinstance(reference[0], type):
        assert enumerator._fast_ids(blob, reference[0], reference[1][0]) is not None


@st.composite
def substitutions(draw):
    """A supertile of rank 2..5 with one cell swapped for another tile."""
    grid = build(draw(st.integers(2, 5)), draw(st.sampled_from(sorted(FACING_ROTATIONS))))
    r = draw(st.integers(0, grid.height - 1))
    c = draw(st.integers(0, grid.width - 1))
    ids = np.array(grid.ids)
    ids[r, c] = draw(st.integers(0, len(ALL_TILES) - 1).filter(lambda t: t != ids[r, c]))
    return TileGrid(ids)


@settings(max_examples=200)
@given(substitutions())
def test_validate_flags_every_single_cell_substitution(grid):
    assert not validate(grid).ok
