"""Property tests: grid JSON and ASCII codecs, the .rbps cache round
trip, the .rbps reader against a record-by-record reference and
supertile validation on random inputs."""

import functools
import io
import itertools
import json
import os
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from robinsonblocks import enumerator
from robinsonblocks.enumerator import (
    _BODY,
    FORMAT_VERSION,
    MAGIC,
    CorruptPatternFile,
    PatternSet,
    PatternVersionMismatch,
    _cached_window_scan,
    _parse_pattern_file,
    _pattern_set,
    _tile_ids,
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
# Band sizes for the .rbps writer and reader and the corner mask: one
# record or row a band, a few records a band (the files below split into
# 2 to 48 bands), and the default, one band a file.
GATHER_BYTES = [1, 160, enumerator._GATHER_BYTES]


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


@pytest.mark.parametrize("gather_bytes", GATHER_BYTES)
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
def test_rbps_save_load_round_trip(gather_bytes, case):
    n, windows = case
    windows = {bytes(w) for w in windows}
    ps = _pattern_set(n, windows)
    assert ps.count == len(windows)
    # The format written record by record: the header, then each member
    # after its length field, in lexicographic order.
    size = 3 * n * n
    header = MAGIC + struct.pack(">HIQ", FORMAT_VERSION, n, ps.count)
    expected = header + b"".join(size.to_bytes(4, "big") + m for m in ps.members())
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(enumerator, "_GATHER_BYTES", gather_bytes),
    ):
        # A scan yielding ``windows`` at rank 1 writes the cache file, a
        # band of records at a time; a second pass, with nothing to scan,
        # reads it back as id rows.
        saved = list(_cached_window_scan(n, range(1, 2), iter([(1, windows)]), Path(tmp)))
        assert saved == [(1, windows)]
        path = os.path.join(tmp, f"patterns_n{n}_rank1.rbps")
        assert Path(path).read_bytes() == expected
        assert load_pattern_set(path) == ps
        ((_, rows),) = _cached_window_scan(n, range(1, 2), iter(()), Path(tmp))
        assert rows.shape == (len(windows), n * n)
        assert {row.tobytes() for row in rows} == windows


@functools.lru_cache(maxsize=None)
def _rbps_file(n: int) -> bytes:
    """The bytes of a valid ``.rbps`` file of n-by-n blocks."""
    ps = PatternSet(0, [b""]) if n == 0 else distinct_patterns(n, 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.rbps")
        save_pattern_set(ps, path)
        with open(path, "rb") as fh:
            return fh.read()


def _record_loop(blob: bytes, n: int, count: int) -> np.ndarray:
    """Read the records of an ``.rbps`` file one by one, raise
    ``CorruptPatternFile`` at the first bad one, and return the member
    tile ids as ``_read_pattern_file`` does."""
    size = 3 * n * n
    offset = _BODY
    members = []
    for _ in range(count):
        if offset + 4 > len(blob):
            raise CorruptPatternFile(offset, "truncated record length")
        (length,) = struct.unpack_from(">I", blob, offset)
        if length != size:
            raise CorruptPatternFile(offset, f"record length {length}, expected {size}")
        if offset + 4 + length > len(blob):
            raise CorruptPatternFile(offset + 4, "truncated record")
        member = blob[offset + 4 : offset + 4 + length]
        if members and member <= members[-1]:
            raise CorruptPatternFile(offset, "records not in strictly increasing order")
        members.append(member)
        offset += 4 + length
    if offset != len(blob):
        raise CorruptPatternFile(offset, "trailing bytes")
    ids = _tile_ids(np.frombuffer(b"".join(members), dtype=np.uint8).reshape(-1, 3))
    ids = ids.reshape(count, n * n)
    bad = (ids == EMPTY).any(axis=1)
    if bad.any():
        offset = _BODY + int(bad.argmax()) * (4 + size)
        raise CorruptPatternFile(offset, "triple names no canonical tile")
    return ids


def _parse_record_by_record(blob: bytes) -> tuple:
    """``_parse_pattern_file`` with its body read by ``_record_loop``."""
    if len(blob) < _BODY:
        raise CorruptPatternFile(len(blob), "truncated header")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptPatternFile(0, "bad magic")
    version, n, count = struct.unpack_from(">HIQ", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise PatternVersionMismatch(version)
    if 3 * n * n >> 32:
        msg = f"n={n}: a 3n^2-byte record overflows its length field"
        raise CorruptPatternFile(len(MAGIC) + 2, msg)
    return n, _record_loop(blob, n, count)


def _parsed(parse, blob: bytes):
    try:
        n, ids = parse(blob)
    except (CorruptPatternFile, PatternVersionMismatch) as exc:
        return type(exc), exc.args, getattr(exc, "offset", None)
    return n, ids.shape, ids.tobytes()


_COUNT_FIELD = slice(_BODY - 8, _BODY)
_CANONICAL = {(t.prototile, t.pose.rotation, int(t.pose.mirror)) for t in ALL_TILES}
_BAD_TRIPLES = [t for t in itertools.product(range(34), range(5), range(3)) if t not in _CANONICAL]
_EDITS = ["flip", "cut", "append", "count", "swap", "repeat", "triple"]


@st.composite
def edited_rbps_files(draw):
    """A valid ``.rbps`` file of n = 0..4 after one or two edits: a
    flipped byte, a cut, appended bytes, a new count field, two records
    swapped, a record repeated (and counted) or a stray triple."""
    n = draw(st.integers(0, 4))
    blob = bytearray(_rbps_file(n))
    width = 4 + 3 * n * n
    for edit in draw(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=2)):
        records = max(0, len(blob) - _BODY) // width
        record = st.integers(0, max(0, records - 1)).map(lambda i: _BODY + i * width)
        if edit == "flip" and blob:
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        elif edit == "cut":
            del blob[draw(st.integers(0, len(blob))) :]
        elif edit == "append":
            blob += draw(st.binary(min_size=1, max_size=width + 1))
        elif edit == "count" and len(blob) >= _BODY:
            new = draw(st.integers(0, records + 2) | st.just(2**64 - 1))
            blob[_COUNT_FIELD] = new.to_bytes(8, "big")
        elif edit == "swap" and records >= 2:
            i, j = draw(st.lists(record, min_size=2, max_size=2, unique=True))
            blob[i : i + width], blob[j : j + width] = blob[j : j + width], blob[i : i + width]
        elif edit == "repeat" and records:
            i = draw(record)
            blob[i:i] = blob[i : i + width]
            count = int.from_bytes(blob[_COUNT_FIELD], "big")
            blob[_COUNT_FIELD] = ((count + 1) % 2**64).to_bytes(8, "big")
        elif edit == "triple" and records and n:
            at = draw(record) + 4 + 3 * draw(st.integers(0, n * n - 1))
            blob[at : at + 3] = draw(st.sampled_from(_BAD_TRIPLES))
    return bytes(blob)


def _parse_in_bands(blob: bytes) -> tuple:
    """``_parse_pattern_file`` on the bytes of a file."""
    return _parse_pattern_file(io.BytesIO(blob))


@pytest.mark.parametrize("gather_bytes", GATHER_BYTES)
@settings(max_examples=300)
@given(edited_rbps_files())
def test_rbps_fast_reader_agrees_with_the_record_loop(gather_bytes, blob):
    # The array reader and the record-by-record reference must reject an
    # edited file with the same exception, offset and message, or both
    # accept it and return the same rows; so the array reader accepts
    # every file the reference accepts.  The reader checks a band of
    # records at a time, so every fault is also met across band edges.
    with mock.patch.object(enumerator, "_GATHER_BYTES", gather_bytes):
        assert _parsed(_parse_in_bands, blob) == _parsed(_parse_record_by_record, blob)


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
