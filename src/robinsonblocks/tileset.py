"""The six Robinson prototiles, their pose group, and the matching rules.

Tiles are unit squares decorated with arrows.  Each edge carries up to
three arrow slots (near-start, center, near-end along a fixed traversal
with the tile interior on the left).  Two abutting edges match when
every slot meets its geometric counterpart with a complementary arrow:
head against tail, same kind.  The identity-pose decorations live in
``tiles.dat``; every other pose is derived by the dihedral group action,
so the data file is the single source of truth for the tile set.

Alongside arrow matching there is one more local rule: every 2x2 block
of a valid grid contains exactly one bumpy corner.  Bumpiness is a
prototile flag, not an arrow, so ``bumpy_corner`` and ``corner`` share
arrow labels and are told apart by the parity rule alone.
"""

from __future__ import annotations

import enum
import numbers
from pathlib import Path

import numpy as np

from ._record import Record


class Prototile(enum.IntEnum):
    """The six prototiles, in the (a)-(f) order of the label table."""

    BUMPY_CORNER = 0
    CORNER = 1
    ARM1 = 2  # terminal: absorbs a square outline head-on
    ARM2 = 3  # both: terminal slots plus a parallel square outline
    ARM3 = 4  # plain: principal line only
    ARM4 = 5  # through: a parallel square outline passes alongside

    @property
    def key(self) -> str:
        return _PROTOTILE_KEYS[self]


_PROTOTILE_KEYS = {
    Prototile.BUMPY_CORNER: "bumpy_corner",
    Prototile.CORNER: "corner",
    Prototile.ARM1: "arm_terminal",
    Prototile.ARM2: "arm_both",
    Prototile.ARM3: "arm_plain",
    Prototile.ARM4: "arm_through",
}
_KEY_TO_PROTOTILE = {v: k for k, v in _PROTOTILE_KEYS.items()}


class Side(enum.IntEnum):
    N = 0
    E = 1
    S = 2
    W = 3


class Adjacency(enum.Enum):
    """Direction from a tile to the neighbour it is checked against."""

    EAST = "east"
    SOUTH = "south"


class Pose(Record, order=True):
    """Mirror-then-rotate normal form: reflect across the vertical axis
    first (if ``mirror``), then rotate ``rotation`` quarter turns
    counter-clockwise."""

    __match_args__ = ("rotation", "mirror")

    def __init__(self, rotation: int = 0, mirror: bool = False):
        # A complex number that equals 0..3 is still no rotation, and
        # ``int`` rejects it.
        unreal = isinstance(rotation, numbers.Complex) and not isinstance(rotation, numbers.Real)
        if unreal or rotation not in (0, 1, 2, 3):
            raise ValueError(f"rotation must be in 0..3, got {rotation}")
        if mirror not in (False, True):
            raise ValueError(f"mirror must be False or True, got {mirror!r}")
        # Stored as an int and a bool, whatever equal value was given, so
        # a rotation of 1.0 indexes like 1; equality and hashes are alike.
        self._set(int(rotation), bool(mirror))

    def compose(self, other: "Pose") -> "Pose":
        """The pose equal to applying ``other`` first, then ``self``."""
        rot = self.rotation + (-other.rotation if self.mirror else other.rotation)
        return Pose(rot % 4, self.mirror ^ other.mirror)

    def inverse(self) -> "Pose":
        if self.mirror:
            return Pose(self.rotation, True)
        return Pose((-self.rotation) % 4, False)


IDENTITY = Pose(0, False)


class Arrow(Record):
    """One arrow slot: ``out`` is head-on-edge, ``principal`` vs side kind."""

    __match_args__ = ("out", "principal")

    def __init__(self, out: bool, principal: bool):
        self._set(out, principal)

    @property
    def char(self) -> str:
        return _CHAR_BY_ARROW[self]


_ARROW_BY_CHAR = {
    "P": Arrow(True, True),
    "p": Arrow(False, True),
    "S": Arrow(True, False),
    "s": Arrow(False, False),
    ".": None,
}
_CHAR_BY_ARROW = {arrow: char for char, arrow in _ARROW_BY_CHAR.items()}

# An EdgeLabel is a 3-tuple of Arrow-or-None: (near-start, center, near-end).
EdgeLabel = tuple


def mirror_label(label: EdgeLabel) -> EdgeLabel:
    """Reverse slot order, preserving arrows (a pure slot reversal)."""
    return (label[2], label[1], label[0])


def _parse_label(text: str) -> EdgeLabel:
    if len(text) != 3 or any(c not in _ARROW_BY_CHAR for c in text):
        raise ValueError(f"bad edge label {text!r}")
    return tuple(_ARROW_BY_CHAR[c] for c in text)


def label_text(label: EdgeLabel) -> str:
    return "".join(map(_CHAR_BY_ARROW.__getitem__, label))


def _load_identity_table() -> dict:
    table = {}
    data = Path(__file__).with_name("tiles.dat").read_text(encoding="utf-8")
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, *edges = line.split()
        if len(edges) != 4:
            raise ValueError(f"bad tile row {line!r}")
        table[_KEY_TO_PROTOTILE[name]] = tuple(_parse_label(e) for e in edges)
    if len(table) != 6:
        raise ValueError("identity table must define exactly six prototiles")
    return table


_IDENTITY_TABLE = _load_identity_table()


def _mirror_labels(labels):
    # Reflection across the vertical axis: N and S stay put, E and W swap,
    # and every edge's traversal reverses.
    n, e, s, w = labels
    return (mirror_label(n), mirror_label(w), mirror_label(s), mirror_label(e))


def _rotate_labels(labels):
    # One quarter turn counter-clockwise: the old E edge becomes the new N.
    # Traversal direction is preserved, so slots do not reverse.
    n, e, s, w = labels
    return (e, s, w, n)


def _labels_for(proto: Prototile, pose: Pose):
    labels = _IDENTITY_TABLE[proto]
    if pose.mirror:
        labels = _mirror_labels(labels)
    for _ in range(pose.rotation):
        labels = _rotate_labels(labels)
    return labels


_ALL_POSES = tuple(Pose(r, m) for m in (False, True) for r in range(4))
_POSE_LABELS = {
    (proto, pose): _labels_for(proto, pose)
    for proto in Prototile
    for pose in _ALL_POSES
}

# Canonical representative per (prototile, label 4-tuple): the
# lexicographically smallest (rotation, mirror) among equal-label poses,
# the first met in pose order.  Labels are tuples of frozen Arrows, so
# they serve as keys directly.
_FIRST_POSE: dict = {}
_CANONICAL_POSE = {
    (proto, pose): _FIRST_POSE.setdefault((proto, _POSE_LABELS[(proto, pose)]), pose)
    for proto in Prototile
    for pose in sorted(_ALL_POSES)
}


class OrientedTile(Record, order=True):
    """A prototile in a pose.  Semantic identity is the prototile plus its
    four edge labels; poses that decorate the edges identically collapse
    to one canonical representative."""

    __match_args__ = ("prototile", "pose")

    def __init__(self, prototile: Prototile, pose: Pose = IDENTITY):
        self._set(prototile, pose)

    def labels(self):
        return _POSE_LABELS[(self.prototile, self.pose)]

    def canonical(self) -> "OrientedTile":
        return OrientedTile(self.prototile, _CANONICAL_POSE[(self.prototile, self.pose)])

    def semantically_equal(self, other: "OrientedTile") -> bool:
        return self.prototile == other.prototile and self.labels() == other.labels()


def edge_label(tile: OrientedTile, side: Side) -> EdgeLabel:
    """The decoration of one edge of a posed tile."""
    return tile.labels()[side]


def _slots_meet(a, b) -> bool:
    if a is None and b is None:
        return True
    if a is None or b is None:
        return False
    return a.principal == b.principal and a.out != b.out


def labels_abut(la: EdgeLabel, lb: EdgeLabel) -> bool:
    """Whether two facing edge labels match.  The edges are traversed in
    opposite directions, so slot i of one meets slot 2-i of the other;
    the second label is the one mirrored, by global convention."""
    return all(_slots_meet(la[i], lb[2 - i]) for i in range(3))


def compatible(a: OrientedTile, b: OrientedTile, direction: Adjacency) -> bool:
    """True when ``b`` may sit directly east (or south) of ``a``."""
    if direction is Adjacency.EAST:
        return labels_abut(edge_label(a, Side.E), edge_label(b, Side.W))
    if direction is Adjacency.SOUTH:
        return labels_abut(edge_label(a, Side.S), edge_label(b, Side.N))
    raise ValueError(f"direction must be Adjacency.EAST or SOUTH, got {direction!r}")


# The canonical tiles in (prototile, rotation, mirror) order.
ALL_TILES = tuple(
    sorted({OrientedTile(proto, pose) for (proto, _), pose in _CANONICAL_POSE.items()})
)
TILE_INDEX = {tile: i for i, tile in enumerate(ALL_TILES)}


def all_oriented_tiles() -> list:
    """Every distinct oriented tile exactly once, in canonical order."""
    return list(ALL_TILES)


def is_bumpy_corner(tile: OrientedTile) -> bool:
    return tile.prototile == Prototile.BUMPY_CORNER


def tile_id(tile: OrientedTile) -> int:
    """Stable small-integer id of a tile's canonical representative."""
    return TILE_INDEX[tile.canonical()]


def tile_from_id(idx: int) -> OrientedTile:
    return ALL_TILES[idx]


def rotate_tile(tile: OrientedTile, quarter_turns: int = 1) -> OrientedTile:
    """The tile as it appears after rotating the whole grid CCW."""
    return OrientedTile(
        tile.prototile, Pose(quarter_turns % 4, False).compose(tile.pose)
    ).canonical()


def mirror_tile(tile: OrientedTile) -> OrientedTile:
    """The tile as it appears after reflecting the grid across a vertical axis."""
    return OrientedTile(tile.prototile, Pose(0, True).compose(tile.pose)).canonical()


def _compat_tables():
    """EAST_OK and SOUTH_OK, as ``compatible`` gives them for every pair
    of tiles: which distinct edge labels abut is worked out once, then
    indexed by each tile's label codes."""
    codes: dict = {}  # distinct edge label -> its code
    sides = np.array(
        [[codes.setdefault(label, len(codes)) for label in t.labels()] for t in ALL_TILES]
    )
    abut = np.array([[labels_abut(a, b) for b in codes] for a in codes], dtype=bool)
    east = abut[sides[:, Side.E, None], sides[None, :, Side.W]]
    south = abut[sides[:, Side.S, None], sides[None, :, Side.N]]
    return east, south


EAST_OK, SOUTH_OK = _compat_tables()

# Each tile id's id after one counter-clockwise quarter turn of the grid,
# so ``TURN[np.rot90(ids)]`` is the grid ``ids`` turned a quarter.
TURN = np.array([tile_id(rotate_tile(t, 1)) for t in ALL_TILES], dtype=np.uint8)

BUMPY_IDS = np.array([is_bumpy_corner(t) for t in ALL_TILES], dtype=bool)
