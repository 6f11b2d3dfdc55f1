"""What the package's twelve record types do: repr, equality, hashing,
ordering, immutability, construction, validation, pickling, copying and
pattern matching."""

import copy
import dataclasses
import operator
import pickle
from types import SimpleNamespace

import pytest

from robinsonblocks.complexity import DecompositionTrace, RecurrenceTable, VacantShape
from robinsonblocks.enumerator import CountReport, Pattern
from robinsonblocks.render import RenderStyle
from robinsonblocks.supertile import SupertileSpec, ValidationReport, Violation
from robinsonblocks.tileset import Arrow, OrientedTile, Pose, Prototile

EAST = Violation("adjacency", 1, 1, "east")

# Per record type: its fields, the values of one instance, the repr of
# that instance, the values of a second one that differs in one field,
# and the defaults of the fields that have one.
RECORDS = [
    SimpleNamespace(
        cls=Pose,
        fields=("rotation", "mirror"),
        values=(1, True),
        repr="Pose(rotation=1, mirror=True)",
        other=(1, False),
        defaults={"rotation": 0, "mirror": False},
    ),
    SimpleNamespace(
        cls=Arrow,
        fields=("out", "principal"),
        values=(True, False),
        repr="Arrow(out=True, principal=False)",
        other=(False, False),
        defaults={},
    ),
    SimpleNamespace(
        cls=OrientedTile,
        fields=("prototile", "pose"),
        values=(Prototile.ARM2, Pose(3, True)),
        repr="OrientedTile(prototile=<Prototile.ARM2: 3>, pose=Pose(rotation=3, mirror=True))",
        other=(Prototile.ARM2, Pose(3, False)),
        defaults={"pose": Pose(0, False)},
    ),
    SimpleNamespace(
        cls=SupertileSpec,
        fields=("rank", "pose"),
        values=(3, Pose(2)),
        repr="SupertileSpec(rank=3, pose=Pose(rotation=2, mirror=False))",
        other=(4, Pose(2)),
        defaults={"pose": Pose(0, False)},
    ),
    SimpleNamespace(
        cls=Violation,
        fields=("kind", "row", "col", "detail"),
        values=("parity", 2, 3, "2 bumpy corners"),
        repr="Violation(kind='parity', row=2, col=3, detail='2 bumpy corners')",
        other=("parity", 2, 4, "2 bumpy corners"),
        defaults={"detail": ""},
    ),
    SimpleNamespace(
        cls=ValidationReport,
        fields=("ok", "violations"),
        values=(False, (EAST,)),
        repr=(
            "ValidationReport(ok=False, "
            "violations=(Violation(kind='adjacency', row=1, col=1, detail='east'),))"
        ),
        other=(True, ()),
        defaults={},
    ),
    SimpleNamespace(
        cls=Pattern,
        fields=("n", "data"),
        values=(1, b"\x01\x02\x03"),
        repr="Pattern(n=1, data=b'\\x01\\x02\\x03')",
        other=(1, b"\x01\x02\x04"),
        defaults={},
    ),
    SimpleNamespace(
        cls=CountReport,
        fields=("n", "rank_used", "count", "stabilized", "counts_by_rank"),
        values=(2, 3, 224, True, ((2, 200), (3, 224))),
        repr=(
            "CountReport(n=2, rank_used=3, count=224, stabilized=True, "
            "counts_by_rank=((2, 200), (3, 224)))"
        ),
        other=(2, 3, 224, False, ((2, 200), (3, 224))),
        defaults={},
    ),
    SimpleNamespace(
        cls=RenderStyle,
        fields=("cell_size", "stroke_width", "emphasize_principal", "rank_overlay"),
        values=(10.0, 0.5, False, True),
        repr=(
            "RenderStyle(cell_size=10.0, stroke_width=0.5, emphasize_principal=False, "
            "rank_overlay=True)"
        ),
        other=(10.0, 0.5, False, False),
        defaults={
            "cell_size": 24.0,
            "stroke_width": 1.2,
            "emphasize_principal": True,
            "rank_overlay": False,
        },
    ),
    SimpleNamespace(
        cls=RecurrenceTable,
        fields=("memo_A", "memo_B"),
        values=({1: 56, 2: 224}, {1: 124}),
        repr="RecurrenceTable(memo_A={1: 56, 2: 224}, memo_B={1: 124})",
        other=({1: 56}, {1: 124}),
        defaults={"memo_A": {1: 56}, "memo_B": {1: 124}},
    ),
    SimpleNamespace(
        cls=DecompositionTrace,
        fields=("n", "a_leaves", "b_leaves"),
        values=(5, 7, 3),
        repr="DecompositionTrace(n=5, a_leaves=7, b_leaves=3)",
        other=(5, 7, 4),
        defaults={},
    ),
    SimpleNamespace(
        cls=VacantShape,
        fields=("rows", "cols"),
        values=(2, 3),
        repr="VacantShape(rows=2, cols=3)",
        other=(3, 2),
        defaults={},
    ),
]
ORDERED = (Pose, OrientedTile)
MUTABLE = (RecurrenceTable,)


def _field_values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.fixture(params=RECORDS, ids=lambda case: case.cls.__name__)
def case(request):
    return request.param


def test_repr_and_fields(case):
    record = case.cls(*case.values)
    assert repr(record) == case.repr
    assert _field_values(record, case.fields) == case.values
    assert case.cls.__match_args__ == case.fields


def test_equality(case):
    record, same, other = case.cls(*case.values), case.cls(*case.values), case.cls(*case.other)
    assert record == same and not record != same
    assert record != other and not record == other
    # Never equal to a plain tuple of its fields, or to another record type.
    assert record != case.values and not record == case.values
    stranger = next(c for c in RECORDS if c.cls is not case.cls)
    assert record != stranger.cls(*stranger.values)
    assert record.__eq__(case.values) is NotImplemented


def test_hash_is_the_field_tuple_hash(case):
    record = case.cls(*case.values)
    if case.cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
        return
    assert hash(record) == hash(case.values)
    assert hash(record) == hash(case.cls(*case.values))
    assert {record: 1}[case.cls(*case.values)] == 1


COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def test_ordering(case):
    one, two = case.cls(*case.values), case.cls(*case.other)
    if case.cls not in ORDERED:
        for op in COMPARISONS:
            with pytest.raises(TypeError, match="not supported between instances"):
                op(one, two)
        return
    for a, b in ((one, two), (two, one), (one, one)):
        fa, fb = _field_values(a, case.fields), _field_values(b, case.fields)
        assert [op(a, b) for op in COMPARISONS] == [op(fa, fb) for op in COMPARISONS]
    for op in COMPARISONS:
        with pytest.raises(TypeError, match="not supported between instances"):
            op(one, case.values)


def test_sorting_poses_and_tiles_follows_their_fields():
    poses = [Pose(r, m) for m in (True, False) for r in (3, 1, 2, 0)]
    assert sorted(poses) == [Pose(r, m) for r in range(4) for m in (False, True)]
    tiles = [OrientedTile(p, pose) for pose in poses for p in reversed(Prototile)]
    assert sorted(tiles) == sorted(tiles, key=lambda t: (t.prototile, t.pose))
    assert min(tiles) == OrientedTile(Prototile.BUMPY_CORNER, Pose(0, False))


def test_frozen_fields(case):
    record = case.cls(*case.values)
    name = case.fields[0]
    if case.cls in MUTABLE:
        setattr(record, name, {1: 1})
        assert getattr(record, name) == {1: 1}
        return
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, case.other[0])
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    assert _field_values(record, case.fields) == case.values


def test_construction_by_position_keyword_and_default(case):
    by_keyword = case.cls(**dict(zip(case.fields, case.values)))
    assert by_keyword == case.cls(*case.values)
    required = [name for name in case.fields if name not in case.defaults]
    given = {name: value for name, value in zip(case.fields, case.values) if name in required}
    record = case.cls(**given)
    for name in case.fields:
        assert getattr(record, name) == case.defaults.get(name, given.get(name))
    with pytest.raises(TypeError):
        case.cls(*case.values, None)
    with pytest.raises(TypeError):
        case.cls(**given, unknown=1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Pose(4), "rotation must be in 0..3, got 4"),
        (lambda: Pose(-1, True), "rotation must be in 0..3, got -1"),
        (lambda: Pose(1 + 0j, False), "rotation must be in 0..3, got (1+0j)"),
        (lambda: SupertileSpec(0), "rank must be >= 1, got 0"),
        (lambda: SupertileSpec(2, Pose(1, True)), "supertile facing is restricted to the 4 rotations"),
        (lambda: Pattern(2, b"\x00" * 11), "pattern data length must be 3*n*n"),
        (lambda: RenderStyle(cell_size=0), "style dimensions must be strictly positive"),
        (lambda: RenderStyle(stroke_width=-1.0), "style dimensions must be strictly positive"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("rank", [True, False, 3.0, "3", None])
def test_spec_rank_must_be_an_integer(rank):
    with pytest.raises(TypeError) as info:
        SupertileSpec(rank)
    assert str(info.value) == f"rank must be an integer, got {rank!r}"


def test_pickle_and_copy_round_trips(case):
    record = case.cls(*case.values)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is case.cls
        assert twin == record and repr(twin) == case.repr
        if case.cls not in MUTABLE:
            assert hash(twin) == hash(record)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, case.fields[0], case.other[0])
    if case.cls in MUTABLE:
        deep = copy.deepcopy(record)
        assert deep.memo_A is not record.memo_A and deep.memo_B is not record.memo_B


def test_match_by_position(case):
    holder = SimpleNamespace(cls=case.cls)
    match case.cls(*case.values):
        case holder.cls(first, second):
            assert (first, second) == case.values[:2]
        case _:
            pytest.fail("no match")


def test_each_recurrence_table_gets_its_own_memos():
    first, second = RecurrenceTable(), RecurrenceTable()
    assert (first.memo_A, first.memo_B) == ({1: 56}, {1: 124})
    assert first.memo_A is not second.memo_A and first.memo_B is not second.memo_B
    first.A(9)
    assert second.memo_A == {1: 56}
    assert first != second
    with pytest.raises(TypeError, match="unhashable type"):
        {first}
