"""The halving evaluator against a recursive reference written from the
four recurrences, and the identities it rests on."""

import random
from functools import lru_cache

import pytest

from robinsonblocks.complexity import (
    A1,
    B1,
    DomainError,
    RecurrenceTable,
    closed_form_A,
    coeff_a,
    coeff_b,
    decomposition_trace,
    recurrence_B,
    vacant_places,
)

OFFSETS = ((1, 1), (1, 2), (2, 1), (2, 2))


@lru_cache(maxsize=None)
def ref_A(n, a1=A1, b1=B1):
    if n == 1:
        return a1
    h, odd = divmod(n, 2)
    if odd:
        return ref_A(h, a1, b1) + ref_A(h + 1, a1, b1) + 2 * ref_B(h, a1, b1)
    return 4 * ref_A(h, a1, b1)


@lru_cache(maxsize=None)
def ref_B(n, a1=A1, b1=B1):
    if n == 1:
        return b1
    h, odd = divmod(n, 2)
    return 2 * ref_A(h + odd, a1, b1) + 2 * ref_B(h, a1, b1)


def closed_form_B(n):
    p = 1 << (n.bit_length() - 1)
    return 32 * n * n + 32 * n + 72 * n * p - 48 * p * p + 36 * p


def _seeded_ns():
    rng = random.Random(20240611)
    return [rng.getrandbits(rng.randint(1, 200)) | 1 for _ in range(200)]


SMALL = range(1, 4097)
LARGE = _seeded_ns()


def test_fresh_tables_match_the_reference():
    for n in list(SMALL) + LARGE:
        assert RecurrenceTable().A(n) == ref_A(n), n
        assert RecurrenceTable().B(n) == ref_B(n), n


def test_shared_table_matches_the_reference():
    table = RecurrenceTable()
    for n in list(SMALL) + LARGE:
        assert table.A(n) == ref_A(n), n
        assert table.B(n) == ref_B(n), n


def test_unit_bases_match_the_reference():
    for bases in ((1, 0), (0, 1)):
        table = RecurrenceTable({1: bases[0]}, {1: bases[1]})
        for n in list(SMALL) + LARGE:
            assert table.A(n) == ref_A(n, *bases), n
            assert table.B(n) == ref_B(n, *bases), n
    for n in list(SMALL) + LARGE:
        trace = decomposition_trace(n)
        assert (trace.a_leaves, trace.b_leaves) == (ref_A(n, 1, 0), ref_A(n, 0, 1)), n


def test_every_memo_entry_after_mixed_calls_matches_the_reference():
    rng = random.Random(7)
    table = RecurrenceTable()
    ns = list(SMALL) + LARGE
    for _ in range(3000):
        n = rng.choice(ns)
        (table.A if rng.random() < 0.5 else table.B)(n)
    assert len(table.memo_A) > 1000 and len(table.memo_B) > 1000
    for n, value in table.memo_A.items():
        assert value == ref_A(n), n
    for n, value in table.memo_B.items():
        assert value == ref_B(n), n
    table.check()


def test_a_miss_memoises_the_triple_of_every_level():
    table = RecurrenceTable()
    n = 1000
    table.A(n)
    m = n
    while m > 1:
        assert (table.memo_A[m], table.memo_B[m], table.memo_A[m + 1]) == (
            ref_A(m),
            ref_B(m),
            ref_A(m + 1),
        )
        m >>= 1


def test_a_miss_on_a_memoised_half_level_is_one_step():
    table = RecurrenceTable()
    table.B(500)
    before = len(table.memo_A) + len(table.memo_B)
    assert table.A(1001) == ref_A(1001)
    # One step stores A(1001), B(1001) and A(1002), and nothing below.
    assert len(table.memo_A) + len(table.memo_B) == before + 3


def test_deep_n_needs_no_recursion():
    n = 2**5000 + 12345
    assert RecurrenceTable().A(n) == closed_form_A(n)
    assert recurrence_B(n) == closed_form_B(n)
    trace = decomposition_trace(n)
    assert (trace.a_leaves, trace.b_leaves) == (coeff_a(n), coeff_b(n))


@pytest.mark.parametrize(
    "memos, missing",
    [
        (({}, {}), "memo_A"),
        (({}, {1: B1}), "memo_A"),
        (({1: A1}, {}), "memo_B"),
    ],
)
def test_a_missing_base_is_named(memos, missing):
    for method in ("A", "B"):
        for n in (1, 2, 3, 1000):
            table = RecurrenceTable(dict(memos[0]), dict(memos[1]))
            if n == 1 and getattr(table, f"memo_{method}"):
                continue  # the entry asked for is there
            with pytest.raises(DomainError, match=rf"no base entry {missing}\[1\]"):
                getattr(table, method)(n)


def _shape_count(table, shape):
    if shape.rows == shape.cols:
        return table.A(shape.rows)
    return table.B(min(shape.rows, shape.cols))


def test_a_is_the_sum_over_the_four_vacant_shapes():
    table = RecurrenceTable()
    for n in range(2, 3001):
        shapes = [vacant_places(n, offset) for offset in OFFSETS]
        assert table.A(n) == sum(_shape_count(table, s) for s in shapes), n


def test_b_closed_form():
    table = RecurrenceTable()
    for n in range(1, 200_001):
        assert table.B(n) == closed_form_B(n), n
