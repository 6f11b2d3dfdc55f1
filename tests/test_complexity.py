"""Closed form, recurrences, coefficients, traces, vacant places."""

import pytest

from robinsonblocks.complexity import (
    A1,
    B1,
    DomainError,
    RecurrenceTable,
    VacantShape,
    closed_form_A,
    coeff_a,
    coeff_b,
    decomposition_trace,
    floor_log2,
    paperfolding_P,
    recurrence_A,
    recurrence_B,
    vacant_places,
    verify_row,
    VERIFY_CSV_HEADER,
    _climb,
)


def test_floor_log2_values():
    assert floor_log2(1) == 0
    assert floor_log2(5) == 2
    assert floor_log2(2**40) == 40
    assert floor_log2(2**40 - 1) == 39


def test_floor_log2_domain():
    for bad in (0, -1, -17):
        with pytest.raises(DomainError):
            floor_log2(bad)


def test_floor_log2_agrees_with_repeated_halving():
    # Exhaustive against the independent halving count, up to 2^20.
    expected = 0
    next_power = 2
    for n in range(1, 2**20 + 1):
        if n == next_power:
            expected += 1
            next_power <<= 1
        assert floor_log2(n) == expected


def test_closed_form_values():
    assert closed_form_A(2) == 224
    assert closed_form_A(3) == 528
    assert closed_form_A(7) == 2816


def test_closed_form_domain():
    for bad in (1, 0, -3):
        with pytest.raises(DomainError):
            closed_form_A(bad)


def test_closed_form_huge_inputs_exact():
    n = 10**40 + 7
    value = closed_form_A(n)
    p = 1 << floor_log2(n)
    assert value == 32 * n * n + 72 * n * p - 48 * p * p
    assert value > 0


def test_recurrence_examples():
    assert recurrence_A(1) == 56
    assert recurrence_B(1) == 124
    assert recurrence_A(4) == 896
    assert recurrence_B(2) == 360
    assert recurrence_A(5) == 1472


def test_recurrence_domain():
    with pytest.raises(DomainError):
        recurrence_A(0)
    with pytest.raises(DomainError):
        recurrence_B(-1)


def test_recurrence_equals_closed_form_spot():
    table = RecurrenceTable()
    for n in list(range(2, 200)) + [255, 256, 257, 1023, 4096, 99999]:
        assert table.A(n) == closed_form_A(n), n


def _closed_A(p: int, m: int) -> int:
    """A's closed form at m, in the band of p."""
    return 32 * m * m + 72 * m * p - 48 * p * p


def _closed_B(p: int, m: int) -> int:
    """B's closed form at m, in the band of p."""
    return 32 * m * m + 32 * m + 72 * m * p - 48 * p * p + 36 * p


def test_the_closed_forms_obey_the_recurrence_for_every_n():
    # A proof, not a sample.  Each identity below has both sides
    # polynomials of degree at most 2 in h and in p, so equality on the
    # 3 x 3 grid h, p in {0, 1, 2} is equality for every h and p.
    for h in range(3):
        for p in range(3):
            triple = (_closed_A(p, h), _closed_B(p, h), _closed_A(p, h + 1))
            # One step to m = 2h and to m = 2h + 1, whose band is 2p when
            # p is h's band: five distinct identities.
            for m in (2 * h, 2 * h + 1):
                assert _climb(m, 1, *triple) == (
                    _closed_A(2 * p, m),
                    _closed_B(2 * p, m),
                    _closed_A(2 * p, m + 1),
                ), (h, p, m)
    for p in range(3):
        # At a band's edge A is the same in both bands, so the triple's
        # A(m + 1), read in m's band, is A in its own band too.  B is not,
        # so the induction must never read B at m + 1, and it does not.
        assert _closed_A(p, 2 * p) == _closed_A(2 * p, 2 * p) == 224 * p * p
        assert _closed_B(2 * p, 2 * p) - _closed_B(p, 2 * p) == 36 * p
    # The base triple at m = 1, band 1, is the recurrence's own.
    base = (_closed_A(1, 1), _closed_B(1, 1), _closed_A(1, 2))
    assert base == (A1, B1, 4 * A1) == (56, 124, 224)
    # And the forms above are the package's and the README's, p = 2^floor(log2 m).
    table = RecurrenceTable()
    for m in range(1, 300):
        p = 1 << (m.bit_length() - 1)
        assert table.A(m) == _closed_A(p, m) and table.B(m) == _closed_B(p, m), m
        if m >= 2:
            assert closed_form_A(m) == _closed_A(p, m), m


def test_sibling_identities_posthoc_on_memo():
    table = RecurrenceTable()
    table.A(777)
    table.B(1234)
    table.check()
    for n in range(1, 300):
        assert table.A(2 * n) == 4 * table.A(n)
        assert table.A(2 * n + 1) == table.A(n) + table.A(n + 1) + 2 * table.B(n)
        assert table.B(2 * n) == 2 * table.A(n) + 2 * table.B(n)
        assert table.B(2 * n + 1) == 2 * table.A(n + 1) + 2 * table.B(n)
    table.check()


def test_check_raises_on_a_corrupt_memo_entry():
    for memo in ("memo_A", "memo_B"):
        for n in (10, 1):
            table = RecurrenceTable()
            table.A(40)
            table.B(40)
            getattr(table, memo)[n] += 1
            with pytest.raises(ValueError, match=rf"{memo}\[{n}\]"):
                table.check()


def test_coeff_examples():
    assert (coeff_a(1), coeff_b(1)) == (1, 0)
    assert (coeff_a(2), coeff_b(2)) == (4, 0)
    assert (coeff_a(3), coeff_b(3)) == (5, 2)


def test_coeff_domain():
    with pytest.raises(DomainError):
        coeff_a(0)
    with pytest.raises(DomainError):
        coeff_b(0)


def test_coefficient_identity_spot():
    for n in list(range(1, 5000)) + [10**6, 10**9 + 123]:
        want = closed_form_A(n) if n >= 2 else 56
        assert coeff_a(n) * 56 + coeff_b(n) * 124 == want


def test_decomposition_trace_examples():
    t1 = decomposition_trace(1)
    assert (t1.a_leaves, t1.b_leaves) == (1, 0)
    t4 = decomposition_trace(4)
    assert (t4.a_leaves, t4.b_leaves) == (16, 0)
    t3 = decomposition_trace(3)
    assert (t3.a_leaves, t3.b_leaves) == (5, 2)


def test_decomposition_trace_value_invariant():
    table = RecurrenceTable()
    for n in range(1, 600):
        trace = decomposition_trace(n)
        assert trace.value() == table.A(n)
        assert (trace.a_leaves, trace.b_leaves) == (coeff_a(n), coeff_b(n))


def test_decomposition_domain():
    with pytest.raises(DomainError):
        decomposition_trace(0)


def test_vacant_places_even():
    for choice in ((1, 1), (2, 2), (1, 2), (2, 1)):
        assert vacant_places(6, choice) == VacantShape(3, 3)


def test_vacant_places_odd():
    assert vacant_places(5, (1, 1)) == VacantShape(2, 2)
    assert vacant_places(5, (2, 2)) == VacantShape(3, 3)
    assert vacant_places(5, (1, 2)) == VacantShape(2, 3)
    assert vacant_places(5, (2, 1)) == VacantShape(3, 2)


def test_vacant_places_domain():
    with pytest.raises(DomainError):
        vacant_places(1, (1, 1))
    with pytest.raises(DomainError):
        vacant_places(5, (3, 1))


def test_paperfolding_values():
    assert paperfolding_P(3) == 184
    assert paperfolding_P(4) == 316
    for m in (5, 9, 17):
        assert paperfolding_P(2**m) == 20 * 4**m - 4


def test_paperfolding_domain():
    with pytest.raises(DomainError):
        paperfolding_P(2)


def test_verify_row_format():
    assert VERIFY_CSV_HEADER == "n,closed_form,recurrence,oracle,match"
    assert verify_row(3, 528, 528, 528) == "3,528,528,528,true"
    assert verify_row(3, 528, 528) == "3,528,528,,true"
    assert verify_row(3, 528, 529) == "3,528,529,,false"
