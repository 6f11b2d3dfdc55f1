"""The closed forms by shifts of the band exponent, against their
expanded polynomials, and a recurrence table holding only its base,
which climbs without walking down n's halving chain."""

import random

import pytest

from robinsonblocks import complexity
from robinsonblocks.complexity import (
    DomainError,
    RecurrenceTable,
    _climb,
    closed_form_A,
    coeff_a,
    coeff_b,
    paperfolding_P,
    recurrence_A,
    recurrence_B,
)

# Each closed form, the least n it takes, and its expanded polynomial in
# p = 2^floor(log2 n), kept verbatim as the reference.
FORMS = [
    (closed_form_A, 2, lambda n, p: 32 * n * n + 72 * n * p - 48 * p * p),
    (coeff_a, 1, lambda n, p: 5 * n * n - 12 * n * p + 8 * p * p),
    (coeff_b, 1, lambda n, p: -2 * n * n + 6 * n * p - 4 * p * p),
    (paperfolding_P, 3, lambda n, p: 12 * n * n + 24 * n * p - 16 * p * p - 4),
]
FORM_IDS = [form.__name__ for form, _, _ in FORMS]


def _mismatches(form, reference, ns) -> list:
    return [n for n in ns if form(n) != reference(n, 1 << (n.bit_length() - 1))]


@pytest.mark.parametrize("form, least, reference", FORMS, ids=FORM_IDS)
def test_closed_form_equals_its_polynomial_for_every_n_to_200000(form, least, reference):
    assert _mismatches(form, reference, range(least, 200_001)) == []


@pytest.mark.parametrize("form, least, reference", FORMS, ids=FORM_IDS)
def test_closed_form_equals_its_polynomial_at_band_edges(form, least, reference):
    # A band's first and last n, and the n past its last, to 2^4096 + 1:
    # where a shift count one off, or a shift taken before a sum, shows.
    edges = [(1 << k) + d for k in range(1, 4097) for d in (-1, 0, 1)]
    assert _mismatches(form, reference, [n for n in edges if n >= least]) == []


@pytest.mark.parametrize("form, least, reference", FORMS, ids=FORM_IDS)
def test_closed_form_equals_its_polynomial_at_random_n(form, least, reference):
    rng = random.Random(2201_00811)
    ns = [rng.getrandbits(rng.randint(1, 4096)) for _ in range(3000)]
    assert _mismatches(form, reference, [n for n in ns if n >= least]) == []


class _RecordedGets(dict):
    """A memo that records the key of each ``get``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.gets = []

    def get(self, key, default=None):
        self.gets.append(key)
        return super().get(key, default)


BASE_ONLY_N = [2, 3, 4, 5, 6, 7, 1000, 99_999, 2**62 + 12_345, 3**200]


@pytest.mark.parametrize("n", BASE_ONLY_N)
def test_a_table_holding_only_its_base_climbs_without_the_walk(n):
    climbed_A, climbed_B = {1: 56}, {1: 124}
    want = _climb(n, n.bit_length() - 1, 56, 124, 224, climbed_A, climbed_B)
    for value, own_lookup in (("A", []), ("B", [n])):
        memo_B = _RecordedGets({1: 124})
        table = RecurrenceTable(memo_B=memo_B)
        assert getattr(table, value)(n) == want["AB".index(value)]
        # No level of n's halving chain is probed: memo_B is read for B(n)
        # itself, if asked, and then for its base.
        assert memo_B.gets == own_lookup + [1]
        assert table.memo_A == climbed_A
        assert dict(memo_B) == climbed_B
    assert recurrence_A(n) == want[0] and recurrence_B(n) == want[1]


def test_a_table_with_a_further_B_entry_walks_to_it():
    memo_B = _RecordedGets({1: 124})
    table = RecurrenceTable(memo_B=memo_B)
    table.A(3)  # memoises the triple at level 3, and at level 1
    memo_B.gets.clear()
    assert table.A(13) == closed_form_A(13)
    assert memo_B.gets == [6, 3]  # 13 -> 6, a miss, -> 3, the triple found
    assert sorted(memo_B) == [1, 3, 6, 13]


def test_a_base_only_table_takes_A_2_from_its_memo_as_the_walk_does():
    # The walk's last level, m = 1, reads A(2) from memo_A where the table
    # holds it; so the climb from the bases does too, even when the entry
    # is not the recurrence's (the table then holds what it derives).
    table = RecurrenceTable(memo_A={1: 56, 2: 0})
    assert table.A(3) == 56 + 0 + 2 * 124
    assert RecurrenceTable(memo_A={1: 56, 2: 224}).A(3) == closed_form_A(3)


def test_a_base_only_table_without_memo_A_base_names_it():
    with pytest.raises(DomainError, match=r"^the table has no base entry memo_A\[1\]$"):
        RecurrenceTable(memo_A={}, memo_B={1: 124}).A(5)


def test_a_contiguous_sweep_misses_half_its_n_and_climbs_one_and_a_half_steps(monkeypatch):
    # README: A(n) for n = 3..100002 on one table, 50,000 misses and
    # 75,000 steps.
    climbs = []

    def counted(n, depth, *args):
        climbs.append(depth)
        return _climb(n, depth, *args)

    monkeypatch.setattr(complexity, "_climb", counted)
    table = RecurrenceTable()
    assert [table.A(n) for n in range(3, 100_003)] == [closed_form_A(n) for n in range(3, 100_003)]
    assert (len(climbs), sum(climbs)) == (50_000, 75_000)
