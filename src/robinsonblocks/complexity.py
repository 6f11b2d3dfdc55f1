"""Exact-integer block-complexity machinery: the closed form, the
recurrence system, its coefficient solution, vacant-place accounting,
and the conjectured 2D paper-folding formula.

Everything here is plain Python integers (arbitrary precision); no
floating point enters any code path.
"""

from __future__ import annotations

from ._record import Record, _integer

A1 = 56
B1 = 124


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


def _domain(name: str, n, least: int) -> int:
    """``n`` as an int if it is an integer (numpy integers too, bools not)
    of at least ``least``; else a TypeError, or the DomainError naming
    ``name``.  The one domain check of every function here that takes n,
    each of which calls it only for n not an int in range."""
    n = _integer("n", n)
    if n < least:
        raise DomainError(f"{name} needs n >= {least}, got {n}")
    return n


def floor_log2(n: int) -> int:
    """The unique e with 2^e <= n < 2^(e+1), via bit operations."""
    if type(n) is not int or n < 1:
        n = _domain("floor_log2", n, 1)
    return n.bit_length() - 1


def closed_form_A(n: int) -> int:
    """Distinct n-by-n blocks of a one-infinite-supertile Robinson tiling,
    in closed form.  Valid for n >= 2 only; the n=1 restricted base
    quantity is not a block count."""
    if type(n) is not int or n < 2:
        n = _domain("closed_form_A", n, 2)
    e = n.bit_length() - 1
    return (32 * n + (72 << e)) * n - (48 << 2 * e)


def _climb(n: int, depth: int, a: int, b: int, c: int, memo_A=None, memo_B=None) -> tuple:
    """Step the triple (A(h), B(h), A(h+1)) at level h = n >> depth up
    n's halving chain to level n, and return the triple there.  With
    memos, the triple of every level stepped to is stored in them.

    The triple is R(h, h), R(h, h+1) and R(h+1, h+1).  The first rank's
    lattice, placed at each of the four offsets of ``vacant_places``,
    leaves (m + o - 1) // 2 vacant lines along an axis of length m where
    it sits at offset o in {1, 2}: the shape h x h four times in a
    2h-square and h x h, h x (h+1), (h+1) x h, (h+1) x (h+1) in a
    (2h+1)-square.  So every count one level up is the sum of the counts
    of its four vacant shapes.

    One step keeps the closed forms.  Let p be the band of h
    (p <= h < 2p), A_p(m) = 32m^2 + 72mp - 48p^2 and
    B_p(m) = 32m^2 + 32m + 72mp - 48p^2 + 36p.  Stepped from
    (A_p(h), B_p(h), A_p(h+1)), the triple at m = 2h or 2h + 1 is
    (A_2p(m), B_2p(m), A_2p(m+1)), 2p being m's band: five polynomial
    identities.  At a band's edge A_p(2p) = A_2p(2p) = 224p^2, so the
    last entry is A(m+1) in its own band too; B's two bands differ there
    by 36p, and the step never reads B at m + 1.  From the base triple
    (56, 124, 224) at m = 1, the recurrence and both closed forms
    therefore agree for every n >= 1 (``closed_form_A`` for n >= 2).
    That is a proof about the recurrence only, not that the tiling's
    block counts obey it.
    """
    while depth:
        depth -= 1
        m = n >> depth  # 2h or 2h+1
        odd = a + c + 2 * b  # A(2h+1)
        if m & 1:
            a, b, c = odd, 2 * (b + c), 4 * c
        else:
            a, b, c = 4 * a, 2 * (a + b), odd
        if memo_A is not None:
            memo_A[m] = a
            memo_B[m] = b
            memo_A[m + 1] = c
    return a, b, c


class RecurrenceTable(Record, frozen=False):
    """Memo of the halving recurrences for the block counts A_n and the
    off-grid restricted counts B_n.

    A_1 = 56 is the restricted 2x2 base quantity, not the number of 1x1
    blocks; closed_form_A guards its own n >= 2 domain accordingly.

    A miss walks down n's halving chain to the first level m whose
    triple A(m), B(m), A(m+1) is memoised (else to the n = 1 bases),
    then climbs back up, memoising the triple of every level on the way.
    A table whose memo_B holds only its base, as a fresh one does, has
    nothing to find on the way down, so it skips the walk and climbs
    from the bases at once; what it memoises is the same.

    The closed forms (``closed_form_A``, ``coeff_a``, ``coeff_b``,
    ``paperfolding_P``) take the band exponent e = floor(log2 n) as shift
    counts, 2^e and 4^e times a constant being that constant shifted by
    e and 2e, so each costs one multiply by n.
    """

    __match_args__ = ("memo_A", "memo_B")

    def __init__(self, memo_A: dict | None = None, memo_B: dict | None = None):
        self.memo_A = {1: A1} if memo_A is None else memo_A
        self.memo_B = {1: B1} if memo_B is None else memo_B

    def A(self, n: int) -> int:
        if type(n) is not int or n < 1:
            n = _domain("recurrence_A", n, 1)
        got = self.memo_A.get(n)
        if got is None:
            got = self._level(n)[0]
        return got

    def B(self, n: int) -> int:
        if type(n) is not int or n < 1:
            n = _domain("recurrence_B", n, 1)
        got = self.memo_B.get(n)
        if got is None:
            got = self._level(n)[1]
        return got

    def _level(self, n: int) -> tuple:
        """(A(n), B(n), A(n+1)), memoising each level climbed."""
        memo_A, memo_B = self.memo_A, self.memo_B
        m, depth = n, 0
        if len(memo_B) == 1 and 1 in memo_B:  # only the base: the walk finds it at m = 1
            m, depth = 1, n.bit_length() - 1
        while m > 1:
            m >>= 1
            depth += 1
            b = memo_B.get(m)
            if b is not None:
                a, c = memo_A.get(m), memo_A.get(m + 1)
                if a is not None and c is not None:
                    break
        else:
            a, b = memo_A.get(1), memo_B.get(1)
            for name, base in (("memo_A", a), ("memo_B", b)):
                if base is None:
                    raise DomainError(f"the table has no base entry {name}[1]")
            c = memo_A.get(2)  # A(2), read where the walk reads it at m = 1
            if c is None:
                c = 4 * a
        return _climb(n, depth, a, b, c, memo_A, memo_B)

    def check(self) -> None:
        """Re-check every memoised value, base entries included, against a
        fresh table.  Raises ValueError naming the memo and n of a value
        that differs."""
        fresh = RecurrenceTable()
        for name, memo, rule in (
            ("memo_A", self.memo_A, fresh.A),
            ("memo_B", self.memo_B, fresh.B),
        ):
            for n, value in memo.items():
                want = rule(n)
                if value != want:
                    raise ValueError(f"{name}[{n}] = {value}, the recurrence gives {want}")


def recurrence_A(n: int, table: RecurrenceTable | None = None) -> int:
    """A_n by the halving recurrences (A_1 = 56 base)."""
    return (table or RecurrenceTable()).A(n)


def recurrence_B(n: int, table: RecurrenceTable | None = None) -> int:
    """B_n by the halving recurrences (B_1 = 124 base)."""
    return (table or RecurrenceTable()).B(n)


def coeff_a(n: int) -> int:
    """Multiplier of the A_1 base in the recurrence solution."""
    if type(n) is not int or n < 1:
        n = _domain("coeff_a", n, 1)
    e = n.bit_length() - 1
    return (5 * n - (12 << e)) * n + (8 << 2 * e)


def coeff_b(n: int) -> int:
    """Multiplier of the B_1 base in the recurrence solution."""
    if type(n) is not int or n < 1:
        n = _domain("coeff_b", n, 1)
    e = n.bit_length() - 1
    return ((6 << e) - 2 * n) * n - (4 << 2 * e)


class DecompositionTrace(Record):
    """Leaf multiplicities when the recurrence tree for A_n is unrolled
    down to the A_1 / B_1 bases."""

    __match_args__ = ("n", "a_leaves", "b_leaves")

    def __init__(self, n: int, a_leaves: int, b_leaves: int):
        self._set(n, a_leaves, b_leaves)

    def value(self) -> int:
        return self.a_leaves * A1 + self.b_leaves * B1


def decomposition_trace(n: int) -> DecompositionTrace:
    """Unroll the recurrence tree, counting with multiplicity how many
    leaves resolve to A_1 and to B_1.

    The recurrences are linear and homogeneous, so every A_n and B_n is
    a_n * A_1 + b_n * B_1 for integer multiplicities fixed by the tree
    alone.  Running the halving loop with unit bases, (A_1, B_1) = (1, 0)
    and then (0, 1), therefore yields a_n and b_n.
    """
    if type(n) is not int or n < 1:
        n = _domain("decomposition_trace", n, 1)
    depth = n.bit_length() - 1
    a_leaves = _climb(n, depth, 1, 0, 4)[0]
    b_leaves = _climb(n, depth, 0, 1, 0)[0]
    return DecompositionTrace(n, a_leaves, b_leaves)


class VacantShape(Record):
    """Vacant-place grid dimensions after the first placement step."""

    __match_args__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int):
        self._set(rows, cols)


_FIRST_STEP_CHOICES = ((1, 1), (2, 2), (1, 2), (2, 1))


def vacant_places(n: int, first_step_choice) -> VacantShape:
    """Vacant places left in an n-square after placing the first-rank
    corner lattice at the given 2x2 offset (row, col).  An axis whose
    lattice sits at offset o leaves (n + o - 1) // 2 vacant lines: even
    n = 2k leaves k x k for all four choices; odd n = 2k+1 leaves k x k,
    (k+1) x (k+1), or the two mixed shapes (the [2,1] shape is the
    transpose of [1,2], a fixed orientation convention).  An offset equal
    to 1 or 2 that is no integer, or is a bool, raises ``TypeError``."""
    if type(n) is not int or n < 2:
        n = _domain("vacant_places", n, 2)
    try:
        choice = tuple(first_step_choice)
    except TypeError:  # not iterable
        choice = None
    if choice not in _FIRST_STEP_CHOICES:
        raise DomainError(f"first_step_choice must be one of {_FIRST_STEP_CHOICES}")
    return VacantShape(*((n + _integer("first_step_choice offset", o) - 1) // 2 for o in choice))


def paperfolding_P(n: int) -> int:
    """The conjectured (Gaehler-Nilsson) count of distinct n-by-n blocks
    of the 2D paper-folding sequence.  Evaluated, not asserted: the
    formula is a conjecture in its source."""
    if type(n) is not int or n < 3:
        n = _domain("paperfolding_P", n, 3)
    e = n.bit_length() - 1
    return (12 * n + (24 << e)) * n - (16 << 2 * e) - 4


VERIFY_CSV_HEADER = "n,closed_form,recurrence,oracle,match"


def verify_row(n: int, closed: int, recur: int, oracle=None, match=None) -> str:
    """One CSV row for a verify run; the oracle column is empty when the
    brute-force count was not computed."""
    if match is None:
        match = closed == recur and (oracle is None or oracle == closed)
    oracle_text = "" if oracle is None else str(oracle)
    return f"{n},{closed},{recur},{oracle_text},{str(bool(match)).lower()}"
