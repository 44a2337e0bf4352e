"""Digit statistics of quadratic irrationals and bounded checks of the doubling bounds.

M is the largest body digit anywhere in the expansion; B is the largest
digit in the period, i.e. the limsup of the digit sequence.  Both are exact
for eventually periodic input.

The exhaustive checks run once per lattice class, not once per input.
Write x = [0; pre, (word)] as M.y, with y = [(necklace)] the purely
periodic number of the least rotation of the primitive root of `word`, and
M the product of [[d, 1], [1, 0]] over 0, pre and the digits of the root
before that rotation starts.  Then diag(2, 1).M = G.H with G in GL2(Z) and
H one of [[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [0, 2]], chosen by the
row (q_n : q_{n-1}) of M mod 2: (0 : 1), (1 : 0) and (1 : 1) in turn.  By
Serret's theorem 2x therefore has the tail of 2y, y/2 or (y+1)/2 in turn,
so B(2x) depends only on (necklace, that row).  B(x/2) depends in the
same way on the row (p_n : p_{n-1}): x/2 has the tail of 2/x = diag(2, 1).M'.y,
M' the row swap of M.  So one table from (necklace, row) to B serves both.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .cf import CF, Digits, _canonical_cf, fold_word, primitive_word, rotation_start
from .doubling import _double_periodic, double_cf, halve_cf
from .equiv import ClassKey, key_of_cf
from .surd import QuadraticSurd, expand_surd

KEY_311: ClassKey = (1, 1, 3)


@dataclass(frozen=True)
class BMStats:
    M: int
    B: int


def stats(cf: CF) -> BMStats:
    """Exact M (max body digit) and B (max period digit) of an eventually periodic CF."""
    if cf.is_finite:
        raise ValueError("B is undefined for rationals; pass an eventually periodic CF")
    b = max(cf.period)
    return BMStats(M=max(cf.pre + cf.period), B=b)


def b_value(s: QuadraticSurd) -> int:
    return max(expand_surd(s).period)


def lagrange_bounds(st: BMStats) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Exact enclosing intervals for inf q||qx|| and liminf q||qx|| from M and B."""
    m_lo, m_hi = Fraction(1, st.M + 2), Fraction(1, st.M)
    c_lo, c_hi = Fraction(1, st.B + 2), Fraction(1, st.B)
    return (m_lo, m_hi), (c_lo, c_hi)


class B2Shape(enum.Enum):
    TAIL_TWOS = "(2)"
    TAIL_TWO_ONE = "(2,1)"


def classify_b2(cf: CF) -> B2Shape | None:
    """Shape of expansions x with both B(x) <= 2 and B(2x) <= 2, else None.

    Tail (2) requires odd q_n and q_{n-1} at the junction; tail (2, 1)
    requires an even q_{n-1} at the junction where the rotation reads 2, 1.
    Both rows are (q_n, q_{n-1}) mod 2 after a0, the preperiod and the
    period digits before its first 2.
    """
    if cf.is_finite:
        raise ValueError("classification applies to eventually periodic input")
    if cf.period not in ((2,), (1, 2), (2, 1)):
        return None
    _, (qn, qn1) = _mod2((cf.a0, *cf.pre, *cf.period[:cf.period.index(2)]))
    if cf.period == (2,):
        return B2Shape.TAIL_TWOS if qn == 1 and qn1 == 1 else None
    return B2Shape.TAIL_TWO_ONE if qn1 == 0 else None


def _words(alphabet: Iterable[int], max_len: int) -> Iterator[tuple[int, ...]]:
    alphabet = tuple(alphabet)
    for length in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


_Row = tuple[int, int]
_Mod2 = tuple[_Row, _Row]  # [[p_n, p_{n-1}], [q_n, q_{n-1}]] mod 2, by rows
_ROWS: tuple[_Row, ...] = ((0, 1), (1, 0), (1, 1))  # the rows of GL2(F2) matrices


def _mod2(word: Digits) -> _Mod2:
    """The product of [[d, 1], [1, 0]] over `word`, mod 2."""
    p1, q1, p0, q0 = fold_word(word)
    return (p1 & 1, p0 & 1), (q1 & 1, q0 & 1)


def _row_times(row: _Row, m: _Mod2) -> _Row:
    """row times m, mod 2."""
    (u, v), ((a, b), (c, d)) = row, m
    return (u & a) ^ (v & c), (u & b) ^ (v & d)


def _necklace(word: Digits) -> tuple[Digits, _Mod2]:
    """Least rotation of the primitive root of `word`, and the matrix mod 2 of the digits before it."""
    root = primitive_word(word)
    start = rotation_start(root)
    return root[start:] + root[:start], _mod2(root[:start])


def _flagged_inputs(words: Iterable[Digits], pres: list[Digits],
                    flagged: Callable[[Digits, Digits, Digits, _Row, _Row], bool]
                    ) -> Iterator[CF]:
    """The inputs CF(0, pre, word) whose class `flagged` marks, in enumeration order.

    The preperiods fall into at most 6 buckets, one per matrix mod 2 of
    (0, *pre); a bucket and a word fix both rows of M mod 2.  So `flagged`
    is asked once per (word, bucket), with the bucket's first preperiod and
    the class rows: flagged(word, pre, necklace, (p_n, p_{n-1}), (q_n, q_{n-1})).
    """
    mats = [_mod2((0, *pre)) for pre in pres]
    first: dict[_Mod2, Digits] = {}
    for m, pre in zip(mats, pres):
        first.setdefault(m, pre)
    for word in words:
        necklace, rot = _necklace(word)
        image = {row: _row_times(row, rot) for row in _ROWS}
        marked = {m for m, pre in first.items()
                  if flagged(word, pre, necklace, image[m[0]], image[m[1]])}
        if marked:
            for m, pre in zip(mats, pres):
                if m in marked:
                    yield _canonical_cf(0, pre, word)


def verify_b2_exhaustive(period_max: int = 12, preperiod_max: int = 6) -> list[CF]:
    """Check the B<=2 characterization over all digit-{1,2} periodic words.

    Returns the violating inputs (expected empty), in enumeration order and
    with repeats, as a check of every (preperiod, word) input would.  Both
    sides are constant on a class (necklace, (q_n : q_{n-1}) mod 2): B(2x)
    by the module docstring, and `classify_b2` because it reads that row
    mod 2 at a fixed position of the necklace, the start of its rotation
    (2) or (2, 1).  So each class is checked once, on its first input, and
    that verdict is final: every input of a failing class is listed with
    no second check.  B(x) <= 2 holds by construction.
    """
    if period_max < 1 or preperiod_max < 0:
        raise ValueError("need period_max >= 1 and preperiod_max >= 0")
    violated: dict[tuple[Digits, _Row], bool] = {}

    def fails(word, pre, necklace, row1, row2) -> bool:
        key = (necklace, row2)
        if key not in violated:
            cf = _canonical_cf(0, pre, word)
            _, _, period = _double_periodic(cf.a0, cf.pre, cf.period)
            violated[key] = (max(period) <= 2) != (classify_b2(cf) is not None)
        return violated[key]

    pres = [(), *_words((1, 2), preperiod_max)]
    return list(_flagged_inputs(_words((1, 2), period_max), pres, fails))


@dataclass(frozen=True)
class WhitelistHit:
    cf: CF
    k_exit: int
    b_exit: int


@dataclass(frozen=True)
class FalsifyResult:
    counterexamples: list[CF]
    whitelisted: list[WhitelistHit]


def _b_of(cf: CF) -> int:
    return max(cf.period)


def _exit_b_from_311(beta: CF, k_start: int) -> tuple[int, int]:
    """Double out of the (3,1,1) class; (k, B) at the first non-member."""
    cur = beta
    for k in range(k_start, k_start + 64):
        if key_of_cf(cur) != KEY_311:
            return k, _b_of(cur)
        cur = double_cf(cur)
    raise RuntimeError("never left the (3,1,1) class")


def _survivors(C: int, words: Iterable[Digits], pres: list[Digits]) -> Iterator[CF]:
    """The inputs CF(0, pre, word) with B(2x) <= C and B(x/2) <= C, in enumeration order.

    One table (module docstring) holds B of the image of y = [(necklace)]:
    B(2x) fills it under the row (q_n, q_{n-1}) and B(x/2) under
    (p_n, p_{n-1}), on the first input whose (necklace, row) misses.
    """
    image_b: dict[tuple[Digits, _Row], int] = {}  # (necklace, row) -> B of the image of y

    def survives(word, pre, necklace, row1, row2) -> bool:
        for image, row in ((double_cf, row2), (halve_cf, row1)):
            if (necklace, row) not in image_b:
                image_b[necklace, row] = _b_of(image(_canonical_cf(0, pre, word)))
            if image_b[necklace, row] > C:
                return False
        return True

    return _flagged_inputs(words, pres, survives)


def falsify_b_bound(C: int, period_len_max: int, preperiod_len_max: int = 2) -> FalsifyResult:
    """Bounded exhaustive search for counterexamples to the doubling B-bounds.

    C = 2: looks for x with B(x/2) <= 2 and B(2x) <= 2 among eventually
    periodic words over digits <= 3.  C = 3 or 4: enumerates y = 4x with
    period maximum exactly C and tests B(2^k x) <= C for k in {0, 1, 3, 4},
    i.e. B of y/4, y/2, 2y and 4y.  For C = 3 the (3,1,1) class is
    whitelisted; each such hit is verified to reach B = 8 at the first
    doubling that leaves the class.  B of twice and of half the input are
    taken once per class (module docstring), and that verdict is final: for
    C = 2 every distinct input of a class where both are <= 2 is a
    counterexample, and for C = 3 or 4 only B(4y) and B(y/4), which the
    class key does not decide, are tested, each distinct CF once, in
    enumeration order.  It runs in one process, as workers would redo each
    other's classes.
    """
    if C not in (2, 3, 4):
        raise ValueError("supported bounds are C in {2, 3, 4}")
    if period_len_max < 1 or preperiod_len_max < 0:
        raise ValueError("need period_len_max >= 1 and preperiod_len_max >= 0")
    alphabet = range(1, (C + 1) + 1) if C == 2 else range(1, C + 1)
    pres = list(itertools.chain([()], _words(alphabet, preperiod_len_max)))
    words = (w for w in _words(alphabet, period_len_max) if C == 2 or max(w) == C)
    counterexamples: list[CF] = []
    whitelisted: list[WhitelistHit] = []
    seen: set[CF] = set()
    for cf in _survivors(C, words, pres):
        if cf in seen:
            continue
        seen.add(cf)
        # for C > 2, cf plays the role of y = 4x with B(y) = C
        if C > 2 and (_b_of(double_cf(double_cf(cf))) > C
                      or _b_of(halve_cf(halve_cf(cf))) > C):
            continue
        if C == 3 and key_of_cf(cf) == KEY_311:
            k_exit, b_exit = _exit_b_from_311(cf, 2)
            whitelisted.append(WhitelistHit(cf, k_exit, b_exit))
        else:
            counterexamples.append(cf)
    return FalsifyResult(counterexamples, whitelisted)
