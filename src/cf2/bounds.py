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
M' the row swap of M.  So B of the three images of y serves both.

The checks walk the classes, not the words.  Duval's generator lists the
necklaces directly, as the Lyndon words N up to the length bound; the
words of N are its rotations N[i:] + N[:i] and their powers, and the digits
of a rotation before its rotation start are N[i:], none for i = 0.  So
each necklace is decided before any of its words is listed.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .cf import CF, Digits, _canonical_cf, fold_word
from .doubling import _double_periodic, double_cf, halve_cf, halve_plus1_cf
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


def _mod2(word: Digits) -> _Mod2:
    """The product of [[d, 1], [1, 0]] over `word`, mod 2."""
    p1, q1, p0, q0 = fold_word(word)
    return (p1 & 1, p0 & 1), (q1 & 1, q0 & 1)


def _row_times(row: _Row, m: _Mod2) -> _Row:
    """row times m, mod 2."""
    (u, v), ((a, b), (c, d)) = row, m
    return (u & a) ^ (v & c), (u & b) ^ (v & d)


def _lyndon_words(alphabet: Iterable[int], max_len: int) -> Iterator[Digits]:
    """The Lyndon words of length at most `max_len` over an ascending `alphabet`, in lexicographic order.

    Duval's generator (J. Algorithms 4, 1983): repeat the last word up to
    `max_len`, drop its trailing largest letters and step the last letter
    left.  A Lyndon word is the least rotation of a primitive word, so these
    are the necklaces, each once.
    """
    alphabet = tuple(alphabet)
    last = len(alphabet) - 1
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(alphabet[i] for i in w)
        n = len(w)
        while len(w) < max_len:
            w.append(w[-n])
        while w and w[-1] == last:
            w.pop()


def _rotations_mod2(necklace: Digits) -> list[_Mod2]:
    """For each i, the matrix mod 2 of the digits of necklace[i:] + necklace[:i] before its rotation start.

    Those digits are necklace[i:] for i >= 1 and none for i = 0, so one
    running product from the right gives every rotation's matrix.
    """
    mats = [((1, 0), (0, 1))] * len(necklace)
    a, b, c, d = 1, 0, 0, 1
    for i in range(len(necklace) - 1, 0, -1):
        x = necklace[i] & 1
        a, b, c, d = (x & a) ^ c, (x & b) ^ d, a, b
        mats[i] = (a, b), (c, d)
    return mats


_Flagged = Callable[[Digits, Digits, _Row, _Row], bool]


def _flagged_inputs(necklaces: Iterable[Digits], max_len: int, pres: list[Digits],
                    classes: Callable[[Digits], _Flagged | None]) -> list[CF]:
    """The inputs CF(0, pre, word), len(word) <= max_len, whose class is flagged, in enumeration order.

    The words of a necklace are its rotations and their powers.
    `classes(necklace)` returns None when it flags none of the necklace's
    classes, and otherwise flagged(pre, word, (p_n, p_{n-1}), (q_n, q_{n-1})),
    asked with the class rows and one input of the class.  The preperiods
    fall into at most 6 buckets, one per matrix mod 2 of (0, *pre); a bucket
    and a rotation fix both rows of M mod 2, so `flagged` is asked once per
    (rotation, bucket), with the bucket's first preperiod.  The flagged
    inputs are sorted once by (len(word), word, preperiod index): the order
    of every word by length, then lexicographically, and under each word
    every preperiod.
    """
    mats = [_mod2((0, *pre)) for pre in pres]
    first: dict[_Mod2, Digits] = {}
    for m, pre in zip(mats, pres):
        first.setdefault(m, pre)
    keys = []
    for necklace in necklaces:
        flagged = classes(necklace)
        if flagged is None:
            continue
        n = len(necklace)
        for i, rot in enumerate(_rotations_mod2(necklace)):
            word = necklace[i:] + necklace[:i]
            marked = {m for m, pre in first.items()
                      if flagged(pre, word, _row_times(m[0], rot), _row_times(m[1], rot))}
            if marked:
                at = [j for j, m in enumerate(mats) if m in marked]
                for e in range(1, max_len // n + 1):
                    keys.extend((e * n, word * e, j) for j in at)
    keys.sort()
    return [_canonical_cf(0, pres[j], word) for _, word, j in keys]


def verify_b2_exhaustive(period_max: int = 12, preperiod_max: int = 6) -> list[CF]:
    """Check the B<=2 characterization over all digit-{1,2} periodic words.

    Returns the violating inputs (expected empty), in enumeration order and
    with repeats, as a check of every (preperiod, word) input would.  Both
    sides are constant on a class (necklace, (q_n : q_{n-1}) mod 2): B(2x)
    by the module docstring, and `classify_b2` because it reads that row
    mod 2 at a fixed position of the necklace, the start of its rotation
    (2) or (2, 1).  So each class is checked once, on one input that the
    necklace walk meets first, and that verdict is final: every input of a
    failing class is listed with no second check.  B(x) <= 2 holds by
    construction.
    """
    if period_max < 1 or preperiod_max < 0:
        raise ValueError("need period_max >= 1 and preperiod_max >= 0")

    def classes(necklace: Digits) -> _Flagged:
        violated: dict[_Row, bool] = {}  # q-row -> verdict of the necklace's class

        def fails(pre, word, row1, row2) -> bool:
            if row2 not in violated:
                cf = _canonical_cf(0, pre, word)
                _, _, period = _double_periodic(cf.a0, cf.pre, cf.period)
                violated[row2] = (max(period) <= 2) != (classify_b2(cf) is not None)
            return violated[row2]

        return fails

    pres = [(), *_words((1, 2), preperiod_max)]
    return _flagged_inputs(_lyndon_words((1, 2), period_max), period_max, pres, classes)


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


def _exit_b_from_311(y: CF) -> tuple[int, int]:
    """(k, B) for the first 2^k x outside the (3,1,1) class, doubling from y = 4x: k >= 2."""
    cur = y
    for k in range(2, 66):
        if key_of_cf(cur) != KEY_311:
            return k, _b_of(cur)
        cur = double_cf(cur)
    raise RuntimeError("never left the (3,1,1) class")


def _survivors(C: int, necklaces: Iterable[Digits], max_len: int, pres: list[Digits]) -> list[CF]:
    """The inputs CF(0, pre, word) with B(2x) <= C and B(x/2) <= C, in enumeration order.

    B of the three images of y = [(necklace)] (module docstring) decides
    every class of the necklace before any word is listed: an input survives
    iff B is <= C under both of its rows.  The two rows of an invertible
    matrix mod 2 differ, so a necklace with fewer than two rows at B <= C
    lists nothing, at the cost of its three machine runs.
    """

    def classes(necklace: Digits) -> _Flagged | None:
        y = _canonical_cf(necklace[0], (), necklace[1:] + necklace[:1])
        low = {row for row, image in (((0, 1), double_cf), ((1, 0), halve_cf),
                                      ((1, 1), halve_plus1_cf))
               if _b_of(image(y)) <= C}
        if len(low) < 2:
            return None
        return lambda pre, word, row1, row2: row1 in low and row2 in low

    return _flagged_inputs(necklaces, max_len, pres, classes)


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
    enumeration order.  The enumeration walks necklaces, not words, so a
    necklace with fewer than two images at B <= C costs three machine runs
    and no per-word work.
    """
    if C not in (2, 3, 4):
        raise ValueError("supported bounds are C in {2, 3, 4}")
    if period_len_max < 1 or preperiod_len_max < 0:
        raise ValueError("need period_len_max >= 1 and preperiod_len_max >= 0")
    alphabet = range(1, (C + 1) + 1) if C == 2 else range(1, C + 1)
    pres = list(itertools.chain([()], _words(alphabet, preperiod_len_max)))
    necklaces = (n for n in _lyndon_words(alphabet, period_len_max) if C == 2 or max(n) == C)
    counterexamples: list[CF] = []
    whitelisted: list[WhitelistHit] = []
    seen: set[CF] = set()
    for cf in _survivors(C, necklaces, period_len_max, pres):
        if cf in seen:
            continue
        seen.add(cf)
        # for C > 2, cf plays the role of y = 4x with B(y) = C
        if C > 2 and (_b_of(double_cf(double_cf(cf))) > C
                      or _b_of(halve_cf(halve_cf(cf))) > C):
            continue
        if C == 3 and key_of_cf(cf) == KEY_311:
            k_exit, b_exit = _exit_b_from_311(cf)
            whitelisted.append(WhitelistHit(cf, k_exit, b_exit))
        else:
            counterexamples.append(cf)
    return FalsifyResult(counterexamples, whitelisted)
