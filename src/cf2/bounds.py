"""Digit statistics of quadratic irrationals and bounded checks of the doubling bounds.

M is the largest body digit anywhere in the expansion; B is the largest
digit in the period, i.e. the limsup of the digit sequence.  Both are exact
for eventually periodic input.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .cf import CF
from .doubling import _double_periodic, double_cf, halve_cf
from .equiv import ClassKey, class_key, key_of_cf
from .pool import chunks, pmap
from .surd import QuadraticSurd, double_surd, expand_surd

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


def truncated_digit_max(digits: Iterable[int], n: int) -> int:
    """Lower bound for M from the first n body digits of a stream (not exact)."""
    body = itertools.islice(digits, 1, n + 1)
    return max(body)


def lagrange_bounds(st: BMStats) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Exact enclosing intervals for inf q||qx|| and liminf q||qx|| from M and B."""
    m_lo, m_hi = Fraction(1, st.M + 2), Fraction(1, st.M)
    c_lo, c_hi = Fraction(1, st.B + 2), Fraction(1, st.B)
    return (m_lo, m_hi), (c_lo, c_hi)


def golden_doubling_check(s: QuadraticSurd) -> bool:
    """For s in the all-ones class, doubling must land in the all-fours class."""
    if class_key(s) != (1,):
        raise ValueError("s is not equivalent to the all-ones expansion")
    return class_key(double_surd(s)) == (4,)


class B2Shape(enum.Enum):
    TAIL_TWOS = "(2)"
    TAIL_TWO_ONE = "(2,1)"


def _junction_parities(cf: CF) -> tuple[int, int]:
    """(q_n, q_{n-1}) mod 2 for the canonical preperiod junction n = len(pre)."""
    q_prev, q_cur = 0, 1  # q_{-1}, q_0
    for d in cf.pre:
        q_prev, q_cur = q_cur, (d * q_cur + q_prev) % 2
    return q_cur, q_prev


def classify_b2(cf: CF) -> B2Shape | None:
    """Shape of expansions x with both B(x) <= 2 and B(2x) <= 2, else None.

    Tail (2) requires odd q_n and q_{n-1} at the junction; tail (2, 1)
    requires an even q_{n-1} at the junction where the rotation reads 2, 1.
    """
    if cf.is_finite:
        raise ValueError("classification applies to eventually periodic input")
    if cf.period == (2,):
        qn, qn1 = _junction_parities(cf)
        return B2Shape.TAIL_TWOS if qn == 1 and qn1 == 1 else None
    if sorted(cf.period) == [1, 2]:
        qn, qn1 = _junction_parities(cf)
        # walk to the junction where the period reads (2, 1, 2, 1, ...)
        for offset in range(len(cf.period)):
            if cf.period[offset] == 2:
                return B2Shape.TAIL_TWO_ONE if qn1 == 0 else None
            qn, qn1 = (cf.period[offset] * qn + qn1) % 2, qn
        return None
    return None


def check_b2_characterization(s: QuadraticSurd) -> bool:
    """Whether (B(s) <= 2 and B(2s) <= 2) <=> classify_b2 matches, for this s."""
    cf = expand_surd(s)
    lhs = stats(cf).B <= 2 and b_value(double_surd(s)) <= 2
    rhs = classify_b2(cf) is not None
    return lhs == rhs


def _words(alphabet: Iterable[int], max_len: int) -> Iterator[tuple[int, ...]]:
    alphabet = tuple(alphabet)
    for length in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def verify_b2_exhaustive(period_max: int = 12, preperiod_max: int = 6) -> list[CF]:
    """Check the B<=2 characterization over all digit-{1,2} periodic words.

    Returns the violating inputs (expected empty).  Each input runs through
    the streaming machine until its window anchor enters the period; the
    continuation from there (and so B(2x), the maximum of its period) is
    shared by every input reaching the same (period word, machine state).
    """
    if period_max < 1 or preperiod_max < 0:
        raise ValueError("need period_max >= 1 and preperiod_max >= 0")
    tails: dict = {}
    bad: list[CF] = []
    for word in _words((1, 2), period_max):
        for pre in itertools.chain([()], _words((1, 2), preperiod_max)):
            cf = CF(0, pre, word)
            _, (_, period) = _double_periodic(cf.a0, cf.pre, cf.period, tails)
            lhs = max(period) <= 2  # B(x) <= 2 holds by construction
            rhs = classify_b2(cf) is not None
            if lhs != rhs:
                bad.append(cf)
    return bad


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


def _falsify_words(args) -> tuple[list[CF], list[WhitelistHit]]:
    C, words, pres = args
    counterexamples: list[CF] = []
    whitelisted: list[WhitelistHit] = []
    seen: set[CF] = set()
    for word in words:
        for pre in pres:
            cf = CF(0, pre, word)
            if cf in seen:
                continue
            seen.add(cf)
            if C == 2:
                if _b_of(double_cf(cf)) <= 2 and _b_of(halve_cf(cf)) <= 2:
                    counterexamples.append(cf)
                continue
            # cf plays the role of y = 4x with B(y) = C
            d1 = double_cf(cf)
            if _b_of(d1) > C:
                continue
            if _b_of(double_cf(d1)) > C:
                continue
            h1 = halve_cf(cf)
            if _b_of(h1) > C:
                continue
            if _b_of(halve_cf(h1)) > C:
                continue
            if C == 3 and key_of_cf(cf) == KEY_311:
                k_exit, b_exit = _exit_b_from_311(cf, 2)
                whitelisted.append(WhitelistHit(cf, k_exit, b_exit))
            else:
                counterexamples.append(cf)
    return counterexamples, whitelisted


def falsify_b_bound(C: int, period_len_max: int, preperiod_len_max: int = 2,
                    jobs: int | None = 1) -> FalsifyResult:
    """Bounded exhaustive search for counterexamples to the doubling B-bounds.

    C = 2: looks for x with B(x/2) <= 2 and B(2x) <= 2 among eventually
    periodic words over digits <= 3.  C = 3 or 4: enumerates y = 4x with
    period maximum exactly C and tests B(2^k x) <= C for k in {0, 1, 3, 4},
    i.e. B of y/4, y/2, 2y and 4y.  For C = 3 the (3,1,1) class is
    whitelisted; each such hit is verified to reach B = 8 at the first
    doubling that leaves the class.  Chunked workers merge in enumeration
    order, so the result is independent of the job count.
    """
    if C not in (2, 3, 4):
        raise ValueError("supported bounds are C in {2, 3, 4}")
    alphabet = range(1, (C + 1) + 1) if C == 2 else range(1, C + 1)
    pres = list(itertools.chain([()], _words(alphabet, preperiod_len_max)))
    words = [w for w in _words(alphabet, period_len_max)
             if C == 2 or max(w) == C]
    parts = pmap(_falsify_words, [(C, chunk, pres) for chunk in chunks(words, jobs)], jobs)
    counterexamples: list[CF] = []
    whitelisted: list[WhitelistHit] = []
    seen: set[CF] = set()
    for cexs, hits in parts:
        for cf in cexs:
            if cf not in seen:
                seen.add(cf)
                counterexamples.append(cf)
        for hit in hits:
            if hit.cf not in seen:
                seen.add(hit.cf)
                whitelisted.append(hit)
    return FalsifyResult(counterexamples, whitelisted)
