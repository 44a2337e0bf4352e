"""Quadratic surds (P + sqrt(D))/Q with exact integer arithmetic.

Values are kept in a canonical representation derived from the primitive
minimal polynomial, so equal values compare equal regardless of how they
were built.  The normalization Q | D - P*P always holds, which keeps the
expansion recurrence R' = a*Q - P, S' = (D - R'*R')/Q in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator

from .cf import CF, LiteralParseError, _canonical_cf, _Scanner, fold_word


class SurdParseError(LiteralParseError):
    """Malformed surd literal."""


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact value (P + sqrt(D))/Q with D > 0 nonsquare and Q != 0."""

    P: int
    D: int
    Q: int

    def __post_init__(self):
        D, Q = self.D, self.Q
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if D <= 0 or isqrt(D) ** 2 == D:
            raise ValueError(f"D must be a positive nonsquare, got {D}")
        A, B, C = self.minimal_polynomial()  # of the raw P, D, Q
        sign = 1 if Q > 0 else -1
        # The value is (-B + sqrt(B*B - 4AC))/(2A) on the branch of sign(Q).
        # Dividing P, Q by v and D by v*v keeps Q | D - P*P exactly when
        # v | gcd(B, 2A), v*v | B*B - 4AC and v | 2C, because (D - P*P)/Q
        # then equals -2C/v up to sign.  Primitivity makes gcd(B, 2A, 2C)
        # divide 2 (an odd prime, or 4, dividing all three would divide A, B
        # and C), so the largest such v is 2 for even B and 1 for odd B.
        if B & 1:
            P, D, Q = -B, B * B - 4 * A * C, 2 * A
        else:
            P, D, Q = -(B >> 1), (B >> 1) ** 2 - A * C, A
        object.__setattr__(self, "P", sign * P)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "Q", sign * Q)

    # -- basic queries -----------------------------------------------------

    def minimal_polynomial(self) -> tuple[int, int, int]:
        """Primitive (A, B, C) with A > 0 and A*s*s + B*s + C = 0."""
        a0 = self.Q * self.Q
        b0 = -2 * self.P * self.Q
        c0 = self.P * self.P - self.D
        g = gcd(gcd(a0, b0), c0)
        return a0 // g, b0 // g, c0 // g

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.P, self.D, -self.Q)

    def cmp(self, r: Fraction | int) -> int:
        """Sign of self - r (never zero; the value is irrational)."""
        r = Fraction(r)
        n, d = r.numerator, r.denominator
        a = d * self.P - n * self.Q  # self - r = (a + d*sqrt(D))/(d*Q), with d > 0
        s = 1 if a >= 0 or d * d * self.D > a * a else -1
        return s if self.Q > 0 else -s

    def floor(self) -> int:
        return _floor_pdq(self.P, self.Q, isqrt(self.D))

    def digits(self) -> Iterator[int]:
        """Yield the continued-fraction digits, a0 first, endlessly."""
        for _, _, a in _quotients(self.P, self.D, self.Q, isqrt(self.D)):
            yield a

    def __str__(self) -> str:
        return f"({self.P} + sqrt({self.D}))/{self.Q}"


def _floor_pdq(P: int, Q: int, r: int) -> int:
    """floor((P + sqrt(D))/Q) for r = isqrt(D); the numerator lies strictly inside (P+r, P+r+1)."""
    if Q > 0:
        return (P + r) // Q
    return -((P + r) // (-Q)) - 1


# -- Moebius transforms ----------------------------------------------------


def linear_fractional(s: QuadraticSurd, a: int, b: int, c: int, d: int) -> QuadraticSurd:
    """(a*s + b)/(c*s + d) as an exact surd; a*d - b*c must be nonzero."""
    det = a * d - b * c
    if det == 0:
        raise ValueError("transform is singular (result would be rational)")
    P, D, Q = s.P, s.D, s.Q
    cpd = c * P + d * Q
    t = det * Q
    p2 = (a * P + b * Q) * cpd - a * c * D
    q2 = cpd * cpd - c * c * D
    if t < 0:
        p2, t, q2 = -p2, -t, -q2
    return QuadraticSurd(p2, D * t * t, q2)


def double_surd(s: QuadraticSurd) -> QuadraticSurd:
    return linear_fractional(s, 2, 0, 0, 1)


def halve_surd(s: QuadraticSurd) -> QuadraticSurd:
    return linear_fractional(s, 1, 0, 0, 2)


def halve_plus1_surd(s: QuadraticSurd) -> QuadraticSurd:
    return linear_fractional(s, 1, 1, 0, 2)


def mul_pow2(s: QuadraticSurd, k: int) -> QuadraticSurd:
    """2**k * s for k >= 0."""
    return linear_fractional(s, 1 << k, 0, 0, 1)


# -- expansion -------------------------------------------------------------


def _quotients(P: int, D: int, Q: int, r: int) -> Iterator[tuple[int, int, int]]:
    """Endless (P, Q, a): each complete quotient (P + sqrt(D))/Q and its floor a."""
    while True:
        a = _floor_pdq(P, Q, r)
        yield P, Q, a
        P = a * Q - P
        Q = (D - P * P) // Q


def _is_reduced(P: int, Q: int, r: int) -> bool:
    """(P + sqrt(D))/Q > 1 with conjugate in (-1, 0), for r = isqrt(D); Q > 0 follows."""
    return 0 < P <= r and r - P < Q <= r + P


_PERIOD_BUDGET = 10**6  # longest period `_cycle` returns, and most steps per walk; about sqrt(D)


def _budget_error() -> ValueError:
    return ValueError(f"period longer than the budget of {_PERIOD_BUDGET} digits; "
                      "use expand --digits N for a prefix")


def _cycle(P: int, Q: int, D: int, r: int,
           states: list[tuple[int, int]] | None = None) -> list[int]:
    """Digit cycle of the reduced state (P, Q), appending each state to `states` if given.

    Without `states`, a cycle that reads the same backwards is walked about
    half way.  Write alpha_i = (P_i, Q_i) for the i-th state, Q_{-1} for
    (D - P_0**2)/Q_0, and a_i for the digits.  Since Q_i*Q_{i-1} = D - P_i**2,
    beta_i = -1/alpha_i' = (P_i + sqrt(D))/Q_{i-1} = (P_i, Q_{i-1}), and it is
    reduced.  Conjugating alpha_{i-1} = a_{i-1} + 1/alpha_i gives
    beta_i = a_{i-1} + 1/beta_{i-1} with beta_{i-1} > 1: the expansion of beta_i
    runs the cycle backwards, digit a_{i-1}, next state beta_{i-1}.

    Call m a reflection if alpha_i = beta_{m-i} for every i.  One i suffices,
    since both sides then expand the same way; so alpha_0 = beta_0 (Q_{-1} = Q_0)
    is m = 0, alpha_i = beta_{i+1} (P_{i+1} = P_i) is m = 2i + 1, and
    alpha_{i+1} = beta_{i+1} (Q_{i+1} = Q_i) is m = 2i + 2: the step i -> i + 1
    shows every m up to 2i + 2.  Reading digits off alpha_i = beta_{m-i} gives
    a_i = a_{m-1-i}.  If m and n are reflections, alpha_i = beta_{m-i} =
    alpha_{n-m+i}, so n - m is a multiple of the period L; and m + L is one.
    So the reflections are exactly m = m1 (mod L), with 0 <= m1 < L.

    The walk from alpha_0 stops at m1 and fills a_j = a_{m1-1-j} up to index
    m1 - 1.  It resumes at index m1 from alpha_{m1} = beta_0 = (P_0, Q_{-1}) and
    stops at m2 = m1 + L, the next reflection; m1 < L puts m2 past 2*m1, so the
    steps from index m1 on show it.  It fills a_j = a_{m2-1-j} up to index
    L - 1.  That is about L/2 steps in all.  A cycle with no reflection closes
    at (P_0, Q_0) after L steps.  Either way a period longer than the budget
    raises, and no walk takes more steps than the budget.  With `states`, every
    state is walked: mirroring the states costs more than the steps it saves
    on the scan's short cycles.
    """
    digits: list[int] = []
    if states is not None:
        P0, Q0 = P, Q
        for _ in range(_PERIOD_BUDGET):
            states.append((P, Q))
            a = (P + r) // Q
            digits.append(a)
            P = a * Q - P
            Q = (D - P * P) // Q
            if P == P0 and Q == Q0:
                return digits
        raise _budget_error()
    Qb = (D - P * P) // Q  # Q_{-1}
    m1 = 0 if Qb == Q else _reflection(P, Q, D, r, 0, _PERIOD_BUDGET, digits)
    if m1 is None:
        return digits
    digits += digits[:m1 - len(digits)][::-1]
    # from step (m1 + budget + 1) // 2 on, every reflection gives L > budget
    m2 = _reflection(P, Qb, D, r, m1, (m1 + _PERIOD_BUDGET + 1) // 2, digits)
    if m2 - m1 > _PERIOD_BUDGET:
        raise _budget_error()
    digits += digits[m1:m2 - len(digits)][::-1]
    return digits


def _reflection(P: int, Q: int, D: int, r: int, start: int, stop: int,
                digits: list[int], until: tuple | None = None) -> int | None:
    """Walk from the state (P, Q) at index `start`, appending its digits, to the first
    reflection m (`_cycle`); None if the walk first reaches a state of `until`, a pair
    (Ps, Q') that names the states (p, Q') with p in Ps, by default its start, ((P,), Q).
    Steps `start` to `stop` - 1 at most; raise past them.

    Each iteration takes step i from (P, Q) to (P1, Q1) and step i + 1 back
    into (P, Q), so the pairs take turns and no swap is made.  Step i + 1
    reports 2(i + 1) + 1 and 2(i + 1) + 2 as a loop of one step per
    iteration would.  The budget is exact: i runs over start, start + 2, ...
    below `stop`, and the second step is skipped when i + 1 == `stop`, so the
    walk takes each of the steps `start` to `stop` - 1 once, the last one
    alone when `stop` - `start` is odd, and none past them.
    """
    Ps, Q0 = until or ((P,), Q)
    for i in range(start, stop, 2):
        a = (P + r) // Q
        digits.append(a)
        P1 = a * Q - P
        if P1 == P:
            return 2 * i + 1
        Q1 = (D - P1 * P1) // Q
        if Q1 == Q:
            return 2 * i + 2
        if Q1 == Q0 and P1 in Ps:
            return None
        if i + 1 == stop:
            break
        a = (P1 + r) // Q1
        digits.append(a)
        P = a * Q1 - P1
        if P == P1:
            return 2 * i + 3
        Q = (D - P * P) // Q1
        if Q == Q1:
            return 2 * i + 4
        if Q == Q0 and P in Ps:
            return None
    raise _budget_error()


def _expansion_raw(P: int, D: int, Q: int) -> tuple[list[int], int]:
    """Digits up to the end of the first cycle, and the index where the cycle starts.

    By Galois' theorem a complete quotient is purely periodic exactly when it
    is reduced, so the cycle starts at the first reduced state.
    """
    r = isqrt(D)
    digits: list[int] = []
    for P, Q, a in _quotients(P, D, Q, r):
        if _is_reduced(P, Q, r):
            break
        digits.append(a)
    j = len(digits)
    digits += _cycle(P, Q, D, r)
    return digits, j


def expand_surd(s: QuadraticSurd) -> CF:
    """Eventually periodic continued fraction of the surd (exact)."""
    digits, j = _expansion_raw(s.P, s.D, s.Q)
    if not j:  # a cycle from a0 is read from a1, with a0 closing it
        digits.append(digits[0])
        j = 1
    return _canonical_cf(digits[0], tuple(digits[1:j]), tuple(digits[j:]))


def surd_of_periodic_cf(cf: CF) -> QuadraticSurd:
    """Exact quadratic value of an eventually periodic continued fraction."""
    if cf.is_finite:
        raise ValueError("continued fraction is rational, not a quadratic surd")
    w = cf.period
    h1, k1, h0, k0 = fold_word(w)
    # Fixed point t of t = (h1*t + h0)/(k1*t + k0), the root with t > 1.
    A, B, C = k1, k0 - h1, -h0
    disc = B * B - 4 * A * C
    if disc <= 0 or isqrt(disc) ** 2 == disc:
        raise ValueError("period does not define a quadratic irrational")
    t = QuadraticSurd(-B, disc, 2 * A)
    p1, q1, p0, q0 = fold_word((cf.a0,) + cf.pre)
    return linear_fractional(t, p1, p0, q1, q0)


def is_purely_periodic(s: QuadraticSurd) -> bool:
    """True iff s > 1 and its conjugate is in (-1, 0); canonical forms keep Q | D - P*P."""
    return _is_reduced(s.P, s.Q, isqrt(s.D))


# -- text form ---------------------------------------------------------------


def parse_surd(text: str) -> QuadraticSurd:
    """Parse '(P + sqrt(D))/Q'; raises SurdParseError with a position."""
    sc = _Scanner(text, SurdParseError)
    sc.expect("(")
    p = sc.integer()
    sc.expect("+")
    sc.expect("sqrt")
    sc.expect("(")
    d = sc.integer()
    sc.expect(")")
    sc.expect(")")
    sc.expect("/")
    q = sc.integer()
    sc.end()
    return sc.build(QuadraticSurd, p, d, q)
