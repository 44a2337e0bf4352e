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


def sign_with_sqrt(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for nonsquare d > 0 (never zero)."""
    if a >= 0 and b >= 0:
        return 1 if (a or b) else 0
    if a <= 0 and b <= 0:
        return -1 if (a or b) else 0
    if a > 0:  # b < 0
        return 1 if a * a > b * b * d else -1
    return 1 if b * b * d > a * a else -1


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

    def trace(self) -> Fraction:
        A, B, _ = self.minimal_polynomial()
        return Fraction(-B, A)

    def cmp(self, r: Fraction | int) -> int:
        """Sign of self - r (never zero; the value is irrational)."""
        r = Fraction(r)
        n, d = r.numerator, r.denominator
        s = sign_with_sqrt(d * self.P - n * self.Q, d, self.D)
        return s if self.Q > 0 else -s

    def floor(self) -> int:
        return _floor_pdq(self.P, self.D, self.Q)

    def digits(self) -> Iterator[int]:
        """Yield the continued-fraction digits, a0 first, endlessly."""
        for _, _, a in _quotients(self.P, self.D, self.Q, isqrt(self.D)):
            yield a

    def __str__(self) -> str:
        return f"({self.P} + sqrt({self.D}))/{self.Q}"


def _floor_pdq(P: int, D: int, Q: int, r: int | None = None) -> int:
    """floor((P + sqrt(D))/Q); the numerator lies strictly inside (P+r, P+r+1)."""
    if r is None:
        r = isqrt(D)
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
    if c == 0 and d == 0:
        raise ValueError("zero denominator")
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
    """2**k * s (k may be negative for halving)."""
    for _ in range(k):
        s = double_surd(s)
    for _ in range(-k):
        s = halve_surd(s)
    return s


# -- expansion -------------------------------------------------------------


def _quotients(P: int, D: int, Q: int, r: int) -> Iterator[tuple[int, int, int]]:
    """Endless (P, Q, a): each complete quotient (P + sqrt(D))/Q and its floor a."""
    while True:
        a = _floor_pdq(P, D, Q, r)
        yield P, Q, a
        P = a * Q - P
        Q = (D - P * P) // Q


def _is_reduced(P: int, Q: int, r: int) -> bool:
    """(P + sqrt(D))/Q > 1 with conjugate in (-1, 0), for r = isqrt(D); Q > 0 follows."""
    return 0 < P <= r and r - P < Q <= r + P


_PERIOD_BUDGET = 10**6  # most digits `_cycle` walks; a period can have about sqrt(D)


def _cycle(P: int, Q: int, D: int, r: int,
           states: list[tuple[int, int]] | None = None) -> list[int]:
    """Digit cycle of the reduced state (P, Q), appending each state to `states` if given."""
    digits: list[int] = []
    P0, Q0 = P, Q
    for _ in range(_PERIOD_BUDGET):
        if states is not None:
            states.append((P, Q))
        a = (P + r) // Q
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if P == P0 and Q == Q0:
            return digits
    raise ValueError(f"period longer than the budget of {_PERIOD_BUDGET} digits; "
                     "use expand --digits N for a prefix")


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


def _cf_of_raw(digits: list[int], j: int) -> CF:
    if j == 0:
        return _canonical_cf(digits[0], (), tuple(digits[1:]) + (digits[0],))
    return _canonical_cf(digits[0], tuple(digits[1:j]), tuple(digits[j:]))


def expand_surd(s: QuadraticSurd) -> CF:
    """Eventually periodic continued fraction of the surd (exact)."""
    return _cf_of_raw(*_expansion_raw(s.P, s.D, s.Q))


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
