import itertools
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, strategies as st

import cf2.surd
from conftest import random_surd
from cf2.cf import CF, parse_cf
from cf2.surd import (
    QuadraticSurd,
    algebraic_integer_shape_check,
    double_surd,
    _expansion_raw,
    expand_surd,
    halve_plus1_surd,
    halve_surd,
    is_purely_periodic,
    linear_fractional,
    parse_surd,
    surd_of_periodic_cf,
)

S17 = QuadraticSurd(3, 17, 2)


def test_rejects_square_or_zero():
    with pytest.raises(ValueError):
        QuadraticSurd(1, 16, 2)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 17, 0)
    with pytest.raises(ValueError):
        QuadraticSurd(1, -3, 2)


def test_normalization_is_value_based():
    assert QuadraticSurd(0, 8, 2) == QuadraticSurd(0, 2, 1)
    assert QuadraticSurd(6, 68, 4) == QuadraticSurd(3, 17, 2)
    # opposite branches stay distinct
    assert QuadraticSurd(0, 2, 1) != QuadraticSurd(0, 2, -1)


def _trial_division_canonical(P, D, Q):
    """Canonical (P, D, Q) by the earlier search: the largest divisor of
    gcd(P, Q) whose square reduction keeps Q | D - P*P, trying prime factors
    up to 10**4 and keeping any larger cofactor whole."""
    a0, b0, c0 = Q * Q, -2 * P * Q, P * P - D
    g = gcd(gcd(a0, b0), c0)
    A, B, C = a0 // g, b0 // g, c0 // g
    disc = B * B - 4 * A * C
    P1, Q1 = (-B, 2 * A) if Q > 0 else (B, -2 * A)
    n, divs, f = abs(gcd(P1, Q1)), [1], 2
    while f * f <= n and f <= 10_000:
        if n % f == 0:
            powers = []
            while n % f == 0:
                n //= f
                powers.append(f ** (len(powers) + 1))
            divs = [d * e for d in divs for e in [1] + powers]
        f += 1 if f == 2 else 2
    if n > 1:
        divs = [d * e for d in divs for e in (1, n)]
    best = 1
    for dv in divs:
        if dv > best and disc % (dv * dv) == 0:
            p2, q2 = P1 // dv, Q1 // dv
            if (disc // (dv * dv) - p2 * p2) % q2 == 0:
                best = dv
    return P1 // best, disc // (best * best), Q1 // best


@given(st.integers(-600, 600), st.integers(2, 10**5).filter(lambda d: isqrt(d) ** 2 != d),
       st.integers(-60, 60).filter(bool), st.sampled_from((1, 2, 3, 4, 6, 12, 97, 2**10, 10007)))
@example(3, 17, 2, 1)    # odd B: (1, -3, -2)
@example(0, 8, -2, 4)    # even B: (1, 0, -2), on the negative branch
@example(-20014, 4 * 10007 * 10008, 20014, 1)  # (10007, 20014, -1): gcd(B, 2A) = 2 * 10007
@example(-10007, 10007 * 10011, -2 * 10007, 10007)  # (10007, 10007, -1), scaled by 10007
def test_canonical_form_matches_trial_division(P, D, Q, k):
    s = QuadraticSurd(k * P, k * k * D, k * Q)
    assert (s.P, s.D, s.Q) == _trial_division_canonical(k * P, k * k * D, k * Q)


def test_expansion_known_vectors():
    assert str(expand_surd(S17)) == "[(3; 1, 1)]"
    assert str(expand_surd(QuadraticSurd(-1, 17, 8))) == "[0; 2, (1, 1, 3)]"


def test_expansion_state_trace():
    states = []
    _, start = _expansion_raw(S17.P, S17.D, S17.Q, states)
    assert states == [(3, 2), (3, 4), (1, 4)]
    assert start == 0
    # D - R^2 = S_i * S_{i-1} along the cycle
    d = 17
    ring = states + [states[0]]
    for (r0, s0), (r1, s1) in zip(ring, ring[1:]):
        assert d - r1 * r1 == s1 * s0


def test_cycle_state_bounds():
    rng = random.Random(11)
    for _ in range(60):
        s = random_surd(rng, d_max=10**5)
        states = []
        _, start = _expansion_raw(s.P, s.D, s.Q, states)
        d = s.D
        r = isqrt(d)
        for P, Q in states[start:]:
            assert 1 <= P <= r
            assert 1 <= Q <= P + r <= 2 * r


def test_period_budget_bounds_the_cycle(monkeypatch):
    s = QuadraticSurd(0, 94, 1)
    digits, start = _expansion_raw(s.P, s.D, s.Q)
    cycle = len(digits) - start  # 16 digits
    monkeypatch.setattr(cf2.surd, "_PERIOD_BUDGET", cycle)
    assert str(expand_surd(s)) == "[9; (1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18)]"
    monkeypatch.setattr(cf2.surd, "_PERIOD_BUDGET", cycle - 1)
    with pytest.raises(ValueError, match=f"budget of {cycle - 1} digits.*--digits"):
        expand_surd(s)


def test_floor_matches_exact_comparison():
    rng = random.Random(5)
    for _ in range(300):
        s = random_surd(rng, d_max=10**6)
        a = s.floor()
        assert s.cmp(a) > 0
        assert s.cmp(a + 1) < 0


def test_surd_of_periodic_cf_vectors():
    assert surd_of_periodic_cf(parse_cf("[(3; 1, 1)]")) == S17
    assert surd_of_periodic_cf(parse_cf("[0; (1)]")) == QuadraticSurd(-1, 5, 2)
    assert surd_of_periodic_cf(parse_cf("[7; (8)]")) == QuadraticSurd(3, 17, 1)
    assert surd_of_periodic_cf(parse_cf("[7; (8)]")) == double_surd(S17)


def test_round_trip_random_surds():
    rng = random.Random(23)
    for _ in range(1000):
        s = random_surd(rng, d_max=10**6)
        assert surd_of_periodic_cf(expand_surd(s)) == s


def test_round_trip_random_cfs():
    rng = random.Random(29)
    for _ in range(200):
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
        period = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        cf = CF(rng.randint(-3, 3), pre, period)
        assert expand_surd(surd_of_periodic_cf(cf)) == cf


def test_purely_periodic_characterization():
    assert is_purely_periodic(S17)
    assert not is_purely_periodic(QuadraticSurd(-1, 17, 8))
    assert is_purely_periodic(QuadraticSurd(1, 5, 2))
    negative_q = [QuadraticSurd(-3, 17, -2), QuadraticSurd(3, 17, -2), QuadraticSurd(-1, 5, -2),
                  QuadraticSurd(-7, 53, -1), QuadraticSurd(5, 2, -3)]
    assert all(s.Q < 0 for s in negative_q)
    rng = random.Random(31)
    for _ in range(120):
        s = random_surd(rng, d_max=10**4)
        for t in (s, s.conjugate()):
            assert is_purely_periodic(t) == expand_surd(t).is_purely_periodic, t
    for s in negative_q:
        assert not is_purely_periodic(s) and not expand_surd(s).is_purely_periodic, s


def test_minimal_polynomials():
    assert S17.minimal_polynomial() == (1, -3, -2)
    assert QuadraticSurd(5, 33, 2).minimal_polynomial() == (1, -5, -2)
    assert QuadraticSurd(0, 2, 1).minimal_polynomial() == (1, 0, -2)


def test_minimal_polynomial_root_exactly():
    rng = random.Random(37)
    for _ in range(100):
        s = random_surd(rng, d_max=10**6)
        A, B, C = s.minimal_polynomial()
        # A*s^2 + B*s + C = 0 with s = (P + sqrt(D))/Q
        P, D, Q = s.P, s.D, s.Q
        const = A * (P * P + D) + B * P * Q + C * Q * Q
        lin = 2 * A * P + B * Q
        assert const == 0 and lin == 0


def test_linear_fractional_vectors():
    assert double_surd(S17) == QuadraticSurd(3, 17, 1)
    assert str(expand_surd(halve_surd(S17))) == "[(1; 1, 3)]"
    assert str(expand_surd(halve_plus1_surd(S17))) == "[2; (3, 1, 1)]"


def test_linear_fractional_rejects_singular():
    with pytest.raises(ValueError):
        linear_fractional(S17, 2, 0, 2, 0)


def test_conjugate_and_trace():
    conj = S17.conjugate()
    assert conj.cmp(0) < 0
    assert S17.trace() == Fraction(3)


def test_algebraic_integer_shape():
    assert algebraic_integer_shape_check(S17)
    assert algebraic_integer_shape_check(QuadraticSurd(0, 2, 1))
    s33 = QuadraticSurd(5, 33, 2)
    assert algebraic_integer_shape_check(s33)
    assert max(expand_surd(s33).period) <= 5
    with pytest.raises(ValueError):
        algebraic_integer_shape_check(halve_surd(S17))  # leading coefficient 2


def test_approximation_sandwich():
    # 1/(q^2 (a+2)) < |x - p/q| < 1/(q^2 a) with the next digit a
    from cf2.cf import convergents
    rng = random.Random(41)
    for _ in range(40):
        s = random_surd(rng, d_max=10**4)
        cf = expand_surd(s)
        digits = cf.digit_prefix(32)
        conv = convergents(iter(digits), 30)
        for n in range(2, 30):
            p, q = conv[n - 1].p, conv[n - 1].q
            a = digits[n]
            diff = linear_fractional(s, q, -p, 0, 1)  # q*s - p
            if diff.cmp(0) < 0:
                diff = linear_fractional(diff, -1, 0, 0, 1)
            # q^2 |s - p/q| lies strictly between 1/(a+2) and 1/a
            scaled = linear_fractional(diff, q, 0, 0, 1)
            assert scaled.cmp(Fraction(1, a + 2)) > 0
            assert scaled.cmp(Fraction(1, a)) < 0


def test_parse_and_print():
    s = parse_surd("(3 + sqrt(17))/2")
    assert s == S17
    assert str(s) == "(3 + sqrt(17))/2"
    assert parse_surd("( -1 + sqrt( 17 ) ) / 8") == QuadraticSurd(-1, 17, 8)
    with pytest.raises(ValueError):
        parse_surd("(3 + sqrt(16))/2")
    with pytest.raises(ValueError):
        parse_surd("3 + sqrt(17)/2")


def test_negative_surd_expansion():
    neg = QuadraticSurd(0, 2, -1)  # -sqrt(2)
    cf = expand_surd(neg)
    assert cf.a0 == -2
    assert surd_of_periodic_cf(cf) == neg


def _dict_expansion(P, D, Q):
    """Digits, cycle start and states, finding the cycle by hashing every (P, Q) state."""
    r = isqrt(D)
    digits, states, seen = [], [], {}
    while (P, Q) not in seen:
        seen[P, Q] = len(digits)
        states.append((P, Q))
        a = (P + r) // Q if Q > 0 else -((P + r) // (-Q)) - 1
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return digits, seen[P, Q], states


@st.composite
def _surds(draw):
    """Surds of either sign of Q, a third of them reduced (starting inside their cycle)."""
    if draw(st.integers(0, 2)) == 0:
        word = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=8)))
        return surd_of_periodic_cf(CF(word[-1], (), word))
    D = draw(st.integers(2, 10**5).filter(lambda d: isqrt(d) ** 2 != d))
    return QuadraticSurd(draw(st.integers(-600, 600)), D,
                         draw(st.integers(-60, 60).filter(bool)))


@given(_surds())
@example(QuadraticSurd(0, 2, 1))   # cycle state (1, 1) has P = isqrt(D)
@example(QuadraticSurd(0, 3, 1))   # cycle state (1, 2) has P = isqrt(D) and Q = P + isqrt(D)
@example(QuadraticSurd(1, 21, 5))  # reduced from the start, with Q = P + isqrt(D)
@example(QuadraticSurd(3, 17, 2))
@example(QuadraticSurd(0, 2, -1))
@example(QuadraticSurd(-7, 13, -3))
def test_expansion_matches_dict_cycle_detection(s):
    digits, start, states = _dict_expansion(s.P, s.D, s.Q)
    got_states = []
    assert _expansion_raw(s.P, s.D, s.Q, got_states) == (digits, start)
    assert got_states == states
    assert expand_surd(s).digit_prefix(len(digits)) == digits
    assert list(itertools.islice(s.digits(), len(digits))) == digits
    assert (start == 0) == is_purely_periodic(s)
