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
    _PERIOD_BUDGET,
    QuadraticSurd,
    _budget_error,
    _cycle,
    double_surd,
    _expansion_raw,
    _quotients,
    _reflection,
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


def _cycle_states(s, start):
    """The (P, Q) states of the cycle of s, walked by `_cycle` from the state at `start`."""
    r = isqrt(s.D)
    P, Q, _ = next(itertools.islice(_quotients(s.P, s.D, s.Q, r), start, None))
    states = []
    _cycle(P, Q, s.D, r, states)
    return states


def test_expansion_state_trace():
    _, start = _expansion_raw(S17.P, S17.D, S17.Q)
    assert start == 0
    states = _cycle_states(S17, start)
    assert states == [(3, 2), (3, 4), (1, 4)]
    # D - R^2 = S_i * S_{i-1} along the cycle
    d = 17
    ring = states + [states[0]]
    for (r0, s0), (r1, s1) in zip(ring, ring[1:]):
        assert d - r1 * r1 == s1 * s0


def test_cycle_state_bounds():
    rng = random.Random(11)
    for _ in range(60):
        s = random_surd(rng, d_max=10**5)
        _, start = _expansion_raw(s.P, s.D, s.Q)
        r = isqrt(s.D)
        for P, Q in _cycle_states(s, start):
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


def test_period_budget_bounds_a_cycle_with_no_reflection(monkeypatch):
    P, Q, D = 3, 7, 79  # period 6, and its digit word is no rotation of its reverse
    digits = _plain_cycle(P, Q, D, isqrt(D))[0]
    assert digits == [1, 1, 2, 3, 5, 1] and not _is_symmetric(digits)
    monkeypatch.setattr(cf2.surd, "_PERIOD_BUDGET", 6)
    assert _cycle(P, Q, D, isqrt(D)) == digits
    monkeypatch.setattr(cf2.surd, "_PERIOD_BUDGET", 5)
    with pytest.raises(ValueError, match="budget of 5 digits"):
        _cycle(P, Q, D, isqrt(D))
    with pytest.raises(ValueError, match="budget of 5 digits"):
        _cycle(P, Q, D, isqrt(D), [])


def _plain_cycle(P, Q, D, r):
    """Digits and states of the cycle of the reduced state (P, Q), one step per digit."""
    digits, states, start = [], [], (P, Q)
    while True:
        states.append((P, Q))
        a = (P + r) // Q
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == start:
            return digits, states


def _is_symmetric(digits):
    """True iff the digit cycle is a rotation of its reverse."""
    word = "," + ",".join(map(str, digits)) + ","
    back = "," + ",".join(map(str, reversed(digits))) + ","
    return back in word + word[1:]


def _first_reflection(digits):
    """Least m >= 0 with a_i = a_{m-1-i} for every i (indices mod the period), or None."""
    L = len(digits)
    return next((m for m in range(L) if all(digits[i] == digits[(m - 1 - i) % L] for i in range(L))),
                None)


def _reduced_states(d_max):
    """Every reduced (P, Q, D, isqrt(D)) with Q | D - P*P and nonsquare D <= d_max."""
    for D in range(2, d_max + 1):
        r = isqrt(D)
        if r * r == D:
            continue
        for P in range(1, r + 1):
            for Q in range(r - P + 1, r + P + 1):
                if (D - P * P) % Q == 0:
                    yield P, Q, D, r


@pytest.mark.parametrize("P, Q, D, m1, digits", [
    (1, 2, 5, 0, [1]),               # period 1, the golden ratio
    (1, 1, 3, 1, [2, 1]),            # period 2: P_1 = P_0 always, so m1 = 1
    (2, 3, 13, 0, [1, 1, 6, 1, 1]),  # m1 = 0: Q_{-1} = Q_0, a palindrome
    (1, 4, 13, 3, [1, 6, 1, 1, 1]),  # odd m1: P_2 = P_1
    (1, 3, 13, 2, [1, 1, 1, 6, 1]),  # even m1: Q_1 = Q_0
    (3, 7, 79, None, [1, 1, 2, 3, 5, 1]),  # no reflection: the walk closes at (P_0, Q_0)
])
def test_half_walk_edge_cases(P, Q, D, m1, digits):
    r = isqrt(D)
    plain_digits, plain_states = _plain_cycle(P, Q, D, r)
    assert plain_digits == digits and _first_reflection(digits) == m1
    assert _cycle(P, Q, D, r) == digits
    states = []
    assert _cycle(P, Q, D, r, states) == digits and states == plain_states


def _check_cycles_match_plain_walk(d_max):
    kinds = set()
    for P, Q, D, r in _reduced_states(d_max):
        digits, plain_states = _plain_cycle(P, Q, D, r)
        assert _cycle(P, Q, D, r) == digits, (P, Q, D)
        states = []
        assert _cycle(P, Q, D, r, states) == digits and states == plain_states, (P, Q, D)
        kinds.add(_is_symmetric(digits))
    assert kinds == {True, False}


def test_cycle_matches_plain_walk():
    _check_cycles_match_plain_walk(2_000)


@pytest.mark.slow
def test_cycle_matches_plain_walk_slow():
    _check_cycles_match_plain_walk(10_000)



def _one_step_reflection(P, Q, D, r, start, stop, digits, until=None):
    """`surd._reflection` with one step per iteration: the reference for its two-step loop."""
    Ps, Q0 = until or ((P,), Q)
    for i in range(start, stop):
        a = (P + r) // Q
        digits.append(a)
        P1 = a * Q - P
        if P1 == P:
            return 2 * i + 1
        Q1 = (D - P1 * P1) // Q
        if Q1 == Q:
            return 2 * i + 2
        P, Q = P1, Q1
        if Q == Q0 and P in Ps:
            return None
    raise _budget_error()


def test_two_step_reflection_matches_one_step_walk():
    for P, Q, D, r in _reduced_states(3_000):
        for start in (0, 1):
            want, got = [], []
            m = _one_step_reflection(P, Q, D, r, start, _PERIOD_BUDGET, want)
            assert _reflection(P, Q, D, r, start, _PERIOD_BUDGET, got) == m and got == want, (P, Q, D)


def test_two_step_reflection_matches_one_step_walk_with_a_stop_set():
    # the walk of `equiv._has_norm_two`: from alpha_1 of d's principal cycle to the first Q = 4
    for d in range(17, 20_001, 8):
        r = isqrt(d)
        if r * r == d:
            continue
        P = (r - 1) | 1
        Q = (d - P * P) // 2
        until = (range(r - 3, r + 1), 4)
        want, got = [], []
        m = _one_step_reflection(P, Q, d, r, 1, (_PERIOD_BUDGET + 2) // 2, want, until)
        assert _reflection(P, Q, d, r, 1, (_PERIOD_BUDGET + 2) // 2, got, until) == m, d
        assert got == want, d


def test_two_step_reflection_spends_the_budget_of_the_one_step_walk():
    P, Q, D = 9, 13, 94  # alpha_1 of sqrt(94), period 16: the first reflection, m = 15, is step 7
    r = isqrt(D)
    for start in (0, 1):
        assert _reflection(P, Q, D, r, start, start + 8, []) == 2 * (start + 7) + 1
        for steps in range(1, 7):
            want, got = [], []
            with pytest.raises(ValueError, match="budget"):
                _one_step_reflection(P, Q, D, r, start, start + steps, want)
            with pytest.raises(ValueError, match="budget"):
                _reflection(P, Q, D, r, start, start + steps, got)
            assert got == want and len(got) == steps

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
    with pytest.raises(ValueError, match="singular"):
        linear_fractional(S17, 2, 3, 0, 0)


def test_conjugate():
    conj = S17.conjugate()
    assert conj.cmp(0) < 0


def algebraic_integer_shape_check(s: QuadraticSurd) -> bool:
    """Expansion of an algebraic integer surd is [a0; (w..., 2*a0 - trace)] with a palindromic front.

    Requires a monic minimal polynomial; checks the palindrome and the final
    period digit against twice the integer part minus the trace.
    """
    A, B, _ = s.minimal_polynomial()
    if A != 1:
        raise ValueError("not an algebraic integer (leading coefficient != 1)")
    cf = expand_surd(s)
    if cf.pre:
        return False
    w = cf.period
    if list(w[:-1]) != list(reversed(w[:-1])):
        return False
    return w[-1] == 2 * cf.a0 + B


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
    from cf2.cf import fold_word
    rng = random.Random(41)
    for _ in range(40):
        s = random_surd(rng, d_max=10**4)
        cf = expand_surd(s)
        digits = cf.digit_prefix(32)
        for n in range(2, 30):
            p, q, _, _ = fold_word(digits[:n])  # p_{n-1}, q_{n-1}
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
    assert _expansion_raw(s.P, s.D, s.Q) == (digits, start)
    r = isqrt(s.D)
    pre = [(P, Q) for P, Q, _ in itertools.islice(_quotients(s.P, s.D, s.Q, r), start)]
    assert pre + _cycle_states(s, start) == states
    assert expand_surd(s).digit_prefix(len(digits)) == digits
    assert list(itertools.islice(s.digits(), len(digits))) == digits
    assert (start == 0) == is_purely_periodic(s)
