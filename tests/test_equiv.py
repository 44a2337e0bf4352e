import concurrent.futures
import os
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

import cf2.equiv
from conftest import random_surd
from cf2.cf import CF, least_rotation
from cf2.equiv import (
    Move,
    ScanHit,
    build_chain,
    class_contains_self_similar,
    class_key,
    family_chain,
    family_member,
    scaled_equiv_certificate,
    scan_self_similar,
    self_similar_check,
    two_of_three,
)
from cf2.surd import (
    QuadraticSurd,
    double_surd,
    expand_surd,
    halve_plus1_surd,
    halve_surd,
    linear_fractional,
    _cycle,
    mul_pow2,
    surd_of_periodic_cf,
)

S17 = QuadraticSurd(3, 17, 2)


def test_class_key_examples():
    assert class_key(S17) == class_key(QuadraticSurd(3, 17, 4))
    assert class_key(S17) != class_key(QuadraticSurd(3, 17, 1))
    assert class_key(S17) == (1, 1, 3)


def test_class_key_of_complete_quotient():
    rng = random.Random(3)
    for _ in range(60):
        s = random_surd(rng, d_max=10**4)
        shifted = linear_fractional(s, 0, 1, 1, -s.floor())  # 1/(s - floor(s))
        assert class_key(s) == class_key(shifted)


def test_class_key_is_unimodular_invariant():
    rng = random.Random(5)
    mats = []
    while len(mats) < 60:
        a, b, c, d = (rng.randint(-10, 10) for _ in range(4))
        if a * d - b * c in (1, -1):
            mats.append((a, b, c, d))
    for i in range(200):
        s = random_surd(rng, d_max=10**4)
        a, b, c, d = mats[i % len(mats)]
        assert class_key(s) == class_key(linear_fractional(s, a, b, c, d))


def test_class_key_equivalence_relation():
    rng = random.Random(7)
    surds = [random_surd(rng, d_max=5000) for _ in range(60)]
    keys = [class_key(s) for s in surds]
    for i in range(len(surds)):
        assert keys[i] == keys[i]
        for j in range(i + 1, len(surds)):
            assert (keys[i] == keys[j]) == (keys[j] == keys[i])


def m_equiv_certificate(s: QuadraticSurd, m: int | Fraction):
    """Certificate that s ~ m*s (integer m), or s ~ (p/q)*s for a Fraction; None if not.

    For integer m the returned (a, b, c, d, l) satisfies A*l = m*c,
    B*l = m*d - a, C*l = -b and a*d - b*c = +-1 with gcd(l, m) = 1: a prime
    dividing l and m divides a and b, hence a*d - b*c.
    """
    m = Fraction(m)
    return scaled_equiv_certificate(s, m.numerator, 0, m.denominator)


def test_m_certificate_half_transform_fixture():
    # s/2 = 1/(s - 3) for the root of x^2 - 3x - 2
    from fractions import Fraction
    cert = m_equiv_certificate(S17, Fraction(1, 2))
    assert cert is not None
    a, b, c, d, l = cert
    assert a * d - b * c in (1, -1)
    assert linear_fractional(S17, a, b, c, d) == halve_surd(S17)
    # the textbook certificate (0, 1, 1, -3), l = 1 satisfies the same system
    assert linear_fractional(S17, 0, 1, 1, -3) == halve_surd(S17)
    A, B, C = S17.minimal_polynomial()
    a2, b2, c2, d2, l2 = 0, 1, 1, -3, 1
    assert c2 == A * l2 and d2 - 2 * a2 == B * l2 and -2 * b2 == C * l2
    assert a2 * d2 - b2 * c2 == -1


def test_m_certificate_none_when_classes_differ():
    assert m_equiv_certificate(S17, 2) is None
    golden = QuadraticSurd(1, 5, 2)
    assert m_equiv_certificate(golden, 2) is None


def test_scaled_certificate_half_plus1_fixture():
    s = QuadraticSurd(5, 33, 2)  # root of x^2 - 5x - 2
    cert = scaled_equiv_certificate(s, 1, 1, 2)
    assert cert is not None
    a, b, c, d, l = cert
    assert linear_fractional(s, a, b, c, d) == linear_fractional(s, 1, 1, 0, 2)
    assert (a, b, c, d) == (3, 1, 1, 0)


def test_certificate_existence_implies_class_equality():
    rng = random.Random(11)
    found = 0
    for _ in range(60):
        s = random_surd(rng, d_max=2000)
        cert = m_equiv_certificate(s, 2)
        if cert is not None:
            found += 1
            a, b, c, d, l = cert
            assert a * d - b * c in (1, -1)
            assert linear_fractional(s, a, b, c, d) == double_surd(s)
            assert class_key(s) == class_key(double_surd(s))


def test_never_all_three_certificates_on_self_similar():
    from fractions import Fraction
    for s in (S17, QuadraticSurd(5, 33, 2)):
        certs = [m_equiv_certificate(s, 2),
                 m_equiv_certificate(s, Fraction(1, 2)),
                 scaled_equiv_certificate(s, 1, 1, 2)]
        assert sum(c is not None for c in certs) == 2


@pytest.mark.parametrize("s, e, f, h", [
    (QuadraticSurd(27, 1563, 1), 1, 0, 2),
    (QuadraticSurd(48, 947, 1), 1, 1, 2),
    (QuadraticSurd(7, 2579, 2), 2, 0, 1),
])
def test_certificate_of_equivalent_pair_beyond_small_entries(s, e, f, h):
    """Equivalent pairs whose certificate has |l| in the thousands or millions."""
    t = linear_fractional(s, e, f, 0, h)
    assert class_key(s) == class_key(t)
    cert = scaled_equiv_certificate(s, e, f, h)
    assert cert is not None
    a, b, c, d, l = cert
    assert a * d - b * c in (1, -1)
    assert linear_fractional(s, a, b, c, d) == t
    assert abs(l) > 1000


def test_certificate_of_a_shift_has_c_and_l_zero():
    rng = random.Random(17)
    for _ in range(40):
        s = random_surd(rng, d_max=10**4)
        for f in range(-3, 4):
            a, b, c, d, l = scaled_equiv_certificate(s, 1, f, 1)
            assert (c, l) == (0, 0) and a * d in (1, -1)
            assert linear_fractional(s, a, b, c, d) == linear_fractional(s, 1, f, 0, 1)


# (e, f, h) for t = (e*s + f)/h: the rows of the image table, then m = 3 and m = 2/3
_CERTIFICATE_TARGETS = tuple((a, b, d) for _, a, b, d in cf2.equiv._IMAGES) + ((3, 0, 1), (2, 0, 3))


@st.composite
def _certificate_cases(draw):
    """A surd of either sign, half of them members of self-similar classes, and a target."""
    s = draw(st.one_of(_surds(), _positive_surds()))
    return s, draw(st.sampled_from(_CERTIFICATE_TARGETS))


@settings(deadline=None)
@given(_certificate_cases())
def test_certificate_exists_iff_class_keys_agree(case):
    s, (e, f, h) = case
    t = linear_fractional(s, e, f, 0, h)
    cert = scaled_equiv_certificate(s, e, f, h)
    assert (cert is None) == (class_key(s) != class_key(t))
    if cert is None:
        return
    a, b, c, d, l = cert
    A, B, C = s.minimal_polynomial()
    assert a * d - b * c in (1, -1)
    assert linear_fractional(s, a, b, c, d) == t
    assert (e * c, e * d + f * c - h * a, f * d - h * b) == (A * l, B * l, C * l)
    if h == 1 and f == 0:
        assert gcd(l, e) == 1


def test_self_similar_fixtures():
    assert self_similar_check(S17)
    assert self_similar_check(QuadraticSurd(5, 33, 2))
    assert self_similar_check(QuadraticSurd(1, 2089, 6))
    assert max(expand_surd(QuadraticSurd(1, 2089, 6)).period) == 14
    assert not self_similar_check(QuadraticSurd(1, 5, 2))
    assert not self_similar_check(QuadraticSurd(0, 2, 1))


def test_two_of_three_examples():
    key = class_key(S17)
    assert two_of_three(S17, key) == {Move.HALF, Move.HALF_PLUS1}
    assert len(two_of_three(QuadraticSurd(3, 17, 4), key)) == 2
    with pytest.raises(ValueError):
        two_of_three(QuadraticSurd(0, 2, 1), key)
    # members of non-self-similar classes report the violated precondition
    sqrt2 = QuadraticSurd(0, 2, 1)
    with pytest.raises(ValueError):
        two_of_three(sqrt2, class_key(sqrt2))


def test_two_of_three_random_members():
    rng = random.Random(13)
    key = class_key(S17)
    word = expand_surd(S17).period
    for _ in range(150):
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 5)))
        member = surd_of_periodic_cf(CF(0, pre, word))
        assert len(two_of_three(member, key)) == 2


def test_build_chain_examples():
    result = build_chain(S17, 2)
    assert all(k == (1, 1, 3) for k in result.checks)
    assert len(result.checks) == 3
    assert build_chain(S17, 0).beta == S17
    with pytest.raises(ValueError):
        build_chain(S17, -1)
    r10 = build_chain(QuadraticSurd(5, 33, 2), 10)
    assert len(r10.checks) == 11
    for k in range(11):
        assert class_key(mul_pow2(r10.beta, k)) == class_key(QuadraticSurd(5, 33, 2))


def _descend_by_keys(alpha, K):
    """build_chain's beta by the key-checked descent: each step expands both
    halvings and keeps the one in the class of alpha, the plain half at the top."""
    target = class_key(alpha)
    beta = alpha
    for step in range(K):
        stay = [image for image in (halve_surd(beta), halve_plus1_surd(beta))
                if class_key(image) == target]
        assert len(stay) == (2 if step == 0 else 1), (alpha, K, step)
        beta = stay[0]
    return beta


def test_build_chain_matches_the_key_checked_descent(monkeypatch):
    """build_chain descends by the parity rule with no expansion; its beta is the
    key-checked descent's, and it expands alpha once, for the target key, and the
    K + 1 members 2^k beta: self_similar_check expands nothing."""
    rng = random.Random(20)
    alphas = [family_member(m) for m in range(3, 17, 2)]
    alphas += [s for s in (QuadraticSurd(h.P, h.D, h.Q) for h in scan_self_similar(3000, 60))
               if self_similar_check(s)]
    for m in rng.choices((3, 5, 7, 9), k=200):  # members with random preperiods
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 5)))
        member = surd_of_periodic_cf(CF(rng.randint(0, 3), pre, expand_surd(family_member(m)).period))
        if self_similar_check(member):
            alphas.append(member)
    assert len(alphas) > 100
    calls = []
    expand = cf2.equiv.expand_surd
    monkeypatch.setattr(cf2.equiv, "expand_surd", lambda s: calls.append(s) or expand(s))
    for alpha in alphas:
        for K in (0, 1, 3, 8, 14):
            calls.clear()
            beta = build_chain(alpha, K).beta
            assert len(calls) == K + 2, (alpha, K)
            assert beta == _descend_by_keys(alpha, K), (alpha, K)


def test_build_chain_requires_self_similar():
    with pytest.raises(ValueError):
        build_chain(QuadraticSurd(1, 5, 2), 3)


def test_family_member_fixtures():
    assert family_member(3) == S17
    assert str(expand_surd(family_member(3))) == "[(3; 1, 1)]"
    assert str(expand_surd(family_member(5))) == "[(5; 2, 1, 2)]"
    with pytest.raises(ValueError):
        family_member(4)
    with pytest.raises(ValueError):
        family_member(1)


def test_family_shape_palindrome_and_bound():
    for m in range(3, 53, 2):
        cf = expand_surd(family_member(m))
        assert cf.is_purely_periodic and cf.a0 == m
        word = cf.period  # reads [m; (a_1 ... a_n)] with a_n = m
        assert word[-1] == m
        front = word[:-1]
        assert list(front) == list(reversed(front))
        assert all(d <= m for d in word)
        assert self_similar_check(family_member(m))


def test_family_chain_b_values():
    beta = family_chain(3, 4)
    for k in range(5):
        assert max(expand_surd(mul_pow2(beta, k)).period) == 3


def test_scan_finds_known_classes():
    hits = scan_self_similar(50, 20)
    keys = {h.key for h in hits}
    assert (1, 1, 3) in keys  # D = 17
    assert (1, 2, 5, 2) in keys  # D = 33, the m = 5 class
    assert (1, 2, 2, 1, 5) in keys  # D = 41, root of x^2 - 5x - 4
    d17 = [h for h in hits if h.key == (1, 1, 3)][0]
    assert d17.D == 17 and d17.period_len == 3 and d17.period_max == 3


def test_scan_2089_fixture():
    hits = scan_self_similar(2089, 6, d_min=2089)
    target = class_key(QuadraticSurd(1, 2089, 6))
    match = [h for h in hits if h.key == target]
    assert match and match[0].period_max == 14


def test_scan_output_is_sorted():
    hits = scan_self_similar(200, 30)
    order = [(h.D, h.Q, h.P) for h in hits]
    assert order == sorted(order)


def test_scan_deterministic_across_workers():
    serial = scan_self_similar(400, 30, jobs=1)
    short = scan_self_similar(440, 30, d_min=400, jobs=1)  # 41 D, eight candidate (d, m)
    assert short
    for jobs in (2, 3, None):
        assert scan_self_similar(400, 30, jobs=jobs) == serial, jobs
        assert scan_self_similar(440, 30, d_min=400, jobs=jobs) == short, jobs
    for jobs in (1, 2, None):  # an empty range is an error, not an empty result
        with pytest.raises(ValueError, match="d_max"):
            scan_self_similar(399, 30, d_min=400, jobs=jobs)


def test_scan_default_workers_follow_the_cost(monkeypatch):
    """jobs=None starts one worker per _COST_PER_WORKER begun, at most one per core;
    an explicit job count is kept."""
    serial = scan_self_similar(10_000, 200, jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert scan_self_similar(10_000, 200, jobs=None) == serial
    # costs below 3.5e6: 12,000 and 19,000 D (1,731,420 and 3,296,234), 3,000 late D, a small q_max
    for d_min, d_max, q_max in ((2, 12_000, 200), (2, 19_000, 200), (1_000_000, 1_002_999, 200),
                                (1_000_000, 1_000_999, 6)):
        scan_self_similar(d_max, q_max, d_min=d_min, jobs=None)
    # costs past 3.5e6: more D, late windows (the Q term decides at q_max 2000), a small q_max; or jobs=2
    for d_min, d_max, q_max, jobs in ((2, 20_000, 200, None), (1_000_000, 1_003_999, 200, None),
                                      (1_000_000, 1_001_999, 2_000, None), (2, 30_000, 6, None),
                                      (2, 10_000, 200, 2)):
        with pytest.raises(AssertionError, match="pool"):
            scan_self_similar(d_max, q_max, d_min=d_min, jobs=jobs)


def test_class_contains_self_similar_is_member_independent():
    # (1 + sqrt(17))/4 is in the self-similar class but fails the member check
    member = QuadraticSurd(1, 17, 4)
    assert class_key(member) == (1, 1, 3)
    assert not self_similar_check(member)
    assert class_contains_self_similar(member)


def _old_membership_rule(s):
    """At least two of class_key(2s), class_key(s/2), class_key((s+1)/2) equal class_key(s)."""
    key = class_key(s)
    return sum(class_key(img) == key for img in
               (double_surd(s), halve_surd(s), halve_plus1_surd(s))) >= 2


def _brute_force_classes(d_max, q_max):
    """(D, Q, P, key) of the first reduced state of each class, in scan order.

    Divisors are found by trial, and every reduced state is expanded on
    its own; D runs upward, P within D, Q within P.  Reduced means
    (P + sqrt(D))/Q > 1 and (P - sqrt(D))/Q in (-1, 0), compared by squares.
    """
    seen = set()
    for D in range(2, d_max + 1):
        if isqrt(D) ** 2 == D:
            continue
        local = []
        for P in range(1, isqrt(D) + 1):
            M = D - P * P
            for Q in range(1, q_max + 1):
                if M % Q or not (Q <= P or (Q - P) ** 2 < D) or (P + Q) ** 2 < D:
                    continue
                s = QuadraticSurd(P, D, Q)
                key = class_key(s)
                if key not in seen:
                    seen.add(key)
                    local.append((D, Q, P, key))
        yield from sorted(local, key=lambda c: (c[1], c[2]))


def test_class_contains_self_similar_matches_old_rule_on_scanned_classes():
    classes = list(_brute_force_classes(300, 40))
    assert len(classes) > 300
    found = 0
    for D, Q, P, key in classes:
        s = QuadraticSurd(P, D, Q)
        expected = _old_membership_rule(s)
        found += expected
        assert class_contains_self_similar(s) == expected, (D, Q, P)
    assert found > 10


@st.composite
def _surds(draw):
    """Random surds, Q of either sign."""
    D = draw(st.integers(2, 10**5).filter(lambda d: isqrt(d) ** 2 != d))
    return QuadraticSurd(draw(st.integers(-500, 500)), D, draw(st.integers(-50, 50).filter(bool)))


@st.composite
def _positive_surds(draw):
    """Random positive surds, half of them members of self-similar classes."""
    if draw(st.booleans()):
        m = draw(st.sampled_from((3, 5, 7, 9)))
        pre = tuple(draw(st.lists(st.integers(1, 9), max_size=5)))
        word = expand_surd(family_member(m)).period
        return surd_of_periodic_cf(CF(draw(st.integers(0, 3)), pre, word))
    s = draw(_surds())
    return s if s.cmp(0) > 0 else QuadraticSurd(s.P, s.D, -s.Q)


@given(_positive_surds())
def test_class_contains_self_similar_matches_old_rule(s):
    expected = _old_membership_rule(s)
    assert class_contains_self_similar(s) == expected


def _self_similar_by_three_keys(s):
    """self_similar_check by expanding s and both halvings, with no discriminant rule."""
    key = class_key(s)
    return all(class_key(linear_fractional(s, a, b, 0, d)) == key
               for _, a, b, d in cf2.equiv._IMAGES[1:])


@given(st.one_of(_surds(), _positive_surds()))
@example(S17)
@example(QuadraticSurd(1, 2089, 6))
@example(QuadraticSurd(1, 5, 2))
def test_self_similar_check_matches_three_keys(s):
    assert self_similar_check(s) == _self_similar_by_three_keys(s)


def _discriminant(s):
    A, B, C = s.minimal_polynomial()
    return B * B - 4 * A * C


@given(st.one_of(_surds(), _positive_surds()))
@example(S17)
@example(QuadraticSurd(1, 17, 4))
@example(QuadraticSurd(1, 2089, 6))
def test_in_class_images_are_both_kept_images_or_none(s):
    """The pairing lemma (equiv docstring): when two images keep the discriminant
    of s, both of them or neither are in its class, and no third one is."""
    kept = cf2.equiv._kept_images(*s.minimal_polynomial())
    if len(kept) == 2:
        key = class_key(s)
        in_class = tuple(row for row in cf2.equiv._IMAGES
                         if class_key(linear_fractional(s, row[1], row[2], 0, row[3])) == key)
        assert in_class in ((), kept)


def _first_image_rule(s, key):
    """The class of s holds its first kept image: that image expanded, its least
    rotation compared with key = class_key(s), and no norm test."""
    rows = cf2.equiv._kept_images(*s.minimal_polynomial())
    if not rows:
        return False
    _, a, b, d = rows[0]
    period = expand_surd(linear_fractional(s, a, b, 0, d)).period
    return len(period) == len(key) and least_rotation(period) == key


def test_one_verdict_per_discriminant():
    """By the pairing lemma a class passes iff the order of discriminant d has an
    element of norm +-2, so the classes of one d = 1 (mod 8) share a verdict;
    checked by the first-image rule on every reduced state with D <= 1200."""
    verdicts: dict[int, dict] = {}  # d -> {class key: verdict}
    for D in range(2, 1201):
        r = isqrt(D)
        if r * r == D:
            continue
        for P in range(1, r + 1):
            for Q in range(r - P + 1, r + P + 1):
                if (D - P * P) % Q:
                    continue
                s = QuadraticSurd(P, D, Q)
                if _discriminant(s) % 8 == 1:
                    classes = verdicts.setdefault(_discriminant(s), {})
                    key = class_key(s)
                    if key not in classes:
                        classes[key] = _first_image_rule(s, key)
    assert len(verdicts) == 133
    assert sum(len(classes) > 1 for classes in verdicts.values()) == 51
    assert {v for classes in verdicts.values() for v in classes.values()} == {True, False}
    for d, classes in verdicts.items():
        assert len(set(classes.values())) == 1, (d, classes)


def test_principal_cycle_verdict_matches_first_image_rule():
    """class_contains_self_similar reads d's principal cycle; the first-image rule
    expands an image.  They agree on the principal state (P + sqrt(d))/2, P the odd
    one of isqrt(d) and isqrt(d) - 1, of every nonsquare d = 1 (mod 8) up to 20,000."""
    passed = tested = 0
    for d in range(17, 20_001, 8):
        r = isqrt(d)
        if r * r == d:
            continue
        s = QuadraticSurd((r - 1) | 1, d, 2)
        expected = _first_image_rule(s, class_key(s))
        assert class_contains_self_similar(s) == expected, d
        tested += 1
        passed += expected
    assert (tested, passed) == (2429, 1258)


def _whole_cycle_verdict(d):
    """_has_norm_two by a walk of d's whole principal cycle that keeps every state."""
    r = isqrt(d)
    states = []
    _cycle((r - 1) | 1, 2, d, r, states)
    return any(q == 4 for _, q in states)


def test_half_walk_verdict_matches_whole_cycle():
    """_has_norm_two stops at the first Q = 4 of the half walk from (P + sqrt(d))/2;
    the walk of the whole principal cycle agrees on every nonsquare d = 1 (mod 8)
    up to 20,000."""
    passed = tested = 0
    for d in range(17, 20_001, 8):
        if isqrt(d) ** 2 == d:
            continue
        expected = _whole_cycle_verdict(d)
        assert cf2.equiv._has_norm_two(d) == expected, d
        tested += 1
        passed += expected
    assert (tested, passed) == (2429, 1258)


@given(_surds())
def test_image_table_matches_surd_arithmetic(s):
    """Each row (move, a, b, d) of the image table is the surd map of its move,
    and the rule keeps exactly the images whose primitive discriminant is that
    of s when at least two of them do, and none otherwise."""
    reference = {Move.DOUBLE: double_surd, Move.HALF: halve_surd,
                 Move.HALF_PLUS1: halve_plus1_surd}
    rows = cf2.equiv._IMAGES
    assert [move for move, *_ in rows] == list(Move)
    same = []
    for move, a, b, d in rows:
        image = linear_fractional(s, a, b, 0, d)
        assert image == reference[move](s), move
        if _discriminant(image) == _discriminant(s):
            same.append((move, a, b, d))
    kept = cf2.equiv._kept_images(*s.minimal_polynomial())
    assert kept == (tuple(same) if len(same) >= 2 else ())


def _content_rows(s):
    """The image rows that keep the primitive discriminant of s, by the content test.

    t = (a*s + b)/d is a root of s's polynomial at s = (d*t - b)/a, times a*a,
    which has (a*d)**2 times the discriminant of s; so t keeps the primitive
    discriminant iff that polynomial has content a*d.
    """
    A, B, C = s.minimal_polynomial()
    return [(move, a, b, d) for move, a, b, d in cf2.equiv._IMAGES if a * d == gcd(
        A * d * d, (a * B - 2 * b * A) * d, A * b * b - a * b * B + a * a * C)]


@given(_surds())
def test_discriminant_rule_matches_content_test(s):
    A, B, C = s.minimal_polynomial()
    rows = _content_rows(s)
    assert ((B * B - 4 * A * C) % 8 == 1) == (len(rows) >= 2)
    if len(rows) >= 2:  # 2s iff A even, s/2 iff C even, (s+1)/2 iff A + C odd
        parity = (A % 2 == 0, C % 2 == 0, (A + C) % 2 == 1)
        assert rows == [row for row, kept in zip(cf2.equiv._IMAGES, parity) if kept]


@given(st.one_of(st.integers(2, 700), st.integers(1, 87).map(lambda j: 8 * j + 1)),
       st.integers(1, 3))
def test_passing_states_have_scanned_d_and_even_q(m, k):
    """Every reduced state (P + sqrt(D))/Q of a class that passes the content
    test has D = 4**e * u with u = 1 (mod 8) and an even Q, so the scan may
    skip every other D and walk only even Q."""
    D = k * k * m
    if isqrt(D) ** 2 == D:
        return
    u = D
    while u % 4 == 0:
        u //= 4
    for P in range(1, isqrt(D) + 1):
        for Q in range(1, 2 * isqrt(D) + 2):
            if (D - P * P) % Q or not (Q <= P or (Q - P) ** 2 < D) or (P + Q) ** 2 < D:
                continue
            if len(_content_rows(QuadraticSurd(P, D, Q))) >= 2:
                assert u % 8 == 1 and Q % 2 == 0, (P, D, Q)


@pytest.mark.parametrize("d_max, q_max", [(2000, 50), (2000, 6)])
def test_scan_matches_brute_force(d_max, q_max):
    expected = [ScanHit(D, Q, P, len(key), max(key), key)
                for D, Q, P, key in _brute_force_classes(d_max, q_max)
                if _old_membership_rule(QuadraticSurd(P, D, Q))]
    assert len(expected) > 50
    assert scan_self_similar(d_max, q_max) == expected


def _brute_force_window(d_min, d_max, q_max):
    """_brute_force_classes over the nonsquare D in [d_min, d_max]: the first state
    in the window of each class, so a class met below d_min is reported again."""
    seen = set()
    for D in range(d_min, d_max + 1):
        if isqrt(D) ** 2 == D:
            continue
        local = []
        for P in range(1, isqrt(D) + 1):
            for Q in range(1, q_max + 1):
                if (D - P * P) % Q or not (Q <= P or (Q - P) ** 2 < D) or (P + Q) ** 2 < D:
                    continue
                key = class_key(QuadraticSurd(P, D, Q))
                if key not in seen:
                    seen.add(key)
                    local.append((D, Q, P, key))
        yield from sorted(local, key=lambda c: (c[1], c[2]))


def _self_similar_hits(classes):
    return [ScanHit(D, Q, P, len(key), max(key), key) for D, Q, P, key in classes
            if _old_membership_rule(QuadraticSurd(P, D, Q))]


@st.composite
def _windows(draw):
    """(d_min, d_max, q_max) with d_max uniform, as the brute force's cost grows with d_max."""
    d_max = draw(st.integers(2, 3000))
    return draw(st.integers(2, d_max)), d_max, draw(st.integers(1, 120))


@settings(max_examples=3, deadline=None)
@given(_windows())
def test_scan_matches_brute_force_on_random_windows(window):
    """The scan below d_min against _brute_force_classes, and the window against
    the brute force that starts at d_min: a window reports a class met below it
    again, at its first state in the window (a D = 4**e * u with e > 0, say)."""
    d_min, d_max, q_max = window
    if d_min > 2:
        below = _self_similar_hits(_brute_force_classes(d_min - 1, q_max))
        assert scan_self_similar(d_min - 1, q_max) == below
    expected = _self_similar_hits(_brute_force_window(d_min, d_max, q_max))
    assert scan_self_similar(d_max, q_max, d_min=d_min) == expected


def _own_verdict(D):
    """The verdict of D as a discriminant: D = 1 (mod 8) and D's principal state passes."""
    return D % 8 == 1 and class_contains_self_similar(QuadraticSurd((isqrt(D) - 1) | 1, D, 2))


def test_scan_window_reports_classes_of_d_below_d_min():
    """A class whose discriminant e lies below d_min is reported at its first
    D = m*m*e in the window, where the states have content 2m; such a D may fail
    its own verdict, as 6 of the 43 hits on [100, 600] do."""
    expected = _self_similar_hits(_brute_force_window(100, 600, 20))
    assert scan_self_similar(600, 20, d_min=100) == expected
    failing = [h.D for h in expected if not _own_verdict(h.D)]
    assert (len(expected), len(failing)) == (43, 6)
    assert {132, 164, 228} <= set(failing)


def _per_state_scan(d_max, q_max, d_min=2):
    """scan_self_similar by the per-state rule: at every D = 4**e * u with
    u = 1 (mod 8), each even-Q state takes the verdict of its own d = 4D/g**2,
    every cycle of a passing d is walked, and the merge drops the classes
    already met at a smaller D."""
    roots = cf2.equiv._root_table(min(q_max, 2 * isqrt(d_max)))
    verdicts = {}
    seen_keys = set()
    hits = []
    for D in range(d_min, d_max + 1):
        u = D
        while u % 4 == 0:
            u //= 4
        r = isqrt(D)
        if u % 8 != 1 or r * r == D:
            continue
        seen_states = set()
        local = []
        for Q in range(2, min(q_max, 2 * r) + 1, 2):
            for rho in roots[Q][D % Q]:
                P = r - (r - rho) % Q
                if Q > r + P or (P, Q) in seen_states:
                    continue
                d = 4 * D // gcd(Q, 2 * P, (D - P * P) // Q) ** 2
                if d % 8 == 1 and d not in verdicts:
                    verdicts[d] = class_contains_self_similar(QuadraticSurd(P, D, Q))
                if not verdicts.get(d):
                    continue
                states = []
                key = least_rotation(tuple(_cycle(P, Q, D, r, states)))
                seen_states.update(states)
                p, q = min((p, q) for p, q in states if q <= q_max)
                local.append(ScanHit(D, q, p, len(key), max(key), key))
        for h in sorted(local, key=lambda h: (h.Q, h.P)):
            if h.key not in seen_keys:
                seen_keys.add(h.key)
                hits.append(h)
    return hits


@pytest.mark.parametrize("d_max, q_max, d_min", [
    (20_000, 200, 2), (20_000, 50, 5000), (10**6 + 200, 200, 10**6)])
def test_scan_matches_the_per_state_rule(d_max, q_max, d_min):
    """The scan walks each passing d once, at d, and reports its classes at their
    least D = m*m*d >= d_min; the per-state rule loops at every D, walks every
    cycle of a passing d and merges.  Equal hits."""
    expected = _per_state_scan(d_max, q_max, d_min)
    assert expected
    for jobs in (1, 2):
        assert scan_self_similar(d_max, q_max, d_min=d_min, jobs=jobs) == expected, jobs


def test_scan_walks_one_cycle_per_hit(monkeypatch):
    """With d_min = 2 every class walk is a hit, the Q loop runs only at a D whose
    own verdict passes, and the verdicts stay one per d = 1 (mod 8)."""
    walks = []
    verdicts = []
    looped = set()
    cycle, verdict, gcd_ = cf2.equiv._cycle, cf2.equiv.class_contains_self_similar, cf2.equiv.gcd

    def counted_cycle(P, Q, D, r, states=None):
        if states is not None:
            walks.append(D)
        return cycle(P, Q, D, r, states)

    def recorded_gcd(q, two_p, c):  # the content of a state met in the Q loop
        looped.add(two_p * two_p // 4 + q * c)
        return gcd_(q, two_p, c)

    monkeypatch.setattr(cf2.equiv, "_cycle", counted_cycle)
    monkeypatch.setattr(cf2.equiv, "class_contains_self_similar",
                        lambda s: verdicts.append(verdict(s)) or verdicts[-1])
    monkeypatch.setattr(cf2.equiv, "gcd", recorded_gcd)
    hits = scan_self_similar(10_000, 200)
    assert len(walks) == len(hits) == 738
    assert (len(verdicts), sum(verdicts)) == (1200, 654)
    assert len(looped) == 654
    monkeypatch.undo()
    assert all(_own_verdict(D) for D in looped)


@pytest.mark.parametrize("d_max, q_max, d_min, count", [
    (20_000, 50, 5000, 1483), (600, 20, 100, 43), (4000, 40, 1000, 295)])
def test_scan_walks_one_cycle_per_hit_in_any_window(monkeypatch, d_max, q_max, d_min, count):
    """A class of a passing e < d_min is walked only at its least D = m*m*e >= d_min,
    so every walk is a hit in any window (walking it at every m made 1,782, 49 and
    349 walks), and the two workers' shares share no class."""
    walks = []
    cycle = cf2.equiv._cycle

    def counted_cycle(P, Q, D, r, states=None):
        if states is not None:
            walks.append(D)
        return cycle(P, Q, D, r, states)

    monkeypatch.setattr(cf2.equiv, "_cycle", counted_cycle)
    hits = scan_self_similar(d_max, q_max, d_min=d_min)
    assert len(walks) == len(hits) == count
    for found in (hits, scan_self_similar(d_max, q_max, d_min=d_min, jobs=2)):
        assert len({h.key for h in found}) == len(found) == count


def _scaled_by_division(ds, d_min, passes):
    """_walked_discriminants by trial division of each D in ds by m*m, m >= 1."""
    scaled = []
    for D in ds:
        for m in range(1, isqrt(D // 17) + 1):
            e = D // (m * m)
            if (D % (m * m) == 0 and (m - 1) ** 2 * e < d_min and e % 8 == 1
                    and isqrt(e) ** 2 != e and passes(e)):
                scaled.append((e, m))
    return scaled


@pytest.mark.parametrize("d_min, windows, count", [
    (100, [(100, 3000), (100, 164), (537, 1201), (2900, 6001)], 10),
    (1000, [(1000, 12_000), (4321, 9000), (10_001, 20_000)], 70),
    (5000, [(5000, 20_000), (7777, 13_000), (19_000, 30_000)], 466)])
def test_scaled_discriminants_list_each_e_at_its_least_m(d_min, windows, count):
    """Windows that start inside the range: past the square test and the verdict,
    (d, 1) is listed when d = 1 (mod 8) passes, and each passing nonsquare
    e = 1 (mod 8) below d_min is listed as (e, m) for its least D = m*m*e >= d_min,
    if that D lies in the window, and nowhere else."""
    passes = cache(_own_verdict)
    listed = 0
    for lo, hi in windows:
        ds = range(lo, hi + 1)
        scaled = [(d, m) for d, m in cf2.equiv._walked_discriminants(ds, d_min)
                  if isqrt(d) ** 2 != d and passes(d)]
        assert sorted(scaled) == sorted(_scaled_by_division(ds, d_min, passes)), (lo, hi)
        for e in range(17, d_min, 8):
            if isqrt(e) ** 2 == e or not passes(e):
                continue
            m = 2
            while m * m * e < d_min:
                m += 1
            at = [k * k * d for d, k in scaled if d == e]
            assert at == ([m * m * e] if m * m * e in ds else []), (lo, hi, e)
            listed += len(at)
    assert listed == count


@pytest.mark.parametrize("d_max, q_max, d_min, count", [
    (10_000, 200, 2, 1200), (20_000, 50, 5000, 2429), (60_000, 300, 20_000, 6763)])
def test_scan_decides_each_d_once_per_pass(monkeypatch, d_max, q_max, d_min, count):
    """Each nonsquare d = 1 (mod 8) sits at one D of the whole range, d itself if
    d >= d_min, else its least m*m*d >= d_min, so a serial scan, and the two shares
    of a two-job scan together, decide each such d once: no verdict memo is needed."""
    verdicts = []
    verdict = cf2.equiv.class_contains_self_similar
    monkeypatch.setattr(cf2.equiv, "class_contains_self_similar",
                        lambda s: verdicts.append(s.D) or verdict(s))
    scan_self_similar(d_max, q_max, d_min=d_min)
    assert len(verdicts) == len(set(verdicts)) == count
    verdicts.clear()
    listing = cf2.equiv._walked_discriminants(range(d_min, d_max + 1), d_min)
    for i in range(2):
        cf2.equiv._scan_range((listing[i::2], q_max, min(q_max, 2 * isqrt(d_max))))
    assert len(verdicts) == len(set(verdicts)) == count


def test_scan_matches_brute_force_where_q_max_passes_2_isqrt_d():
    """60 D near 2 * 10**4 with q_max = 300 > 2 * isqrt(D) = 282, where a
    reduced state has Q <= r + P <= 2r: the scan caps Q there, the brute force does not."""
    expected = _self_similar_hits(_brute_force_window(20000, 20059, 300))
    assert expected
    assert scan_self_similar(20059, 300, d_min=20000) == expected


def test_scan_memory_does_not_grow_with_d():
    """The scan holds square roots mod each even Q <= q_max, so 200 D near 10**6
    cost about what they cost near 10**4; a table over every m <= D took 90 MiB."""
    tracemalloc.start()
    try:
        assert scan_self_similar(10**6 + 200, 200, d_min=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _certificate_count(s):
    return sum(scaled_equiv_certificate(s, a, b, d) is not None for _, a, b, d in cf2.equiv._IMAGES)


def test_scan_hits_are_the_classes_with_two_certificates():
    """Every scan hit has certificates for exactly two of its three images, and a
    reduced state with D < 400 (so Q <= 2 isqrt(D) < 50) has two exactly when its
    class is a hit: certificates, None included, agree with the scan's rule."""
    hits = scan_self_similar(2000, 50)
    keys = {h.key for h in hits}
    assert len(keys) > 100
    for h in hits:
        assert _certificate_count(QuadraticSurd(h.P, h.D, h.Q)) == 2, h
    states = 0
    for D in range(2, 400):
        r = isqrt(D)
        if r * r == D:
            continue
        for P in range(1, r + 1):
            for Q in range(r - P + 1, r + P + 1):
                if (D - P * P) % Q == 0:
                    states += 1
                    s = QuadraticSurd(P, D, Q)
                    assert (_certificate_count(s) >= 2) == (class_key(s) in keys), (P, D, Q)
    assert states > 5000
