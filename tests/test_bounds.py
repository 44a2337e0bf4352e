import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import cf2.cf
from conftest import random_periodic_cf
from cf2 import bounds
from cf2.bounds import (
    B2Shape,
    FalsifyResult,
    WhitelistHit,
    b_value,
    classify_b2,
    falsify_b_bound,
    lagrange_bounds,
    stats,
    verify_b2_exhaustive,
)
from cf2.cf import CF, least_rotation, parse_cf
from cf2.doubling import double_cf, halve_cf, halve_plus1_cf
from cf2.equiv import class_key, key_of_cf
from cf2.surd import QuadraticSurd, double_surd, expand_surd, surd_of_periodic_cf


def test_stats_examples():
    assert stats(parse_cf("[(3; 1, 1)]")) == stats(parse_cf("[(3; 1, 1)]"))
    st = stats(parse_cf("[(3; 1, 1)]"))
    assert (st.M, st.B) == (3, 3)
    st = stats(parse_cf("[7; (8)]"))
    assert (st.M, st.B) == (8, 8)
    st = stats(parse_cf("[0; 2, (1, 1, 3)]"))
    assert (st.M, st.B) == (3, 3)
    st = stats(parse_cf("[0; 9, (2)]"))
    assert (st.M, st.B) == (9, 2)


def test_stats_rejects_finite():
    with pytest.raises(ValueError):
        stats(CF(1, (2, 3)))


def test_stats_agrees_with_truncation():
    rng = random.Random(3)
    for _ in range(100):
        cf = random_periodic_cf(rng)
        st = stats(cf)
        digits = cf.digit_prefix(501)
        assert st.M == max(digits[1:])
        assert st.B == max(digits[1 + len(cf.pre):])
        assert st.B <= st.M
        assert max(itertools.islice(cf.digits(), 1, 501)) == st.M


def test_lagrange_bounds():
    (mlo, mhi), _ = lagrange_bounds(stats(parse_cf("[0; 2, (1, 1, 3)]")))
    assert (mlo, mhi) == (Fraction(1, 5), Fraction(1, 3))
    _, (clo, chi) = lagrange_bounds(stats(parse_cf("[7; (8)]")))
    assert (clo, chi) == (Fraction(1, 10), Fraction(1, 8))
    (mlo, mhi), _ = lagrange_bounds(stats(parse_cf("[0; (1)]")))
    assert (mlo, mhi) == (Fraction(1, 3), Fraction(1, 1))


def golden_doubling_check(s: QuadraticSurd) -> bool:
    """For s in the all-ones class, doubling must land in the all-fours class."""
    if class_key(s) != (1,):
        raise ValueError("s is not equivalent to the all-ones expansion")
    return class_key(double_surd(s)) == (4,)


def test_golden_doubling():
    assert golden_doubling_check(QuadraticSurd(-1, 5, 2))
    assert golden_doubling_check(QuadraticSurd(1, 5, 2))
    rng = random.Random(5)
    for _ in range(100):
        pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 5)))
        member = surd_of_periodic_cf(CF(0, pre, (1,)))
        assert golden_doubling_check(member)
    with pytest.raises(ValueError):
        golden_doubling_check(QuadraticSurd(0, 2, 1))


def test_classify_b2_examples():
    assert classify_b2(parse_cf("[0; 1, (2)]")) == B2Shape.TAIL_TWOS
    assert classify_b2(parse_cf("[(1)]")) is None
    # sqrt(2) = [1; (2)]: junction parities q_0 = 1 odd, q_{-1} = 0 even
    assert classify_b2(parse_cf("[1; (2)]")) is None
    assert b_value(double_surd(QuadraticSurd(0, 2, 1))) == 4  # 2*sqrt(2) = [2; (1, 4)]


def check_b2_characterization(s: QuadraticSurd) -> bool:
    """Whether (B(s) <= 2 and B(2s) <= 2) <=> classify_b2 matches, for this s."""
    cf = expand_surd(s)
    lhs = stats(cf).B <= 2 and b_value(double_surd(s)) <= 2
    rhs = classify_b2(cf) is not None
    return lhs == rhs


def test_check_b2_characterization_fixtures():
    assert check_b2_characterization(QuadraticSurd(0, 2, 2))  # sqrt(2)/2: both sides true
    assert check_b2_characterization(QuadraticSurd(-1, 5, 2))  # golden tail: both false
    assert check_b2_characterization(QuadraticSurd(0, 2, 1))


def test_b2_characterization_small_exhaustive():
    assert verify_b2_exhaustive(6, 3) == []


def test_b2_exhaustive_rejects_empty_ranges():
    for period_max, preperiod_max in ((0, 3), (3, -1)):
        with pytest.raises(ValueError):
            verify_b2_exhaustive(period_max, preperiod_max)


def _b2_inputs(period_max, preperiod_max):
    for n in range(1, period_max + 1):
        for word in itertools.product((1, 2), repeat=n):
            for m in range(preperiod_max + 1):
                for pre in itertools.product((1, 2), repeat=m):
                    yield CF(0, pre, word)


def test_b2_exhaustive_matches_brute_force():
    brute = [cf for cf in _b2_inputs(8, 4)
             if (max(double_cf(cf).period) <= 2) != (classify_b2(cf) is not None)]
    assert verify_b2_exhaustive(8, 4) == brute


def _verify_reference(period_max, preperiod_max):
    """The per-input check: every (preperiod, word) input doubled on its own."""
    return [cf for cf in _b2_inputs(period_max, preperiod_max)
            if (max(double_cf(cf).period) <= 2) != (bounds.classify_b2(cf) is not None)]


def _falsify_reference(C, period_len_max, preperiod_len_max=2):
    """The per-input falsifier: every (preperiod, word) input doubled and halved on its own."""
    alphabet = range(1, (C + 1) + 1) if C == 2 else range(1, C + 1)
    pres = list(itertools.chain([()], bounds._words(alphabet, preperiod_len_max)))
    words = [w for w in bounds._words(alphabet, period_len_max) if C == 2 or max(w) == C]
    counterexamples = []
    whitelisted = []
    seen = set()
    for word in words:
        for pre in pres:
            cf = CF(0, pre, word)
            if cf in seen:
                continue
            seen.add(cf)
            if C == 2:
                if max(double_cf(cf).period) <= 2 and max(halve_cf(cf).period) <= 2:
                    counterexamples.append(cf)
                continue
            d1 = double_cf(cf)
            if max(d1.period) > C:
                continue
            if max(double_cf(d1).period) > C:
                continue
            h1 = halve_cf(cf)
            if max(h1.period) > C:
                continue
            if max(halve_cf(h1).period) > C:
                continue
            if C == 3 and key_of_cf(cf) == bounds.KEY_311:
                k_exit, b_exit = bounds._exit_b_from_311(cf, 2)
                whitelisted.append(WhitelistHit(cf, k_exit, b_exit))
            else:
                counterexamples.append(cf)
    return FalsifyResult(counterexamples, whitelisted)


def test_class_memo_keeps_the_inputs_a_per_input_filter_keeps():
    for C, period_max, preperiod_max in ((3, 5, 2), (4, 4, 1)):
        alphabet = range(1, C + 1)
        words = list(bounds._words(alphabet, period_max))
        pres = [(), *bounds._words(alphabet, preperiod_max)]
        inputs = [CF(0, pre, word) for word in words for pre in pres]
        kept = [cf for cf in inputs
                if max(double_cf(cf).period) <= C and max(halve_cf(cf).period) <= C]
        assert kept and len(kept) < len(inputs)
        assert list(bounds._survivors(C, words, pres)) == kept, C


def test_falsify_matches_per_input_reference():
    for args in ((2, 6), (3, 6), (4, 5, 1)):
        assert falsify_b_bound(*args) == _falsify_reference(*args), args


def test_enumerated_inputs_are_built_unchecked(monkeypatch):
    # bounds builds its digits itself, so they go through cf._canonical_cf, never CF(...)
    expected = (verify_b2_exhaustive(6, 3), falsify_b_bound(3, 6), falsify_b_bound(4, 5, 1))

    def no_check(*args):
        raise AssertionError("CF(...) checked library-built digits")

    monkeypatch.setattr(cf2.cf, "_validate", no_check)
    with pytest.raises(AssertionError, match="checked"):
        CF(0, (1,), (2,))
    assert (verify_b2_exhaustive(6, 3), falsify_b_bound(3, 6), falsify_b_bound(4, 5, 1)) == expected


@pytest.mark.slow
def test_class_checks_match_per_input_references_full_ranges():
    assert verify_b2_exhaustive(12, 6) == _verify_reference(12, 6) == []
    for args in ((2, 8), (3, 8), (4, 8, 1)):
        assert falsify_b_bound(*args) == _falsify_reference(*args), args


def test_verify_expands_a_failing_class_into_its_inputs(monkeypatch):
    # with no shape accepted, every input with B(2x) <= 2 is a violation
    monkeypatch.setattr(bounds, "classify_b2", lambda cf: None)
    bad = verify_b2_exhaustive(6, 3)
    assert bad == _verify_reference(6, 3)
    assert len(set(bad)) < len(bad)  # repeated values stay, as in the per-input order


def test_falsify_expands_a_surviving_class_into_its_inputs(monkeypatch):
    whitelisted = [hit.cf for hit in falsify_b_bound(3, 6).whitelisted]
    assert len(whitelisted) == 4
    monkeypatch.setattr(bounds, "KEY_311", ())
    result = falsify_b_bound(3, 6)
    assert result == _falsify_reference(3, 6)
    assert result.counterexamples == whitelisted
    assert result.whitelisted == []


def _matrix(digits):
    """[[p_n, p_{n-1}], [q_n, q_{n-1}]]: the product of [[d, 1], [1, 0]] over digits."""
    p, p1, q, q1 = 1, 0, 0, 1
    for d in digits:
        p, p1 = d * p + p1, p
        q, q1 = d * q + q1, q
    return p, p1, q, q1


_IMAGES = {(0, 1): double_cf, (1, 0): halve_cf, (1, 1): halve_plus1_cf}


@settings(max_examples=1000)
@given(st.integers(0, 5), st.lists(st.integers(1, 6), max_size=6),
       st.lists(st.integers(1, 6), min_size=1, max_size=8))
@example(0, [], [2])
@example(0, [1], [2, 1])
@example(3, [2, 2], [1, 1, 3])
def test_class_rows_pick_the_image_of_the_necklace(a0, pre, period):
    """2x and x/2 share their tails with the image of y = [(necklace)] that M's rows pick mod 2."""
    cf = CF(a0, tuple(pre), tuple(period))
    necklace = least_rotation(cf.period)
    start = next(i for i in range(len(cf.period))
                 if cf.period[i:] + cf.period[:i] == necklace)
    p, p1, q, q1 = _matrix((cf.a0, *cf.pre, *cf.period[:start]))
    y = CF(necklace[0], (), necklace[1:] + necklace[:1])
    assert key_of_cf(double_cf(cf)) == key_of_cf(_IMAGES[q % 2, q1 % 2](y))
    assert key_of_cf(halve_cf(cf)) == key_of_cf(_IMAGES[p % 2, p1 % 2](y))


def _junction_parities(cf):
    """(q_n, q_{n-1}) mod 2 for the canonical preperiod junction n = len(pre)."""
    q_prev, q_cur = 0, 1  # q_{-1}, q_0
    for d in cf.pre:
        q_prev, q_cur = q_cur, (d * q_cur + q_prev) % 2
    return q_cur, q_prev


def _junction_walk_b2(cf):
    """classify_b2 by a walk of q mod 2 from the preperiod junction to the first 2."""
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


def test_classify_b2_matches_junction_walk():
    periods = ((2,), (1, 2), (2, 1), (1,), (3,), (2, 2, 1), (1, 1, 2))
    count = 0
    for a0 in range(4):
        for n in range(7):
            for pre in itertools.product((1, 2, 3), repeat=n):
                for period in periods:
                    cf = CF(a0, pre, period)
                    assert classify_b2(cf) == _junction_walk_b2(cf), cf
                    count += 1
    assert count == 30_604


def test_b2_shape21_junction_walk():
    # the (2,1) rotation carries its parity condition at the right junction
    for pre in itertools.chain([()], itertools.product((1, 2), repeat=2)):
        for word in ((2, 1), (1, 2)):
            cf = CF(0, tuple(pre), word)
            claimed = classify_b2(cf) is not None
            s = surd_of_periodic_cf(cf)
            truth = b_value(double_surd(s)) <= 2
            assert claimed == truth, cf


def test_falsify_c2_small():
    result = falsify_b_bound(2, 6)
    assert result.counterexamples == []
    assert result.whitelisted == []


def test_falsify_c3_whitelists_311():
    result = falsify_b_bound(3, 6)
    assert result.counterexamples == []
    assert result.whitelisted, "the (3,1,1) class should appear"
    for hit in result.whitelisted:
        assert hit.b_exit == 8


def test_falsify_c4_small():
    result = falsify_b_bound(4, 5, preperiod_len_max=1)
    assert result.counterexamples == []
    assert result.whitelisted == []


def test_falsify_rejects_other_bounds():
    with pytest.raises(ValueError):
        falsify_b_bound(5, 4)


def test_falsify_rejects_empty_ranges():
    for period_len_max, preperiod_len_max in ((0, 2), (4, -1)):
        with pytest.raises(ValueError):
            falsify_b_bound(3, period_len_max, preperiod_len_max)


@pytest.mark.slow
def test_falsify_c2_period_10():
    result = falsify_b_bound(2, 10)
    assert result.counterexamples == []


def test_remark_fixtures_are_self_similar():
    from cf2.equiv import self_similar_check
    assert self_similar_check(QuadraticSurd(5, 33, 2))  # [(5; 2, 1, 2)]
    s = surd_of_periodic_cf(parse_cf("[(5; 1, 2, 2, 1)]"))
    assert s.minimal_polynomial() == (1, -5, -4)
    assert self_similar_check(s)
