import itertools
import random
from fractions import Fraction

import pytest

from conftest import random_periodic_cf
from cf2.bounds import (
    B2Shape,
    b_value,
    check_b2_characterization,
    classify_b2,
    falsify_b_bound,
    golden_doubling_check,
    lagrange_bounds,
    stats,
    truncated_digit_max,
    verify_b2_exhaustive,
)
from cf2.cf import CF, parse_cf
from cf2.doubling import _double_periodic, double_cf
from cf2.surd import QuadraticSurd, double_surd, surd_of_periodic_cf


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
        assert truncated_digit_max(cf.digits(), 500) == st.M


def test_lagrange_bounds():
    (mlo, mhi), _ = lagrange_bounds(stats(parse_cf("[0; 2, (1, 1, 3)]")))
    assert (mlo, mhi) == (Fraction(1, 5), Fraction(1, 3))
    _, (clo, chi) = lagrange_bounds(stats(parse_cf("[7; (8)]")))
    assert (clo, chi) == (Fraction(1, 10), Fraction(1, 8))
    (mlo, mhi), _ = lagrange_bounds(stats(parse_cf("[0; (1)]")))
    assert (mlo, mhi) == (Fraction(1, 3), Fraction(1, 1))


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


def _check_shared_tails(inputs):
    """Doubling through one shared continuation memo agrees with per-input double_cf."""
    tails = {}
    count = 0
    for cf in inputs:
        head, (tail_pre, period) = _double_periodic(cf, tails)
        reference = double_cf(cf)
        assert max(period) == max(reference.period), cf
        assert CF(head[0], head[1:] + tail_pre, period) == reference, cf
        count += 1
    assert len(tails) < count  # some inputs were answered from the memo


def test_b2_memo_matches_brute_force():
    _check_shared_tails(_b2_inputs(8, 4))
    brute = [cf for cf in _b2_inputs(8, 4)
             if (max(double_cf(cf).period) <= 2) != (classify_b2(cf) is not None)]
    assert verify_b2_exhaustive(8, 4) == brute


def test_doubling_memo_random_inputs():
    rng = random.Random(11)
    _check_shared_tails(random_periodic_cf(rng) for _ in range(500))


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


def test_falsify_deterministic_across_workers():
    serial = falsify_b_bound(3, 6, jobs=1)
    short = falsify_b_bound(3, 3, jobs=1)  # 25 words, fewer than one chunk
    assert short.whitelisted
    for jobs in (2, 3, None):
        assert falsify_b_bound(3, 6, jobs=jobs) == serial, jobs
        assert falsify_b_bound(3, 3, jobs=jobs) == short, jobs


@pytest.mark.slow
def test_falsify_c2_period_10():
    result = falsify_b_bound(2, 10, jobs=4)
    assert result.counterexamples == []


def test_remark_fixtures_are_self_similar():
    from cf2.equiv import self_similar_check
    assert self_similar_check(QuadraticSurd(5, 33, 2))  # [(5; 2, 1, 2)]
    s = surd_of_periodic_cf(parse_cf("[(5; 1, 2, 2, 1)]"))
    assert s.minimal_polynomial() == (1, -5, -4)
    assert self_similar_check(s)
