import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import random_surd
from cf2.cf import CF, cf_of_rational, eval_finite, fold_word
from cf2.search import (
    DEFAULT_K_CAP,
    DepthStats,
    ExclusionWitness,
    SearchCapExceeded,
    SearchReport,
    WitnessKind,
    _find_large_digit,
    _tables,
    common_prefix_info,
    interval_bounds,
    run,
    try_exclude,
    two_adic_valuation,
    witness_q,
)
from cf2.surd import QuadraticSurd, expand_surd, linear_fractional, mul_pow2, surd_of_periodic_cf


def test_interval_bounds_fixture():
    lo, hi = interval_bounds((1, 1), 2)
    assert (lo, hi) == (Fraction(56, 97), Fraction(26, 41))
    assert lo == eval_finite(CF(0, (1, 1, 2, 1, 2, 1, 3)))
    assert hi == eval_finite(CF(0, (1, 1, 1, 2, 1, 3)))


def test_interval_bounds_odd_depth_swaps_tails():
    lo, hi = interval_bounds((1, 1, 1), 2)
    assert lo == eval_finite(CF(0, (1, 1, 1, 1, 2, 1, 3)))
    assert hi == eval_finite(CF(0, (1, 1, 1, 2, 1, 2, 1, 3)))
    assert lo < hi


def test_interval_bounds_rejects_out_of_range():
    with pytest.raises(ValueError):
        interval_bounds((1, 3), 2)


def _alternating_lex_key(word):
    # larger digit at an odd position means a smaller value
    return tuple(-d if i % 2 == 0 else d for i, d in enumerate(word))


def test_interval_bounds_respect_cylinder_order():
    import itertools
    C = 3
    for depth in (2, 3):
        words = sorted(itertools.product(range(1, C + 1), repeat=depth),
                       key=_alternating_lex_key)
        intervals = [interval_bounds(w, C) for w in words]
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 < lo2


def test_interval_contains_random_extensions():
    rng = random.Random(17)
    for word in ((1, 1), (2, 1, 2), (1, 2, 2, 1)):
        C = 2
        lo, hi = interval_bounds(word, C)
        for _ in range(100):
            ext = list(word) + [rng.randint(1, C) for _ in range(30)]
            val = eval_finite(CF(0, tuple(ext)))
            assert lo <= val <= hi


def test_common_prefix_info_fixture():
    shared, next_min = common_prefix_info(Fraction(17, 12), Fraction(3, 2))
    assert shared == [1]
    assert next_min == 2


def test_common_prefix_differing_integer_parts():
    shared, next_min = common_prefix_info(Fraction(5, 2), Fraction(7, 2))
    assert shared == []


def test_common_prefix_integer_endpoint():
    # one endpoint exactly an integer: only the next-digit floor survives
    shared, next_min = common_prefix_info(Fraction(3), Fraction(16, 5))
    assert shared == [] and next_min == 3


def test_common_prefix_is_sound_for_interior_points():
    rng = random.Random(19)
    for _ in range(200):
        x = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        y = x + Fraction(1, rng.randint(2, 1000))
        shared, next_min = common_prefix_info(x, y)
        for _ in range(10):
            t = x + (y - x) * Fraction(rng.randint(1, 99), 100)
            if t == x or t == y:
                continue
            digits = list(cf_of_rational(t).digits())
            assert digits[:len(shared)] == shared
            if next_min is not None and len(shared) < len(digits):
                assert digits[len(shared)] >= next_min or len(digits) == len(shared) + 1


def test_try_exclude_c1():
    wit = try_exclude((1, 1), 1)
    assert wit is not None and wit.k == 1


def test_try_exclude_rejects_nothing_silently():
    # a prefix whose doubles stay small for k = 1 keeps returning None
    assert try_exclude((2, 2), 6, k_cap=1) is None


def test_witness_dump_format():
    wit = try_exclude((1, 1), 1)
    text = str(wit)
    assert text.startswith("w=11 k=") and " pos=" in text and " bound=" in text


TABLE_K = {1: 1, 2: 2, 3: 4, 4: 6, 5: 9, 6: 16, 7: 16, 8: 28}


def test_search_small_bounds_terminate_with_known_k():
    for C in (1, 2, 3, 4):
        report = run(C)
        assert report.terminated
        assert report.K == TABLE_K[C]


def test_search_depth_cap_reports_partial():
    report = run(3, max_depth=2)
    assert not report.terminated
    assert report.max_depth_reached == 2


def test_run_rejects_caps_that_exclude_nothing_or_cut_the_roots():
    # k_cap < 1 tries no k, so with no depth cap the walk would never end
    for kwargs in ({"k_cap": 0}, {"k_cap": -3}, {"max_depth": 0}, {"max_depth": 1},
                   {"k_cap": 0, "max_depth": 4}):
        with pytest.raises(ValueError):
            run(3, **kwargs)


def test_search_deterministic_across_workers():
    serial = run(4, jobs=1)
    for jobs in (2, 3, None):
        assert serial.same_result(run(4, jobs=jobs)), jobs


def test_terminated_search_claim_against_expansion_oracle():
    # a terminated run with largest exponent K proves: every irrational with
    # digits <= C has a digit above C in some 2^k multiple, 1 <= k <= K
    rng = random.Random(8128)
    for C, K in ((1, 1), (2, 2), (3, 4), (4, 6)):
        assert run(C).K == K
        for _ in range(150):
            pre = tuple(rng.randint(1, C) for _ in range(rng.randint(0, 6)))
            per = tuple(rng.randint(1, C) for _ in range(rng.randint(1, 8)))
            cur = surd_of_periodic_cf(CF(0, pre, per))
            for k in range(1, K + 1):
                cur = mul_pow2(cur, 1)
                cfk = expand_surd(cur)
                if max(cfk.pre + cfk.period) > C:
                    break
            else:
                raise AssertionError((C, pre, per))


def test_parallel_run_witnesses_match_serial():
    serial = run(3, collect_witnesses=True)[1]
    for jobs in (2, 3, None):
        assert run(3, jobs=jobs, collect_witnesses=True)[1] == serial, jobs


def test_witness_soundness_via_surd_oracle():
    rng = random.Random(23)
    C = 3
    report, witnesses = run(C, collect_witnesses=True)
    assert report.terminated
    sample = rng.sample(witnesses, min(25, len(witnesses)))
    for wit in sample:
        for _ in range(20):
            tail = tuple(rng.randint(1, C) for _ in range(12))
            cf = CF(0, wit.prefix + tail, tail + (rng.randint(1, C),))
            s = mul_pow2(surd_of_periodic_cf(cf), wit.k)
            digits = expand_surd(s).digit_prefix(wit.position + 1)
            assert digits[wit.position] > C, (wit, cf)


# -- slow oracles for the depth-first search ---------------------------------


def _fraction_exclude(word, C, k_cap=DEFAULT_K_CAP):
    """try_exclude from Fractions: common_prefix_info on 2^k times the interval bounds."""
    lo, hi = interval_bounds(word, C)
    for k in range(1, k_cap + 1):
        x, y = lo * 2 ** k, hi * 2 ** k
        if math.floor(x) != math.floor(y):
            return None
        shared, next_min = common_prefix_info(x, y)
        for pos, digit in enumerate(shared):
            if pos >= 1 and digit > C:
                return ExclusionWitness(word, k, pos, digit, WitnessKind.SHARED_DIGIT)
        if len(shared) >= 1 and next_min is not None and next_min > C:
            return ExclusionWitness(word, k, len(shared), next_min,
                                    WitnessKind.NEXT_DIGIT_MIN)
    return None


def _bfs_run(C, max_depth=None, exclude=try_exclude):
    """Breadth-first search in lexicographic order, one standalone call per prefix."""
    words = [(d1, d2) for d1 in range(1, C + 1) for d2 in range(1, C + 1)]
    depth, K, depths, witnesses = 2, 0, [], []
    terminated = True
    while words:
        if max_depth is not None and depth > max_depth:
            terminated = False
            break
        results = [exclude(w, C) for w in words]
        found = [wit for wit in results if wit is not None]
        K = max([K] + [wit.k for wit in found])
        witnesses += found
        depths.append(DepthStats(depth, len(words), len(found)))
        words = [w + (d,) for w, wit in zip(words, results) if wit is None
                 for d in range(1, C + 1)]
        depth += 1
    return SearchReport(C, terminated, depth - 1, K, depths), witnesses


def test_try_exclude_matches_fraction_oracle():
    visited = 0
    for C in range(1, 7):
        def both(word, C):
            expected = _fraction_exclude(word, C)
            assert try_exclude(word, C) == expected, word
            return expected
        report, _ = _bfs_run(C, exclude=both)
        visited += sum(d.frontier for d in report.depths)
    assert visited == 2159


@pytest.mark.parametrize("C", range(1, 7))
@pytest.mark.parametrize("max_depth", [None, 2, 4])
def test_depth_first_run_matches_breadth_first_oracle(C, max_depth):
    expected, expected_witnesses = _bfs_run(C, max_depth)
    for jobs in (1, 2):
        report, witnesses = run(C, max_depth=max_depth, jobs=jobs, collect_witnesses=True)
        assert report.same_result(expected), (jobs, report, expected)
        assert witnesses == expected_witnesses, jobs


def _euclid_state(word, C, k, j):
    """The endpoint pair of 2^k times the cylinder of `word` after j shared Euclid steps."""
    p1, q1, p0, q0 = fold_word((0,) + word)
    t11, t12, t21, t22 = _tables(C).pair[len(word) % 2]
    pa, qa = (p1 * t11 + p0 * t21) << k, q1 * t11 + q0 * t21
    pb, qb = (p1 * t12 + p0 * t22) << k, q1 * t12 + q0 * t22
    for step in range(j):
        a, ra = divmod(pa, qa)
        b, rb = divmod(pb, qb)
        assert a == b and ra and rb and (step == 0 or a <= C), (word, k, step)
        pa, qa, pb, qb = qa, ra, qb, rb
    return pa, qa, pb, qb


def test_resume_states_divide_exactly():
    # every state run hands to a child is A^-1 diag(2^k, 1) M exactly: times T
    # it gives back the endpoint pair after its j certain digits
    checked = 0
    for C in range(1, 8):
        tables = _tables(C)
        stack = [((d1, d2), ()) for d1 in range(1, C + 1) for d2 in range(1, C + 1)]
        while stack:
            word, inherited = stack.pop()
            states = []
            if try_exclude(word, C, tables=tables, inherited=inherited, states=states):
                continue
            checked += len(states)
            t11, t12, t21, t22 = tables.pair[len(word) % 2]
            for k, (j, r11, r12, r21, r22) in enumerate(states, 1):
                assert _euclid_state(word, C, k, j) == (
                    r11 * t11 + r12 * t21, r21 * t11 + r22 * t21,
                    r11 * t12 + r12 * t22, r21 * t12 + r22 * t22), (word, k)
            stack.extend((word + (d,), states) for d in range(1, C + 1))
    assert checked > 1000


def test_witness_q_on_known_surd():
    # 4s = (6 + sqrt(68))/1 expands as [14; 4, 16, ...]: digit 16 at n = 2
    w = witness_q(QuadraticSurd(3, 17, 2))
    assert (w.k, w.n, w.q) == (2, 2, 16)
    assert w.value < Fraction(1, 15)
    assert two_adic_valuation(w.q) >= w.k


def test_witness_q_immediate_when_digit_large():
    s = surd_of_periodic_cf(CF(0, (), (1, 20)))
    w = witness_q(s)
    assert w.k == 0
    assert w.value < Fraction(1, 15)


def test_witness_q_product_is_exact():
    # recompute q * |q|_2 * ||q s|| independently and compare against the bound
    rng = random.Random(29)
    for _ in range(25):
        s = random_surd(rng, d_max=10**5)
        w = witness_q(s)
        t = linear_fractional(s, w.q, 0, 0, 1)
        m = t.floor()
        frac = linear_fractional(t, 1, -m, 0, 1)
        if frac.cmp(Fraction(1, 2)) > 0:
            frac = linear_fractional(frac, -1, 1, 0, 1)
        product = linear_fractional(frac, w.q, 0, 0, 1 << two_adic_valuation(w.q))
        assert product.cmp(Fraction(1, 15)) < 0
        assert product.cmp(w.value) < 0


def test_witness_q_cap():
    with pytest.raises(SearchCapExceeded):
        witness_q(QuadraticSurd(3, 17, 2), threshold=Fraction(1, 10**6), k_cap=2)
    with pytest.raises(SearchCapExceeded):  # k_cap = 0 tries k = 0 alone; the witness has k = 2
        witness_q(QuadraticSurd(3, 17, 2), k_cap=0)
    with pytest.raises(ValueError):
        witness_q(QuadraticSurd(3, 17, 2), k_cap=-1)


def _large_digit_by_seen_set(s, need, digit_cap):
    """_find_large_digit detecting the cycle by a set of every visited (P, Q) state."""
    P, D, Q = s.P, s.D, s.Q
    r = math.isqrt(D)
    seen = set()
    qm1, qm2 = 0, 0
    for n in range(digit_cap + 1):
        if (P, Q) in seen:
            return None
        seen.add((P, Q))
        a = (P + r) // Q if Q > 0 else -((P + r) // (-Q)) - 1
        if n >= 1 and a >= need:
            return n, a, qm1
        P = a * Q - P
        Q = (D - P * P) // Q
        qm1, qm2 = (1, 0) if n == 0 else (a * qm1 + qm2, qm1)
    return None


@given(st.integers(2, 10**5).filter(lambda d: math.isqrt(d) ** 2 != d),
       st.integers(-300, 300), st.integers(-40, 40).filter(bool),
       st.integers(2, 40), st.sampled_from((0, 3, 2000)))
@example(2, 0, 1, 3, 2000)
@example(3, 0, 1, 3, 2000)
@example(17, 3, 2, 15, 2000)
def test_find_large_digit_matches_seen_set(D, P, Q, need, digit_cap):
    s = QuadraticSurd(P, D, Q)
    assert _find_large_digit(s, need, digit_cap) == _large_digit_by_seen_set(s, need, digit_cap)
