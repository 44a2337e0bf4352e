import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import random_surd
from cf2.cf import CF, cf_of_rational, eval_finite, fold_word
from cf2.search import (
    DepthStats,
    ExclusionWitness,
    SearchCapExceeded,
    SearchReport,
    _children,
    _find_large_digit,
    _scan,
    _tables,
    _walk,
    interval_bounds,
    run,
    try_exclude,
    two_adic_valuation,
    witness_q,
)
from cf2.surd import QuadraticSurd, expand_surd, linear_fractional, mul_pow2, surd_of_periodic_cf


def test_witness_str_runs_digits_together_only_below_10():
    assert str(ExclusionWitness((2, 6), 1, 2, 12)) == "w=26 k=1 pos=2 bound=12"
    assert str(ExclusionWitness((10, 1), 2, 1, 11)) == "w=10,1 k=2 pos=1 bound=11"


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


@pytest.mark.parametrize("word", [(3,), ()])
def test_try_exclude_and_interval_bounds_reject_the_same_words(word):
    # the search's reference and the bounds share one check of the prefix
    for reject in (try_exclude, interval_bounds):
        with pytest.raises(ValueError, match=r"prefix digits must lie in \[1, C\]"):
            reject(word, 2)


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
    # a prefix whose doubles stay small until the floors differ returns None
    assert try_exclude((2, 2), 6) is None


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
    for kwargs in ({"max_depth": 0}, {"max_depth": 1}):
        with pytest.raises(ValueError):
            run(3, **kwargs)


def test_search_deterministic_across_workers():
    serial = run(4, jobs=1)
    for jobs in (2, 3, None):
        assert serial == run(4, jobs=jobs), jobs


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
    serial = run(3, collect_witnesses=True).witnesses
    assert serial and run(3).witnesses == []
    for jobs in (2, 3, None):
        assert run(3, jobs=jobs, collect_witnesses=True).witnesses == serial, jobs


def test_witness_soundness_via_surd_oracle():
    rng = random.Random(23)
    C = 3
    report = run(C, collect_witnesses=True)
    assert report.terminated
    sample = rng.sample(report.witnesses, min(25, len(report.witnesses)))
    for wit in sample:
        for _ in range(20):
            tail = tuple(rng.randint(1, C) for _ in range(12))
            cf = CF(0, wit.prefix + tail, tail + (rng.randint(1, C),))
            s = mul_pow2(surd_of_periodic_cf(cf), wit.k)
            digits = expand_surd(s).digit_prefix(wit.position + 1)
            assert digits[wit.position] > C, (wit, cf)


# -- slow oracles for the depth-first search ---------------------------------


def common_prefix_info(x: Fraction, y: Fraction) -> tuple[list[int], int | None]:
    """Digits certainly shared by everything strictly between x and y.

    Returns (shared, next_min): the longest common prefix of the two
    canonical expansions, dropped by one digit whenever either expansion
    terminates within one digit past the match, and a lower bound for the
    digit right after the shared prefix when both expansions provide one.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    dx, dy = list(cf_of_rational(x).digits()), list(cf_of_rational(y).digits())
    L = 0
    for a, b in zip(dx, dy):
        if a != b:
            break
        L += 1
    if len(dx) <= L + 1 or len(dy) <= L + 1:
        shared = dx[:L - 1] if L >= 1 else []
        pos = L - 1
    else:
        shared = dx[:L]
        pos = L
    if 0 <= pos < len(dx) and pos < len(dy):
        next_min = min(dx[pos], dy[pos])
    else:
        next_min = None
    return shared, next_min


def _fraction_exclude(word, C):
    """try_exclude from Fractions: common_prefix_info on 2^k times the interval bounds."""
    lo, hi = interval_bounds(word, C)
    for k in itertools.count(1):
        x, y = lo * 2 ** k, hi * 2 ** k
        if math.floor(x) != math.floor(y):
            return None
        shared, next_min = common_prefix_info(x, y)
        for pos, digit in enumerate(shared):
            if pos >= 1 and digit > C:
                return ExclusionWitness(word, k, pos, digit)
        if len(shared) >= 1 and next_min is not None and next_min > C:
            return ExclusionWitness(word, k, len(shared), next_min)
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
    return SearchReport(C, terminated, K, depths, witnesses=witnesses)


def test_try_exclude_matches_fraction_oracle():
    visited = 0
    for C in range(1, 7):
        def both(word, C):
            expected = _fraction_exclude(word, C)
            assert try_exclude(word, C) == expected, word
            return expected
        report = _bfs_run(C, exclude=both)
        visited += sum(d.frontier for d in report.depths)
    assert visited == 2159


@pytest.mark.parametrize("C", range(1, 9))
@pytest.mark.parametrize("max_depth", [None, 2, 4])
def test_depth_first_run_matches_breadth_first_oracle(C, max_depth):
    expected = _bfs_run(C, max_depth)
    for jobs in (1, 2):
        report = run(C, max_depth=max_depth, jobs=jobs, collect_witnesses=True)
        assert report == expected, (jobs, report, expected)  # witnesses included


def _euclid_state(word, C, k, j):
    """The endpoint pair of 2^k times the cylinder of `word` after j shared Euclid steps."""
    p1, q1, p0, q0 = fold_word((0,) + word)
    t11, t12, t21, t22 = _tables(C)[0]
    pa, qa = (p1 * t11 + p0 * t21) << k, q1 * t11 + q0 * t21
    pb, qb = (p1 * t12 + p0 * t22) << k, q1 * t12 + q0 * t22
    for step in range(j):
        a, ra = divmod(pa, qa)
        b, rb = divmod(pb, qb)
        assert a == b and ra and rb and (step == 0 or a <= C), (word, k, step)
        pa, qa, pb, qb = qa, ra, qb, rb
    return pa, qa, pb, qb


def _surviving_states(C):
    """(word, states) for each prefix run(C) visits and does not exclude, depth first.

    Each walk starts at a first digit (d1,) with no states and steps every
    prefix through `_children` with one memo, as `_walk` does, so these are
    the states the walk hands on; words of length 1 are not visited.
    """
    tables = _tables(C)
    memo, shared = {}, {}
    for d1 in range(1, C + 1):
        stack = [((d1,), fold_word((0, d1)), [])]
        while stack:
            word, fold, states = stack.pop()
            if len(word) >= 2:
                yield word, states
            hits, found = _children(fold, states, C, tables, memo, shared)
            p1, q1, p0, q0 = fold
            stack.extend((word + (d,), (d * p1 + p0, d * q1 + q0, p1, q1), found[d])
                         for d in range(1, C + 1) if hits[d] is None)


def _resume_matrix(S, adjugate, det):
    """R = S . adjugate / det for the pair S = (pa, qa, pb, qb), checked exact."""
    pa, qa, pb, qb = S
    a11, a12, a21, a22 = adjugate
    products = (pa * a11 + pb * a21, pa * a12 + pb * a22,
                qa * a11 + qb * a21, qa * a12 + qb * a22)
    assert all(x % det == 0 for x in products), (S, det)
    return tuple(x // det for x in products)


def test_resume_states_divide_exactly():
    # every state (j, S) run hands to a child is the endpoint pair after its
    # j certain digits, as Euclid on the doubled endpoints gives it
    checked = 0
    for C in range(1, 8):
        for word, states in _surviving_states(C):
            checked += len(states)
            for k, (j, S) in enumerate(states, 1):
                assert _euclid_state(word, C, k, j) == S, (word, k)
    assert checked > 1000


def test_resume_matrices_are_the_shared_digits_inverted():
    # det T divides S . adj(T) for every state (j, S) run(1..7) hands on, and
    # the quotient R is A^-1 . diag(2^k, 1) . M, with M the matrix of [0; word]
    # and A that of the first j digits of 2^k x, read off the lower endpoint
    checked = 0
    for C in range(1, 8):
        _, adjugate, det = _tables(C)
        for word, states in _surviving_states(C):
            m11, m21, m12, m22 = fold_word((0,) + word)
            lo = interval_bounds(word, C)[0]
            for k, (j, S) in enumerate(states, 1):
                digits = list(itertools.islice(cf_of_rational(lo * 2 ** k).digits(), j))
                a11, a21, a12, a22 = fold_word(digits)
                sign = a11 * a22 - a12 * a21  # det A = +-1, so A^-1 = sign . adj(A)
                n11, n12, n21, n22 = m11 << k, m12 << k, m21, m22
                assert _resume_matrix(S, adjugate, det) == (
                    sign * (a22 * n11 - a12 * n21), sign * (a22 * n12 - a12 * n22),
                    sign * (a11 * n21 - a21 * n11), sign * (a11 * n22 - a21 * n12)), (word, k)
                checked += 1
    assert checked > 1000


def test_scan_reads_no_order_of_the_endpoints():
    # the lower endpoint of a prefix is the first column of M . T at an even
    # length and the second at an odd one; swapping the columns of T (T . J)
    # swaps the endpoints, which `_scan` treats alike and hands back swapped,
    # and keeps R = S . T^-1 = (S . J) . (T . J)^-1, so one T serves every depth
    scans = 0
    for C in range(1, 8):
        (t11, t12, t21, t22), adjugate, det = _tables(C)
        swapped = (t21, -t11, -t22, t12)  # adj(T . J), with T . J = (t12, t11, t22, t21)
        for word, states in _surviving_states(C):
            for j, S in states:
                r11, r12, r21, r22 = _resume_matrix(S, adjugate, det)
                for d in range(1, C + 1):
                    # R . [[d, 1], [1, 0]] . T, the pair of child d in `_children`
                    m11, m21 = d * r11 + r12, d * r21 + r22
                    pa, qa = m11 * t11 + r11 * t21, m21 * t11 + r21 * t21
                    pb, qb = m11 * t12 + r11 * t22, m21 * t12 + r21 * t22
                    i, bound, nxt = _scan(C, j, pa, qa, pb, qb)
                    i2, bound2, nxt2 = _scan(C, j, pb, qb, pa, qa)
                    assert (i2, bound2) == (i, bound), (word, d, j)
                    if nxt is None:
                        assert nxt2 is None, (word, d, j)
                    else:
                        assert nxt2 == nxt[2:] + nxt[:2], (word, d, j)
                        assert _resume_matrix(nxt, adjugate, det) == \
                            _resume_matrix(nxt2, swapped, -det), (word, d, j)
                    scans += 1
    assert scans == 42801


def test_k_loop_stops_at_the_first_k_where_the_floors_differ():
    # a surviving prefix hands on one state per k before the first k at which
    # 2^k lo and 2^k hi differ in integer part, and that k is within the
    # bound from hi - lo = |det T| / (q_min q_max)
    survivors = 0
    for C in range(1, 8):
        for word, states in _surviving_states(C):
            survivors += 1
            lo, hi = interval_bounds(word, C)
            stop = next(k for k in itertools.count(1)
                        if math.floor(lo * 2 ** k) != math.floor(hi * 2 ** k))
            assert len(states) + 1 == stop, word
            q_min_q_max = lo.denominator * hi.denominator
            det = abs(_tables(C)[2])
            assert hi - lo == Fraction(det, q_min_q_max), word
            assert 2 ** (stop - 1) * det < q_min_q_max, word  # stop <= ceil(log2(q q / det))
    assert survivors == 751  # the prefixes run(1) .. run(7) visit and do not exclude


def test_memo_keys_are_resumed_states_of_small_k():
    # the memo maps S to C + 1 slots, and `shared` maps each distinct slot to
    # itself; every S is a state at some k <= 6, A^-1 . diag(2^k, 1) . M . T
    # with det A, det M = +-1, so |det S| = 2^k |det T|
    C = 8
    tables = _tables(C)
    memo, shared = {}, {}
    for d1 in range(1, C + 1):
        _walk((d1, C, None, False, tables, memo, shared))
    assert len(memo) > 100
    for key, slots in memo.items():
        pa, qa, pb, qb = key
        det = abs(pa * qb - pb * qa)
        assert det in {2 ** k * abs(tables[2]) for k in range(1, 7)}, key
        assert len(slots) == C + 1 and slots[0] is None, key
    filled = {id(slot) for slots in memo.values() for slot in slots if slot is not None}
    assert {id(slot) for slot in shared.values()} == filled
    assert all(key is slot for key, slot in shared.items())


def test_children_resuming_at_digit_0_match_try_exclude():
    # a prefix with no states hands its children (0, diag(2^k, 1) . M . T) at every
    # k, which shares no digit, so each child scans its fresh pair from digit 0
    ended = excluded = 0
    for C in (3, 5, 8):
        tables = _tables(C)
        for word in itertools.product(range(1, C + 1), repeat=2):
            fold = fold_word((0,) + word)
            memo, shared = {}, {}
            hits, found = _children(fold, [], C, tables, memo, shared)
            assert memo == shared == {}  # j = 0 is never memoised
            for d in range(1, C + 1):
                child = word + (d,)
                wit = try_exclude(child, C)
                if wit is None:
                    assert hits[d] is None, child
                    for k, (j, S) in enumerate(found[d], 1):
                        assert _euclid_state(child, C, k, j) == S, (child, k)
                    ended += 1
                else:
                    assert ExclusionWitness(child, *hits[d]) == wit, child
                    excluded += 1
    assert ended > 50 and excluded > 100


def test_depth_2_row_matches_try_exclude_on_every_root():
    # the walk steps the roots through `_children` from their first digit, so
    # check them against the standalone scan beyond the C of the BFS oracle
    for C in range(1, 13):
        report = run(C, max_depth=2, collect_witnesses=True)
        found = [wit for word in itertools.product(range(1, C + 1), repeat=2)
                 if (wit := try_exclude(word, C)) is not None]
        assert report.depths[0] == DepthStats(2, C * C, len(found)), C
        assert report.witnesses == found, C


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


@pytest.mark.parametrize("threshold", [Fraction(0), Fraction(-1, 15), -1])
def test_witness_q_rejects_non_positive_thresholds(threshold):
    with pytest.raises(ValueError, match="threshold must be positive"):
        witness_q(QuadraticSurd(3, 17, 2), threshold=threshold)


def test_witness_q_reads_the_repeated_a0_of_a_purely_periodic_surd():
    # (10 + sqrt(120))/1 = [(20; 1)]: the digit 20 at n = 2 closes the cycle
    s = QuadraticSurd(10, 120, 1)
    assert str(expand_surd(s)) == "[(20; 1)]"
    assert _find_large_digit(s, 15, 2000) == (2, 1)
    w = witness_q(s, k_cap=0)
    assert (w.k, w.n, w.q) == (0, 2, 1)
    assert w.value < Fraction(1, 15)


def _large_digit_by_seen_set(s, need, digit_cap):
    """_find_large_digit detecting the cycle by a set of every visited (P, Q) state."""
    P, D, Q = s.P, s.D, s.Q
    r = math.isqrt(D)
    seen = set()
    qm1, qm2 = 0, 0
    for n in range(digit_cap + 1):
        a = (P + r) // Q if Q > 0 else -((P + r) // (-Q)) - 1
        if n >= 1 and a >= need:  # before the cycle test: a revisit at n repeats a0 of s
            return n, qm1
        if (P, Q) in seen:
            return None
        seen.add((P, Q))
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
@example(120, 10, 1, 15, 2000)
def test_find_large_digit_matches_seen_set(D, P, Q, need, digit_cap):
    s = QuadraticSurd(P, D, Q)
    assert _find_large_digit(s, need, digit_cap) == _large_digit_by_seen_set(s, need, digit_cap)
