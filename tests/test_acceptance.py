"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The deepest searches (digit bounds 11 and 12) are opt-in: `pytest -m slow`.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import random_surd
from cf2.bounds import b_value, falsify_b_bound, verify_b2_exhaustive
from cf2.cf import CF, parse_cf
from cf2.doubling import (double_cf, double_stream, halve_cf, halve_plus1_cf,
                          production_bounds_check, production_counts)
from cf2.equiv import class_key, family_chain, family_member, scan_self_similar, two_of_three
from cf2.search import run, two_adic_valuation, witness_q
from cf2.surd import (
    QuadraticSurd,
    double_surd,
    expand_surd,
    halve_plus1_surd,
    halve_surd,
    linear_fractional,
    mul_pow2,
    surd_of_periodic_cf,
)

TABLE_K = (1, 2, 4, 6, 9, 16, 16, 28)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_table_regression():
    start = time.monotonic()
    ks = []
    for C in range(1, 9):
        report = run(C)
        assert report.terminated, f"search C={C} did not terminate"
        ks.append(report.K)
    elapsed = time.monotonic() - start
    _report("criterion 1: K values for C=1..8 match the reference row",
            tuple(ks) == TABLE_K and elapsed < 60,
            f"K={tuple(ks)}, {elapsed:.1f}s")


def test_criterion_1_c9_c10():
    start = time.monotonic()
    k9 = run(9)
    k10 = run(10)
    elapsed = time.monotonic() - start
    _report("criterion 1: C=9, 10 give K=37, 37",
            k9.terminated and k10.terminated and (k9.K, k10.K) == (37, 37)
            and elapsed < 600,
            f"K=({k9.K}, {k10.K}), {elapsed:.1f}s")


@pytest.mark.slow
@pytest.mark.parametrize("C, K, depth, prefixes", [
    (11, 41, 25, 796_103),
    (12, 47, 28, 3_200_928),
])
def test_criterion_1_slow(C, K, depth, prefixes):
    start = time.monotonic()
    serial = run(C, jobs=1)
    parallel = run(C, jobs=2)
    elapsed = time.monotonic() - start
    visited = sum(d.frontier for d in serial.depths)
    _report(f"criterion 1 (opt-in): C={C} gives K={K} at depth {depth} "
            f"after {prefixes:,} prefixes",
            serial.terminated and serial.K == K and serial.max_depth_reached == depth
            and visited == prefixes and serial == parallel and elapsed < 600,
            f"K={serial.K}, depth {serial.max_depth_reached}, {visited} prefixes, "
            f"{elapsed:.1f}s")


def test_criterion_2_worked_examples():
    a311 = parse_cf("[(3; 1, 1)]")
    checks = [
        str(double_cf(a311)) == "[7; (8)]",
        str(halve_cf(a311)) == "[(1; 1, 3)]",
        str(halve_plus1_cf(a311)) == "[2; (3, 1, 1)]",
        str(double_cf(parse_cf("[0; 1, (2)]"))) == "[1; (2)]",
    ]
    two_a = double_cf(parse_cf("[0; 2, (1, 1, 3)]"))
    checks.append(two_a == CF(0, (), (1, 3, 1)))
    checks.append(str(double_cf(two_a)) == "[1; (1, 1, 3)]")
    _report("criterion 2: worked examples reproduce exactly", all(checks))


def test_criterion_3_oracle_equivalence():
    rng = random.Random(42)
    start = time.monotonic()
    for _ in range(1000):
        s = random_surd(rng)
        if s.cmp(0) <= 0:
            s = QuadraticSurd(s.P, s.D, -s.Q)
        cf = expand_surd(s)
        got = list(itertools.islice(double_stream(cf.digits()), 40))
        assert got == expand_surd(double_surd(s)).digit_prefix(40)
        assert halve_cf(cf) == expand_surd(halve_surd(s))
        assert halve_plus1_cf(cf) == expand_surd(halve_plus1_surd(s))
    elapsed = time.monotonic() - start
    _report("criterion 3: stream and halvings agree with the exact surd oracle",
            elapsed < 30, f"1000 surds, {elapsed:.1f}s")


def test_criterion_4_production_bounds():
    rng = random.Random(7)
    for _ in range(10_000):
        digits = [rng.randint(-3, 6)] + [rng.randint(1, 12) for _ in range(100)]
        counts = production_counts(digits)
        for n in range(1, 101):
            assert production_bounds_check(n, counts[n]), (n, counts[n])
    lower = [1]
    while len(lower) < 101:
        lower += [1, 1, rng.randint(1, 9)]
    counts = production_counts(lower[:101])
    lower_tight = all(counts[n] + 1 == (n + 2) // 3 for n in range(1, 101))
    upper = [0, 7] + [4 + 2 * rng.randint(0, 4) for _ in range(99)]
    counts = production_counts(upper)
    upper_tight = all(counts[n] == 3 * n - 1 for n in range(1, 101))
    _report("criterion 4: production bounds hold and both families are tight",
            lower_tight and upper_tight)


def test_criterion_5_dyadic_witnesses():
    rng = random.Random(271828)
    max_k = 0
    for _ in range(100):
        s = random_surd(rng)
        w = witness_q(s)
        max_k = max(max_k, w.k)
        assert w.k <= 59
        assert w.q % (1 << w.k) == 0 and w.q > 0
        assert w.value < Fraction(1, 15)
        # independent recomputation of q * |q|_2 * ||q s|| as an exact surd
        t = linear_fractional(s, w.q, 0, 0, 1)
        frac = linear_fractional(t, 1, -t.floor(), 0, 1)
        if frac.cmp(Fraction(1, 2)) > 0:
            frac = linear_fractional(frac, -1, 1, 0, 1)
        product = linear_fractional(frac, w.q, 0, 0, 1 << two_adic_valuation(w.q))
        assert product.cmp(Fraction(1, 15)) < 0
    _report("criterion 5: 100 dyadic witnesses certified below 1/15",
            True, f"max k = {max_k}")


def test_criterion_6_constant_b_chains():
    ok = True
    for m in (3, 5, 7):
        beta = family_chain(m, 10)
        for k in range(11):
            ok = ok and b_value(mul_pow2(beta, k)) == m
    _report("criterion 6: chains keep the period maximum at m for k <= 10", ok)


def test_criterion_7_two_of_three():
    rng = random.Random(1009)
    reps = [family_member(3), family_member(5),
            surd_of_periodic_cf(parse_cf("[(5; 1, 2, 2, 1)]"))]
    for rep in reps:
        key = class_key(rep)
        word = expand_surd(rep).period
        for _ in range(1000):
            pre = tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6)))
            member = surd_of_periodic_cf(CF(rng.randint(0, 3), pre, word))
            assert len(two_of_three(member, key)) == 2
    _report("criterion 7: exactly two equivalent images for 3x1000 class members", True)


def test_criterion_8_b2_characterization_exhaustive():
    start = time.monotonic()
    violations = verify_b2_exhaustive(12, 6)
    elapsed = time.monotonic() - start
    _report("criterion 8: B<=2 characterization holds exhaustively",
            violations == [] and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_9_falsifiers():
    start = time.monotonic()
    r2 = falsify_b_bound(2, 8)
    r3 = falsify_b_bound(3, 8)
    r4 = falsify_b_bound(4, 8, preperiod_len_max=1)
    ok = (r2.counterexamples == [] and r3.counterexamples == []
          and r4.counterexamples == [])
    ok = ok and r3.whitelisted and all(h.b_exit == 8 for h in r3.whitelisted)
    _report("criterion 9: no counterexamples; whitelisted class exits at B = 8",
            bool(ok), f"{len(r3.whitelisted)} whitelisted, {time.monotonic()-start:.1f}s")


def test_criterion_10_scanner_fixtures():
    hits = scan_self_similar(2089, 6, d_min=2089)
    target = class_key(QuadraticSurd(1, 2089, 6))
    found = [h for h in hits if h.key == target]
    ok = bool(found) and found[0].period_max == 14

    full = scan_self_similar(10_000, 200)
    ok = ok and not any(h.period_len <= 2 for h in full)
    len3 = [h for h in full if h.period_len == 3]
    ok = ok and len3 and all(h.key == (1, 1, 3) for h in len3)
    _report("criterion 10: scanner reports the expected classes",
            bool(ok), f"{len(full)} classes at D<=10^4")
