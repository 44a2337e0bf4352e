import ast
import itertools
import random
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import example, given, strategies as st

import cf2
from conftest import child_env, random_surd
from cf2.cf import CF, cf_of_rational, eval_finite, parse_cf, reciprocal
from cf2.doubling import (
    DoublingState,
    WindowCase,
    _double_periodic,
    _fed,
    _feed,
    production_counts,
    classify_windows,
    double_cf,
    double_stream,
    halve_cf,
    halve_plus1_cf,
    production_bounds_check,
    trio,
)
from cf2.surd import (
    QuadraticSurd,
    double_surd,
    expand_surd,
    halve_plus1_surd,
    halve_surd,
    surd_of_periodic_cf,
)

A311 = parse_cf("[(3; 1, 1)]")


class _Stall(Exception):
    """The digit source ended while the window machine still needed input."""


class _WindowMachine:
    """Reference x2 machine, one window per step: the independent formulation of `_feed`.

    It reads 1-2 digits and emits 2-3 raw digits per window, records every raw
    digit in `raw` and the case of each window index in `cases`, and raises
    `_Stall` when the source ends.
    """

    def __init__(self, digits):
        self._src = iter(digits)
        self.pending = False
        self.cleaned = []
        self.anchor = 0
        self.decremented = False
        self.a_cur = None
        self.cases = {}
        self.raw = []
        self._emit(2 * self._take())

    def _take(self):
        try:
            return next(self._src)
        except StopIteration:
            raise _Stall from None

    def _emit(self, d):
        self.raw.append(d)
        if not self.cleaned:
            self.cleaned.append(d)
        elif d == 0:
            if self.pending:
                raise ValueError("adjacent raw zeros")
            self.pending = True
        elif self.pending:
            self.cleaned[-1] += d
            self.pending = False
        else:
            self.cleaned.append(d)

    def step(self):
        if self.a_cur is None:
            self.a_cur = self._take()
            self.anchor = 1
            self.decremented = False
            self.cases[1] = WindowCase.FRESH
        a = self.a_cur
        if a % 2 == 0:
            self._emit(a // 2)  # depends only on the head; emit before the read
            b = self._take()
            self.cases[self.anchor + 1] = WindowCase.SKIPPED
            self._emit(2 * b)
            new_anchor = self.anchor + 2
            decremented = False
        else:
            self._emit((a - 1) // 2)
            self._emit(1)
            self._emit(1)
            new_anchor = self.anchor + 1
            decremented = True
        self.a_cur = None  # emissions stand even if the refill below raises
        nxt = self._take()
        self.a_cur = nxt - 1 if decremented else nxt
        self.anchor = new_anchor
        self.decremented = decremented
        self.cases[new_anchor] = WindowCase.DECREMENTED if decremented else WindowCase.FRESH

    def run(self):
        """Step until the source stalls; returns self."""
        try:
            while True:
                self.step()
        except _Stall:
            return self


def test_raw_trace_of_period_311():
    machine = _WindowMachine(A311.digits())
    for _ in range(5):
        machine.step()
    assert machine.raw[:11] == [6, 0, 1, 1, 0, 6, 0, 1, 1, 0, 6]
    assert machine.cleaned[:3] == [7, 8, 8]


def test_stream_cleanup_and_finality():
    out = list(itertools.islice(double_stream(A311.digits()), 10))
    assert out == [7] + [8] * 9


def test_stream_rejects_finite_and_bad_digits():
    with pytest.raises(ValueError):
        list(double_stream(iter([1, 2, 2, 2])))


def doubled_digit_prefix(digits: Sequence[int], count: int) -> list[int]:
    """First `count` final digits of 2x from a finite digit prefix of x."""
    *_, machine = _fed(digits)
    final = machine.cleaned[:-1]
    if len(final) < count:
        raise ValueError("not enough input digits")
    return final[:count]


def test_zero_body_digit_rejected_by_every_driver():
    digits = [1, 2, 0, 2]
    message = "body digit must be a positive integer, got 0"
    with pytest.raises(ValueError, match=message):
        list(itertools.islice(double_stream(iter(digits)), 4))
    with pytest.raises(ValueError, match=message):
        list(_fed(digits))
    with pytest.raises(ValueError, match=message):
        production_counts(digits)
    with pytest.raises(ValueError, match=message):
        doubled_digit_prefix(digits, 1)


@pytest.mark.parametrize("bad", [0, "3", -2, 1.5])
def test_stream_digit_error_is_the_cf_error(bad):
    with pytest.raises(ValueError) as checked:
        CF(1, (2, bad, 2))
    with pytest.raises(ValueError) as streamed:
        list(itertools.islice(double_stream(iter([1, 2, bad, 2])), 4))
    machine = DoublingState(0)
    with pytest.raises(ValueError) as stepped:
        machine.step(bad)
    assert str(streamed.value) == str(stepped.value) == str(checked.value)
    assert str(checked.value) == f"body digit must be a positive integer, got {bad!r}"
    assert (machine.state, machine.cleaned) == (0, [0])  # the digit was not pushed


def test_machine_integer_part_error_is_the_cf_error():
    with pytest.raises(ValueError) as checked:
        CF(0.5, (1,))
    assert str(checked.value) == "integer part must be an int, got 0.5"
    with pytest.raises(ValueError) as built:
        DoublingState(0.5)
    with pytest.raises(ValueError) as streamed:
        next(double_stream(itertools.chain([0.5], itertools.repeat(1))))
    assert str(built.value) == str(streamed.value) == str(checked.value)


@given(st.integers(-3, 5), st.lists(st.one_of(st.integers(1, 3), st.integers(1, 40)), max_size=40))
@example(0, [1, 2, 1, 1, 3])
@example(2, [1, 1, 1, 1, 1, 1])
def test_transducer_matches_window_machine(a0, body):
    """After every digit, `_feed` holds the cleaned digits and the window case
    that the window machine reaches on that many digits."""
    reference = _WindowMachine([a0, *body]).run()
    machine = DoublingState(a0)
    counts = production_counts([a0, *body])
    for n, d in enumerate(body, 1):
        assert machine.case == reference.cases[n]
        machine.step(d)
        stalled = _WindowMachine([a0, *body[:n]]).run().cleaned
        assert machine.cleaned == stalled
        assert counts[n] == len(stalled) - 2
    cleaned = [2 * a0]
    _feed(0, cleaned, body)
    assert cleaned == machine.cleaned == reference.cleaned


def test_results_hold_without_asserts():
    """`python -O` strips assert statements; no result may depend on one."""
    script = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "from cf2 import (double_cf, expand_surd, family_chain, halve_cf, halve_plus1_cf,",
        "                 interval_bounds, parse_cf, parse_surd, verify_b2_exhaustive, witness_q)",
        "from cf2.cf import cf_of_rational, reciprocal",
        "print(sys.flags.optimize)",
        "print(verify_b2_exhaustive(6, 3))",
        "print(double_cf(parse_cf('[0; 2, (1, 1, 3)]')))",
        "print(halve_cf(parse_cf('[(3; 1, 1)]')))",
        "print(halve_plus1_cf(parse_cf('[(3; 1, 1)]')))",
        "print(family_chain(3, 4))",
        "w = witness_q(parse_surd('(3 + sqrt(17))/2'))",
        "print(w.q, w.value)",
        "print(*interval_bounds((1, 2), 3))",
        "print(expand_surd(parse_surd('(1 + sqrt(3))/5')))",
        "print(reciprocal(parse_cf('[0; 2, (1, 1, 3)]')))",
        "print(cf_of_rational(Fraction(-17, 12)))",
    ])
    done = subprocess.run([sys.executable, "-O", "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "1", "[]", "[0; (1, 3, 1)]", "[(1; 1, 3)]", "[2; (3, 1, 1)]",
        "(23 + sqrt(17))/32", "16 1/64", "206/297 67/91",
        "[0; 1, (1, 4, 1, 7)]", "[2; (1, 1, 3)]", "[-2; 1, 1, 2, 2]"]


def test_src_has_no_assert():
    """`python -O` covers only the paths it runs; no statement in src/ may be an assert."""
    src = Path(cf2.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        nodes = ast.walk(ast.parse(path.read_text(), str(path)))
        assert not [node.lineno for node in nodes if isinstance(node, ast.Assert)], path.name


def test_double_cf_worked_examples():
    assert str(double_cf(A311)) == "[7; (8)]"
    two_a = double_cf(parse_cf("[0; 2, (1, 1, 3)]"))
    assert str(two_a) == "[0; (1, 3, 1)]"
    assert str(double_cf(two_a)) == "[1; (1, 1, 3)]"
    assert str(double_cf(parse_cf("[0; 1, (2)]"))) == "[1; (2)]"
    assert str(double_cf(parse_cf("[0; (1)]"))) == "[1; (4)]"


def test_halving_worked_examples():
    assert str(halve_cf(A311)) == "[(1; 1, 3)]"
    assert str(halve_plus1_cf(A311)) == "[2; (3, 1, 1)]"
    assert str(halve_plus1_cf(parse_cf("[(1; 1, 3)]"))) == "[1; 2, (1, 1, 3)]"


def test_finite_inputs_use_exact_rational_arithmetic():
    assert double_cf(CF(1, (2, 2, 2))) == cf_of_rational(eval_finite(CF(1, (2, 2, 2))) * 2)
    assert halve_cf(CF(0, (2,))) == cf_of_rational(eval_finite(CF(0, (2,))) / 2)
    assert halve_plus1_cf(CF(3,)) == cf_of_rational(2)


def test_double_cf_matches_surd_oracle():
    rng = random.Random(97)
    for _ in range(150):
        s = random_surd(rng, d_max=10**5)
        cf = expand_surd(s)
        assert double_cf(cf) == expand_surd(double_surd(s))


def test_halves_match_surd_oracle():
    rng = random.Random(101)
    for _ in range(100):
        s = random_surd(rng, d_max=10**5)
        if s.cmp(0) <= 0:
            s = QuadraticSurd(s.P, s.D, -s.Q)
        cf = expand_surd(s)
        assert halve_cf(cf) == expand_surd(halve_surd(s))
        assert halve_plus1_cf(cf) == expand_surd(halve_plus1_surd(s))


def test_stream_determinism_of_finalized_prefix():
    rng = random.Random(103)
    for _ in range(40):
        digits = [rng.randint(0, 3)] + [rng.randint(1, 8) for _ in range(60)]
        final = production_counts(digits[:40])[39] + 1  # all cleaned digits but the last
        assert doubled_digit_prefix(digits, final) == doubled_digit_prefix(digits[:40], final)


def test_prefix_determination_3l_plus_1():
    # the first 3l+1 body digits of x pin down the first l digits of 2x
    rng = random.Random(107)
    for _ in range(30):
        l = rng.randint(1, 30)
        shared = [rng.randint(0, 2)] + [rng.randint(1, 7) for _ in range(3 * l + 1)]
        a = shared + [rng.randint(1, 7) for _ in range(40)]
        b = shared + [rng.randint(1, 7) for _ in range(40)]
        assert doubled_digit_prefix(a, l) == doubled_digit_prefix(b, l)


def test_production_bounds_random_streams():
    rng = random.Random(109)
    for _ in range(200):
        digits = [rng.randint(-2, 5)] + [rng.randint(1, 9) for _ in range(100)]
        counts = production_counts(digits)
        for n in range(1, 101):
            assert production_bounds_check(n, counts[n])


def test_production_lower_tight_family():
    digits = [2]
    rng = random.Random(113)
    while len(digits) < 102:
        digits += [1, 1, rng.randint(1, 9)]
    counts = production_counts(digits[:101])
    for n in range(1, 101):
        assert counts[n] + 1 == (n + 2) // 3


def test_production_upper_tight_family():
    rng = random.Random(127)
    digits = [1, 5] + [4 + 2 * rng.randint(0, 3) for _ in range(99)]
    counts = production_counts(digits)
    for n in range(1, 101):
        assert counts[n] == 3 * n - 1


def test_classify_windows_alternating_evens():
    cases = classify_windows(parse_cf("[0; 2, (2)]"), 9)
    assert cases[0] == WindowCase.FRESH
    assert cases[1:] == [WindowCase.SKIPPED, WindowCase.FRESH] * 4


def test_classify_windows_needs_digits_through_n_max():
    with pytest.raises(ValueError, match="^digit source exhausted$"):
        classify_windows(CF(1, (2, 2, 2)), 4)  # five digits a_0 .. a_4 needed, four given
    with pytest.raises(ValueError, match="^digit source exhausted$"):
        classify_windows([0, 1, 2], 3)
    assert len(classify_windows([0, 1, 2, 3], 3)) == 3


def test_classify_windows_matches_machine():
    rng = random.Random(131)
    for _ in range(50):
        cf = CF(0, (), tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 6))))
        predicted = classify_windows(cf, 25)
        digits = cf.digits()
        machine = DoublingState(next(digits))
        for n in range(1, 26):
            assert predicted[n - 1] == machine.case, (cf, n)
            machine.step(next(digits))


def test_trio_cases_never_collide():
    rng = random.Random(137)
    surds = [QuadraticSurd(3, 17, 2), QuadraticSurd(1, 5, 2), QuadraticSurd(-1, 17, 8)]
    surds += [random_surd(rng, d_max=10**4) for _ in range(25)]
    for s in surds:
        if s.cmp(0) <= 0:
            s = QuadraticSurd(s.P, s.D, -s.Q)
        result = trio(s, n_max=40)
        seen = [n for n in result.cases if n >= 2]
        assert len(seen) >= 10
        for n in seen:
            assert set(result.cases[n]) == {WindowCase.FRESH, WindowCase.DECREMENTED,
                                            WindowCase.SKIPPED}


@pytest.mark.parametrize("literal, keys, first_rows", [
    ("[(3; 1, 1)]", range(1, 7), ["FRESH DECREMENTED SKIPPED", "DECREMENTED SKIPPED FRESH"]),
    ("[2; 3, (4, 1)]", range(1, 7), ["FRESH SKIPPED DECREMENTED", "DECREMENTED FRESH SKIPPED"]),
    ("[0; (1, 2)]", range(2, 7), ["DECREMENTED FRESH SKIPPED", "DECREMENTED SKIPPED FRESH"]),
])
def test_trio_case_index_alignment(literal, keys, first_rows):
    """Golden rows: each feed's offset puts window n of every run at the same n."""
    cases = trio(surd_of_periodic_cf(parse_cf(literal)), n_max=6).cases
    assert list(cases) == list(keys)
    rows = [" ".join(c.name for c in cases[n]) for n in keys[:2]]
    assert rows == first_rows


def test_trio_values():
    result = trio(QuadraticSurd(3, 17, 2))
    assert str(result.double) == "[7; (8)]"
    assert str(result.half) == "[(1; 1, 3)]"
    assert str(result.half_plus1) == "[2; (3, 1, 1)]"
    assert surd_of_periodic_cf(result.double) == double_surd(QuadraticSurd(3, 17, 2))


def test_renormalization_of_leading_zero_pair():
    # 2x with x in (1/2, 1): the integer part comes out of the merge rule
    cf = parse_cf("[0; 1, 4, (3)]")
    doubled = double_cf(cf)
    assert doubled.a0 == 1
    assert doubled == expand_surd(double_surd(surd_of_periodic_cf(cf)))


def test_merge_heavy_inputs_match_oracle():
    # small digit alphabets exercise long clean-up cascades
    rng = random.Random(314159)
    for digit_max in (1, 2, 3):
        for _ in range(300):
            pre = tuple(rng.randint(1, max(digit_max, 2)) for _ in range(rng.randint(0, 6)))
            per = tuple(rng.randint(1, digit_max) for _ in range(rng.randint(1, 7)))
            cf = CF(rng.randint(0, 3), pre, per)
            s = surd_of_periodic_cf(cf)
            assert double_cf(cf) == expand_surd(double_surd(s)), cf
            assert halve_cf(cf) == expand_surd(halve_surd(s)), cf
            assert halve_plus1_cf(cf) == expand_surd(halve_plus1_surd(s)), cf


def _stepwise_double(cf: CF) -> CF:
    """2x from the window machine, snapshotting after every window."""
    npre, plen = len(cf.pre), len(cf.period)
    machine = _WindowMachine(cf.digits())
    snapshots = {}
    while True:
        machine.step()
        if machine.anchor <= npre:
            continue
        state = ((machine.anchor - npre - 1) % plen, machine.decremented,
                 machine.pending, machine.cleaned[-1])
        first = snapshots.get(state)
        if first is not None:
            break
        snapshots[state] = len(machine.cleaned)
    d = machine.cleaned
    return CF(d[0], tuple(d[1:first - 1]), tuple(d[first - 1:-1]))


_digit = st.one_of(st.integers(1, 4), st.integers(1, 15).map(lambda d: 2 * d))


@st.composite
def _periodic_cfs(draw):
    plen = draw(st.one_of(st.sampled_from((1, 2)), st.integers(1, 9)))
    period = tuple(draw(st.lists(_digit, min_size=plen, max_size=plen)))
    pre = tuple(draw(st.lists(_digit, max_size=5)))
    return CF(draw(st.integers(-3, 5)), pre, period)


@given(_periodic_cfs())
@example(CF(0, (1,), (2,)))
@example(CF(0, (4,), (2,)))
@example(CF(3, (2, 1), (1, 2)))
@example(CF(-3, (), (1,)))
def test_flat_doubling_matches_stepwise_machine_and_surds(cf):
    """The flat kernel against the window machine and exact surd arithmetic."""
    doubled = _stepwise_double(cf)
    assert CF(*_double_periodic(cf.a0, cf.pre, cf.period)) == doubled
    s = surd_of_periodic_cf(cf)
    assert double_cf(cf) == doubled == expand_surd(double_surd(s))
    if cf.a0 >= 0:
        half = _stepwise_double(reciprocal(cf))
        assert halve_cf(cf) == reciprocal(half) == expand_surd(halve_surd(s))
        half1 = _stepwise_double(reciprocal(CF(cf.a0 + 1, cf.pre, cf.period)))
        assert halve_plus1_cf(cf) == reciprocal(half1) == expand_surd(halve_plus1_surd(s))
