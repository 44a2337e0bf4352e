"""Multiplication of a continued fraction by 2, and its halving variants.

One finite-state transducer (`_feed`) reads the digits of x one at a time.
Its state is the case of the window at the next digit: an even window head
a records a/2 and 2b (consuming the following digit b); an odd head records
(a-1)/2, 1, 1 and decrements the next digit.  Raw zeros are removed
incrementally: a zero defers, and the following raw digit is added onto the
last cleaned digit.  Only the final cleaned digit is provisional; every
earlier digit is frozen as soon as a later one is appended.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .cf import (CF, Digits, _canonical_cf, _check_digit, _reciprocal_digits, _validate,
                 cf_of_rational, eval_finite, fold_word, reciprocal)
from .surd import QuadraticSurd, expand_surd


class WindowCase(enum.Enum):
    FRESH = 1        # window (a_n, a_{n+1}, a_{n+2}) entered as-is
    DECREMENTED = 2  # window entered as (a_n - 1, a_{n+1}, a_{n+2})
    SKIPPED = 3      # a_n consumed as the middle digit; 2*a_n was recorded


# State of `_feed` -> case of the window at the next digit.  State 3 is SKIPPED
# after a window head of 0: its raw 0 is pending, so 2b merges onto cleaned[-1].
_CASES = (WindowCase.FRESH, WindowCase.DECREMENTED, WindowCase.SKIPPED, WindowCase.SKIPPED)


def _feed(state: int, cleaned: list[int], digits: Iterable[int]) -> int:
    """Push body digits through the x2 transducer; returns the new state.

    `cleaned` (the digits of 2x so far, from 2*a0) is extended in place.
    Every raw digit is emitted as soon as the digits read fix it, so after
    each digit `cleaned` is what any budget of that many digits yields.
    """
    for d in digits:
        if state == 2:
            cleaned.append(2 * d)
            state = 0
        elif state == 3:  # raw 0, 2b: the zero merges 2b
            cleaned[-1] += 2 * d
            state = 0
        else:
            a = d - state  # the window head, decremented in state 1
            if a & 1:
                if a == 1:  # raw 0, 1, 1: the zero merges the first 1
                    cleaned[-1] += 1
                else:
                    cleaned.append(a >> 1)
                    cleaned.append(1)
                cleaned.append(1)
                state = 1
            elif a:
                cleaned.append(a >> 1)
                state = 2
            else:  # head 0: its raw 0 pends until b
                state = 3
    return state


class DoublingState:
    """The transducer for one stream: push the digits of x, read 2x from `cleaned`."""

    def __init__(self, a0: int):
        _validate(a0, ())
        self.cleaned = [2 * a0]
        self.state = 0

    def step(self, d: int):
        """Push one body digit d >= 1; any other d raises `CF(...)`'s ValueError."""
        _check_digit(d)
        self.state = _feed(self.state, self.cleaned, (d,))

    @property
    def case(self) -> WindowCase:
        """Window case at the next digit to push."""
        return _CASES[self.state]


def _fed(digits: Iterable[int]) -> Iterator[DoublingState]:
    """The one machine for a digit source (a0 first): yielded after a0, then after each digit."""
    it = iter(digits)
    try:
        machine = DoublingState(next(it))
    except StopIteration:
        raise ValueError("empty digit source") from None
    yield machine
    for d in it:
        machine.step(d)
        yield machine


def double_stream(src: Iterable[int]) -> Iterator[int]:
    """Digits of 2x from an endless digit source for x (a0 first).

    Yields each cleaned digit once it is final.  A finite source is an
    error; double rationals exactly instead.
    """
    emitted = 0
    for machine in _fed(src):
        cleaned = machine.cleaned
        while emitted < len(cleaned) - 1:
            yield cleaned[emitted]
            emitted += 1
    raise ValueError("digit source exhausted (finite inputs double exactly as rationals)")


def production_bounds_check(n: int, m: int) -> bool:
    """floor((n+2)/3) - 1 <= m <= 3n - 1 for n+1 digits in, m+2 cleaned out."""
    return (n + 2) // 3 - 1 <= m <= 3 * n - 1


def production_counts(digits: Sequence[int]) -> dict[int, int]:
    """counts[n] = the m reached with the digit budget a_0..a_n, in one pass."""
    return {n: len(machine.cleaned) - 2 for n, machine in enumerate(_fed(digits))}


def _double_periodic(a0: int, pre: Digits, period: Digits) -> tuple[int, Digits, Digits]:
    """Digits (a0, preperiod, period) of 2x for x = [a0; pre, (period)].

    `_feed` runs over the preperiod of x, then over one lap of its period per
    call.  What a lap appends, and what it merges onto the digit provisional
    at its start, depend only on the state at its start; so a repeated
    lap-start state closes a cycle of the output, and the digit provisional
    now ends up with the merges that the one provisional at the earlier lap
    start received.  The digits of x need not be canonical, and neither are
    the digits returned.
    """
    cleaned = [2 * a0]
    state = _feed(0, cleaned, pre)
    laps: dict[int, tuple[int, int]] = {}  # state -> (len(cleaned), cleaned[-1]) at lap start
    while state not in laps:
        laps[state] = len(cleaned), cleaned[-1]
        state = _feed(state, cleaned, period)
    start, provisional = laps[state]
    if len(cleaned) <= start:
        raise RuntimeError("doubling cycle closed without a period digit")
    last = cleaned[-1] + cleaned[start - 1] - provisional
    return cleaned[0], tuple(cleaned[1:start]), (*cleaned[start:-1], last)


def double_cf(cf: CF) -> CF:
    """Exact continued fraction of 2x for finite or eventually periodic x."""
    if cf.is_finite:
        return cf_of_rational(2 * eval_finite(cf))
    return _canonical_cf(*_double_periodic(cf.a0, cf.pre, cf.period))


def _halve(cf: CF, plus: int) -> CF:
    """(x + plus)/2: a finite x of any sign by exact rationals, a periodic x > 0 as
    1/(2 * (1/(x + plus))), canonicalizing only the result."""
    if cf.is_finite:
        return cf_of_rational((eval_finite(cf) + plus) / 2)
    if cf.a0 < 0:
        raise ValueError("halving a periodic value is defined here only for positive values")
    return _canonical_cf(*_reciprocal_digits(*_double_periodic(
        *_reciprocal_digits(cf.a0 + plus, cf.pre, cf.period))))


def halve_cf(cf: CF) -> CF:
    """Exact continued fraction of x/2; a periodic x must be positive."""
    return _halve(cf, 0)


def halve_plus1_cf(cf: CF) -> CF:
    """Exact continued fraction of (x+1)/2; a periodic x must be positive."""
    return _halve(cf, 1)


def classify_windows(cf: CF | Sequence[int], n_max: int) -> list[WindowCase]:
    """Predicted window case at each index 1..n_max from convergent parities.

    Index n is FRESH iff q_{n-2} is even, DECREMENTED iff q_{n-2} and
    q_{n-1} are both odd, SKIPPED iff q_{n-1} is even (q_{-1} = 0).  The
    source must supply the digits a_0 .. a_{n_max}.
    """
    digits = list(itertools.islice(cf.digits() if isinstance(cf, CF) else cf, n_max + 1))
    if len(digits) <= n_max:
        raise ValueError("digit source exhausted")
    out = []
    for n in range(1, n_max + 1):
        _, q1, _, q2 = fold_word(digits[:n])
        if q2 % 2 == 0:
            out.append(WindowCase.FRESH)
        elif q1 % 2 == 0:
            out.append(WindowCase.SKIPPED)
        else:
            out.append(WindowCase.DECREMENTED)
    return out


@dataclass(frozen=True)
class TrioResult:
    double: CF
    half: CF
    half_plus1: CF
    cases: dict[int, tuple[WindowCase, WindowCase, WindowCase]]


def _traced_cases(feed: Iterator[int], offset: int, n_max: int) -> dict[int, WindowCase]:
    # window n is read with digit n - offset next; zip pushes no digit after window n_max
    windows = zip(range(1 + offset, n_max + 1), _fed(feed))
    return {n: machine.case for n, machine in windows if n >= 1}


def trio(s: QuadraticSurd, n_max: int = 60) -> TrioResult:
    """Expansions of 2s, s/2, (s+1)/2 with per-window case annotations.

    The three runs traverse the digits of s in pairwise distinct ways: at
    every window index covered by all three, the annotations are exactly
    {FRESH, DECREMENTED, SKIPPED}.
    """
    if s.cmp(0) <= 0:
        raise ValueError("trio requires a positive surd")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    alpha = expand_surd(s)
    runs: dict[int, WindowCase] = _traced_cases(alpha.digits(), 0, n_max)
    half_feed = reciprocal(alpha).digits()
    plus_feed = _canonical_cf(*_reciprocal_digits(alpha.a0 + 1, alpha.pre, alpha.period)).digits()
    half_cases = _traced_cases(half_feed, -1 if alpha.a0 >= 1 else 1, n_max)
    plus_cases = _traced_cases(plus_feed, -1, n_max)
    common = sorted(set(runs) & set(half_cases) & set(plus_cases))
    cases = {n: (runs[n], half_cases[n], plus_cases[n]) for n in common}
    return TrioResult(double_cf(alpha), halve_cf(alpha), halve_plus1_cf(alpha), cases)
