"""Streaming multiplication of a continued fraction by 2, and its halving variants.

The machine slides a window along the input digits.  An even window head a
records a/2 and 2b (consuming the following digit b); an odd head records
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

from .cf import CF, add_int, cf_of_rational, convergents, eval_finite, reciprocal
from .surd import QuadraticSurd, expand_surd


class ExhaustedStream(Exception):
    """The digit source ended while the machine still needed input."""


class WindowCase(enum.Enum):
    FRESH = 1        # window (a_n, a_{n+1}, a_{n+2}) entered as-is
    DECREMENTED = 2  # window entered as (a_n - 1, a_{n+1}, a_{n+2})
    SKIPPED = 3      # a_n consumed as the middle digit; 2*a_n was recorded


class DoublingState:
    """Single-owner machine computing the digits of 2x from the digits of x."""

    def __init__(self, digits: Iterable[int], record_cases: bool = False,
                 record_raw: bool = False):
        self._src = iter(digits)
        self.pending = False
        self.cleaned: list[int] = []
        self.anchor = 0
        self.decremented = False
        self.dead = False
        self.a_cur: int | None = None
        self.cases: dict[int, WindowCase] | None = {} if record_cases else None
        self.raw: list[int] | None = [] if record_raw else None
        a0 = self._take()
        self._emit(2 * a0)

    def _take(self) -> int:
        if self.dead:
            raise ExhaustedStream
        try:
            d = next(self._src)
        except StopIteration:
            self.dead = True
            raise ExhaustedStream from None
        return d

    def _emit(self, d: int):
        if self.raw is not None:
            self.raw.append(d)
        if not self.cleaned:
            self.cleaned.append(d)
            return
        if d == 0:
            if self.pending:
                raise ValueError("adjacent raw zeros: body digits must be positive")
            self.pending = True
        elif self.pending:
            self.cleaned[-1] += d
            self.pending = False
        else:
            self.cleaned.append(d)

    def _record(self, idx: int, case: WindowCase):
        if self.cases is not None:
            self.cases[idx] = case

    def step(self):
        """Process one window; consumes 1-2 digits, emits 2-3 raw digits."""
        if self.a_cur is None:
            self.a_cur = self._take()
            self.anchor = 1
            self.decremented = False
            self._record(1, WindowCase.FRESH)
        a = self.a_cur
        if a % 2 == 0:
            self._emit(a // 2)  # depends only on the head; emit before the read
            b = self._take()
            self._record(self.anchor + 1, WindowCase.SKIPPED)
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
        self._record(new_anchor, WindowCase.DECREMENTED if decremented else WindowCase.FRESH)


def _checked_digits(src: Iterable[int]) -> Iterator[int]:
    it = iter(src)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty digit source") from None
    yield first
    for d in it:
        if not isinstance(d, int) or d < 1:
            raise ValueError(f"body digit must be a positive integer, got {d!r}")
        yield d


def double_stream(src: Iterable[int]) -> Iterator[int]:
    """Digits of 2x from an endless digit source for x (a0 first).

    Yields each cleaned digit once it is final.  A finite source is an
    error; double rationals exactly instead.
    """
    machine = DoublingState(_checked_digits(src))
    emitted = 0
    while True:
        try:
            machine.step()
        except ExhaustedStream:
            raise ValueError("digit source exhausted (finite inputs double exactly as rationals)") from None
        while emitted < len(machine.cleaned) - 1:
            yield machine.cleaned[emitted]
            emitted += 1


def feed_digits(digits: Sequence[int]) -> DoublingState:
    """Run the machine over a finite digit list until it stalls."""
    machine = DoublingState(iter(digits))
    while True:
        try:
            machine.step()
        except ExhaustedStream:
            return machine


def production_bounds_check(n: int, m: int) -> bool:
    """floor((n+2)/3) - 1 <= m <= 3n - 1 for n+1 digits in, m+2 cleaned out."""
    return (n + 2) // 3 - 1 <= m <= 3 * n - 1


def production_counts(digits: Sequence[int]) -> dict[int, int]:
    """counts[n] = the m reached with the digit budget a_0..a_n, in one pass.

    The machine is deterministic, so its state when it first asks for digit
    n+1 equals its stall state under a budget of n+1 digits.
    """
    cell: list[DoublingState] = []
    counts: dict[int, int] = {}

    def src():
        for j, d in enumerate(digits):
            if cell:
                counts[j - 1] = len(cell[0].cleaned) - 2
            yield d

    machine = DoublingState(src())
    cell.append(machine)
    try:
        while True:
            machine.step()
    except ExhaustedStream:
        pass
    counts[len(digits) - 1] = len(machine.cleaned) - 2
    return counts


_State = tuple[int, bool, bool, int]  # (period offset, decremented, pending, cleaned[-1])
_Tail = tuple[tuple[int, ...], tuple[int, ...]]  # (preperiod, period) of 2x after the head


def _double_periodic(cf: CF, tails: dict[tuple[tuple[int, ...], _State], _Tail] | None = None
                     ) -> tuple[tuple[int, ...], _Tail]:
    """Digits of 2x for eventually periodic x, as (frozen head, (tail preperiod, period)).

    The DoublingState machine as one flat loop over the digit list.  The
    head is every digit frozen when the window anchor first enters the
    period of x.  From there the output is a function of the period word and
    the snapshot (period offset, decremented, pending, last cleaned digit):
    the earlier digits are frozen and the window head is
    period[offset] - decremented.  Snapshots are taken at period entry and
    then once per lap, at the first step whose anchor reaches the next lap
    boundary; the next snapshot is a function of the last one, so a repeat
    closes a cycle of the output.  Given `tails`, the continuation is looked
    up under the entry key, and stored there after a miss, so inputs sharing
    a period entry run the cycle detection once.  The period returned need
    not be primitive nor the tail preperiod minimal.

    Every step ends on a nonzero raw digit (2b or 1), so no zero is pending
    between steps: a raw zero at the start of a step (head 0 or 1) is merged
    at once, and `pending` is False in every snapshot.
    """
    period = cf.period
    plen = len(period)
    base = 1 + len(cf.pre)  # index of the first period digit
    boundary = base  # the next snapshot is due once anchor >= boundary
    digits = [cf.a0, *cf.pre]
    while len(digits) < boundary + 3:
        digits += period
    cleaned = [2 * cf.a0]
    anchor, head_digit, decremented = 1, digits[1], False
    laps: dict[_State, int] = {}
    while True:
        # Here anchor <= boundary, and a step reads at most digits[anchor + 2].
        if head_digit & 1:
            if head_digit == 1:  # raw 0, 1, 1: the zero merges the first 1
                cleaned[-1] += 1
            else:
                cleaned.append(head_digit >> 1)
                cleaned.append(1)
            cleaned.append(1)
            anchor += 1
            head_digit = digits[anchor] - 1
            decremented = True
        else:
            if head_digit:
                cleaned.append(head_digit >> 1)
                cleaned.append(2 * digits[anchor + 1])
            else:  # raw 0, 2b: the zero merges 2b
                cleaned[-1] += 2 * digits[anchor + 1]
            anchor += 2
            head_digit = digits[anchor]
            decremented = False
        if anchor < boundary:
            continue
        offset = (anchor - base) % plen
        state = (offset, decremented, False, cleaned[-1])
        first = laps.get(state)
        if first is not None:
            break
        if not laps:  # period entry
            head = tuple(cleaned[:-1])
            key = (period, state)
            if tails is not None and key in tails:
                return head, tails[key]
        laps[state] = len(cleaned)
        boundary = anchor - offset + plen
        while len(digits) < boundary + 3:
            digits += period
    if not len(cleaned) > first > len(head):
        raise RuntimeError("doubling cycle closed without a period digit")
    tail = (tuple(cleaned[len(head):first - 1]), tuple(cleaned[first - 1:-1]))
    if tails is not None:
        tails[key] = tail
    return head, tail


def double_cf(cf: CF) -> CF:
    """Exact continued fraction of 2x for finite or eventually periodic x."""
    if cf.is_finite:
        return cf_of_rational(2 * eval_finite(cf))
    head, (tail_pre, period) = _double_periodic(cf)
    return CF(head[0], head[1:] + tail_pre, period)


def halve_cf(cf: CF) -> CF:
    """Exact continued fraction of x/2; requires x > 0."""
    if cf.is_finite:
        return cf_of_rational(eval_finite(cf) / 2)
    if cf.a0 < 0:
        raise ValueError("halving is defined here only for positive values")
    return reciprocal(double_cf(reciprocal(cf)))


def halve_plus1_cf(cf: CF) -> CF:
    """Exact continued fraction of (x+1)/2; requires x > 0."""
    if cf.is_finite:
        return cf_of_rational((eval_finite(cf) + 1) / 2)
    if cf.a0 < 0:
        raise ValueError("halving is defined here only for positive values")
    return reciprocal(double_cf(reciprocal(add_int(cf, 1))))


def classify_windows(cf: CF | Sequence[int], n_max: int) -> list[WindowCase]:
    """Predicted window case at each index 1..n_max from convergent parities.

    Index n >= 2 is FRESH iff q_{n-2} is even, DECREMENTED iff q_{n-2} and
    q_{n-1} are both odd, SKIPPED iff q_{n-1} is even; n = 1 is FRESH.
    """
    conv = convergents(cf, n_max)
    out = [WindowCase.FRESH]
    for n in range(2, n_max + 1):
        q1 = conv[n - 1].q % 2
        q2 = conv[n - 2].q % 2
        if q2 == 0:
            out.append(WindowCase.FRESH)
        elif q1 == 0:
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
    machine = DoublingState(feed, record_cases=True)
    try:
        while machine.anchor + offset <= n_max + 2:
            machine.step()
    except ExhaustedStream:
        pass
    if machine.cases is None:
        raise RuntimeError("the machine did not record window cases")
    return {i + offset: c for i, c in machine.cases.items() if 1 <= i + offset <= n_max}


def trio(s: QuadraticSurd, n_max: int = 60) -> TrioResult:
    """Expansions of 2s, s/2, (s+1)/2 with per-window case annotations.

    The three runs traverse the digits of s in pairwise distinct ways: at
    every window index covered by all three, the annotations are exactly
    {FRESH, DECREMENTED, SKIPPED}.
    """
    if s.cmp(0) <= 0:
        raise ValueError("trio requires a positive surd")
    alpha = expand_surd(s)

    def digit_feed() -> Iterator[int]:
        return alpha.digits()

    runs: dict[int, WindowCase] = _traced_cases(digit_feed(), 0, n_max)
    if alpha.a0 >= 1:
        half_feed = itertools.chain([0], digit_feed())
        half_off = -1
    else:
        body = digit_feed()
        next(body)
        half_feed = body
        half_off = 1
    plus_feed = itertools.chain([0, alpha.a0 + 1], itertools.islice(digit_feed(), 1, None))
    half_cases = _traced_cases(half_feed, half_off, n_max)
    plus_cases = _traced_cases(plus_feed, -1, n_max)
    common = sorted(set(runs) & set(half_cases) & set(plus_cases))
    cases = {n: (runs[n], half_cases[n], plus_cases[n]) for n in common}
    return TrioResult(double_cf(alpha), halve_cf(alpha), halve_plus1_cf(alpha), cases)


def doubled_digit_prefix(digits: Sequence[int], count: int) -> list[int]:
    """First `count` final digits of 2x from a finite digit prefix of x."""
    machine = feed_digits(digits)
    final = machine.cleaned[:-1]
    if len(final) < count:
        raise ValueError("not enough input digits")
    return final[:count]
