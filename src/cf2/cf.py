"""Exact continued fractions with canonical finite and eventually periodic forms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

Digits = tuple[int, ...]
_INT = frozenset({int})


class LiteralParseError(ValueError):
    """Malformed literal; `pos` is the offending index."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class CFParseError(LiteralParseError):
    """Malformed continued-fraction literal."""


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def primitive_word(word: Digits) -> Digits:
    """Shortest word whose repetition equals `word`.

    The lengths p dividing n = len(word) for which `word` is p-periodic are
    the multiples of the primitive length that divide n, so it is reached by
    dividing n by each prime l while the word stays periodic at the quotient.
    """
    n = len(word)
    p = n
    for l in _prime_factors(n):
        while p % l == 0 and word[:p // l] * (n * l // p) == word:
            p //= l
    return word[:p]


def least_rotation(word: Digits) -> Digits:
    """Lexicographically least rotation of `word`, in O(len(word)).

    Two-pointer minimum-rotation scan: i and j are candidate starts and k
    the length of their common run.  At the first mismatch the larger side
    loses, and with it every start inside its run, so it jumps past the run.
    """
    n = len(word)
    ww = word + word
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = ww[i + k], ww[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return ww[i:i + n]


@dataclass(frozen=True)
class CF:
    """Continued fraction [a0; d1, d2, ...], finite or eventually periodic.

    `period == ()` means the value is rational (finite body).  Construction
    canonicalizes: body digits are positive, a finite body never ends in 1,
    the period is primitive, and the preperiod is minimal (a preperiod digit
    equal to the last period digit is absorbed by rotating the period).
    """

    a0: int
    pre: Digits = ()
    period: Digits = ()

    def __post_init__(self):
        a0 = self.a0
        pre = tuple(self.pre)
        period = tuple(self.period)
        body = pre + period
        if body and not (set(map(type, body)) <= _INT and min(body) >= 1):
            for d in body:  # name the first offender; int subclasses pass as before
                if not isinstance(d, int) or d < 1:
                    raise ValueError(f"body digit must be a positive integer, got {d!r}")
        if not isinstance(a0, int):
            raise ValueError(f"integer part must be an int, got {a0!r}")
        if period:
            period = primitive_word(period)
            # Absorb the preperiod digits that continue the period backwards.
            n, m = len(pre), len(period)
            k = 0
            while k < n and pre[n - 1 - k] == period[-1 - k % m]:
                k += 1
            if k:
                pre = pre[:n - k]
                k %= m
                period = period[m - k:] + period[:m - k]
        else:
            # Fold a trailing 1 so rationals have a unique representation.
            if len(pre) >= 2 and pre[-1] == 1:
                pre = pre[:-2] + (pre[-2] + 1,)
            elif pre == (1,):
                a0 += 1
                pre = ()
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)

    @property
    def is_finite(self) -> bool:
        return not self.period

    @property
    def is_purely_periodic(self) -> bool:
        return bool(self.period) and not self.pre and self.period[-1] == self.a0

    def digits(self) -> Iterator[int]:
        """Yield a0 then the body digits (endless for periodic fractions)."""
        yield self.a0
        yield from self.pre
        if self.period:
            yield from itertools.cycle(self.period)

    def digit_prefix(self, n: int) -> list[int]:
        """First n digits (a0 counts); raises if a finite body is too short."""
        out = list(itertools.islice(self.digits(), n))
        if len(out) < n:
            raise ValueError("digit source exhausted")
        return out

    def value(self) -> Fraction:
        if not self.is_finite:
            raise ValueError("only a finite continued fraction has a rational value")
        return eval_finite(self)

    def __str__(self) -> str:
        if self.is_purely_periodic:
            head = self.period[:-1]
            if head:
                return f"[({self.a0}; {', '.join(map(str, head))})]"
            return f"[({self.a0})]"
        parts = ", ".join(map(str, self.pre))
        if self.period:
            tail = f"({', '.join(map(str, self.period))})"
            body = f"{parts}, {tail}" if parts else tail
            return f"[{self.a0}; {body}]"
        if parts:
            return f"[{self.a0}; {parts}]"
        return f"[{self.a0}]"


class Convergent(NamedTuple):
    p: int
    q: int
    index: int


def cf_of_rational(r: Fraction | int) -> CF:
    """Canonical (Euclidean) expansion of a rational number."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    a, rem = divmod(p, q)
    digits = []
    while rem:
        p, q = q, rem
        d, rem = divmod(p, q)
        digits.append(d)
    return CF(a, tuple(digits))


def eval_finite(cf: CF) -> Fraction:
    """Exact value of a finite continued fraction."""
    if not cf.is_finite:
        raise ValueError("continued fraction is not finite")
    val = Fraction(0)
    for d in reversed(cf.pre):
        val = 1 / (d + val)
    return cf.a0 + val


def convergents(cf: CF | Iterable[int], n: int) -> list[Convergent]:
    """Convergents p_0/q_0 .. p_n/q_n of the first n+1 digits.

    Satisfies q_{k+1} = a_{k+1} q_k + q_{k-1} and p_k q_{k-1} - p_{k-1} q_k = (-1)^{k-1}.
    """
    source = cf.digits() if isinstance(cf, CF) else iter(cf)
    p_prev, q_prev = 1, 0
    p_cur = q_cur = None
    out: list[Convergent] = []
    for k in range(n + 1):
        try:
            d = next(source)
        except StopIteration:
            raise ValueError("digit source exhausted") from None
        if k == 0:
            p_cur, q_cur = d, 1
        else:
            p_cur, p_prev = d * p_cur + p_prev, p_cur
            q_cur, q_prev = d * q_cur + q_prev, q_cur
        out.append(Convergent(p_cur, q_cur, k))
    return out


def fold_word(word: Iterable[int]) -> tuple[int, int, int, int]:
    """Fold digits into the final two convergent pairs (p1, q1, p0, q0)."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = None, None
    for d in word:
        if p_cur is None:
            p_cur, q_cur = d, 1
        else:
            p_cur, p_prev = d * p_cur + p_prev, p_cur
            q_cur, q_prev = d * q_cur + q_prev, q_cur
    if p_cur is None:
        raise ValueError("empty word")
    return p_cur, q_cur, p_prev, q_prev


def _reciprocal_digits(a0: int, pre: Digits, period: Digits) -> tuple[int, Digits, Digits]:
    """Digits of 1/x from the digits of x > 0, canonical or not."""
    if a0 >= 1:
        return 0, (a0,) + pre, period
    if a0 != 0:
        raise ValueError("reciprocal defined here only for positive values")
    if pre:
        return pre[0], pre[1:], period
    if period:
        return period[0], (), period[1:] + period[:1]
    raise ZeroDivisionError("reciprocal of zero")


def reciprocal(cf: CF) -> CF:
    """1/x as a continued fraction; requires x > 0."""
    return CF(*_reciprocal_digits(cf.a0, cf.pre, cf.period))


# ---------------------------------------------------------------------------
# Text grammar: [a0; d1, d2, ..., (p1, ..., pm)]  /  [(a0; d1, ..., dk)]


class _Scanner:
    """Tokenizer of the literal grammars; it raises `error`, a LiteralParseError subclass."""

    def __init__(self, text: str, error: type[LiteralParseError]):
        self.text = text
        self.pos = 0
        self.error = error

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if not self.text[start:self.pos].lstrip("+-"):
            raise self.error("expected an integer", start)
        return int(self.text[start:self.pos])

    def end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input", self.pos)

    def build(self, make, *args):
        """make(*args), with its domain errors raised as `error` at position 0."""
        try:
            return make(*args)
        except ValueError as exc:
            raise self.error(str(exc), 0) from None


def _int_list(sc: _Scanner) -> list[int]:
    out = [sc.integer()]
    while sc.peek() == ",":
        sc.expect(",")
        out.append(sc.integer())
    return out


def parse_cf(text: str) -> CF:
    """Parse the bracket grammar; raises CFParseError with a position."""
    sc = _Scanner(text, CFParseError)
    sc.expect("[")
    if sc.peek() == "(":
        sc.expect("(")
        a0 = sc.integer()
        rest: list[int] = []
        if sc.peek() == ";":
            sc.expect(";")
            rest = _int_list(sc)
        sc.expect(")")
        sc.expect("]")
        sc.end()
        return sc.build(CF, a0, (), tuple(rest) + (a0,))
    a0 = sc.integer()
    pre: list[int] = []
    period: Digits = ()
    if sc.peek() == ";":
        sc.expect(";")
        while True:
            if sc.peek() == "(":
                sc.expect("(")
                period = tuple(_int_list(sc))
                sc.expect(")")
                break
            pre.append(sc.integer())
            if sc.peek() == ",":
                sc.expect(",")
                continue
            break
    sc.expect("]")
    sc.end()
    return sc.build(CF, a0, tuple(pre), period)


def format_fraction(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
