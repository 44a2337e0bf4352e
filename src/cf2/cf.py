"""Exact continued fractions with canonical finite and eventually periodic forms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

Digits = tuple[int, ...]


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

    A candidate q = p // l is a proper divisor of n, and a q-periodic word
    has word[i] = word[i % q] for every i < n.  As q < n and q | n, the indices
    q and n - 1 are 0 and q - 1 mod q, so word[q] = word[0] and word[n - 1] =
    word[q - 1] are necessary: two index compares reject most q before the
    O(n) copy that decides.
    """
    n = len(word)
    p = n
    for l in _prime_factors(n):
        while p % l == 0:
            q = p // l
            if word[q] != word[0] or word[q - 1] != word[-1] or word[:q] * (n // q) != word:
                break
            p = q
    return word[:p]


def rotation_start(word: Digits) -> int:
    """The least i with word[i:] + word[:i] the least rotation of `word`, in O(len(word)).

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
    return i


def least_rotation(word: Digits) -> Digits:
    """Lexicographically least rotation of `word`, in O(len(word))."""
    i = rotation_start(word)
    return word[i:] + word[:i]


def _check_digit(d) -> None:
    """The one body-digit rule: an int >= 1 (int subclasses pass)."""
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"body digit must be a positive integer, got {d!r}")


def _validate(a0, body: Digits) -> None:
    """Raise on the first body digit `_check_digit` rejects, then on a non-int a0."""
    for d in body:
        _check_digit(d)
    if not isinstance(a0, int):
        raise ValueError(f"integer part must be an int, got {a0!r}")


def _canonicalize(cf: CF, a0: int, pre: Digits, period: Digits) -> CF:
    """Store on `cf` the canonical form of valid digits, and return it.

    The period is made primitive and the preperiod minimal (a preperiod
    digit equal to the last period digit is absorbed by rotating the
    period); a finite body never ends in 1.
    """
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
    object.__setattr__(cf, "a0", a0)
    object.__setattr__(cf, "pre", pre)
    object.__setattr__(cf, "period", period)
    return cf


def _canonical_cf(a0: int, pre: Digits, period: Digits) -> CF:
    """The CF of digit tuples valid by construction: canonicalized, never checked.

    The library's producers build here; `CF(...)` is for digits from
    outside and checks them first.
    """
    return _canonicalize(object.__new__(CF), a0, pre, period)


@dataclass(frozen=True)
class CF:
    """Continued fraction [a0; d1, d2, ...], finite or eventually periodic.

    `period == ()` means the value is rational (finite body).  `CF(...)`
    checks that a0 is an int and every body digit an int >= 1, stores them
    as plain ints (so a bool prints as a digit), then canonicalizes (see
    `_canonicalize`).
    """

    a0: int
    pre: Digits = ()
    period: Digits = ()

    def __post_init__(self):
        pre = tuple(self.pre)
        period = tuple(self.period)
        _validate(self.a0, pre + period)
        _canonicalize(self, int(self.a0), tuple(map(int, pre)), tuple(map(int, period)))

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
    return _canonical_cf(a, tuple(digits), ())


def eval_finite(cf: CF) -> Fraction:
    """Exact value of a finite continued fraction."""
    if not cf.is_finite:
        raise ValueError("continued fraction is not finite")
    p, q, _, _ = fold_word((cf.a0, *cf.pre))
    return Fraction(p, q)


def fold_word(word: Iterable[int]) -> tuple[int, int, int, int]:
    """The last two convergents (p_n, q_n, p_{n-1}, q_{n-1}) of the digits a_0 .. a_n of `word`.

    They are the columns of [[p_n, p_{n-1}], [q_n, q_{n-1}]], the product of
    [[a, 1], [1, 0]] over `word`; the empty word gives the identity.  So p_n q_{n-1} - p_{n-1} q_n
    = (-1)^(n-1), and a row of the product mod 2 is never (0, 0).
    """
    p1, q1, p0, q0 = 1, 0, 0, 1
    for d in word:
        p1, q1, p0, q0 = d * p1 + p0, d * q1 + q0, p1, q1
    return p1, q1, p0, q0


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
    return _canonical_cf(*_reciprocal_digits(cf.a0, cf.pre, cf.period))


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
