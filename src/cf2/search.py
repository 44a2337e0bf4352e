"""Prefix-exclusion search over digit-bounded reals and dyadic digit witnesses.

For a digit bound C, every real in (0, 1) whose digits all lie in [1, C] and
whose expansion starts with a prefix w is sandwiched between two explicit
rational endpoints.  Doubling both endpoints k times and comparing their
canonical expansions forces digits of 2^k x for every x in the cylinder;
a forced digit above C excludes the whole prefix.  An empty frontier proves
that some 2^k x always carries a digit above C.
"""

from __future__ import annotations

import enum
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .cf import fold_word
from .surd import QuadraticSurd, double_surd, linear_fractional

DEFAULT_K_CAP = 256


class WitnessKind(enum.Enum):
    SHARED_DIGIT = "shared"
    NEXT_DIGIT_MIN = "next-min"


@dataclass(frozen=True)
class ExclusionWitness:
    prefix: tuple[int, ...]
    k: int
    position: int
    bound: int
    kind: WitnessKind

    def __str__(self) -> str:
        w = "".join(str(d) for d in self.prefix) if max(self.prefix) <= 9 else \
            ",".join(str(d) for d in self.prefix)
        return f"w={w} k={self.k} pos={self.position} bound={self.bound}"


@dataclass(frozen=True)
class DepthStats:
    n: int
    frontier: int
    excluded: int


@dataclass
class SearchReport:
    C: int
    terminated: bool
    max_depth_reached: int
    K: int
    depths: list[DepthStats] = field(default_factory=list)
    seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "C": self.C,
            "terminated": self.terminated,
            "K": self.K,
            "depths": [{"n": d.n, "frontier": d.frontier, "excluded": d.excluded}
                       for d in self.depths],
            "seconds": round(self.seconds, 4),
        })

    def same_result(self, other: "SearchReport") -> bool:
        """Equality ignoring wall time."""
        return (self.C, self.terminated, self.max_depth_reached, self.K, self.depths) == \
            (other.C, other.terminated, other.max_depth_reached, other.K, other.depths)


def _tails(C: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Values of the closing words [C; 1, C, 1, C+1] and [1; C, 1, C+1] as p/q."""
    p, q, _, _ = fold_word((C, 1, C, 1, C + 1))
    p2, q2, _, _ = fold_word((1, C, 1, C + 1))
    return (p, q), (p2, q2)


def _endpoints(word: tuple[int, ...], low_tail: tuple[int, int],
               high_tail: tuple[int, int]) -> tuple[int, int, int, int]:
    """(p_min, q_min, p_max, q_max) for the cylinder of [0; word, ...digits <= C]."""
    p1, q1, p0, q0 = fold_word((0,) + word)
    if len(word) % 2 == 0:
        (tn, td), (un, ud) = low_tail, high_tail
    else:
        (tn, td), (un, ud) = high_tail, low_tail
    return p1 * tn + p0 * td, q1 * tn + q0 * td, p1 * un + p0 * ud, q1 * un + q0 * ud


def interval_bounds(word, C: int) -> tuple[Fraction, Fraction]:
    """Rational bounds enclosing every x = [0; word, b, b, ...] with digits in [1, C]."""
    word = tuple(word)
    if not word or any(d < 1 or d > C for d in word):
        raise ValueError("prefix digits must lie in [1, C]")
    lo, hi = _tails(C)
    pn, qn, px, qx = _endpoints(word, lo, hi)
    a, b = Fraction(pn, qn), Fraction(px, qx)
    if a >= b:
        raise RuntimeError(f"empty cylinder interval for prefix {word}")
    return a, b


def rational_digits(x: Fraction) -> list[int]:
    """Canonical expansion digits of a rational (a0 first)."""
    p, q = x.numerator, x.denominator
    out = []
    while True:
        a, r = divmod(p, q)
        out.append(a)
        if r == 0:
            return out
        p, q = q, r


def common_prefix_info(x: Fraction, y: Fraction) -> tuple[list[int], int | None]:
    """Digits certainly shared by everything strictly between x and y.

    Returns (shared, next_min): the longest common prefix of the two
    canonical expansions, dropped by one digit whenever either expansion
    terminates within one digit past the match, and a lower bound for the
    digit right after the shared prefix when both expansions provide one.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    dx, dy = rational_digits(x), rational_digits(y)
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


def _scan_pair(pa: int, qa: int, pb: int, qb: int, C: int):
    """Exclusion evidence from one doubled endpoint pair.

    Returns None when the integer parts differ (stop the k loop for this
    prefix), True when no evidence was found at this k, or a witness tuple
    (position, bound, kind).
    """
    i = 0
    off_pos = -1
    off_val = 0
    prev = 0
    while True:
        a, ra = divmod(pa, qa)
        b, rb = divmod(pb, qb)
        if a != b:
            if i == 0:
                return None
            if ra == 0 or rb == 0:
                usable_last, nm_pos, nm_val = i - 2, i - 1, prev
            else:
                usable_last, nm_pos, nm_val = i - 1, i, min(a, b)
            break
        if i >= 1 and a > C and off_pos < 0:
            off_pos, off_val = i, a
        if ra == 0 or rb == 0:
            usable_last, nm_pos, nm_val = i - 1, i, a
            break
        pa, qa, pb, qb = qa, ra, qb, rb
        prev = a
        i += 1
    if 1 <= off_pos <= usable_last:
        return off_pos, off_val, WitnessKind.SHARED_DIGIT
    if nm_pos >= 1 and nm_val > C:
        return nm_pos, nm_val, WitnessKind.NEXT_DIGIT_MIN
    return True


def try_exclude(word, C: int, k_cap: int = DEFAULT_K_CAP) -> ExclusionWitness | None:
    """Search k = 1, 2, ... for a digit of 2^k x forced above C on the cylinder.

    Endpoints are doubled with exact rational arithmetic; the loop stops at
    the first k where the endpoint integer parts disagree.
    """
    word = tuple(word)
    lo, hi = _tails(C)
    pn, qn, px, qx = _endpoints(word, lo, hi)
    for k in range(1, k_cap + 1):
        pn, qn = (pn, qn // 2) if qn % 2 == 0 else (2 * pn, qn)
        px, qx = (px, qx // 2) if qx % 2 == 0 else (2 * px, qx)
        verdict = _scan_pair(pn, qn, px, qx, C)
        if verdict is None:
            return None
        if verdict is not True:
            pos, bound, kind = verdict
            return ExclusionWitness(word, k, pos, bound, kind)
    return None


def _exclude_batch(args):
    C, k_cap, words = args
    return [try_exclude(w, C, k_cap) for w in words]


def run(C: int, max_depth: int | None = None, k_cap: int = DEFAULT_K_CAP,
        jobs: int = 1, collect_witnesses: bool = False):
    """Breadth-first prefix exclusion for the bound C.

    Returns a SearchReport (and the witness list when requested).  The
    report is identical for any worker count: the frontier is processed in
    lexicographic order and the merge is order-preserving.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    start = time.monotonic()
    words: list[tuple[int, ...]] = [(d1, d2) for d1 in range(1, C + 1)
                                    for d2 in range(1, C + 1)]
    depth = 2
    K = 0
    depths: list[DepthStats] = []
    witnesses: list[ExclusionWitness] = []
    terminated = False
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        while words:
            if max_depth is not None and depth > max_depth:
                break
            if pool is None:
                results = [try_exclude(w, C, k_cap) for w in words]
            else:
                chunk = max(1, len(words) // (jobs * 4))
                batches = [(C, k_cap, words[i:i + chunk])
                           for i in range(0, len(words), chunk)]
                results = []
                for part in pool.map(_exclude_batch, batches):
                    results.extend(part)
            survivors: list[tuple[int, ...]] = []
            excluded = 0
            for w, wit in zip(words, results):
                if wit is None:
                    survivors.extend(w + (d,) for d in range(1, C + 1))
                else:
                    excluded += 1
                    if wit.k > K:
                        K = wit.k
                    if collect_witnesses:
                        witnesses.append(wit)
            depths.append(DepthStats(depth, len(words), excluded))
            words = survivors
            depth += 1
        else:
            terminated = True
    finally:
        if pool is not None:
            pool.shutdown()
    report = SearchReport(C, terminated, depth - 1, K, depths,
                          time.monotonic() - start)
    if collect_witnesses:
        return report, witnesses
    return report


# -- constructive witness ----------------------------------------------------


class SearchCapExceeded(RuntimeError):
    def __init__(self, k_reached: int):
        super().__init__(f"no witness found for k <= {k_reached}")
        self.k_reached = k_reached


@dataclass(frozen=True)
class DyadicWitness:
    q: int
    value: Fraction
    k: int
    n: int


def two_adic_valuation(n: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    return (n & -n).bit_length() - 1


def _find_large_digit(s: QuadraticSurd, need: int, digit_cap: int):
    """First body digit >= need in the expansion of s: (n, digit, q_{n-1}).

    Returns None when the expansion provably cycles below `need`, or when
    digit_cap digits were scanned without a conclusion.
    """
    P, D, Q = s.P, s.D, s.Q
    r = isqrt(D)
    seen: set[tuple[int, int]] = set()
    qm1, qm2 = 0, 0
    n = 0
    while n <= digit_cap:
        key = (P, Q)
        if key in seen:
            return None
        seen.add(key)
        a = (P + r) // Q if Q > 0 else -((P + r) // (-Q)) - 1
        if n >= 1 and a >= need:
            return n, a, qm1
        P = a * Q - P
        Q = (D - P * P) // Q
        if n == 0:
            qm1, qm2 = 1, 0  # q_0, q_{-1}
        else:
            qm1, qm2 = a * qm1 + qm2, qm1
        n += 1
    return None


def _rational_upper_bound(s: QuadraticSurd, below: Fraction) -> Fraction:
    """A rational r with s < r < below (assumes such r exists)."""
    P, D, Q = s.P, s.D, s.Q
    for bits in range(8, 513, 8):
        scale = 1 << bits
        root = isqrt(D * scale * scale)
        num = P * scale + (root + 1 if Q > 0 else root)
        ub = Fraction(num, Q * scale)
        if ub < below:
            return ub
    raise AssertionError("upper bound refinement failed")


def witness_q(s: QuadraticSurd, threshold: Fraction = Fraction(1, 15),
              k_cap: int = 64, digit_cap: int = 2000) -> DyadicWitness:
    """A positive integer q with q * |q|_2 * ||q*s|| strictly below threshold.

    Scans k = 0, 1, 2, ... for a body digit of 2^k s at least 1/threshold;
    with a_n(2^k s) >= 1/threshold the integer q = 2^k q_{n-1} works.  The
    product is verified by exact surd arithmetic and the returned value is
    a certified rational upper bound that is itself below the threshold.
    """
    need = -((-threshold.denominator) // threshold.numerator)  # ceil(1/threshold)
    beta = s
    for k in range(k_cap + 1):
        hit = _find_large_digit(beta, need, digit_cap)
        if hit is not None:
            n, _, qm1 = hit
            q = (1 << k) * qm1
            v = two_adic_valuation(q)
            t = linear_fractional(s, q, 0, 0, 1)  # q*s
            m = t.floor()
            frac = linear_fractional(t, 1, -m, 0, 1)  # in (0, 1)
            if frac.cmp(Fraction(1, 2)) > 0:
                frac = linear_fractional(frac, -1, 1, 0, 1)  # 1 - frac
            product = linear_fractional(frac, q, 0, 0, 1 << v)
            if product.cmp(threshold) >= 0:
                raise RuntimeError("product is not below the threshold")
            value = _rational_upper_bound(product, threshold)
            return DyadicWitness(q, value, k, n)
        beta = double_surd(beta)
    raise SearchCapExceeded(k_cap)
