"""Prefix-exclusion search over digit-bounded reals and dyadic digit witnesses.

For a digit bound C, every real in (0, 1) whose digits all lie in [1, C] and
whose expansion starts with a prefix w is sandwiched between two explicit
rational endpoints.  Doubling both endpoints k times and comparing their
canonical expansions forces digits of 2^k x for every x in the cylinder;
a forced digit above C excludes the whole prefix.  An empty frontier proves
that some 2^k x always carries a digit above C.

The prefix tree is walked depth first.  A child's cylinder lies inside its
parent's, so the digits of 2^k x the parent found certain are certain for
the child too: each child resumes the parent's Euclid scan at every k
instead of expanding both doubled endpoints from digit 0 (Gosper's carried
homographic state, HAKMEM item 101).

Each prefix's k loop ends by k = ceil(log2(q_min q_max / |det T|)) (`try_exclude`),
so only the depth of the walk has a budget.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .cf import cf_of_rational, fold_word
from .pool import pmap
from .surd import QuadraticSurd, _is_reduced, _quotients, double_surd, linear_fractional

_WITNESS_DIGIT_CAP = 2000  # most digits of each 2^k s that `witness_q` scans


class ExclusionWitness(NamedTuple):
    prefix: tuple[int, ...]
    k: int
    position: int
    bound: int

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
    seconds: float = field(default=0.0, compare=False)  # wall time: == compares results only
    witnesses: list[ExclusionWitness] = field(default_factory=list)  # empty unless collected

    def to_json(self, witnesses: bool = False) -> str:
        """The report as one JSON object; `witnesses` adds the list of them."""
        out = {
            "C": self.C,
            "terminated": self.terminated,
            "K": self.K,
            "depths": [{"n": d.n, "frontier": d.frontier, "excluded": d.excluded}
                       for d in self.depths],
            "seconds": round(self.seconds, 4),
        }
        if witnesses:
            out["witnesses"] = [{"prefix": list(w.prefix), "k": w.k, "position": w.position,
                                 "bound": w.bound} for w in self.witnesses]
        return json.dumps(out)


@dataclass(frozen=True)
class _Tables:
    """Integer matrices shared by every prefix of one search, indexed by prefix parity.

    A 2x2 matrix is the tuple (m11, m12, m21, m22).  `pair[parity]` is T,
    whose columns are the closing tails of the lower and the upper endpoint
    of a prefix with len(word) % 2 == parity; `adjugate[parity]` and
    `det[parity]` invert it; `child[parity][d]` is [[d, 1], [1, 0]] . T for
    a child of that parity whose last digit is d.
    """
    pair: tuple[tuple[int, int, int, int], ...]
    adjugate: tuple[tuple[int, int, int, int], ...]
    det: tuple[int, ...]
    child: tuple[tuple[tuple[int, int, int, int] | None, ...], ...]


def _tables(C: int) -> _Tables:
    # [C; 1, C, 1, C+1] closes the lower endpoint of an even-length prefix and
    # [1; C, 1, C+1] its upper one; an odd length swaps them
    tn, td, _, _ = fold_word((C, 1, C, 1, C + 1))
    un, ud, _, _ = fold_word((1, C, 1, C + 1))
    pair = ((tn, un, td, ud), (un, tn, ud, td))
    adjugate = tuple((t22, -t12, -t21, t11) for t11, t12, t21, t22 in pair)
    det = tuple(t11 * t22 - t12 * t21 for t11, t12, t21, t22 in pair)
    child = tuple((None,) + tuple((d * t11 + t21, d * t12 + t22, t11, t12)
                                  for d in range(1, C + 1))
                  for t11, t12, t21, t22 in pair)
    return _Tables(pair, adjugate, det, child)


def _endpoints(fold: tuple[int, int, int, int],
               pair: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """(p_min, q_min, p_max, q_max): the prefix matrix of `fold` times the tail matrix `pair`."""
    p1, q1, p0, q0 = fold
    t11, t12, t21, t22 = pair
    return p1 * t11 + p0 * t21, q1 * t11 + q0 * t21, p1 * t12 + p0 * t22, q1 * t12 + q0 * t22


def interval_bounds(word, C: int) -> tuple[Fraction, Fraction]:
    """Rational bounds enclosing every x = [0; word, b, b, ...] with digits in [1, C]."""
    word = tuple(word)
    if not word or any(d < 1 or d > C for d in word):
        raise ValueError("prefix digits must lie in [1, C]")
    pn, qn, px, qx = _endpoints(fold_word((0,) + word), _tables(C).pair[len(word) % 2])
    a, b = Fraction(pn, qn), Fraction(px, qx)
    if a >= b:
        raise RuntimeError(f"empty cylinder interval for prefix {word}")
    return a, b


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


def try_exclude(word, C: int, *, fold=None, tables=None, inherited=(),
                states: list | None = None) -> ExclusionWitness | None:
    """Search k = 1, 2, ... for a digit of 2^k x forced above C on the cylinder.

    The endpoint pair at k is diag(2^k, 1) . M . T, with M the matrix of
    [0; word] and T the tail matrix.  Euclid runs on both endpoints at once
    and reads the verdict of `common_prefix_info`:
    - a shared digit above C at position i >= 1 excludes;
    - at the first differing position i >= 1, the smaller of the two
      digits excludes when it is above C and neither endpoint ends there;
    - differing integer parts stop the k loop, by k = ceil(log2(q_min q_max / |det T|))
      as the columns p/q of M . T are |det T| / (q_min q_max) apart (det M = +-1).

    `run` passes the convergents `fold` = fold_word((0,) + word), the
    `_tables(C)` of the search and the parent's states, one per k: a step j
    and R = A^-1 . diag(2^k, 1) . M_parent, with A the matrix of the first
    j digits of 2^k x that the whole parent cylinder shares (past digit 0,
    all at most C).  A child with last digit d resumes Euclid at step j on
    R . [[d, 1], [1, 0]] . T, so a resumed k stops at digit 0 only if j = 0.
    When `states` is a list and no witness is found, this prefix's states are
    appended to it: the pair S at the step j where the scan stopped gives
    R = S . adj(T) / det(T), exact because S = A^-1 . diag(2^k, 1) . M . T.
    """
    word = tuple(word)
    if tables is None:
        tables = _tables(C)
    if fold is None:
        fold = fold_word((0,) + word)
    parity = len(word) % 2
    pn, qn, px, qx = _endpoints(fold, tables.pair[parity])
    if inherited:
        w11, w12, w21, w22 = tables.child[parity][word[-1]]
    found = []
    resumable = len(inherited)
    for k in itertools.count(1):
        if k <= resumable:
            i, r11, r12, r21, r22 = inherited[k - 1]
            pa, qa = r11 * w11 + r12 * w21, r21 * w11 + r22 * w21
            pb, qb = r11 * w12 + r12 * w22, r21 * w12 + r22 * w22
        else:
            i, pa, qa, pb, qb = 0, pn << k, qn, px << k, qx
        while True:
            a, ra = divmod(pa, qa)
            b, rb = divmod(pb, qb)
            if a != b:
                break
            if a > C and i:
                return ExclusionWitness(word, k, i, a)
            if not (ra and rb):
                break
            pa, qa, pb, qb = qa, ra, qb, rb
            i += 1
        if a != b:
            if i == 0:
                break
            if ra and rb and a > C and b > C:
                return ExclusionWitness(word, k, i, min(a, b))
        # Digits 0..i-1 are shared without terminating, and those past digit 0
        # are at most C, so they hold on every cylinder inside this one.
        found.append((i, pa, qa, pb, qb))
    if states is not None:
        a11, a12, a21, a22 = tables.adjugate[parity]
        det = tables.det[parity]
        states.extend((j, (pa * a11 + pb * a21) // det, (pa * a12 + pb * a22) // det,
                       (qa * a11 + qb * a21) // det, (qa * a12 + qb * a22) // det)
                      for j, pa, qa, pb, qb in found)
    return None


def _walk(args):
    """Depth-first exclusion of one depth-2 root and its descendants.

    Children are visited in increasing digit order, so each depth meets its
    prefixes in the lexicographic order of a breadth-first search.  Only
    the states of the prefixes on the current path and their pending
    siblings are alive: O(depth * k) of them.  Returns one entry per depth
    from 2 on, [frontier, excluded, witnesses] (witnesses only when
    collected), the largest witness k, and whether max_depth cut off a
    surviving prefix.
    """
    root, C, max_depth, collect, tables = args
    levels: list[list] = []
    K = 0
    cut = False
    stack = [(root, fold_word((0,) + root), ())]
    while stack:
        word, fold, inherited = stack.pop()
        if max_depth is not None and len(word) > max_depth:
            cut = True
            continue
        if len(word) - 2 == len(levels):
            levels.append([0, 0, []])
        level = levels[len(word) - 2]
        level[0] += 1
        states: list = []
        wit = try_exclude(word, C, fold=fold, tables=tables, inherited=inherited, states=states)
        if wit is None:
            p1, q1, p0, q0 = fold
            stack.extend((word + (d,), (d * p1 + p0, d * q1 + q0, p1, q1), states)
                         for d in range(C, 0, -1))
        else:
            level[1] += 1
            if wit.k > K:
                K = wit.k
            if collect:
                level[2].append(wit)
    return levels, K, cut


def run(C: int, max_depth: int | None = None, jobs: int | None = 1,
        collect_witnesses: bool = False):
    """Prefix exclusion for the bound C, walked depth first from the C^2 depth-2 roots.

    Returns a SearchReport, whose witnesses are listed when requested.  The report and
    the witness order are those of a breadth-first search in lexicographic order, for
    any worker count: each root's subtree is one task, and the per-depth results are
    merged in root order.  The k loop ends by itself, so `max_depth` is the one budget.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    if max_depth is not None and max_depth < 2:
        raise ValueError("max_depth must be >= 2, the depth of the roots")
    start = time.monotonic()
    tables = _tables(C)
    tasks = [((d1, d2), C, max_depth, collect_witnesses, tables)
             for d1 in range(1, C + 1) for d2 in range(1, C + 1)]
    parts = pmap(_walk, tasks, jobs)
    levels: list[list] = []
    for part, _, _ in parts:
        for n, (frontier, excluded, found) in enumerate(part):
            if n == len(levels):
                levels.append([0, 0, []])
            levels[n][0] += frontier
            levels[n][1] += excluded
            levels[n][2] += found
    depths = [DepthStats(n + 2, frontier, excluded)
              for n, (frontier, excluded, _) in enumerate(levels)]
    return SearchReport(C, not any(cut for _, _, cut in parts), len(depths) + 1,
                        max(K for _, K, _ in parts), depths, time.monotonic() - start,
                        [wit for _, _, found in levels for wit in found])


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
    """First body digit >= need in the expansion of s: (n, q_{n-1}).

    Returns None when the expansion provably cycles below `need`, or when
    digit_cap digits were scanned without a conclusion.  The digit at which
    the cycle closes is checked before the cycle test: for a purely
    periodic s it repeats a0, which was not checked as a body digit.
    """
    r = isqrt(s.D)
    cycle_start = None  # the first reduced (P, Q); the walk cycles when it comes back
    digits: list[int] = []
    for n, (P, Q, a) in zip(range(digit_cap + 1), _quotients(s.P, s.D, s.Q, r)):
        if n >= 1 and a >= need:
            return n, fold_word(digits)[1]
        if cycle_start is None:
            if _is_reduced(P, Q, r):
                cycle_start = (P, Q)
        elif cycle_start == (P, Q):
            return None
        digits.append(a)
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
    raise RuntimeError("upper bound refinement failed")


def witness_q(s: QuadraticSurd, threshold: Fraction = Fraction(1, 15),
              k_cap: int = 64) -> DyadicWitness:
    """A positive integer q with q * |q|_2 * ||q*s|| strictly below threshold.

    Scans k = 0, 1, 2, ... for a body digit of 2^k s at least 1/threshold;
    with a_n(2^k s) >= 1/threshold the integer q = 2^k q_{n-1} works.  The
    product is verified by exact surd arithmetic and the returned value is
    a certified rational upper bound that is itself below the threshold.
    """
    if k_cap < 0:
        raise ValueError("k_cap must be >= 0")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    need = -((-threshold.denominator) // threshold.numerator)  # ceil(1/threshold)
    beta = s
    for k in range(k_cap + 1):
        hit = _find_large_digit(beta, need, _WITNESS_DIGIT_CAP)
        if hit is not None:
            n, qm1 = hit
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
