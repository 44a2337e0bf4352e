"""Prefix-exclusion search over digit-bounded reals and dyadic digit witnesses.

For a digit bound C, every real in (0, 1) whose digits all lie in [1, C] and
whose expansion starts with a prefix w is sandwiched between two explicit
rational endpoints.  Doubling both endpoints k times and comparing their
canonical expansions forces digits of 2^k x for every x in the cylinder;
a forced digit above C excludes the whole prefix.  An empty frontier proves
that some 2^k x always carries a digit above C.

Each worker pulls the depth-2 prefixes one at a time and walks each depth
first (`run`).  A child's cylinder lies inside its parent's, so the digits of
2^k x the parent found certain are certain for the child too: each child
resumes the parent's Euclid scan at every k instead of expanding both
doubled endpoints from digit 0 (Gosper's carried homographic state, HAKMEM
item 101), and past the parent's last k it resumes at digit 0.  A state is (j, S): the step j where
the scan stopped and the endpoint pair S there, as `_scan` leaves it.  A
surviving prefix decides its C children together in one k loop (`_expand`),
each at the scan that decides it, so pending siblings hold their own states:
O(C * depth * k) of them.  The children's pairs come from the matrix
R = S . T^-1, made only at a k where some child scans, and a memo keyed by
S, one per worker, answers the scans of small k after the first.  Every
prefix closes both endpoints with the one tail matrix T of `_tables`, and
the scan treats the two alike.

Each prefix's k loop ends by k = ceil(log2(q_min q_max / |det T|)) (`try_exclude`),
so only the depth of the walk has a budget.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import isqrt
from typing import NamedTuple

from .cf import fold_word
from .pool import pmap, workers
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
    K: int
    depths: list[DepthStats] = field(default_factory=list)
    seconds: float = field(default=0.0, compare=False)  # wall time: == compares results only
    witnesses: list[ExclusionWitness] = field(default_factory=list)  # empty unless collected

    @property
    def max_depth_reached(self) -> int:
        return self.depths[-1].n

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


_Matrix = tuple[int, int, int, int]  # (m11, m12, m21, m22)


def _tables(C: int) -> tuple[_Matrix, _Matrix, int]:
    """(T, adj T, det T) for the tail matrix T shared by every prefix of one search.

    The columns of T are the closing tails [C; 1, C, 1, C+1] and [1; C, 1, C+1],
    so a prefix with matrix M has its cylinder between the two columns of M . T,
    the lower one first for a prefix of even length and last for an odd one.
    No scan reads which is lower: swapping the columns of T swaps the two
    endpoints, which `_scan` treats alike and hands back in the order they
    came, and leaves R = S . T^-1, made from a pair S by `_expand`, unchanged.
    """
    tn, td, _, _ = fold_word((C, 1, C, 1, C + 1))
    un, ud, _, _ = fold_word((1, C, 1, C + 1))
    return (tn, un, td, ud), (ud, -un, -td, tn), tn * ud - un * td


def _cylinder(word, C: int) -> tuple[tuple[int, ...], _Matrix]:
    """(word, (p_a, q_a, p_b, q_b)): the checked prefix and its two endpoints in
    no fixed order, the columns of M . T with M the matrix of [0; word]."""
    word = tuple(word)
    if not word or any(d < 1 or d > C for d in word):
        raise ValueError("prefix digits must lie in [1, C]")
    p1, q1, p0, q0 = fold_word((0,) + word)
    t11, t12, t21, t22 = _tables(C)[0]
    return word, (p1 * t11 + p0 * t21, q1 * t11 + q0 * t21,
                  p1 * t12 + p0 * t22, q1 * t12 + q0 * t22)


def interval_bounds(word, C: int) -> tuple[Fraction, Fraction]:
    """Rational bounds enclosing every x = [0; word, b, b, ...] with digits in [1, C]."""
    word, (pa, qa, pb, qb) = _cylinder(word, C)
    a, b = sorted((Fraction(pa, qa), Fraction(pb, qb)))
    if a >= b:
        raise RuntimeError(f"empty cylinder interval for prefix {word}")
    return a, b


def _scan(C: int, i: int, pa: int, qa: int, pb: int, qb: int):
    """One Euclid scan of the endpoint pair pa/qa, pb/qb from step i: (i, bound, S).

    `bound` > 0 excludes at digit i.  Otherwise S is None when the floors
    differ at digit 0, which ends the k loop, and else the pair
    (pa, qa, pb, qb) at step i, in the order it came in, that the children
    resume from at step i.
    """
    while True:
        a, ra = divmod(pa, qa)
        b, rb = divmod(pb, qb)
        if a != b:
            break
        if a > C and i:
            return i, a, None
        if not (ra and rb):
            break
        pa, qa, pb, qb = qa, ra, qb, rb
        i += 1
    if a != b:
        if i == 0:
            return 0, 0, None
        if ra and rb and a > C and b > C:
            return i, min(a, b), None
    # Digits 0..i-1 are shared without terminating, and those past digit 0
    # are at most C, so they hold on every cylinder inside this one.
    return i, 0, (pa, qa, pb, qb)


def try_exclude(word, C: int) -> ExclusionWitness | None:
    """Search k = 1, 2, ... for a digit of 2^k x forced above C on the cylinder.

    The endpoint pair at k is diag(2^k, 1) . M . T, with M the matrix of
    [0; word] and T the tail matrix.  Euclid runs on both endpoints at once
    (`_scan`).  A digit that both expansions share at position i >= 1 holds
    for every x in the cylinder, and so does a lower bound at the first
    position where they differ, unless an endpoint ends there:
    - a shared digit above C at position i >= 1 excludes;
    - at the first differing position i >= 1, the smaller of the two
      digits excludes when it is above C and neither endpoint ends there;
    - differing integer parts stop the k loop, by k = ceil(log2(q_min q_max / |det T|))
      as the columns p/q of M . T are |det T| / (q_min q_max) apart (det M = +-1).

    This is the standalone reference for one prefix; the search steps every
    prefix with the same scan in `_expand`.
    """
    word, (pa, qa, pb, qb) = _cylinder(word, C)
    for k in count(1):
        i, bound, S = _scan(C, 0, pa << k, qa, pb << k, qb)
        if bound:
            return ExclusionWitness(word, k, i, bound)
        if S is None:
            return None


_MEMO_K = 6  # resumed scans at k <= _MEMO_K are answered from the memo


def _expand(node, C: int, tables, memo: dict, shared: dict, level: list, collect: bool):
    """Decide the C children of the surviving prefix `node` = (word, fold, states).

    `fold` is the prefix's matrix M = fold_word((0,) + word), `tables` is
    `_tables(C)`, and `states` the prefix's own states, one per k: (j, S),
    the step j where its scan stopped and the endpoint pair
    S = (pa, qa, pb, qb) = A^-1 . diag(2^k, 1) . M . T there, with A the
    matrix of the first j digits of 2^k x that the whole cylinder shares
    (past digit 0, all at most C).  Past the inherited k the state is
    (0, diag(2^k, 1) . M . T), which shares no digit, so a child resuming
    there scans from digit 0.

    The loop runs over k outside and over the children not yet decided
    inside, and each child's fate is recorded at the scan that decides it:
    a bound counts it into `level` = [frontier, excluded, witnesses]
    (its `ExclusionWitness` only when collected), a stop at digit 0 makes
    it a surviving node, and otherwise the state joins the child's own and
    the child stays for the next k.  The pair of child d at k is
    R . [[d, 1], [1, 0]] . T = d . U + V, with R = A^-1 . diag(2^k, 1) . M
    = S . adj(T) / det(T), exact, and U = R . [[1, 0], [0, 0]] . T and
    V = R . [[0, 1], [1, 0]] . T.  R, U and V are made once per k, at the
    first child that scans, so a k whose children the memo answers makes
    none; past the inherited k, R = diag(2^k, 1) . M needs no division.
    One T serves every depth: which column is the lower endpoint changes R
    nowhere (`_tables`).

    A scan resumed at step j > 0 never reads digit 0, so it depends on j
    only through the positions it reports.  For k <= _MEMO_K and j > 0,
    `memo` maps S to C + 1 slots (index 0 unused), each filled by the first
    child scan that needs it with (i - j, bound, S') from `_scan`: one
    lookup answers every child of every prefix that holds S, at any depth.
    S and R determine each other for the one T of a run.  Multiplying by
    2^k is a finite transducer on continued fractions (Raney, Math. Ann.
    206, 1973), so for small k the states are few, and fewer still the
    distinct slots: `shared` maps each filled slot to itself, so equal
    slots share one tuple.

    Returns the largest witness k and the surviving children as nodes, in
    the order they were decided.
    """
    word, (p1, q1, p0, q0), states = node
    (t11, t12, t21, t22), (a11, a12, a21, a22), det = tables
    level[0] += C
    K = 0
    survivors = []
    found: list[list] = [[] for _ in range(C + 1)]
    alive = range(1, C + 1)
    k = 0
    while alive:
        k += 1
        if k <= len(states):
            j, S = states[k - 1]
            R = None
        else:
            j, R = 0, (p1 << k, p0 << k, q1, q0)
        slots = None
        if j and k <= _MEMO_K:
            slots = memo.get(S)
            if slots is None:
                slots = memo[S] = [None] * (C + 1)
        ua = None
        left = []
        for d in alive:
            slot = None if slots is None else slots[d]
            if slot is None:
                if ua is None:
                    if R is None:
                        pa, qa, pb, qb = S
                        R = ((pa * a11 + pb * a21) // det, (pa * a12 + pb * a22) // det,
                             (qa * a11 + qb * a21) // det, (qa * a12 + qb * a22) // det)
                    r11, r12, r21, r22 = R
                    ua, uqa, ub, uqb = r11 * t11, r21 * t11, r11 * t12, r21 * t12
                    va, vqa = r11 * t21 + r12 * t11, r21 * t21 + r22 * t11
                    vb, vqb = r11 * t22 + r12 * t12, r21 * t22 + r22 * t12
                i, bound, nxt = _scan(C, j, d * ua + va, d * uqa + vqa, d * ub + vb,
                                      d * uqb + vqb)
                slot = i - j, bound, nxt
                if slots is not None:
                    slot = slots[d] = shared.setdefault(slot, slot)
            offset, bound, nxt = slot
            if bound:
                level[1] += 1
                K = k
                if collect:
                    level[2].append(ExclusionWitness(word + (d,), k, j + offset, bound))
            elif nxt is None:
                survivors.append((word + (d,), (d * p1 + p0, d * q1 + q0, p1, q1), found[d]))
            else:
                found[d].append((j + offset, nxt))
                left.append(d)
        alive = left
    return K, survivors


def _walk(roots, C: int, max_depth: int | None, collect: bool, tables, memo: dict, shared: dict):
    """Depth-first exclusion below each root of a share, with one memo for the share.

    A root is a node (word, fold, states) as `_expand` returns it.  `roots`
    may be an iterator, read one root at a time: each root is walked to the
    end before the next is taken, so roots pulled from `pool.pmap` go to
    whichever worker is free.  `memo` and `shared`, which `_expand` fills,
    serve every root of the share; `run` passes each worker empty ones.
    Returns (levels, K, cut): levels[n] = [frontier, excluded, witnesses] at
    depth n + 3, each depth's witnesses in the order walked, the largest
    witness k, and whether max_depth cut off a surviving prefix.
    """
    levels: list[list] = []
    K, cut = 0, False
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if max_depth is not None and len(node[0]) >= max_depth:
                cut = True
                continue
            n = len(node[0]) - 2
            if n == len(levels):
                levels.append([0, 0, []])
            k, survivors = _expand(node, C, tables, memo, shared, levels[n], collect)
            K = max(K, k)
            stack.extend(survivors)
    return levels, K, cut


def run(C: int, max_depth: int | None = None, jobs: int | None = None,
        collect_witnesses: bool = False):
    """Prefix exclusion for the bound C, walked depth first from the C depth-1 prefixes.

    Returns a SearchReport, whose witnesses are listed when requested.  The
    calling process decides the depth-2 row; its surviving prefixes, the
    roots, are sorted by prefix, which puts the largest early, and pulled
    one at a time by the n = `pool.workers(jobs, ...)` workers, one per core
    at jobs=None, each keeping one memo over the roots it takes (`_walk`).
    Counts are summed and each depth's witnesses, merged from the shares,
    sorted once by prefix, so the report is that of a breadth-first search
    in lexicographic order for any worker count.  The k loop ends by itself,
    so `max_depth` is the one budget.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    if max_depth is not None and max_depth < 2:
        raise ValueError("max_depth must be >= 2, the depth of the roots")
    start = time.monotonic()
    tables = _tables(C)
    levels: list[list] = [[0, 0, []]]  # [frontier, excluded, witnesses] per depth from 2
    K = 0
    roots: list = []
    for d1 in range(1, C + 1):  # no state at depth 1, so `_expand` reads no memo
        k, survivors = _expand(((d1,), fold_word((0, d1)), []), C, tables, {}, {}, levels[0],
                               collect_witnesses)
        K = max(K, k)
        roots += survivors
    roots.sort()
    parts = pmap(lambda share: _walk(share, C, max_depth, collect_witnesses, tables, {}, {}),
                 roots, workers(jobs, len(roots)))
    cut = False
    for part, k, below in parts:
        K, cut = max(K, k), cut or below
        for m, level in enumerate(part, 1):  # counts add, witness lists concatenate
            if m == len(levels):
                levels.append(level)
            else:
                levels[m] = [a + b for a, b in zip(levels[m], level)]
    depths = [DepthStats(m + 2, frontier, excluded)
              for m, (frontier, excluded, _) in enumerate(levels)]
    witnesses = [w for _, _, found in levels for w in sorted(found)]  # depth by depth
    return SearchReport(C, not cut, K, depths, time.monotonic() - start, witnesses)


# -- constructive witness ----------------------------------------------------


class SearchCapExceeded(RuntimeError):
    """`witness_q` found no witness for any k up to its `k_cap`."""


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

    Scans k = 0, 1, 2, ... for a body digit of 2^k s at least 1/threshold,
    reading the body digits of each 2^k s up to the one that closes its cycle
    or up to _WITNESS_DIGIT_CAP of them, then moving on to k + 1;
    with a_n(2^k s) >= 1/threshold the integer q = 2^k q_{n-1} works.  The
    product u * ||q*s||, u the odd part of q, is one exact map of s read off
    floor(2*q*s); the returned value is a certified rational upper bound on
    it that is itself below the threshold.
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
            u = q >> two_adic_valuation(q)  # q * |q|_2, the odd part of q
            h = linear_fractional(s, 2 * q, 0, 0, 1).floor()  # floor(2*q*s)
            nearest, sign = (h + 1) // 2, 1 - 2 * (h & 1)  # q*s rounds down (+1) or up (-1)
            product = linear_fractional(s, sign * u * q, -sign * u * nearest, 0, 1)
            if product.cmp(threshold) >= 0:
                raise RuntimeError("product is not below the threshold")
            value = _rational_upper_bound(product, threshold)
            return DyadicWitness(q, value, k, n)
        beta = double_surd(beta)
    raise SearchCapExceeded(f"no witness found for k <= {k_cap}")
