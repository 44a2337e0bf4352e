"""Equivalence classes of quadratic irrationals under shared expansion tails.

Two quadratic irrationals are equivalent exactly when their expansions
eventually agree, i.e. when the primitive periods are rotations of one
another.  The class key is the lexicographically least rotation; read at
its start, an expansion aligns s = M.[(key)] with M in GL2(Z) (Serret).

Which images of s can share its class.  Equivalent surds have primitive
minimal polynomials of one discriminant.  Let s have the primitive
polynomial (A, B, C), of discriminant d = B*B - 4*A*C.  The images 2s,
s/2 and (s+1)/2 are roots of (A, 2B, 4C), (4A, 2B, C) and
(4A, 2B - 4A, A - B + C), each of discriminant 4d, so an image keeps d
exactly when that polynomial has content 2.  No odd prime divides the
content, as it would divide A, B and C.
- B odd: the content is 2 iff A is even for 2s, iff C is even for s/2,
  and iff A - B + C is even, i.e. A + C is odd, for (s+1)/2.  Exactly
  two of these hold, unless A and C are both odd, when none does.
- B even: A and C are not both even.  2s keeps d only if A is even, s/2
  only if C is even, and (s+1)/2 only if A + C is even, so at most one
  image keeps d.
So at least two images keep d iff B is odd and A*C is even, that is iff
d = 1 (mod 8): the condition for 2 to split in the quadratic order of
discriminant d, where the Kronecker symbol (d/2) is 1 (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, ch. 5).  The parities of
A and C then name the two images (_kept_images).

The in-class images come in pairs.  Let d = 1 (mod 8) and L = Z*s + Z, an
invertible ideal of the order O of discriminant d.  A row's image
t = (a*s + b)/e has Z*t + Z = M/e, M = Z*(a*s + b) + Z*e one of the three
index-2 sublattices of L, and t ~ s iff M = l*L for some l, so l is in O
with N(l) = +-2.  As d is odd, O is maximal at 2, and 2*O = p*p' with p != p'
its conjugate.  l*O, of norm 2, is p or p', so conj(l)*L != l*L (else p = p')
is a second index-2 sublattice homothetic to L.  So 0 or 2 images are in the
class, the two kept ones, and the first decides.  A member m*L has the
in-class image l*m*L too, so every member has both kept images in the class
or none.  A primitive form is odd at (1, 0), (0, 1) or (1, 1), so some member
has A odd, hence C even and both halvings kept: a class holds a member
equivalent to both its halvings iff any member's first kept image is in it.

So the verdict is one per d.  The first kept image is in the class iff its
sublattice is l*L, N(l) = +-2, that is iff p or p' is principal, and p' =
conj(p): iff O has an element of norm +-2.  This is read off d's principal
cycle (_has_norm_two).  Write l = x + y*w, w = (1 + sqrt(d))/2: N(l) =
x*x + x*y + (1 - d)/4*y*y is the principal form at (x, y).  (1) The
representation is proper, as g = gcd(x, y) > 1 would give g*g | 2.
(2) d = 1 (mod 8) is nonsquare, so d >= 17 and 2 < sqrt(d)/2, and by
Lagrange's theorem on small represented numbers (Buchmann and Vollmer,
Binary Quadratic Forms, 2007; Cohen, GTM 138, ch. 5) +-2 is the first
coefficient of a reduced form in the principal cycle.  The reduced states
(P + sqrt(d))/Q of that cycle are roots of its forms, of first coefficient
+-Q/2, and it holds (P + sqrt(d))/2, the root of x*x - P*x + (P*P - d)/4,
for P the odd one of r and r - 1 (r = isqrt(d)).  So d passes iff the
cycle has a state with Q = 4; conversely, that form represents +-2.

The scan walks reduced states (P + sqrt(D))/Q: with r = isqrt(D), those
with r - P < Q <= r + P and Q | D - P*P.  Their primitive polynomial is
(Q, -2P, -c)/g, c = (D - P*P)/Q, of content g = gcd(Q, 2P, c) and
discriminant 4D/g**2, so only g = 2m gives d = 1 (mod 8), and then
D = m*m*d and (P/m, Q/m) is a state of content 2 at d.  So a class of
discriminant d has the states (m*P, m*Q) at D = m*m*d, one per state (P, Q)
at d, and the least such D >= d_min holds its least Q: if none is <= q_max
there, none is at a larger m.  So the scan lists each d = 1 (mod 8), with m
least for m*m*d >= d_min and m*m*d in the window (_walked_discriminants),
and for each passing d walks the states of content 2 at d with
Q <= q_max // m, and reports each class at m*m*d as its least (m*P, m*Q)
with m*Q <= q_max.
A cycle shares g, so it is walked or skipped whole, and each walk is a hit.
For each even Q <= 2r, Q | D - P*P says P = rho (mod Q) for a root rho of
D mod Q, from a table per Q; r - P < Q leaves one P = r - (r - rho) % Q, a
state iff Q <= r + P.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import gcd, isqrt

from .cf import CF, fold_word, least_rotation, rotation_start
from .pool import pmap, workers
from .surd import (_PERIOD_BUDGET, QuadraticSurd, _cycle, _reflection, expand_surd,
                   linear_fractional)

ClassKey = tuple[int, ...]


def key_of_cf(cf: CF) -> ClassKey:
    if cf.is_finite:
        raise ValueError("rational values have no periodic tail")
    return least_rotation(cf.period)


def class_key(s: QuadraticSurd) -> ClassKey:
    """Rotation-invariant tail signature; equal keys mean equivalent surds."""
    return key_of_cf(expand_surd(s))


class Move(enum.Enum):
    DOUBLE = "double"
    HALF = "half"
    HALF_PLUS1 = "half+1"


# The images of the x2 algorithm, s -> (a*s + b)/d as (move, a, b, d), doubling first.
_IMAGES = (
    (Move.DOUBLE, 2, 0, 1),
    (Move.HALF, 1, 0, 2),
    (Move.HALF_PLUS1, 1, 1, 2),
)


def _alignment(s: QuadraticSurd) -> tuple[ClassKey, tuple[int, int, int, int]]:
    """(key, M) with s = [a0; pre, period[:i], [(key)]] = M.[(key)], i the start of the key."""
    cf = expand_surd(s)
    i = rotation_start(cf.period)
    return cf.period[i:] + cf.period[:i], fold_word((cf.a0, *cf.pre, *cf.period[:i]))


def scaled_equiv_certificate(s: QuadraticSurd, e: int, f: int, h: int):
    """Unimodular (a, b, c, d) and scale l with t = (e*s + f)/h = (a*s + b)/(c*s + d), or None.

    None exactly when the class keys differ, i.e. s and t are not equivalent.
    Otherwise s = M_s.y and t = M_t.y for y = [(key)] (_alignment), and
    (a, b, c, d) is M_t.adj(M_s), of determinant +-1.  By Gauss's lemma
    e*c*s*s + (e*d + f*c - h*a)*s + f*d - h*b, which vanishes, is l times the
    primitive (A, B, C) of s: e*c = A*l, e*d + f*c - h*a = B*l and
    f*d - h*b = C*l, so l = e*c/A exactly.  For t = s + f (e = h = 1) only a0
    differs, so c = 0 and l = 0.
    """
    if e == 0 or h == 0:
        raise ValueError("target transform must be nonsingular")
    key, (p1, q1, p0, q0) = _alignment(s)
    t_key, (r1, t1, r0, t0) = _alignment(linear_fractional(s, e, f, 0, h))
    if t_key != key:
        return None
    # [[r1, r0], [t1, t0]] times adj([[p1, p0], [q1, q0]]) = [[q0, -p0], [-q1, p1]]
    a, b = r1 * q0 - r0 * q1, r0 * p1 - r1 * p0
    c, d = t1 * q0 - t0 * q1, t0 * p1 - t1 * p0
    return a, b, c, d, e * c // s.minimal_polynomial()[0]


def self_similar_check(s: QuadraticSurd) -> bool:
    """True iff s, s/2 and (s+1)/2 share one equivalence class: the halvings are the
    kept images of s (`_kept_images`), and the class holds them (module docstring)."""
    return _kept_images(*s.minimal_polynomial()) == _IMAGES[1:] and class_contains_self_similar(s)


def _kept_images(A: int, B: int, C: int) -> tuple:
    """The rows of _IMAGES whose images keep the discriminant of (A, B, C) if two do, else ()."""
    if (B * B - 4 * A * C) & 7 != 1:
        return ()
    return tuple(row for row, kept in zip(_IMAGES, (not A & 1, not C & 1, (A + C) & 1)) if kept)


def _has_norm_two(d: int) -> bool:
    """True iff the principal cycle of d = 1 (mod 8) has a state with Q = 4 (module docstring).

    Read off the half walk of `surd._cycle`, by its stepping loop `_reflection`,
    stopped at the first Q = 4.  From alpha_0 = (P, 2) the first step keeps P
    (a_0 = P), so m = 1 is a reflection, Q_i = Q_{L-i} for the period L, and
    the walk from alpha_1 = (P, (d - P*P)/2) to the next reflection, m = L + 1,
    meets every Q of the cycle but Q_0 = 2.  A reduced state with Q = 4 has
    r - 4 < P <= r.
    """
    r = isqrt(d)
    P = (r - 1) | 1
    Q = (d - P * P) // 2
    return Q == 4 or _reflection(P, Q, d, r, 1, (_PERIOD_BUDGET + 2) // 2, [],
                                 (range(r - 3, r + 1), 4)) is None


def class_contains_self_similar(s: QuadraticSurd) -> bool:
    """True iff the class of s has some member equivalent to both its halvings.

    That is, iff its discriminant d = 1 (mod 8) and the order of discriminant d
    has an element of norm +-2, read off d's principal cycle (module docstring).
    """
    A, B, C = s.minimal_polynomial()
    d = B * B - 4 * A * C
    return d & 7 == 1 and _has_norm_two(d)


def two_of_three(beta: QuadraticSurd, target: ClassKey) -> set[Move]:
    """The two of {2b, b/2, (b+1)/2} in the target class (a self-similar class member).

    Raises when the count differs from two, which signals a violated
    precondition: beta outside the class, or the class not self-similar.
    """
    if class_key(beta) != target:
        raise ValueError("beta is not a member of the target class")
    rows = _kept_images(*beta.minimal_polynomial())
    hits = {move for move, a, b, d in rows if class_key(linear_fractional(beta, a, b, 0, d)) == target}
    if len(hits) != 2:
        raise ValueError(f"expected exactly two equivalent images, got {sorted(m.value for m in hits)}"
                         f" of the {len(rows)} that keep the discriminant")
    return hits


@dataclass(frozen=True)
class ChainResult:
    beta: QuadraticSurd
    K: int
    checks: tuple[ClassKey, ...]


def build_chain(alpha: QuadraticSurd, K: int) -> ChainResult:
    """beta with beta, 2*beta, ..., 2^K beta all in the class of alpha.

    Descends K times from alpha, with no expansion, by a halving among the
    kept images, which are in the class (module docstring): at the top both
    halvings, and the plain half is taken; below it the doubling, as 2*beta
    is a translate of the member beta halves, and one halving.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    target = class_key(alpha)
    if not self_similar_check(alpha):
        raise ValueError("alpha does not satisfy the self-similarity precondition")
    beta = alpha
    for _ in range(K):
        _, a, b, d = next(row for row in _kept_images(*beta.minimal_polynomial())
                          if row[0] is not Move.DOUBLE)
        beta = linear_fractional(beta, a, b, 0, d)
    _, a, b, d = _IMAGES[0]
    checks = []
    cur = beta
    for _ in range(K + 1):
        checks.append(class_key(cur))
        cur = linear_fractional(cur, a, b, 0, d)
    if any(c != target for c in checks):
        raise RuntimeError("a chain member left the class of alpha")
    return ChainResult(beta, K, tuple(checks))


def family_member(m: int) -> QuadraticSurd:
    """Positive root of x^2 - m*x - 2 for odd m >= 3; a self-similar class seed."""
    if m < 3 or m % 2 == 0:
        raise ValueError("m must be an odd integer >= 3")
    return QuadraticSurd(m, m * m + 8, 2)


def family_chain(m: int, K: int) -> QuadraticSurd:
    """beta with the period maximum of every 2^k beta (0 <= k <= K) equal to m."""
    return build_chain(family_member(m), K).beta


@dataclass(frozen=True)
class ScanHit:
    D: int
    Q: int
    P: int
    period_len: int
    period_max: int
    key: ClassKey


def _root_table(q_hi: int) -> dict[int, list[tuple[int, ...]]]:
    """roots[q][m] holds the rho in [0, q) with rho*rho = m (mod q), for even q <= q_hi."""
    roots: dict[int, list[tuple[int, ...]]] = {}
    for q in range(2, q_hi + 1, 2):
        lists: list[list[int]] = [[] for _ in range(q)]
        for rho in range(q):
            lists[rho * rho % q].append(rho)
        roots[q] = [tuple(rhos) for rhos in lists]  # a non-residue shares the empty ()
    return roots


def _walked_discriminants(ds: range, d_min: int) -> list[tuple[int, int]]:
    """(d, m) for each d = 1 (mod 8), d >= 17, with m*m*d in ds and m least with
    m*m*d >= d_min: per m with 17*m*m <= max(ds), the d in [min(ds), max(ds)] / m**2,
    for m >= 2 those with (m-1)**2 * d < d_min.  Squares and failing d are left
    in; `_scan_range` drops them."""
    lo, hi = ds.start, ds.stop - 1
    listing: list[tuple[int, int]] = []
    for m in range(1, isqrt(hi // 17) + 1):
        d0 = max(17, -(-lo // (m * m)))
        d1 = hi // (m * m) if m == 1 else min(hi // (m * m), (d_min - 1) // (m - 1) ** 2)
        listing += ((d, m) for d in range(d0 + (1 - d0) % 8, d1 + 1, 8))
    return listing


def _scan_range(args) -> list[ScanHit]:
    """The hits of each listed (d, m) whose nonsquare d passes, from the root table `roots`.

    `listing` may be an iterator, read one (d, m) at a time."""
    listing, q_max, roots = args
    hits: list[ScanHit] = []
    # each d is reported at D = m*m*d as (m*P, m*Q)
    for d, m in listing:
        r = isqrt(d)
        if r * r == d or not class_contains_self_similar(QuadraticSurd((r - 1) | 1, d, 2)):
            continue
        seen_states: set[tuple[int, int]] = set()
        for Q in range(2, min(q_max // m, 2 * r) + 1, 2):
            for rho in roots[Q][d % Q]:
                # reduced (value > 1, conjugate in (-1, 0)) iff r - P < Q <= r + P
                P = r - (r - rho) % Q
                if Q > r + P or (P, Q) in seen_states:
                    continue
                if gcd(Q, 2 * P, (d - P * P) // Q) != 2:
                    continue  # of discriminant 4d, or d/k**2 for content 2k > 2
                states: list[tuple[int, int]] = []
                digits = _cycle(P, Q, d, r, states)
                seen_states.update(states)
                key = least_rotation(tuple(digits))
                # the first state in order of P, then Q, with m*Q in range: any state
                # when 2*m*r <= q_max, as a reduced state has Q <= r + P <= 2r
                p, q = (min(states) if 2 * m * r <= q_max
                        else min((p, q) for p, q in states if m * q <= q_max))
                hits.append(ScanHit(m * m * d, m * q, m * p, len(key), max(key), key))
    return hits


def scan_self_similar(d_max: int, q_max: int, d_min: int = 2,
                      jobs: int | None = None) -> list[ScanHit]:
    """All self-similar classes with a reduced representative (P + sqrt(D))/Q in range.

    Reports, for each nonsquare D in [d_min, d_max], the classes with a
    purely periodic state at D with 1 <= Q <= q_max that were not met at a
    smaller D of the range, and where some member is equivalent to both of
    its halvings, one verdict per class discriminant d (module docstring).
    The caller lists the candidate (d, m) of the window
    (`_walked_discriminants`) and builds the one root table; the
    n = `pool.workers(jobs, ...)` workers, one per core at jobs=None, pull
    the listing in chunks (`pool.pmap`).  Output is sorted by (D, Q, P), for
    any job count.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    if d_max < max(2, d_min):
        raise ValueError("d_max must be >= max(2, d_min)")
    ds = range(max(2, d_min), d_max + 1)
    listing = _walked_discriminants(ds, ds.start)
    roots = _root_table(min(q_max, 2 * isqrt(d_max)))
    shares = pmap(lambda share: _scan_range((share, q_max, roots)), listing,
                  workers(jobs, len(listing)))
    return sorted(itertools.chain.from_iterable(shares), key=lambda h: (h.D, h.Q, h.P))
