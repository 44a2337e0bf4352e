"""The library's producers skip the digit check: each is checked against the checked constructor.

`cf_of_rational`, `reciprocal`, `expand_surd`, `double_cf`, `halve_cf` and
`halve_plus1_cf` build their results through `_canonical_cf`, which only
canonicalizes.  Each is run twice on the same input: as shipped, and with
`_canonical_cf` replaced by `CF`, which checks every raw digit before it
canonicalizes.  The two results must be equal, and the result must be a
canonical CF of int digits with every body digit >= 1.
"""

import contextlib
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import cf2.cf
import cf2.doubling
import cf2.surd
from cf2.cf import CF, cf_of_rational, reciprocal
from cf2.doubling import double_cf, halve_cf, halve_plus1_cf
from cf2.surd import QuadraticSurd, expand_surd


@contextlib.contextmanager
def _checked_builds(builds: list):
    """Route every producer through `CF(...)`, recording the raw digits it is given."""
    def build(*digits):
        builds.append(digits)
        return CF(*digits)

    with contextlib.ExitStack() as stack:
        for module in (cf2.cf, cf2.surd, cf2.doubling):
            stack.enter_context(mock.patch.object(module, "_canonical_cf", build))
        yield


def _check_producer(produce, *args) -> CF:
    out = produce(*args)
    builds: list = []
    with _checked_builds(builds):
        slow = produce(*args)
    assert builds, "the producer did not build through _canonical_cf"
    assert out == slow
    assert type(out.a0) is int
    assert all(type(d) is int and d >= 1 for d in out.pre + out.period), out
    assert CF(out.a0, out.pre, out.period) == out
    return out


_digits = st.lists(st.one_of(st.integers(1, 3), st.integers(1, 40)), max_size=6)


@st.composite
def _cfs(draw, a0_min: int = -3) -> CF:
    """A finite (empty period) or eventually periodic CF, built by the checked constructor."""
    return CF(draw(st.integers(a0_min, 5)), tuple(draw(_digits)), tuple(draw(_digits)))


def _positive(cf: CF) -> bool:
    return cf.a0 >= 1 or (cf.a0 == 0 and bool(cf.pre or cf.period))


@given(st.one_of(st.fractions(), st.integers(-10**6, 10**6)))
@example(Fraction(3, 2))
@example(1)
def test_cf_of_rational_matches_checked_build(r):
    _check_producer(cf_of_rational, r)


@given(_cfs(a0_min=0).filter(_positive))
@example(CF(0, (1,)))
@example(CF(0, (), (1,)))
def test_reciprocal_matches_checked_build(cf):
    assert reciprocal(_check_producer(reciprocal, cf)) == cf


@given(st.integers(-500, 500), st.integers(2, 10**6).filter(lambda d: isqrt(d) ** 2 != d),
       st.integers(-50, 50).filter(bool))
@example(3, 17, 2)
@example(0, 2, 1)
def test_expand_surd_matches_checked_build(P, D, Q):
    _check_producer(expand_surd, QuadraticSurd(P, D, Q))


@given(_cfs())
@example(CF(0, (1,), (2,)))
@example(CF(-3, (), (1,)))
@example(CF(1, (2, 2, 2)))
def test_double_cf_matches_checked_build(cf):
    _check_producer(double_cf, cf)


@pytest.mark.parametrize("halve", [halve_cf, halve_plus1_cf])
@given(cf=_cfs(a0_min=0).filter(_positive))
@example(cf=CF(3, (), (1, 1, 3)))
@example(cf=CF(0, (2,)))
def test_halvings_match_checked_build(halve, cf):
    _check_producer(halve, cf)
