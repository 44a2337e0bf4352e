import random
import re
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, strategies as st

from cf2.cf import (
    CF,
    CFParseError,
    _reciprocal_digits,
    cf_of_rational,
    convergents,
    eval_finite,
    fold_word,
    least_rotation,
    parse_cf,
    primitive_word,
    reciprocal,
)
from cf2.surd import (
    QuadraticSurd,
    SurdParseError,
    expand_surd,
    parse_surd,
    recip_surd,
    surd_of_periodic_cf,
)


def test_euclidean_expansion_17_12():
    assert cf_of_rational(Fraction(17, 12)) == CF(1, (2, 2, 2))


def test_integer_and_unit_fraction():
    assert cf_of_rational(5) == CF(5)
    assert cf_of_rational(Fraction(1, 2)) == CF(0, (2,))


def test_eval_finite_inverts():
    assert eval_finite(CF(0, (2,))) == Fraction(1, 2)
    assert eval_finite(CF(1, (2, 2, 2))) == Fraction(17, 12)


def test_alpha_min_fixture():
    # back-substitution oracle for [0; 1, 1, 2, 1, 2, 1, 3]
    digits = [0, 1, 1, 2, 1, 2, 1, 3]
    val = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        val = d + 1 / val
    assert val == Fraction(56, 97)
    assert eval_finite(CF(0, (1, 1, 2, 1, 2, 1, 3))) == Fraction(56, 97)


def test_trailing_one_folds():
    assert CF(1, (2, 2, 1)) == CF(1, (2, 3))
    assert CF(0, (1,)) == CF(1)
    assert eval_finite(CF(1, (2, 2, 1))) == eval_finite(CF(1, (2, 3)))


def test_period_canonicalization():
    assert CF(0, (), (1, 3, 1, 3)) == CF(0, (), (1, 3))
    # absorption rotates the period and trims the preperiod
    assert CF(3, (1,), (1, 3, 1)) == CF(3, (), (1, 1, 3))


def test_rejects_bad_digits():
    with pytest.raises(ValueError):
        CF(1, (0,))
    with pytest.raises(ValueError):
        CF(1, (), (2, -1))
    with pytest.raises(ValueError, match=r"^body digit must be a positive integer, got 0$"):
        CF(1, (2, 0), (-1,))
    with pytest.raises(ValueError, match=r"^body digit must be a positive integer, got '3'$"):
        CF(1, (2,), (1, "3", 0))
    with pytest.raises(ValueError, match=r"^body digit must be a positive integer, got 1.5$"):
        CF(1, (1.5,))
    with pytest.raises(ValueError, match=r"^integer part must be an int, got 1.0$"):
        CF(1.0, (2,))


def test_convergents_fibonacci():
    cf = CF(0, (), (1,))
    qs = [c.q for c in convergents(cf, 5)]
    assert qs == [1, 1, 2, 3, 5, 8]


def test_convergents_final_17_12():
    conv = convergents(CF(1, (2, 2, 2)), 3)
    assert (conv[-1].p, conv[-1].q) == (17, 12)
    with pytest.raises(ValueError):
        convergents(CF(1, (2, 2, 2)), 4)


def test_convergent_determinant_and_parity():
    rng = random.Random(7)
    for _ in range(50):
        digits = [rng.randint(-4, 4)] + [rng.randint(1, 9) for _ in range(12)]
        conv = convergents(iter(digits), 12)
        for k in range(1, 12):
            det = conv[k].p * conv[k - 1].q - conv[k - 1].p * conv[k].q
            assert det == (-1) ** (k - 1)
            assert conv[k].q % 2 or conv[k - 1].q % 2


@given(st.fractions())
def test_rational_round_trip(r):
    assert eval_finite(cf_of_rational(r)) == r


@given(st.integers(-9, 9), st.lists(st.integers(1, 30), max_size=8))
def test_canonical_form_is_stable(a0, body):
    cf = cf_of_rational(eval_finite(CF(a0, tuple(body))))
    assert cf == CF(a0, tuple(body))


def test_parse_print_round_trip_fixed():
    for text in ("[5]", "[-4]", "[1; 2, 2, 2]", "[0; 2, (1, 1, 3)]",
                 "[7; (8)]", "[(3; 1, 1)]", "[(2)]", "[-2; 1, 1, (2)]"):
        cf = parse_cf(text)
        assert str(cf) == text
        assert parse_cf(str(cf)) == cf


def test_parse_noncanonical_input_normalizes():
    assert parse_cf("[3; 1, (1, 3, 1)]") == parse_cf("[(3; 1, 1)]")


MALFORMED_LITERALS = [  # parser, text, error class, message, position
    (parse_cf, "[1; 2, x]", CFParseError, "expected an integer", 7),
    (parse_cf, "1; 2", CFParseError, "expected '['", 0),
    (parse_cf, "[1; 2, oops]", CFParseError, "expected an integer", 7),
    (parse_cf, "", CFParseError, "expected '['", 0),
    (parse_cf, "[1; 2", CFParseError, "expected ']'", 5),
    (parse_cf, "[1; (2, 3]", CFParseError, "expected ')'", 9),
    (parse_cf, "[(3; 1, 1]", CFParseError, "expected ')'", 9),
    (parse_cf, "[1] x", CFParseError, "trailing input", 4),
    (parse_cf, "[+]", CFParseError, "expected an integer", 1),
    (parse_cf, "[1;; 2]", CFParseError, "expected an integer", 3),
    (parse_cf, "[²]", CFParseError, "expected an integer", 1),
    (parse_cf, "[1; 0]", CFParseError, "body digit must be a positive integer, got 0", 0),
    (parse_surd, "3 + sqrt(17)/2", SurdParseError, "expected '('", 0),
    (parse_surd, "(3 + sqr(17))/2", SurdParseError, "expected 'sqrt'", 5),
    (parse_surd, "(3 + sqrt(17))/2 x", SurdParseError, "trailing input", 17),
    (parse_surd, "(3 + sqrt(16))/2", SurdParseError, "D must be a positive nonsquare, got 16", 0),
    (parse_surd, "", SurdParseError, "expected '('", 0),
    (parse_surd, "(3 - sqrt(17))/2", SurdParseError, "expected '+'", 3),
    (parse_surd, "(3 + sqrt(17)/2", SurdParseError, "expected ')'", 13),
    (parse_surd, "(+ + sqrt(17))/2", SurdParseError, "expected an integer", 1),
    (parse_surd, "(3 + sqrt(17))/0", SurdParseError, "Q must be nonzero", 0),
    (parse_surd, "(3 + sqrt(1²))/2", SurdParseError, "expected ')'", 11),
]


def test_parse_errors_carry_position():
    for parse, text, cls, message, pos in MALFORMED_LITERALS:
        with pytest.raises(ValueError) as err:
            parse(text)
        assert type(err.value) is cls, text
        assert str(err.value) == f"{message} (at position {pos})", text
        assert err.value.pos == pos, text


_TOKEN = re.compile(r"[+-]?\d+|sqrt|\S")
_GAPS = st.sampled_from(["", " ", "  ", "\t", "\n "])


@given(st.data())
def test_whitespace_between_tokens_is_ignored(data):
    cf = CF(data.draw(st.integers(-9, 9)),
            tuple(data.draw(st.lists(st.integers(1, 9), max_size=4))),
            tuple(data.draw(st.lists(st.integers(1, 9), max_size=4))))
    s = QuadraticSurd(data.draw(st.integers(-60, 60)),
                      data.draw(st.integers(2, 500).filter(lambda d: isqrt(d) ** 2 != d)),
                      data.draw(st.integers(-20, 20).filter(bool)))
    for parse, value in ((parse_cf, cf), (parse_surd, s)):
        tokens = _TOKEN.findall(str(value))
        assert "".join(tokens) == str(value).replace(" ", "")
        gaps = data.draw(st.lists(_GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        text = gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))
        assert parse(text) == value, text


def test_purely_periodic_flag():
    assert parse_cf("[(3; 1, 1)]").is_purely_periodic
    assert not parse_cf("[7; (8)]").is_purely_periodic
    assert not parse_cf("[0; 2, (1, 1, 3)]").is_purely_periodic


def test_reciprocal():
    assert reciprocal(parse_cf("[(3; 1, 1)]")) == parse_cf("[0; (3, 1, 1)]")
    assert reciprocal(parse_cf("[0; (3, 1, 1)]")) == parse_cf("[(3; 1, 1)]")
    assert reciprocal(CF(0, (2,))) == CF(2)
    assert eval_finite(reciprocal(CF(1, (2, 3)))) == 1 / eval_finite(CF(1, (2, 3)))


@st.composite
def _raw_digits(draw):
    """(a0, pre, period) as written, not canonicalized: periods may repeat a
    shorter word, and the preperiod may end with digits the period absorbs."""
    word = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    period = word * draw(st.integers(1, 3))
    pre = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    if period:
        pre += period[len(period) - draw(st.integers(0, len(period))):]
    return draw(st.integers(0, 6)), pre, period


@given(_raw_digits())
@example((0, (), (1, 2, 1, 2)))
@example((0, (2,), (1, 2)))
@example((0, (1, 2), (1, 2, 1, 2)))
@example((0, (), (3,)))
@example((3, (), (1, 1, 3)))
@example((0, (1,), ()))
@example((2, (3, 1), ()))
def test_reciprocal_digits_match_surd_and_rational_oracles(raw):
    a0, pre, period = raw
    assume(a0 or pre or period)  # zero: see the next test
    x = CF(a0, pre, period)
    flipped = CF(*_reciprocal_digits(a0, pre, period))
    if period:
        assert flipped == expand_surd(recip_surd(surd_of_periodic_cf(x)))
    else:
        assert eval_finite(flipped) == 1 / eval_finite(x)
    assert reciprocal(x) == flipped


def test_reciprocal_digits_reject_zero_and_negative():
    with pytest.raises(ZeroDivisionError):
        _reciprocal_digits(0, (), ())
    with pytest.raises(ValueError, match="positive"):
        _reciprocal_digits(-1, (2,), (1, 3))
    with pytest.raises(ValueError, match="positive"):
        reciprocal(CF(-2, (), (1,)))


def test_fold_word_matches_convergents():
    digits = (2, 1, 4, 1, 8)
    conv = convergents(iter(digits), 4)
    assert fold_word(digits) == (conv[4].p, conv[4].q, conv[3].p, conv[3].q)


_small_words = st.lists(st.integers(1, 3), min_size=1, max_size=10).map(tuple)


@given(st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=40).map(tuple),
    st.lists(st.integers(1, 9), min_size=1, max_size=40).map(tuple),
    st.builds(lambda w, n: w * n, _small_words, st.integers(2, 4)),
))
@example((1, 2, 1, 2))
@example((2, 1, 1, 2, 1, 1))
@example((5,))
def test_least_rotation_matches_every_rotation(word):
    assert least_rotation(word) == min(word[i:] + word[:i] for i in range(len(word)))


@given(st.lists(st.integers(1, 3), min_size=1, max_size=12).map(tuple), st.integers(1, 6))
@example((1, 2, 1, 2), 3)
@example((1, 1), 6)
@example((1, 2, 1, 1, 2, 1), 5)
def test_primitive_word_matches_brute_force(word, reps):
    w = word * reps
    n = len(w)
    brute = next(w[:p] for p in range(1, n + 1) if n % p == 0 and w[:p] * (n // p) == w)
    assert primitive_word(w) == brute
