"""Library calls outside their domain raise ValueError with a message that names the domain."""

import pytest

from cf2.bounds import classify_b2
from cf2.cf import CF, eval_finite
from cf2.doubling import production_counts, trio
from cf2.equiv import key_of_cf, scaled_equiv_certificate, scan_self_similar
from cf2.search import run, two_adic_valuation
from cf2.surd import QuadraticSurd

PERIODIC = CF(0, (1,), (2,))
FINITE = CF(0, (2,))
SURD = QuadraticSurd(3, 17, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: PERIODIC.value(), "only a finite continued fraction has a rational value"),
    (lambda: eval_finite(PERIODIC), "continued fraction is not finite"),
    (lambda: key_of_cf(FINITE), "rational values have no periodic tail"),
    (lambda: classify_b2(FINITE), "classification applies to eventually periodic input"),
    (lambda: FINITE.digit_prefix(5), "digit source exhausted"),
    (lambda: production_counts([]), "empty digit source"),
    (lambda: trio(SURD, 0), "n_max must be >= 1"),
    (lambda: two_adic_valuation(0), "valuation of zero is infinite"),
    (lambda: run(0), "C must be >= 1"),
    (lambda: scaled_equiv_certificate(SURD, 0, 1, 1), "target transform must be nonsingular"),
    (lambda: scan_self_similar(100, 0), "q_max must be >= 1"),
], ids=["value", "eval_finite", "key_of_cf", "classify_b2", "digit_prefix",
        "production_counts", "trio", "two_adic_valuation", "run",
        "scaled_equiv_certificate", "scan_self_similar"])
def test_out_of_domain_raises(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
