"""Refusals of outside input that no other test reaches: each call must
raise its documented error type with its exact message."""

from fractions import Fraction

import pytest

from superelliptic import cli
from superelliptic.algebra import (
    GF,
    QQ,
    BinaryForm,
    Poly,
    PrimeField,
    discriminant,
    factorize,
    transvectant,
    valuation,
)
from superelliptic.curves import SuperellipticCurve
from superelliptic.errors import DomainError, ParseError, UnsupportedCaseError
from superelliptic.jacobian import HyperCurve, enumerate_divisors, weil_data_g2
from superelliptic.minimal import EllipticModel
from superelliptic.theta import HalfIntChar
from superelliptic.weighted import WeightedPoint, moduli_point

QUINTIC = [1, 0, 0, 0, 0, 1]  # x^5 + 1


def _char2_curve():
    """A HyperCurve over a stand-in for GF(2), which PrimeField refuses to
    build, so the curve's own characteristic check is what answers."""
    f2 = object.__new__(PrimeField)
    f2.p = f2.characteristic = 2
    f2._red = (2).__rmod__
    return HyperCurve(Poly(f2, QUINTIC), Poly(f2, []))


def _form(coeffs, field=QQ):
    return BinaryForm(field, len(coeffs) - 1, coeffs)


REFUSALS = [
    ("hyper-mixed-fields", lambda: HyperCurve(Poly(GF(7), QUINTIC), Poly(GF(11), [1])),
     DomainError, "f and h need the same coefficient field"),
    ("hyper-not-monic", lambda: HyperCurve.make(QQ, [1, 0, 0, 0, 0, 2]),
     DomainError, "f must be monic"),
    ("hyper-deg-h", lambda: HyperCurve.make(QQ, QUINTIC, [0, 0, 0, 1]),
     DomainError, "deg h must be at most g"),
    ("hyper-char-2", _char2_curve, DomainError, "characteristic 2 not supported"),
    ("superelliptic-level", lambda: SuperellipticCurve(1, Poly(QQ, [1, 0, 1])),
     DomainError, "superelliptic level n must be >= 2"),
    ("superelliptic-constant", lambda: SuperellipticCurve(2, Poly(QQ, [3])),
     DomainError, "defining polynomial must be nonconstant"),
    ("point-zero", lambda: WeightedPoint((0, 0), (1, 2)),
     DomainError, "the zero tuple is not a weighted point"),
    ("point-weight", lambda: WeightedPoint((1, 1), (1, 0)),
     DomainError, "weights must be positive integers"),
    ("char-shape", lambda: HalfIntChar((0, 1), (0,)),
     DomainError, "top and bottom rows differ in length"),
    ("char-entries", lambda: HalfIntChar((2,), (0,)),
     DomainError, "entries must be 0 or 1 (standing for 0 or 1/2)"),
    ("elliptic-non-integer", lambda: EllipticModel(0, 0, 0, Fraction(1, 2), 0),
     DomainError, "EllipticModel needs integer coefficients"),
    ("moduli-non-curve", lambda: moduli_point(Poly(QQ, QUINTIC)),
     DomainError, "moduli_point expects a SuperellipticCurve"),
    ("moduli-level", lambda: moduli_point(SuperellipticCurve(3, Poly(QQ, [1, 0, 0, 0, 1]))),
     DomainError, "moduli points are implemented for n = 2"),
    ("weil-over-q", lambda: weil_data_g2(HyperCurve.make(QQ, QUINTIC)),
     UnsupportedCaseError, "order computation needs GF(p), p an odd prime"),
    ("enumerate-over-q", lambda: enumerate_divisors(HyperCurve.make(QQ, QUINTIC)),
     DomainError, "enumeration needs a finite field"),
    ("factorize-0", lambda: factorize(0), DomainError, "factorize expects a positive integer"),
    ("valuation-0", lambda: valuation(0, 2), DomainError, "valuation of 0 is infinite"),
    ("form-size", lambda: BinaryForm(QQ, 2, [1, 2]),
     DomainError, "degree 2 form needs 3 coefficients"),
    ("form-zero", lambda: _form([0, 0, 0]),
     DomainError, "the zero form is not a valid BinaryForm"),
    ("transvectant-non-form", lambda: transvectant(_form([1, 0, 1]), Poly(QQ, [1, 1]), 1),
     DomainError, "transvectant expects binary forms"),
    ("transvectant-fields", lambda: transvectant(_form([1, 0, 1]), _form([1, 0, 1], GF(7)), 1),
     DomainError, "mixed coefficient fields"),
    ("transvectant-order", lambda: transvectant(_form([1, 0, 1]), _form([1, 1]), 2),
     DomainError, "transvection order 2 exceeds min degree"),
    ("discriminant-degree", lambda: discriminant(_form([1, 1])),
     DomainError, "discriminant needs degree >= 2"),
    ("parse-field", lambda: cli.parse_field("GF(x)"), ParseError, "bad field 'GF(x)'"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
