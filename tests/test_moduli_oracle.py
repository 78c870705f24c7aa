"""Moduli points and equivalence decisions against the same decisions
read off the full invariant records, `igusa_sextic(f).tuple()` and
`octavic_invariants(f).moduli_tuple()`: the same values, of the same
types, or the same refusal, exception type and message.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from superelliptic.algebra import GF, QQ, Mat2, Poly, discriminant, match_weighted_scale
from superelliptic.curves import SuperellipticCurve
from superelliptic.errors import DomainError, SingularCurveError
from superelliptic.invariants import (
    OCTAVIC_WEIGHTS,
    SEXTIC_WEIGHTS,
    igusa_sextic,
    octavic_equivalent,
    octavic_invariants,
    sextic_equivalent,
)
from superelliptic.weighted import moduli_point

FIELDS = [QQ] + [GF(p) for p in (3, 5, 7, 11, 13, 1009)]

# polynomials f(x), low degree first, whose forms have covariants that
# vanish identically: x^8 - 14 x^4 y^4 + y^8 has J4..J10 = 0, and
# x^6 - y^6 and x^5 y - x y^5 have Clebsch's D = 0
VANISHING = [[1, 0, 0, 0, -14, 0, 0, 0, 1], [-1, 0, 0, 0, 0, 0, 1], [0, -1, 0, 0, 0, 1]]


def _full_moduli_point(curve):
    """moduli_point read off the full records."""
    if curve.n != 2:
        raise DomainError("moduli points are implemented for n = 2")
    form = curve.binary_form()
    if not discriminant(form):
        raise SingularCurveError("defining binary form has a repeated root")
    if form.degree == 6:
        return igusa_sextic(form).tuple()
    if form.degree == 8:
        return octavic_invariants(form).moduli_tuple()
    raise DomainError("moduli points need deg f in {5, 6, 7, 8}")


def _full_equivalent(f, g):
    """sextic_equivalent / octavic_equivalent read off the full records."""
    if f.degree == 6:
        inv_f, inv_g = igusa_sextic(f), igusa_sextic(g)
        if not inv_f.J10 or not inv_g.J10:
            raise SingularCurveError("sextic equivalence needs nonzero discriminants")
        return match_weighted_scale(inv_f.tuple(), inv_g.tuple(), SEXTIC_WEIGHTS, f.field)
    if not discriminant(f) or not discriminant(g):
        raise SingularCurveError("octavic equivalence needs nonzero discriminants")
    return match_weighted_scale(octavic_invariants(f).moduli_tuple(),
                                octavic_invariants(g).moduli_tuple(),
                                OCTAVIC_WEIGHTS[:6], f.field)


def _outcome(fn, *args):
    """The typed values fn returns, or the type and message of its refusal."""
    try:
        out = fn(*args)
    except Exception as e:  # noqa: BLE001 - the refusal itself is compared
        return "raised", type(e), str(e)
    if out is None or not isinstance(out, tuple):
        return "value", type(out), out
    return "value", tuple((type(x), x) for x in out)


def _moduli_coords(curve):
    return moduli_point(curve).coords


def _equivalent(f, g):
    return (sextic_equivalent if f.degree == 6 else octavic_equivalent)(f, g)


@st.composite
def curves(draw, field=None, degree=None):
    """y^2 = f(x) over one of FIELDS, deg f in 5..8 (a vanishing-covariant
    polynomial one time in five), coefficients with denominators over Q."""
    field = field or draw(st.sampled_from(FIELDS))
    if degree is None and draw(st.integers(0, 4)) == 0:
        coeffs = draw(st.sampled_from(VANISHING))
    else:
        deg = degree or draw(st.integers(5, 8))
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
        coeffs.append(draw(st.sampled_from([1, -1, 2])))  # nonzero mod 3, 5, 7
        if field == QQ:
            coeffs = [Fraction(c, draw(st.sampled_from([1, 2, 3, 7]))) for c in coeffs]
    return SuperellipticCurve(2, Poly(field, coeffs))


@st.composite
def matrices(draw, field):
    a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
    assume(field.of(a * d - b * c))
    return Mat2(field, a, b, c, d)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("coeffs", VANISHING, ids=lambda c: f"deg{len(c) - 1}")
def test_vanishing_covariants_moduli_point_matches_full_record(field, coeffs):
    curve = SuperellipticCurve(2, Poly(field, coeffs))
    assert _outcome(_moduli_coords, curve) == _outcome(_full_moduli_point, curve)


@given(curves(), st.data())
@settings(max_examples=150, deadline=None)
def test_moduli_point_matches_full_record(curve, data):
    assert _outcome(_moduli_coords, curve) == _outcome(_full_moduli_point, curve)
    # and on a GL2 transform, whose form may lose degree at infinity
    moved = curve.binary_form().substitute(data.draw(matrices(curve.field)))
    moved = SuperellipticCurve(2, moved.to_poly())
    assert _outcome(_moduli_coords, moved) == _outcome(_full_moduli_point, moved)


@given(curves(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_equivalence_matches_full_record(curve, transform, data):
    f = curve.binary_form()
    if transform:  # a GL2 transform: equivalent unless a refusal comes first
        g = f.substitute(data.draw(matrices(curve.field)))
    else:  # a distinct form of the same degree over the same field
        other = data.draw(curves(curve.field, curve.f.degree))
        g = other.binary_form()
        assume(g.degree == f.degree)
    assert _outcome(_equivalent, f, g) == _outcome(_full_equivalent, f, g)
    assert _outcome(_equivalent, g, f) == _outcome(_full_equivalent, g, f)
