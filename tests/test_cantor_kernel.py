"""Cantor's addition on raw residue vectors against the Poly-based
composition it replaced, kept here verbatim as an oracle, and scalar_mul
against repeated addition."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from superelliptic.algebra import GF, QQ, Poly, lagrange_interpolate
from superelliptic.errors import DomainError, SingularCurveError
from superelliptic.jacobian import (
    HyperCurve,
    MumfordDivisor,
    _check_height,
    cantor_add,
    divisor_from_points,
    identity,
    jacobian_order_g2,
    negate,
    scalar_mul,
)


def oracle_cantor_add(d1, d2, height_cap=None):
    """Sum of divisor classes by Cantor composition and reduction."""
    if d1.curve != d2.curve:
        raise DomainError("divisors live on different curves")
    curve = d1.curve
    f, h, g = curve.f, curve.h, curve.genus
    u1, v1, u2, v2 = d1.u, d1.v, d2.u, d2.v
    e, e1, e2 = u1.xgcd(u2)
    d, c1, c2 = e.xgcd(v1 + v2 + h)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u3 = (u1 * u2).exact_div(d * d)
    v3 = (s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)).exact_div(d) % u3
    while u3.degree > g:
        u3, old = (f - v3 * h - v3 * v3).exact_div(u3), u3
        v3 = (-h - v3) % u3
    u3 = u3.monic()
    if u3.degree == 0:
        v3 = Poly.zero(curve.field)
    out = MumfordDivisor(curve, u3, v3 % u3 if u3.degree > 0 else v3)
    _check_height(out, height_cap)
    return out


FIELDS = {"GF(5)": GF(5), "GF(7)": GF(7), "GF(1009)": GF(1009),
          "GF(65521)": GF(65521), "GF(2^61-1)": GF(2**61 - 1), "QQ": QQ}


def _scalar(field):
    if field == QQ:
        return st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
    return st.integers(0, field.p - 1)


@st.composite
def curves_with_points(draw, field, genus=None):
    """(curve, points): y^2 + h y = f through affine points with distinct
    x, f monic of degree 2g + 1 built to fit them; the first point is a
    Weierstrass point (2y + h = 0) when the draw asks for one."""
    g = draw(st.sampled_from((2, 3))) if genus is None else genus
    xs_range = st.integers(-12, 12) if field == QQ else st.integers(0, field.p - 1)
    room = 2 * g + 1 if field == QQ else min(2 * g + 1, field.p)
    xs = draw(st.lists(xs_range, min_size=2, max_size=room, unique=True))
    xs = [field.of(x) for x in xs]
    h = Poly(field, draw(st.lists(_scalar(field), max_size=g + 1)) if draw(st.booleans()) else [])
    ys = [field.of(draw(_scalar(field))) for _ in xs]
    if draw(st.booleans()):
        ys[0] = -h(xs[0]) / 2
    top = Poly(field, [0] * (2 * g + 1) + [1])
    vals = [y * y + h(x) * y - top(x) for x, y in zip(xs, ys)]
    vanish = Poly.one(field)
    for x in xs:
        vanish = vanish * Poly(field, [-x, 1])
    free = Poly(field, draw(st.lists(_scalar(field), min_size=2 * g + 1 - len(xs),
                                     max_size=2 * g + 1 - len(xs))))
    f = top + lagrange_interpolate(field, xs, vals) + vanish * free
    try:
        curve = HyperCurve(f, h)
    except SingularCurveError:
        assume(False)
    return curve, list(zip(xs, ys))


def _divisors(draw, curve, pts):
    """Named divisors covering every pair kind: the identity, a degree-1
    divisor, two divisors on disjoint supports, one sharing a point with
    the first, and sums that are not supported on rational points."""
    g = curve.genus
    n = len(pts)
    order = draw(st.permutations(range(n)))
    a = [pts[i] for i in order[:min(g, n // 2)]]
    b = [pts[i] for i in order[len(a):len(a) + min(g, n - len(a))]]
    shared = [a[0]] + b[1:]
    divs = {"identity": identity(curve),
            "degree-1": divisor_from_points(curve, pts[:1]),
            "a": divisor_from_points(curve, a),
            "b": divisor_from_points(curve, b),
            "shared": divisor_from_points(curve, shared)}
    divs["a+b"] = oracle_cantor_add(divs["a"], divs["b"])
    divs["2(a+b)"] = oracle_cantor_add(divs["a+b"], divs["a+b"])
    return divs


@pytest.mark.parametrize("name", list(FIELDS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_cantor_add_matches_poly_oracle(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name]))
    divs = _divisors(data.draw, curve, pts)
    for x in divs.values():
        # every kind against every other, doubling (x, x) and D + (-D)
        for y in list(divs.values()) + [negate(x)]:
            assert cantor_add(x, y) == oracle_cantor_add(x, y)


@pytest.mark.parametrize("name", ["GF(7)", "GF(65521)", "GF(2^61-1)", "QQ"])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_scalar_mul_is_repeated_addition(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name]))
    d = divisor_from_points(curve, pts[:curve.genus])
    acc = identity(curve)
    for k in range(7):
        assert scalar_mul(k, d) == acc
        assert scalar_mul(-k, d) == negate(acc)
        acc = oracle_cantor_add(acc, d)


@pytest.mark.parametrize("name", ["GF(5)", "GF(7)", "GF(1009)"])
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_scalar_mul_by_the_group_order_is_the_identity(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=2))
    order = jacobian_order_g2(curve)
    for d in (divisor_from_points(curve, pts[:1]), divisor_from_points(curve, pts[:2])):
        assert scalar_mul(order, d).is_identity
        assert scalar_mul(order + 1, d) == d
        assert scalar_mul(-order - 1, d) == negate(d)


def test_height_cap_over_qq_matches_the_oracle():
    curve = HyperCurve.make(QQ, [1, 3, 0, 0, 0, 1])
    d = divisor_from_points(curve, [(0, 1)])
    for _ in range(40):
        d2 = oracle_cantor_add(d, d)
        cap = max(max(abs(c.numerator), c.denominator)
                  for c in d2.u.coeffs + d2.v.coeffs)
        assert cantor_add(d, d, height_cap=cap) == d2
        if cap > 1:
            with pytest.raises(DomainError, match="height exceeded"):
                cantor_add(d, d, height_cap=cap - 1)
        d = d2
        if cap > 10**30:
            break
