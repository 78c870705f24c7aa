"""Cantor's addition on raw residue vectors against the Poly-based
composition it replaced, kept here verbatim as an oracle, and scalar_mul
against repeated addition; the genus-2 and genus-3 explicit formulas over
GF(p), the pairs they decline and the straight lines that take those (sums
on points in genus 2; mixed degrees and a split at a shared root in genus
3); the interpolation adder against its Poly-based version."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from superelliptic import jacobian
from superelliptic.algebra import GF, QQ, Poly, kth_roots_in_field, lagrange_interpolate
from superelliptic.errors import DomainError, SingularCurveError
from superelliptic.jacobian import (
    HyperCurve,
    InterpolationSum,
    MumfordDivisor,
    _check_height,
    cantor_add,
    divisor_from_points,
    identity,
    interpolation_add_g2,
    jacobian_order_g2,
    mumford_validate,
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
def curves_with_points(draw, field, genus=None, with_h=None, weierstrass=None):
    """(curve, points): y^2 + h y = f through affine points with distinct
    x, f monic of degree 2g + 1 built to fit them; the first point is a
    Weierstrass point (2y + h = 0) when the draw asks for one.  with_h and
    weierstrass, when given, fix whether h != 0 and whether the first
    point is a Weierstrass point."""
    g = draw(st.sampled_from((2, 3))) if genus is None else genus
    xs_range = st.integers(-12, 12) if field == QQ else st.integers(0, field.p - 1)
    room = 2 * g + 1 if field == QQ else min(2 * g + 1, field.p)
    xs = draw(st.lists(xs_range, min_size=2, max_size=room, unique=True))
    xs = [field.of(x) for x in xs]
    h_on = draw(st.booleans()) if with_h is None else with_h
    h = Poly(field, draw(st.lists(_scalar(field), max_size=g + 1)) if h_on else [])
    if with_h is not None:
        assume(h.is_zero != with_h)
    ys = [field.of(draw(_scalar(field))) for _ in xs]
    if draw(st.booleans()) if weierstrass is None else weierstrass:
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


# ---------------------------------------------------------------------------
# genus 2 over GF(p): the explicit formulas inside cantor_add, and the pairs
# they decline, which _g2_special sums on points with no xgcd unless they
# meet a shared rational point twice

GF_NAMES = [name for name in FIELDS if name != "QQ"]
G2_SETTINGS = settings(max_examples=20, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow,
                                              HealthCheck.filter_too_much])


@contextmanager
def counting_xgcd():
    """Count the calls of raw_xgcd and raw_bezout made by cantor_add."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jacobian, "raw_xgcd", counted(jacobian.raw_xgcd))
        mp.setattr(jacobian, "raw_bezout", counted(jacobian.raw_bezout))
        yield calls


@pytest.mark.parametrize("with_h", [False, True], ids=["h=0", "h!=0"])
@pytest.mark.parametrize("name", GF_NAMES)
@G2_SETTINGS
@given(data=st.data())
def test_explicit_g2_sum_matches_poly_oracle(name, with_h, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=2, with_h=with_h))
    divs = [d for d in _divisors(data.draw, curve, pts).values() if d.u.degree == 2]
    for x in divs:
        for y in divs + [negate(x)]:  # additions, doublings (x, x), D + (-D)
            with counting_xgcd() as calls:
                got = cantor_add(x, y)
            assert got == oracle_cantor_add(x, y)
            assert calls[0] == 0 or _shares_a_point(x, y)


@pytest.mark.parametrize("name", GF_NAMES)
@G2_SETTINGS
@given(data=st.data())
def test_explicit_g2_declines_a_shared_root(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=2))
    assume(len(pts) >= 3)
    d1 = divisor_from_points(curve, pts[:2])
    d2 = divisor_from_points(curve, [pts[0], pts[2]])  # r = Res(u1, u2) = 0
    # (P0 + P1 + P2) + P0 on points, unless P0 + P1 + P2 reduces to a
    # divisor through x0 again: that pair meets P0 twice
    three = oracle_cantor_add(d1, divisor_from_points(curve, pts[2:3]))
    assume(three.u(pts[0][0]) != 0)
    with counting_xgcd() as calls:
        assert cantor_add(d1, d2) == oracle_cantor_add(d1, d2)
    assert calls[0] == 0


@pytest.mark.parametrize("name", GF_NAMES)
@G2_SETTINGS
@given(data=st.data())
def test_explicit_g2_declines_a_doubling_through_a_weierstrass_point(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=2, weierstrass=True))
    d = divisor_from_points(curve, pts[:2])  # 2v + h vanishes at pts[0]
    with counting_xgcd() as calls:  # 2 (W + Q) = 2Q on points
        assert cantor_add(d, d) == oracle_cantor_add(d, d)
    assert calls[0] == 0


@pytest.mark.parametrize("name", GF_NAMES)
@G2_SETTINGS
@given(data=st.data())
def test_explicit_g2_declines_a_sum_of_degree_1(name, data):
    # D2 = D3 - D1 for a degree-1 D3, so D1 + D2 = D3 and s1 = 0
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=2))
    assume(len(pts) >= 3)
    d1 = divisor_from_points(curve, pts[:2])
    d3 = divisor_from_points(curve, pts[2:3])
    d2 = oracle_cantor_add(d3, negate(d1))
    assume(d2.u.degree == 2 and d1.u.gcd(d2.u).degree == 0)
    with counting_xgcd() as calls:  # the explicit formulas, read from the top
        assert cantor_add(d1, d2) == d3
    assert calls[0] == 0


def _rational_points(curve, n):
    """The first n affine points off the Weierstrass locus, by x = 1, 2, ..."""
    field = curve.field
    pts = []
    x = 1
    while len(pts) < n:
        w = 4 * curve.f(field.of(x)) + curve.h(field.of(x)) ** 2
        roots = kth_roots_in_field(w, 2, field)
        if roots and roots[0] != 0:
            pts.append((x, (roots[0] - curve.h(field.of(x))) / 2))
        x += 1
    return pts


def test_explicit_g2_branch_is_taken():
    # a gate that sent every pair to the general composition would still
    # pass every test above that compares sums; the shared pair is summed
    # on points
    curve = HyperCurve.make(GF(65521), [7, 3, 0, 5, 2, 1], [1, 0, 4])
    pts = _rational_points(curve, 4)
    a = divisor_from_points(curve, pts[:2])
    b = divisor_from_points(curve, pts[2:])
    shared = divisor_from_points(curve, [pts[0], pts[2]])
    for x, y in [(a, b), (a, a), (a, shared)]:
        with counting_xgcd() as calls:
            assert cantor_add(x, y) == oracle_cantor_add(x, y)
        assert calls[0] == 0


@pytest.mark.parametrize("field", [GF(7), GF(65521), QQ], ids=["GF(7)", "GF(65521)", "QQ"])
def test_identity_plus_reduced_divisor_is_that_divisor(field):
    # the shortcut returns the other operand with no composition, and no
    # composed cubic, so the interpolation adder reports a fallback
    curve = HyperCurve.make(field, [1, -1, 0, 0, 0, 1])  # y^2 = x^5 - x + 1
    pts = [(0, 1), (1, 1), (-1, 1)]
    zero = identity(curve)
    for d in (zero, divisor_from_points(curve, pts[:1]), divisor_from_points(curve, pts[:2])):
        for x, y in ((zero, d), (d, zero)):
            with counting_xgcd() as calls:
                assert cantor_add(x, y) == oracle_cantor_add(x, y) == d
            assert calls[0] == 0
            assert interpolation_add_g2(x, y).used_fallback
    # an operand of degree 3 > g is not reduced, so the general code reduces it
    u = Poly.one(field)
    for x, _ in pts:
        u = u * Poly(field, [-x, 1])
    raw = MumfordDivisor(curve, u, Poly(field, [1]))
    with counting_xgcd() as calls:
        assert cantor_add(zero, raw) == oracle_cantor_add(zero, raw)
    assert calls[0] >= 1 and cantor_add(zero, raw).u.degree <= 2


# ---------------------------------------------------------------------------
# genus 2 over GF(p), every pair: the explicit formulas, the degenerate pairs
# on points, and the general code for the rest, as cantor_add,
# interpolation_add_g2 and weil_data_g2's pick all add

G2_ALL_PAIRS = [  # (p, f, h): every pair of divisors, h = 0 and h != 0
    (5, [3, 1, 3, 0, 4, 1], [3]),
    (7, [1, 0, 0, 0, 0, 1], []),
    (7, [0, 5, 2, 5, 5, 1], [4, 6, 5]),
    (11, [2, 8, 6, 5, 7, 1], []),
]


def _shares_a_point(d1, d2):
    """Whether a rational point lies in the support of both divisors: a
    root x of e = gcd(u1, u2), of degree <= 2, in GF(p), with v1(x) =
    v2(x)."""
    e = d1.u.gcd(d2.u)
    if e.degree < 2:  # x + c, or 1 with no root
        roots = [-e[0]] if e.degree == 1 else []
    else:  # x^2 + b x + c
        roots = [(r - e[1]) / 2 for r in kth_roots_in_field(e[1] * e[1] - 4 * e[0], 2, e.field)]
    return any(d1.v(x) == d2.v(x) for x in roots)


@pytest.mark.parametrize("p, f, h", G2_ALL_PAIRS, ids=[f"GF({p})-{i}" for i, (p, _, _) in
                                                       enumerate(G2_ALL_PAIRS)])
def test_raw_g2_sum_matches_poly_oracle_on_every_pair(p, f, h):
    curve = HyperCurve.make(GF(p), f, h)
    divs = jacobian.enumerate_divisors(curve)
    general = []
    for x in divs:
        for y in divs:
            with counting_xgcd() as calls:
                got = cantor_add(x, y)
            assert got == oracle_cantor_add(x, y)
            if calls[0]:
                general.append((x, y))
            if not h:  # the interpolation adder, fallbacks included
                got, want = interpolation_add_g2(x, y), oracle_interpolation_add_g2(x, y)
                assert (got.divisor, got.used_fallback, got.cubic) == (
                    want.divisor, want.used_fallback, want.cubic)
    # only pairs that share a point reach the general code
    assert general and all(_shares_a_point(a, b) for a, b in general)


@pytest.mark.parametrize("p, f, h", G2_ALL_PAIRS, ids=[f"GF({p})-{i}" for i, (p, _, _) in
                                                       enumerate(G2_ALL_PAIRS)])
def test_raw_g2_negation_matches_negate(p, f, h):
    curve = HyperCurve.make(GF(p), f, h)
    for d in jacobian.enumerate_divisors(curve):
        n = negate(d)
        assert jacobian._g2_neg(p, curve.h.raw, (d.u.raw, d.v.raw)) == (n.u.raw, n.v.raw)


# ---------------------------------------------------------------------------
# genus 3 over GF(p): the explicit sum inside cantor_add (s = w t^-1 mod u2
# from a 3 x 3 adjugate), the mixed-degree and shared-root sums that take
# what it does not cover, and the pairs left to the general code

G3_FIELDS = {"GF(3)": GF(3), **{name: FIELDS[name] for name in GF_NAMES}}
G3_SETTINGS = settings(max_examples=15, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow,
                                              HealthCheck.filter_too_much])


def _g3_leftover(x, y, total):
    """Whether cantor_add leaves x + y = total to the general code in genus
    3 over GF(p): two operands of degree 1 or 2; a point plus a D whose u
    vanishes at its x; an operand of degree 2 sharing a root with one of
    degree 3; two of degree 3 that the explicit line declines (a doubling
    with 2v + h not prime to u, a total of degree < 3, two or three shared
    roots), unless they share one root x0 and the split sum, x + A for y =
    Q + A (or y + A for x = Q + A where x0 is a double root of y.u), does
    not meet x0 again."""
    if x.is_identity or y.is_identity:
        return False
    if x.u.degree < y.u.degree:
        x, y = y, x
    curve = x.curve
    if x.u.degree < 3:
        return True
    if y.u.degree == 1:
        return x.u(-y.u[0]) == 0
    if y.u.degree == 2:
        return x.u.gcd(y.u).degree > 0
    e = x.u.gcd(y.u if x != y else 2 * x.v + curve.h)
    if e.degree == 0:
        return total.u.degree < 3
    if x == y or e.degree > 1:
        return True
    x0 = -e[0]
    line = Poly(curve.field, [-x0, 1])
    if y.u.exact_div(line)(x0) == 0:
        x, y = y, x
    rest = y.u.exact_div(line)
    return oracle_cantor_add(x, MumfordDivisor(curve, rest, y.v % rest)).u(x0) == 0


def _degree_3_divisors(draw, curve, pts):
    """The degree-3 divisors among _divisors and the multiples 2..5 of
    a + b, which over the smallest fields are the only ones of degree 3."""
    divs = _divisors(draw, curve, pts)
    ladder = [divs["a+b"]]
    for _ in range(4):
        ladder.append(oracle_cantor_add(ladder[-1], divs["a+b"]))
    return [d for d in dict.fromkeys([*divs.values(), *ladder]) if d.u.degree == 3]


@pytest.mark.parametrize("with_h", [False, True], ids=["h=0", "h!=0"])
@pytest.mark.parametrize("name", list(G3_FIELDS))
@G3_SETTINGS
@given(data=st.data())
def test_explicit_g3_sum_matches_poly_oracle(name, with_h, data):
    curve, pts = data.draw(curves_with_points(G3_FIELDS[name], genus=3, with_h=with_h))
    divs = _degree_3_divisors(data.draw, curve, pts)
    for x in divs:
        for y in divs + [negate(x)]:  # additions, doublings (x, x), D + (-D)
            with counting_xgcd() as calls:
                got = cantor_add(x, y)
            want = oracle_cantor_add(x, y)
            assert got == want
            assert (calls[0] > 0) == _g3_leftover(x, y, want)


@pytest.mark.parametrize("with_h", [False, True], ids=["h=0", "h!=0"])
@pytest.mark.parametrize("name", ["GF(1009)", "GF(65521)", "GF(2^61-1)"])
@G3_SETTINGS
@given(data=st.data())
def test_g3_mixed_degree_sum_takes_no_xgcd(name, with_h, data):
    # a point (3 + 1) or a degree-2 divisor (3 + 2) plus a degree-3 one on
    # other points, or plus a sum not supported on rational points
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=3, with_h=with_h))
    assume(len(pts) >= 5)
    d = divisor_from_points(curve, pts[:3])
    total = oracle_cantor_add(d, divisor_from_points(curve, pts[3:5]))
    for small in (divisor_from_points(curve, pts[3:4]), divisor_from_points(curve, pts[3:5])):
        for big in (d, total):
            for x, y in ((small, big), (big, small)):
                with counting_xgcd() as calls:
                    got = cantor_add(x, y)
                want = oracle_cantor_add(x, y)
                assert got == want
                assert (calls[0] > 0) == _g3_leftover(x, y, want)
                assert calls[0] == 0 or big is total


@pytest.mark.parametrize("name", GF_NAMES)
@G3_SETTINGS
@given(data=st.data())
def test_explicit_g3_declines_a_shared_root(name, data):
    # r = Res(u2, u1 - u2) = 0: D2 = Q + A2 at the shared root, and (D1 +
    # A2) + Q, whether Q is the point of D1 there or its opposite; the
    # general code only where D1 + A2 meets x0 again (at small p)
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=3))
    assume(len(pts) >= 5)
    (x0, y0), rest = pts[0], pts[3:5]
    d1 = divisor_from_points(curve, pts[:3])
    for q in ((x0, y0), (x0, -y0 - curve.h(x0))):
        d2 = divisor_from_points(curve, [q, *rest])
        for x, y in ((d1, d2), (d2, d1)):
            with counting_xgcd() as calls:
                got = cantor_add(x, y)
            want = oracle_cantor_add(x, y)
            assert got == want
            assert (calls[0] > 0) == _g3_leftover(x, y, want)


@pytest.mark.parametrize("name", GF_NAMES)
@G3_SETTINGS
@given(data=st.data())
def test_explicit_g3_declines_d_plus_minus_d(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=3))
    assume(len(pts) >= 3)
    d = divisor_from_points(curve, pts[:3])  # u1 = u2, so t = 0
    with counting_xgcd() as calls:
        assert cantor_add(d, negate(d)).is_identity
    assert calls[0] >= 1


@pytest.mark.parametrize("name", GF_NAMES)
@G3_SETTINGS
@given(data=st.data())
def test_explicit_g3_declines_a_doubling_through_a_weierstrass_point(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=3, weierstrass=True))
    assume(len(pts) >= 3)
    d = divisor_from_points(curve, pts[:3])  # 2v + h vanishes at pts[0]
    with counting_xgcd() as calls:
        assert cantor_add(d, d) == oracle_cantor_add(d, d)
    assert calls[0] >= 1


@pytest.mark.parametrize("name", GF_NAMES)
@G3_SETTINGS
@given(data=st.data())
def test_explicit_g3_declines_a_sum_of_degree_below_3(name, data):
    # D2 = D3 - D1 for D3 of degree 1 or 2, so D1 + D2 = D3 and s2 = 0
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=3))
    assume(len(pts) >= 4)
    d1 = divisor_from_points(curve, pts[:3])
    d3 = divisor_from_points(curve, pts[3:5])
    d2 = oracle_cantor_add(d3, negate(d1))
    assume(d2.u.degree == 3 and d1.u.gcd(d2.u).degree == 0)
    with counting_xgcd() as calls:
        assert cantor_add(d1, d2) == d3
    assert calls[0] >= 1


def test_explicit_g3_branch_is_taken():
    # as for genus 2: a gate that sent every pair to the general code would
    # pass the comparisons above; the explicit line, the mixed-degree sums
    # and the split at a shared root (same or opposite point) take none, a
    # point plus a divisor through it or its opposite does
    curve = HyperCurve.make(GF(65521), [5, 0, 11, 3, 0, 7, 2, 1], [3, 1, 0, 2])
    pts = _rational_points(curve, 6)
    a = divisor_from_points(curve, pts[:3])
    b = divisor_from_points(curve, pts[3:])
    (x0, y0), rest = pts[0], pts[3:5]
    shared = divisor_from_points(curve, [pts[0], *rest])
    opposite = divisor_from_points(curve, [(x0, -y0 - curve.h(x0)), *rest])
    point, pair = divisor_from_points(curve, pts[:1]), divisor_from_points(curve, rest)
    for x, y, general in [(a, b, False), (a, a, False), (a, shared, False),
                          (opposite, a, False), (b, point, False), (pair, a, False),
                          (negate(point), a, True), (point, a, True)]:
        with counting_xgcd() as calls:
            assert cantor_add(x, y) == oracle_cantor_add(x, y)
        assert (calls[0] >= 1) == general


G3_ALL_PAIRS = [  # (p, f, h): every pair of divisors, h = 0 and h != 0
    (3, [1, 1, 0, 1, 2, 1, 1, 1], []),
    (3, [1, 1, 1, 2, 0, 2, 0, 1], [1, 0, 0, 2]),
    (5, [2, 0, 3, 4, 0, 1, 4, 1], []),
    (5, [2, 3, 2, 4, 1, 4, 1, 1], [2, 1, 0, 4]),
]


@pytest.mark.parametrize("p, f, h", G3_ALL_PAIRS, ids=[f"GF({p})-{i}" for i, (p, _, _) in
                                                       enumerate(G3_ALL_PAIRS)])
def test_raw_g3_sum_matches_poly_oracle_on_every_pair(p, f, h):
    # over the smallest fields every kind of pair occurs, the leftovers too
    curve = HyperCurve.make(GF(p), f, h)
    divs = jacobian.enumerate_divisors(curve)
    for x in divs:
        for y in divs:
            with counting_xgcd() as calls:
                got = cantor_add(x, y)
            want = oracle_cantor_add(x, y)
            assert got == want
            assert (calls[0] > 0) == _g3_leftover(x, y, want)


@pytest.mark.parametrize("name", ["GF(1009)", "GF(65521)", "GF(2^61-1)"])
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_g3_scalar_mul_is_repeated_addition(name, data):
    # a long ladder of explicit doublings and additions with h != 0
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=3, with_h=True))
    assume(len(pts) >= 3)
    d = divisor_from_points(curve, pts[:3])
    k = data.draw(st.integers(8, 200))
    acc = identity(curve)
    for _ in range(k):
        acc = oracle_cantor_add(acc, d)
    assert scalar_mul(k, d) == acc


def oracle_interpolation_add_g2(d1, d2):
    """interpolation_add_g2 as it composed its own cubic with Poly objects,
    verbatim but for oracle_cantor_add in the fallback."""
    curve = d1.curve
    if curve != d2.curve:
        raise DomainError("divisors live on different curves")
    if curve.genus != 2 or not curve.h.is_zero:
        raise DomainError("interpolation addition needs genus 2 and h = 0")
    f = curve.f
    u1, v1, u2, v2 = d1.u, d1.v, d2.u, d2.v
    general = (
        u1.degree == 2
        and u2.degree == 2
        and u1.gcd(u2).degree == 0
        and u1.is_squarefree()
        and u2.is_squarefree()
    )
    if general:
        # cubic g with g = v1 mod u1, g = v2 mod u2 (Chinese remainder)
        _, inv, _ = u1.xgcd(u2)
        g = v1 + u1 * ((inv * (v2 - v1)) % u2)
        if g.degree == 3:
            u3 = (g * g - f).exact_div(u1 * u2).monic()
            v3 = (-g) % u3
            out = mumford_validate(u3, v3, curve)
            return InterpolationSum(divisor=out, used_fallback=False, cubic=g)
    return InterpolationSum(
        divisor=oracle_cantor_add(d1, d2), used_fallback=True, cubic=None
    )


@pytest.mark.parametrize("name", list(FIELDS))
@G2_SETTINGS
@given(data=st.data())
def test_interpolation_add_g2_matches_its_poly_version(name, data):
    curve, pts = data.draw(curves_with_points(FIELDS[name], genus=2, with_h=False))
    divs = list(_divisors(data.draw, curve, pts).values())
    if len(pts) >= 3:  # a pair whose sum has degree 1
        d1 = divisor_from_points(curve, pts[:2])
        divs += [d1, oracle_cantor_add(divisor_from_points(curve, pts[2:3]), negate(d1))]
    for x in divs:
        for y in divs + [negate(x)]:
            got, want = interpolation_add_g2(x, y), oracle_interpolation_add_g2(x, y)
            assert (got.divisor, got.used_fallback, got.cubic) == (
                want.divisor, want.used_fallback, want.cubic)
