"""Divisor class group arithmetic on hyperelliptic curves y^2 + h y = f
with f monic of degree 2g+1: Mumford representation, Cantor's
composition-and-reduction addition, the genus-2 geometric adder through
an interpolated cubic, and genus-2 group orders over GF(p) through the
Weil polynomial in O(p): a and b mod p from the Cartier-Manin matrix, and
the order N among the Hasse-Weil candidates with [N]D = 0, for p up to
ORDER_MAX_P = 10^6 (about 2 s and 26 MB peak RSS at p = 999983).

Cantor's addition runs on the raw coefficient vectors of u and v in one
dispatcher, _raw_sum, shared by cantor_add, interpolation_add_g2 and the
group-order pick; see there for the order it tries.  Per cantor_add call
in genus 2 over GF(p), boxing included (median of 20 pairs per kind, best
of 15 calls each; CPython 3.11 on a shared Intel Xeon): 5.5-7 us for a
generic sum or a doubling at p near 1000 and 65521 and 13-15 us at p =
2^61 - 1, 5-11 us with a degree-1 operand and 10-27 us for a shared root;
in genus 3, 9.5-13 and 21-24 us for a generic sum or a doubling, 6.5-8
and 13-15 us with an operand of degree 1 or 2, and 15-18 and 36-38 us for
a shared root, the same point or its opposite.  scalar_mul runs a NAF
ladder on the raw vectors through the same dispatcher and boxes once.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import product, zip_longest
from math import isqrt

from .algebra import (
    Poly,
    PrimeField,
    QQ,
    _poly,
    _trimmed,
    lagrange_interpolate,
    raw_add,
    raw_bezout,
    raw_divmod,
    raw_exact_div,
    raw_mul,
    raw_sub,
    raw_xgcd,
)
from .errors import DomainError, SingularCurveError, UnsupportedCaseError


@dataclass(frozen=True)
class HyperCurve:
    f: Poly
    h: Poly

    def __post_init__(self):
        f, h = self.f, self.h
        if f.field != h.field and not h.is_zero:
            raise DomainError("f and h need the same coefficient field")
        if f.degree % 2 == 0 or f.degree < 5:
            raise DomainError("f must be monic of odd degree 2g+1 >= 5")
        if f.lc != f.field.one:
            raise DomainError("f must be monic")
        if h.degree > self.genus:
            raise DomainError("deg h must be at most g")
        if not (4 * f + h * h).is_squarefree():
            raise SingularCurveError("4f + h^2 has a repeated root")

    @property
    def field(self):
        return self.f.field

    @property
    def genus(self):
        return (self.f.degree - 1) // 2

    @classmethod
    def make(cls, field, f_coeffs, h_coeffs=()):
        return cls(Poly(field, f_coeffs), Poly(field, h_coeffs))


class MumfordError(DomainError):
    def __init__(self, condition, message):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class MumfordDivisor:
    curve: HyperCurve
    u: Poly
    v: Poly

    @property
    def is_identity(self):
        return self.u.degree == 0

    def __repr__(self):
        return f"MumfordDivisor(u={self.u}, v={self.v})"


def mumford_validate(u, v, curve):
    """Check Mumford's three conditions and build the divisor.

    Raises MumfordError with .condition in {"monic", "degree",
    "divisibility"} naming the first failed condition.  Divisibility is
    the remainder of _mumford_divmod, the division Cantor's reduction
    also runs.
    """
    field = curve.field
    if u.is_zero or u.lc != field.one:
        raise MumfordError("monic", "u must be monic")
    if not (v.degree < u.degree <= curve.genus):
        raise MumfordError("degree", "need deg v < deg u <= g")
    if u.field != field or v.field != field:
        raise DomainError("mixed coefficient fields")
    if _mumford_divmod(field, curve.f.raw, curve.h.raw, u.raw, v.raw)[1]:
        raise MumfordError("divisibility", "u does not divide v^2 + v h - f")
    return MumfordDivisor(curve, u, v)


def _mumford_divmod(field, f, h, u, v):
    """(q, r) with f - v (v + h) = q u + r and deg r < deg u, for raw
    vectors over field and u nonzero: one product and one division loop
    on the unreduced values, each coefficient of q and r reduced once, and
    1/lc(u) taken only for a non-monic u."""
    w = list(f)
    if v:
        s = [a + b for a, b in zip_longest(v, h, fillvalue=0)]
        w += [field._zero] * (len(v) + len(s) - 1 - len(w))
        for i, x in enumerate(v):
            if x:
                for j, y in enumerate(s, i):
                    w[j] -= x * y
    d = len(u) - 1
    red, low = field._red, u[:d]
    inv = field._inv(u[-1]) if u[-1] != 1 else 1
    q = []
    for k in range(len(w) - 1, d - 1, -1):
        c = red(w[k] * inv)
        q.append(c)
        if c:  # w[k] - c * u[d] vanishes; only w[:d] is kept
            for i, y in enumerate(low, k - d):
                w[i] -= c * y
    q.reverse()
    return _trimmed(q), field._trim(w[:d])


def identity(curve):
    return MumfordDivisor(curve, Poly.one(curve.field), Poly.zero(curve.field))


def _interpolate(curve, points, repeated=None):
    """(U, V) with U = prod (x - x_i) and V through the points, which must
    lie on the curve; `repeated`, if given, refuses a repeated x first."""
    field = curve.field
    xs = [field.of(x) for x, _ in points]
    ys = [field.of(y) for _, y in points]
    if repeated and len(set(xs)) != len(xs):
        raise DomainError(repeated)
    for x, y in zip(xs, ys):
        if y * y + curve.h(x) * y != curve.f(x):
            raise DomainError("point is not on the curve")
    u = Poly.one(field)
    for x in xs:
        u = u * Poly(field, [-x, 1])
    return u, lagrange_interpolate(field, xs, ys)


def divisor_from_points(curve, points):
    """Mumford divisor of sum of affine points with distinct x-coordinates."""
    return mumford_validate(*_interpolate(curve, points), curve)


@dataclass(frozen=True)
class JacobiTriple:
    U: Poly
    V: Poly
    W: Poly


def jacobi_polynomials(points, curve):
    """Triple (U, V, W) with U = prod (x - x_i), V interpolating and
    W = (f - V^2)/U exactly; the curve must have h = 0."""
    if not curve.h.is_zero:
        raise DomainError("Jacobi polynomials need an h = 0 model")
    u, v = _interpolate(curve, points, "repeated x-coordinates need multiplicity handling")
    w = (curve.f - v * v).exact_div(u)
    if w.is_zero or w.lc != curve.field.one:
        raise DomainError("W fails to be monic; too many points for this curve")
    return JacobiTriple(U=u, V=v, W=w)


def _check_height(divisor, cap):
    if cap is None or divisor.curve.field != QQ:
        return
    for poly in (divisor.u, divisor.v):
        for c in poly.coeffs:
            c = Fraction(c)
            if abs(c.numerator) > cap or c.denominator > cap:
                raise DomainError(f"coefficient height exceeded cap {cap}")


def cantor_add(d1, d2, height_cap=None):
    """Sum of divisor classes by Cantor composition and reduction (Cantor,
    Math. Comp. 48 (1987)), on the raw coefficient vectors of u and v."""
    if d1.curve != d2.curve:
        raise DomainError("divisors live on different curves")
    out = _cantor_sum(d1, d2)[0]
    _check_height(out, height_cap)
    return out


def _cantor_sum(d1, d2):
    """(D1 + D2, V) for divisors on one curve: _raw_sum on their vectors,
    its sum boxed into a MumfordDivisor."""
    curve = d1.curve
    field = curve.field
    (u, v), V = _raw_sum(field, curve.f.raw, curve.h.raw, (d1.u.raw, d1.v.raw),
                         (d2.u.raw, d2.v.raw))
    return MumfordDivisor(curve, _poly(field, u), _poly(field, v)), V


def _raw_sum(field, f, h, x, y):
    """((u3, v3), V) for raw divisors x = (u1, v1), y = (u2, v2) on y^2 +
    h y = f over field, g read from len(f): the reduced sum, and the V
    with V = v1 mod u1 and V = v2 mod u2 where the sum composed coprime u1,
    u2 with D1 != D2 (None where it did not: a doubling, a sum on points,
    an explicit genus-2 sum of degree 1, a genus-3 sum with an operand of
    degree 1 or 2 or a shared root).  V is read in genus 2 only, by
    interpolation_add_g2, so the genus-3 explicit line returns None for it.

    The identity plus a reduced divisor is that divisor.  Over GF(p), two
    divisors of degree g = 2 or 3 take explicit formulas, _g2_explicit in
    genus 2 and the line below in genus 3; in genus 2, _g2_special sums
    what they decline, and every pair with an operand of degree 1, on the
    rational points the operands share or consist of; in genus 3,
    _g3_special sums a degree-3 divisor and one of degree 1 or 2 (a
    straight line each, _g3_point_plus and _g3_plus_2), and two of degree
    3 with one shared root through the split at that root.

    In genus 3 the genus-2 line runs with a quadratic s (after Pelzl-
    Wollinger-Guajardo-Paar, CHES 2003; Wollinger-Pelzl-Paar, IEEE Trans.
    Comput. 54 (2005)): with t = u1 - u2 and w = v2 - v1 for an addition,
    t = 2v + h mod u and w = (f - v (v + h))/u mod u for a doubling, s =
    w/t mod u2 solves M s = w for the matrix M of multiplication by t mod
    u2, so r s = adj(M) w with r = det M = Res(u2, t).  Then V = v1 + u1 s
    has degree 5, u' = (f - V (V + h))/(u1 u2) has degree 4 and leading
    coefficient -s2^2, v' = -(V + h) mod u', and u'' = (f - v' (v' +
    h))/u' is monic of degree 3, as f is monic of degree 7, with v'' =
    -(v' + h) mod u''; both quotients are read from the top coefficients.
    One inversion, of r s2, gives 1/r and 1/s2.  The pairs with r = 0 (a
    shared root, D + (-D), a doubling through a Weierstrass point) or with
    a sum of degree < 3 (s2 = 0) pay for r (and r s2) and fall through to
    _g3_special.

    The general code takes what those decline (in genus 2 only pairs that
    meet a shared rational point twice; in genus 3 the leftovers that
    _g3_special names) and every sum over Q: one xgcd when u1, u2 are
    coprime (Chinese remainder) or for a doubling with 2v + h prime to u
    (Newton's step v + k u, k = (f - h v - v^2)/u / (2v + h) mod u), else
    the general composition through the xgcds of (u1, u2) and (gcd, v1 +
    v2 + h).
    """
    (u1, v1), (u2, v2) = x, y
    g, double = len(f) // 2 - 1, x == y
    if len(u1) == 1 or len(u2) == 1:  # the identity plus a reduced divisor is that divisor
        for e, z, u, v in ((u1, v1, u2, v2), (u2, v2, u1, v1)):
            if e == (field._one,) and not z and len(v) < len(u) <= g + 1 and u[-1] == e[0]:
                return (u, v), None
    elif g == 2 and isinstance(field, PrimeField):
        if len(u1) == len(u2) == 3:
            out = _g2_explicit(field.p, f, h, u1, v1, u2, v2, double)
            if out:
                return out
        if len(v1) < len(u1) <= 3 and len(v2) < len(u2) <= 3:  # both reduced
            out = _g2_special(field.p, f, h, u1, v1, u2, v2)
            if out:
                return out, None
    elif g == 3 and isinstance(field, PrimeField):
        p = field.p
        if len(u1) == len(u2) == 4:
            a0, a1, a2, _ = u1
            b0, b1, b2 = v1 + (0,) * (3 - len(v1))
            c0, c1, c2, _ = u2
            h0, h1, h2, h3 = h + (0,) * (4 - len(h))
            f4, f5, f6 = f[4:7]
            if double:  # t = 2v + h mod u, w = k mod u for k = (f - v (v + h))/u
                t0, t1 = (2 * b0 + h0 - h3 * a0) % p, (2 * b1 + h1 - h3 * a1) % p
                t2 = (2 * b2 + h2 - h3 * a2) % p
                k3 = f6 - a2  # k = x^4 + k3 x^3 + k2 x^2 + k1 x + k0
                k2 = (f5 - b2 * h3 - a2 * k3 - a1) % p
                k1 = (f4 - b1 * h3 - b2 * (b2 + h2) - a2 * k2 - a1 * k3 - a0) % p
                k0 = f[3] - b0 * h3 - b1 * (b2 + h2) - b2 * (b1 + h1) - a2 * k1 - a1 * k2 - a0 * k3
                q = k3 - a2
                w0, w1, w2 = (k0 - q * a0) % p, (k1 - a0 - q * a1) % p, (k2 - a1 - q * a2) % p
            else:  # t = u1 - u2 = u1 mod u2, w = v2 - v1
                e0, e1, e2 = v2 + (0,) * (3 - len(v2))
                t0, t1, t2 = a0 - c0, a1 - c1, a2 - c2
                w0, w1, w2 = e0 - b0, e1 - b1, e2 - b2
            # s = w t^-1 mod u2 solves M s = w, M = (t, x t, x^2 t mod u2) by columns
            x0, x1, x2 = -t2 * c0 % p, (t0 - t2 * c1) % p, (t1 - t2 * c2) % p
            y0, y1, y2 = -x2 * c0 % p, (x0 - x2 * c1) % p, (x1 - x2 * c2) % p
            j0, j1, j2 = x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0
            r = (t0 * j0 + t1 * j1 + t2 * j2) % p  # det M = Res(u2, t)
            rs2 = r and (w0 * (t1 * x2 - t2 * x1) + w1 * (t2 * x0 - t0 * x2)
                         + w2 * (t0 * x1 - t1 * x0)) % p  # r s = adj(M) w
            if rs2:
                rs0 = (w0 * j0 + w1 * j1 + w2 * j2) % p
                rs1 = (w0 * (t2 * y1 - t1 * y2) + w1 * (t0 * y2 - t2 * y0)
                       + w2 * (t1 * y0 - t0 * y1)) % p
                z = pow(r * rs2, -1, p)  # the one inversion
                ir, i1 = z * rs2 % p, z * r * r % p  # 1/r and 1/s2
                s0, s1, s2, i2 = rs0 * ir % p, rs1 * ir % p, rs2 * ir % p, i1 * i1 % p
                V0, V1 = (b0 + a0 * s0) % p, (b1 + a0 * s1 + a1 * s0) % p  # V = v1 + u1 s
                V2, V3 = (b2 + a0 * s2 + a1 * s1 + a2 * s0) % p, (a1 * s2 + a2 * s1 + s0) % p
                V4, G3, G2, G1 = (a2 * s2 + s1) % p, V3 + h3, V2 + h2, V1 + h1
                # u' = x^4 + m3 x^3 + ... = (f - V (V + h))/(u1 u2) / -s2^2, from the top
                U5, U4 = a2 + c2, a1 + a2 * c2 + c1
                U3, U2 = a0 + a1 * c2 + a2 * c1 + c0, a0 * c2 + a1 * c1 + a2 * c0
                m3 = (2 * V4 * i1 - U5) % p
                m2 = ((s2 * (V3 + G3) + V4 * V4) * i2 - U5 * m3 - U4) % p
                m1 = ((s2 * (V2 + G2) + V4 * (V3 + G3) - 1) * i2 - U5 * m2 - U4 * m3 - U3) % p
                m0 = ((s2 * (V1 + G1) + V4 * (V2 + G2) + V3 * G3 - f6) * i2
                      - U5 * m1 - U4 * m2 - U3 * m3 - U2) % p
                # v' = -(V + h) mod u' = n3 x^3 + ... + n0, and K = v' + h
                q = V4 - s2 * m3
                K3 = (s2 * m2 + q * m3 - G3 + h3) % p
                K2 = (s2 * m1 + q * m2 - G2 + h2) % p
                K1 = (s2 * m0 + q * m1 - G1 + h1) % p
                K0 = (q * m0 - V0) % p
                # u'' = (f - v' K)/u', monic of degree 3, and v'' = -K mod u''
                n3, n2, n1 = K3 - h3, K2 - h2, K1 - h1
                d2 = (f6 - n3 * K3 - m3) % p
                d1 = (f5 - n2 * K3 - n3 * K2 - m3 * d2 - m2) % p
                d0 = (f4 - n1 * K3 - n2 * K2 - n3 * K1 - m3 * d1 - m2 * d2 - m1) % p
                v3 = field._trim([K3 * d0 - K0, K3 * d1 - K1, K3 * d2 - K2])
                return ((d0, d1, d2, 1), v3), None
        if len(v1) < len(u1) <= 4 and len(v2) < len(u2) <= 4:  # both reduced
            out = _g3_special(p, f, h, u1, v1, u2, v2)
            if out:
                return out, None
    add, sub, mul, div, exact, xgcd = (partial(op, field) for op in (
        raw_add, raw_sub, raw_mul, raw_divmod, raw_exact_div, raw_xgcd))
    one = (field._one,)
    u3 = cubic = None
    if double:
        e, c = xgcd(add(add(v1, v1), h), u1)  # c = (2v + h)^-1 mod u if e = 1
        if e == one:
            k, r = _mumford_divmod(field, f, h, u1, v1)
            if r:
                raise DomainError("division is not exact")
            k = div(mul(k, c), u1)[1]
            u3, v3 = mul(u1, u1), add(v1, mul(k, u1))
    else:
        e, c = xgcd(u1, u2)  # c = u1^-1 mod u2 if e = 1
        if e == one:
            u3 = mul(u1, u2)
            v3 = cubic = add(v1, mul(u1, div(mul(sub(v2, v1), c), u2)[1]))
    if u3 is None:
        e, e1, e2 = raw_bezout(field, u1, u2)
        d, c1, c2 = raw_bezout(field, e, add(add(v1, v2), h))
        u3 = exact(mul(u1, u2), mul(d, d))
        v3 = add(add(mul(mul(mul(c1, e1), u1), v2), mul(mul(mul(c1, e2), u2), v1)),
                 mul(c2, add(mul(v1, v2), f)))
        v3 = div(exact(v3, d), u3)[1]
    while len(u3) - 1 > g:
        u3, r = _mumford_divmod(field, f, h, u3, v3)
        if r:
            raise DomainError("division is not exact")
        v3 = div(sub((), add(h, v3)), u3)[1]
    u3 = mul(u3, (field._inv(u3[-1]),))
    v3 = div(v3, u3)[1] if len(u3) > 1 else ()
    return (u3, v3), cubic


def _g2_explicit(p, f, h, u1, v1, u2, v2, double):
    """((u3, v3), V) for raw genus-2 divisors over GF(p) with deg u1 =
    deg u2 = 2, V the composed cubic (None for a doubling and for a sum of
    degree 1), or None where r = 0.

    Harley's explicit formulas (Gaudry-Harley, ANTS-IV, LNCS 1838 (2000);
    Lange, AAECC 15 (2005)) give the sum in one straight line with one
    inversion: V = v1 + u1 s for a linear s, and with k1 = (f - v1 (v1 +
    h))/u1, f - V (V + h) = -u1 T for T = u1 s^2 + s (2 v1 + h) - k1, so
    u3 is T/u2 made monic and v3 = -(V + h) mod u3.  s comes from the
    inverse of a linear a x + b modulo the monic quadratic x^2 + c1 x +
    c0, which is (-a x + b - a c1)/r with r = b^2 - a b c1 + a^2 c0, and
    exists iff r != 0; r = 0 for a shared root, D + (-D) and a doubling
    through a Weierstrass point.  With s1 = 0 the sum has degree 1: V =
    v1 + s0 u1 has degree 2, so f - V (V + h) = u1 u2 (x + m0) and u3 =
    x + m0 is read from its x^4 coefficient."""
    a0, a1, _ = u1
    b0, b1 = v1 + (0,) * (2 - len(v1))
    c0, c1, _ = u2
    h0, h1, h2 = h + (0,) * (3 - len(h))
    k12 = f[4] - a1  # k1 = x^3 + k12 x^2 + k11 x + k10
    if double:  # s = k1 (2v + h)^-1 mod u: w = k1 mod u, a x + b = 2v + h mod u
        k11 = f[3] - b1 * h2 - a1 * k12 - a0
        k10 = f[2] - b1 * (b1 + h1) - b0 * h2 - a1 * k11 - a0 * k12
        w1, w0 = (a1 * a1 - a0 - a1 * k12 + k11) % p, (a1 * a0 - a0 * k12 + k10) % p
        a, b = (2 * b1 + h1 - h2 * a1) % p, (2 * b0 + h0 - h2 * a0) % p
    else:  # s = (v2 - v1) u1^-1 mod u2: w = v2 - v1, a x + b = u1 mod u2
        e0, e1 = v2 + (0,) * (2 - len(v2))
        w1, w0 = e1 - b1, e0 - b0
        a, b = a1 - c1, a0 - c0
    n0 = (b - a * c1) % p
    r = (b * n0 + a * a * c0) % p
    rs1 = (w1 * n0 - w0 * a + w1 * a * c1) % p  # r s = rs1 x + rs0
    if not r:
        return None
    if not rs1:  # s = s0, V = v1 + s0 u1 of degree 2: u3 = x + m0, from the top
        s0 = (w0 * n0 + w1 * a * c0) * pow(r, -1, p) % p
        W2, W1 = s0 + h2, b1 + a1 * s0 + h1
        m0 = (f[4] - s0 * W2 - a1 - c1) % p
        y0 = (W1 * m0 - W2 * m0 * m0 - b0 - a0 * s0 - h0) % p  # -(V + h)(-m0)
        return ((m0, 1), (y0,) if y0 else ()), None
    rs0 = (w0 * n0 + w1 * a * c0) % p
    z = pow(r * rs1, -1, p)  # the one inversion
    ir, i1 = z * rs1 % p, z * r * r % p  # 1/r and 1/s1
    s1, s0 = rs1 * ir % p, rs0 * ir % p
    i2 = i1 * i1 % p
    # u3 = x^2 + m1 x + m0 = (T / u2) / s1^2, from the top of T
    m1 = ((s1 * (2 * s0 + a1 * s1 + h2) - 1) * i2 - c1) % p
    m0 = ((s0 * (s0 + 2 * a1 * s1 + h2) + s1 * (a0 * s1 + 2 * b1 + h1) - k12) * i2
          - c1 * m1 - c0) % p
    V2, V1, V0 = (s0 + a1 * s1) % p, (b1 + a1 * s0 + a0 * s1) % p, (b0 + a0 * s0) % p
    W2, W1, W0 = V2 + h2, V1 + h1, V0 + h0  # -v3 = V + h mod u3
    y1 = (W2 * m1 - W1 - s1 * (m1 * m1 - m0)) % p
    y0 = (W2 * m0 - W0 - s1 * m1 * m0) % p
    v3 = (y0, y1) if y1 else (y0,) if y0 else ()
    return ((m0, m1, 1), v3), None if double else (V0, V1, V2, s1)


def _ev(c, x, p):
    """The raw vector c at x, mod p."""
    y = 0
    for a in reversed(c):
        y = (y * x + a) % p
    return y


def _g2_points(p, f, h, x1, y1, x2, y2):
    """P1 + P2 - 2 infinity for points of a genus-2 curve over GF(p): u =
    (x - x1)(x - x2) and v = y1 + s (x - x1) through both points, or
    tangent there (s (2 y1 + h) = f' - y1 h' at x1); the identity for
    P + (-P) and for 2W at a Weierstrass point."""
    if x1 != x2:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    else:
        t = (2 * y1 + _ev(h, x1, p)) % p
        if y1 != y2 or not t:
            return (1,), ()
        df, dh = ([i * c for i, c in enumerate(c)][1:] for c in (f, h))
        s = (_ev(df, x1, p) - y1 * _ev(dh, x1, p)) * pow(t, -1, p) % p
    v0 = (y1 - s * x1) % p
    return (x1 * x2 % p, -(x1 + x2) % p, 1), (v0, s) if s else (v0,) if v0 else ()


def _g2_neg(p, h, d):
    """-D for a raw reduced genus-2 divisor over GF(p): v -> -(v + h) mod u.
    _pick_e2 uses it, not _raw_neg: 0.9 against 4.7 us a call (CPython 3.11,
    Intel Xeon), and weil_data_g2 ran 3-11 % slower with _raw_neg at p = 43
    and 61."""
    u, (e0, e1), (h0, h1, h2) = d[0], d[1] + (0,) * (2 - len(d[1])), h + (0,) * (3 - len(h))
    if len(u) == 1:
        return d
    if len(u) == 2:  # -(v + h) at x = -u0
        x = -u[0] % p
        y0, y1 = -(e0 + h0 + (h1 + h2 * x) * x) % p, 0
    else:  # h mod u = (h1 - h2 u1) x + h0 - h2 u0
        y0, y1 = (h2 * u[0] - e0 - h0) % p, (h2 * u[1] - e1 - h1) % p
    return u, (y0, y1) if y1 else (y0,) if y0 else ()


def _g2_point_plus(p, f, h, x1, y1, u, v):
    """P + D for a point P and a reduced D of degree 2 with u(x1) != 0:
    V = v + k u through P, k = (y1 - v(x1))/u(x1), and the sum u3 =
    (f - V (V + h))/(u (x - x1)), monic of degree 2, v3 = -(V + h) mod u3."""
    c0, c1, _ = u
    e0, e1 = v + (0,) * (2 - len(v))
    h0, h1, h2 = h + (0,) * (3 - len(h))
    k = (y1 - e0 - e1 * x1) * pow(c0 + (c1 + x1) * x1, -1, p) % p
    V1, V2 = e1 + c1 * k, k
    W0, W1, W2 = e0 + c0 * k + h0, V1 + h1, V2 + h2  # W = V + h
    U2, U1 = c1 - x1, c0 - c1 * x1  # u (x - x1) = x^3 + U2 x^2 + U1 x + U0
    m1 = (f[4] - V2 * W2 - U2) % p
    m0 = (f[3] - V2 * W1 - V1 * W2 - U1 - U2 * m1) % p
    y1, y0 = (W2 * m1 - W1) % p, (W2 * m0 - W0) % p
    return (m0, m1, 1), (y0, y1) if y1 else (y0,) if y0 else ()


def _g2_special(p, f, h, u1, v1, u2, v2):
    """D1 + D2 for reduced genus-2 divisors over GF(p) where _g2_explicit
    declines (r = 0) or an operand has degree 1, through the rational
    points the operands share or consist of; None for the few pairs that
    meet a shared point twice (3P, or P shared and met again after the
    split), which are left to the general code."""
    if len(u1) > len(u2):
        u1, v1, u2, v2 = u2, v2, u1, v1
    if len(u1) == 2:  # P = (x1, y1) plus D2
        x1, y1 = -u1[0] % p, _ev(v1, 0, p)
        if len(u2) == 2:
            return _g2_points(p, f, h, x1, y1, -u2[0] % p, _ev(v2, 0, p))
        if _ev(u2, x1, p):
            return _g2_point_plus(p, f, h, x1, y1, u2, v2)
        x2 = (-u2[1] - x1) % p  # u2 = (x - x1)(x - x2): D2 = P' + Q
        y2 = _ev(v2, x2, p)
        q = (-x2 % p, 1), (y2,) if y2 else ()
        if _ev(v2, x1, p) != y1:  # P' = -P
            return q
        if x2 == x1:  # D2 = 2P
            return None
        u, v = _g2_points(p, f, h, x1, y1, x1, y1)  # 2P, then plus Q
        return q if len(u) == 1 else _g2_point_plus(p, f, h, x2, y2, u, v)
    a0, a1, _ = u1
    if u1 == u2 and v1 == v2:  # 2v + h = a x + b shares a root with u
        (b0, b1), (h0, h1, h2) = v1 + (0,) * (2 - len(v1)), h + (0,) * (3 - len(h))
        a, b = (2 * b1 + h1 - h2 * a1) % p, (2 * b0 + h0 - h2 * a0) % p
        if not a:  # two Weierstrass points: 2D = 0
            return (1,), ()
        x1 = -b * pow(a, -1, p) % p  # D = W + Q, 2D = 2Q
        x2 = (-a1 - x1) % p
        return None if x2 == x1 else _g2_points(p, f, h, x2, _ev(v1, x2, p), x2, _ev(v1, x2, p))
    if u1 == u2:  # v1 - v2 vanishes at most at one root x1: there D1 + D2 = 2P
        (b0, b1), (e0, e1) = (v + (0,) * (2 - len(v)) for v in (v1, v2))
        x1 = (e0 - b0) * pow(b1 - e1, -1, p) % p if b1 != e1 else None
        if x1 is None or _ev(u1, x1, p):
            return (1,), ()
        y1 = _ev(v1, x1, p)
        return _g2_points(p, f, h, x1, y1, x1, y1)
    c0, c1, _ = u2  # one shared root x0: D1 = P1 + Q1, D2 = P2 + Q2
    x0 = (c0 - a0) * pow(a1 - c1, -1, p) % p
    x1, x2 = (-a1 - x0) % p, (-c1 - x0) % p
    y0, y1, y2 = _ev(v1, x0, p), _ev(v1, x1, p), _ev(v2, x2, p)
    if _ev(v2, x0, p) != y0:  # P2 = -P1
        return _g2_points(p, f, h, x1, y1, x2, y2)
    # (D1 + Q2) + P, else (D2 + Q1) + P: as u1 != u2 share only x0 and x1 !=
    # x2, u1(x2) and u2(x1) are not both 0
    u, v, x, y = (u1, v1, x2, y2) if _ev(u1, x2, p) else (u2, v2, x1, y1)
    u, v = _g2_point_plus(p, f, h, x, y, u, v)
    return _g2_point_plus(p, f, h, x0, y0, u, v) if _ev(u, x0, p) else None


def _g3_point_plus(p, f, h, x1, y1, u, v):
    """P + D for a point P and a reduced genus-3 D of degree 2 or 3 with
    u(x1) != 0: V = v + k u through P, k = (y1 - v(x1))/u(x1).  Of degree 2,
    D composes to (u (x - x1), V); of degree 3, the sum u3 = (f - V (V +
    h))/(u (x - x1)) is monic of degree 3, read from the top, and v3 =
    -(V + h) mod u3."""
    k = (y1 - _ev(v, x1, p)) * pow(_ev(u, x1, p), -1, p) % p
    if len(u) == 3:
        (c0, c1, _), (e0, e1) = u, v + (0,) * (2 - len(v))
        V = _trimmed([(e0 + c0 * k) % p, (e1 + c1 * k) % p, k])
        return (-c0 * x1 % p, (c0 - c1 * x1) % p, (c1 - x1) % p, 1), V
    (c0, c1, c2, _), (e0, e1, e2) = u, v + (0,) * (3 - len(v))
    h0, h1, h2, h3 = h + (0,) * (4 - len(h))
    V1, V2 = e1 + c1 * k, e2 + c2 * k  # V = k x^3 + V2 x^2 + V1 x + V0
    W0, W1, W2, W3 = e0 + c0 * k + h0, V1 + h1, V2 + h2, k + h3  # W = V + h
    U3, U2, U1 = c2 - x1, c1 - c2 * x1, c0 - c1 * x1  # u (x - x1) = x^4 + U3 x^3 + ...
    m2 = (f[6] - k * W3 - U3) % p
    m1 = (f[5] - k * W2 - V2 * W3 - U3 * m2 - U2) % p
    m0 = (f[4] - k * W1 - V2 * W2 - V1 * W3 - U3 * m1 - U2 * m2 - U1) % p
    return (m0, m1, m2, 1), _trimmed([(W3 * m0 - W0) % p, (W3 * m1 - W1) % p,
                                      (W3 * m2 - W2) % p])


def _g3_plus_2(p, f, h, u1, v1, u2, v2):
    """D1 + D2 for reduced genus-3 divisors over GF(p) with deg u1 = 3 and
    deg u2 = 2, or None where they share a root (r = 0).

    As in Harley's step, s = (v2 - v1) u1^-1 mod u2 is linear, from the
    inverse (-a x + b - a c1)/r of u1 mod u2 = a x + b, r = Res(u2, a x +
    b); V = v1 + u1 s has degree 4, and u3 = (f - V (V + h))/(u1 u2) has
    degree 3 and leading coefficient -s1^2, read from the top, with v3 =
    -(V + h) mod u3.  One inversion, of r s1, gives 1/r and 1/s1.  With s1
    = 0 the sum has degree 2: V = v1 + s0 u1 has degree <= 3, and u3 is
    monic of degree 2."""
    a0, a1, a2, _ = u1
    b0, b1, b2 = v1 + (0,) * (3 - len(v1))
    c0, c1, _ = u2
    e0, e1 = v2 + (0,) * (2 - len(v2))
    h0, h1, h2, h3 = h + (0,) * (4 - len(h))
    w1, w0 = e1 - b1 + b2 * c1, e0 - b0 + b2 * c0  # w = v2 - v1 mod u2
    a, b = (c1 * c1 - c0 - a2 * c1 + a1) % p, (c1 * c0 - a2 * c0 + a0) % p
    n0 = (b - a * c1) % p
    r = (b * n0 + a * a * c0) % p
    if not r:
        return None
    rs1, rs0 = (w1 * b - w0 * a) % p, (w0 * n0 + w1 * a * c0) % p  # r s = rs1 x + rs0
    U4, U3, U2 = a2 + c1, a1 + a2 * c1 + c0, a0 + a1 * c1 + a2 * c0  # u1 u2 = x^5 + U4 x^4 + ...
    if not rs1:  # u3 = x^2 + m1 x + m0, v3 = -W mod u3 for W = V + h of degree <= 3
        s0 = rs0 * pow(r, -1, p) % p
        V2, W3 = b2 + a2 * s0, s0 + h3
        W2, W1, W0 = V2 + h2, b1 + a1 * s0 + h1, b0 + a0 * s0 + h0
        m1 = (f[6] - s0 * W3 - U4) % p
        m0 = (f[5] - s0 * W2 - V2 * W3 - U4 * m1 - U3) % p
        y1 = (W3 * (m0 - m1 * m1) + W2 * m1 - W1) % p
        y0 = ((W2 - W3 * m1) * m0 - W0) % p
        return (m0, m1, 1), _trimmed([y0, y1])
    z = pow(r * rs1, -1, p)  # the one inversion
    ir, i1 = z * rs1 % p, z * r * r % p  # 1/r and 1/s1
    s1, s0 = rs1 * ir % p, rs0 * ir % p
    i2 = i1 * i1 % p
    V3, V2 = s0 + a2 * s1, b2 + a2 * s0 + a1 * s1  # V = s1 x^4 + V3 x^3 + ...
    V1, V0 = b1 + a1 * s0 + a0 * s1, b0 + a0 * s0
    W3, W2, W1, W0 = V3 + h3, V2 + h2, V1 + h1, V0 + h0  # W = V + h
    m2 = ((s1 * (V3 + W3) - 1) * i2 - U4) % p
    m1 = ((s1 * (V2 + W2) + V3 * W3 - f[6]) * i2 - U4 * m2 - U3) % p
    m0 = ((s1 * (V1 + W1) + V3 * W2 + V2 * W3 - f[5]) * i2 - U4 * m1 - U3 * m2 - U2) % p
    q = W3 - s1 * m2  # W - s1 x u3 = q x^3 + ..., then minus q u3
    return (m0, m1, m2, 1), _trimmed([(q * m0 - W0) % p, (s1 * m0 + q * m1 - W1) % p,
                                      (s1 * m1 + q * m2 - W2) % p])


def _g3_split(p, u, v, x0):
    """(A, w, y0) for a genus-3 divisor D = (u, v) of degree 3 through x =
    x0: D = Q + A for the point Q = (x0, y0) and A = (u/(x - x0), v mod
    that), by synthetic division."""
    d1 = (u[2] + x0) % p
    d0 = (u[1] + x0 * d1) % p
    e0, e1, e2 = v + (0,) * (3 - len(v))
    return (d0, d1, 1), _trimmed([(e0 - e2 * d0) % p, (e1 - e2 * d1) % p]), _ev(v, x0, p)


def _g3_special(p, f, h, u1, v1, u2, v2):
    """D1 + D2 for reduced genus-3 divisors over GF(p), one of degree 3,
    where the explicit line does not apply or declines, through a point and
    the degree-2 rest of an operand; None for the pairs left to the general
    code.

    A point P = (x1, y1) plus D takes _g3_point_plus where u(x1) != 0, a
    divisor of degree 2 plus D takes _g3_plus_2 where the two are coprime.
    Two of degree 3 with the one shared root x0 (gcd(u1, u2) = x - x0, read
    from u2 mod u1 - u2) split D2 = Q + A2 at x0, or D1 where x0 is a
    double root of u2, and sum (D1 + A2) + Q, whether Q is D1's point at x0
    or its opposite.  Left over: both of degree <= 2, a point P plus a D
    with u(x1) = 0, a shared root with an operand of degree 2, two or three
    shared roots (D + (-D) among them), a shared root met again by D1 + A2,
    and the pairs of degree 3 that the explicit line declines with no
    shared root (a doubling through a Weierstrass point, a sum of degree <
    3)."""
    if len(u1) < len(u2):
        u1, v1, u2, v2 = u2, v2, u1, v1
    if len(u1) < 4:
        return None
    if len(u2) == 2:  # a point P plus D1
        x1 = -u2[0] % p
        return _g3_point_plus(p, f, h, x1, _ev(v2, 0, p), u1, v1) if _ev(u1, x1, p) else None
    if len(u2) == 3:
        return _g3_plus_2(p, f, h, u1, v1, u2, v2)
    c0, c1, c2, _ = u2
    t0, t1, t2 = u1[0] - c0, u1[1] - c1, u1[2] - c2  # t = u1 - u2
    # x0 = -n0/n1 for t2^2 (u2 mod t) = n1 x + n0, or t1 t where t2 = 0
    n1 = (t1 * t1 - t0 * t2 - c2 * t1 * t2 + c1 * t2 * t2) % p
    if not n1:
        return None
    x0 = -(t1 * t0 - c2 * t0 * t2 + c0 * t2 * t2) * pow(n1, -1, p) % p
    if _ev(u1, x0, p) or _ev(u2, x0, p):  # coprime after all
        return None
    A, w, y0 = _g3_split(p, u2, v2, x0)
    if not _ev(A, x0, p):
        u1, v1, (A, w, y0) = u2, v2, _g3_split(p, u1, v1, x0)
    u, v = _g3_plus_2(p, f, h, u1, v1, A, w)
    return _g3_point_plus(p, f, h, x0, y0, u, v) if _ev(u, x0, p) else None


def _raw_neg(field, h, d):
    """-D for a raw reduced divisor D = (u, v): v -> (-v - h) mod u."""
    u, v = d
    return u, raw_divmod(field, raw_sub(field, (), raw_add(field, v, h)), u)[1]


def negate(divisor):
    """Image under the hyperelliptic involution, v -> (-v - h) mod u."""
    curve = divisor.curve
    _, v = _raw_neg(curve.field, curve.h.raw, (divisor.u.raw, divisor.v.raw))
    return MumfordDivisor(curve, divisor.u, _poly(curve.field, v))


def scalar_mul(k, divisor, height_cap=None):
    """k-fold sum by a left-to-right NAF ladder on |k| through _raw_sum, on
    raw vectors: a doubling per digit below the top one and a sum with D or
    -D per nonzero digit, negated at the end for k < 0 and boxed once; 0
    gives the identity.  Over Q with height_cap, D and every sum of the
    ladder are checked against the cap."""
    curve = divisor.curve
    if not k:
        return identity(curve)
    field, f, h = curve.field, curve.f.raw, curve.h.raw
    box = lambda x: MumfordDivisor(curve, _poly(field, x[0]), _poly(field, x[1]))
    neg = partial(_raw_neg, field, h)
    checked = height_cap is not None and field == QQ

    def add(x, y):
        out = _raw_sum(field, f, h, x, y)[0]
        if checked:
            _check_height(box(out), height_cap)
        return out

    acc = d = add(((field._one,), ()), (divisor.u.raw, divisor.v.raw))  # D, reduced
    nd, digits = neg(d), _naf(abs(k))
    for e in reversed(digits[:-1]):
        acc = add(acc, acc)
        if e:
            acc = add(acc, d if e > 0 else nd)
    return box(neg(acc) if k < 0 else acc)


@dataclass(frozen=True)
class InterpolationSum:
    divisor: MumfordDivisor
    used_fallback: bool
    cubic: Poly | None


def interpolation_add_g2(d1, d2):
    """Genus-2 geometric addition through the cubic Y = g(X) through the
    four supporting points: g is the composed V of Cantor's addition, and
    the sum is the image under the involution of the two further points
    where Y = g(X) meets the curve, u3 = (g^2 - f)/(u1 u2) made monic and
    v3 = -g mod u3.  Outside general position (u1, u2 squarefree and
    coprime, g of degree 3) the sum is Cantor's, flagged as a fallback."""
    curve = d1.curve
    if curve != d2.curve:
        raise DomainError("divisors live on different curves")
    if curve.genus != 2 or not curve.h.is_zero:
        raise DomainError("interpolation addition needs genus 2 and h = 0")
    out, g = _cantor_sum(d1, d2)
    # a cubic g makes u1 and u2 monic quadratics, squarefree iff c1^2 != 4 c0
    red = curve.field._red
    if g is not None and len(g) == 4 and all(
            red(c1 * c1 - 4 * c0) for c0, c1, _ in (d1.u.raw, d2.u.raw)):
        return InterpolationSum(divisor=out, used_fallback=False, cubic=_poly(curve.field, g))
    return InterpolationSum(divisor=out, used_fallback=True, cubic=None)


# Largest number of (u, v) pairs enumerate_divisors tries: one divisibility
# test each, 16-19 us (CPython 3.11 on one core of an Intel Xeon; 0.49 s for
# the 28730 pairs at p = 13, genus 2), so an accepted call takes up to about
# 3.5 s: genus 2 up to p = 19, genus 3 up to p = 7.
MAX_DIVISOR_PAIRS = 200_000


def enumerate_divisors(curve):
    """All reduced Mumford divisors over a prime field, identity included,
    by testing every (u, v) pair: sum over k <= g of p^(2k), refused past
    MAX_DIVISOR_PAIRS before any is tried."""
    field = curve.field
    if not isinstance(field, PrimeField):
        raise DomainError("enumeration needs a finite field")
    pairs = sum(field.p ** (2 * k) for k in range(1, curve.genus + 1))
    if pairs > MAX_DIVISOR_PAIRS:
        raise UnsupportedCaseError(
            f"divisor enumeration over GF({field.p}) in genus {curve.genus} tries "
            f"{pairs} (u, v) pairs; supported up to {MAX_DIVISOR_PAIRS}")
    out = [identity(curve)]
    for deg_u in range(1, curve.genus + 1):
        for u_tail in product(range(field.p), repeat=deg_u):
            u = Poly(field, list(u_tail) + [1])
            for v_tail in product(range(field.p), repeat=deg_u):
                v = Poly(field, list(v_tail))
                if ((v * v + v * curve.h - curve.f) % u).is_zero:
                    out.append(MumfordDivisor(curve, u, v))
    return out


# ---------------------------------------------------------------------------
# point counting and group order, genus 2


@dataclass(frozen=True)
class WeilData:
    q: int
    n1: int
    n2: int
    a: int
    b: int
    order: int


# Largest p that weil_data_g2 accepts: at p = 999983 a call took 1.7-2.2 s
# and the process peaked at 26 MB RSS, 8.5 MB above its RSS before the call
# (four curves; CPython 3.11 on one core of a shared Intel Xeon).
ORDER_MAX_P = 1_000_000

# Largest p at which weil_data_g2 counts N2 over GF(p^2) to decide between
# candidate orders that every divisor it tried leaves standing: p^2/2
# evaluations, 0.34 s at p = 1009, 7.6 s at p = 5003 and 11.6 s at
# p = 5701 (same machine).
COUNT_MAX_P = 5700

# Divisors weil_data_g2 tries on its candidate orders before it counts; on
# 4700 random curves at p = 3..1009 none needed more than 3.
PICK_DIVISORS = 16


def weil_data_g2(curve):
    """Point counts N1, N2 and the order #J(F_q) = f(1) of the Weil
    polynomial f(T) = T^4 - a T^3 + e2 T^2 - a q T + q^2, e2 = b + 2q.

    With w = 4f + h^2 (the model Y^2 = w, Y = 2y + h), each x gives
    1 + chi(w(x)) affine points, read from a table of the squares of GF(p)
    that also holds a square root of each residue; so a = p + 1 - N1
    exactly.  The Cartier-Manin matrix M = (c_{ip-j}), i, j in {1, 2}, of
    the coefficients c_k of H = w^n, n = (p-1)/2, has a = tr M and e2 =
    det M (mod p) (Manin 1961; Yui, J. Algebra 52 (1978)).  The recurrence
    w H' = n w' H gives c_{p-1} and c_{p-2} from the bottom (of (w/x)^n
    when w(0) = 0, as w is squarefree) and c_{2p-1} and c_{2p-2} from the
    bottom of the reversed w, so no index divisible by p is divided by.
    The Hasse-Weil bounds 2|a| sqrt(p) - 2p <= e2 <= a^2/4 + 2p leave at
    most five candidates, whose orders N are spaced p apart.  The true N
    has [N]D = 0 for every divisor D, so a single survivor is a proof
    (Gaudry-Harley, ANTS-IV 2000); D runs over sums of two rational points
    taken in order of x, and each is tested on all candidates at once from
    [N]D for the middle one and [p]D (_pick_e2), on raw vectors through
    _raw_sum, whose sums on points cover the degenerate pairs, frequent at
    small p.
    Candidates that PICK_DIVISORS divisors leave standing (at tiny p, or
    where the group's exponent divides k p) are decided by counting N2 over
    GF(p^2), up to p = COUNT_MAX_P.  Cost: O(p) time and memory; p >
    ORDER_MAX_P raises UnsupportedCaseError before any work.
    """
    field = curve.field
    if not isinstance(field, PrimeField):
        raise UnsupportedCaseError("order computation needs GF(p), p an odd prime")
    if curve.genus != 2:
        raise DomainError("weil_data_g2 needs a genus 2 curve")
    p = field.p
    if p > ORDER_MAX_P:
        raise UnsupportedCaseError(
            f"group order over GF({p}) needs about {4 * p} table and recurrence "
            f"steps; supported up to p = {ORDER_MAX_P}")
    w = (4 * curve.f + curve.h * curve.h).raw  # (2y + h)^2 = w, of degree 5
    n = (p - 1) // 2
    # sq[v] = #{Y : Y^2 = v}; the tables of ints are 4-byte memoryviews
    sq, root = bytearray(p), memoryview(bytearray(4 * p)).cast("i")
    sq[0] = 1
    for y in range(1, n + 1):
        v = y * y % p
        sq[v], root[v] = 2, y
    w0, w1, w2, w3, w4, w5 = w
    n1 = 1 + sum(sq[(((((w5 * x + w4) * x + w3) * x + w2) * x + w1) * x + w0) % p]
                 for x in range(p))  # one point at infinity
    a = p + 1 - n1
    inv = memoryview(bytearray(4 * p)).cast("i")  # inv[k] = 1/k
    inv[1] = 1
    for k in range(2, p):
        inv[k] = (p - p // k) * inv[p % k] % p
    z = 0 if w0 else 1  # w = x^z g with g(0) != 0
    c1, c2 = _power_coeffs(w[z:], n, p - 1 - z * n, inv, p)  # c_{p-1}, c_{p-2}
    c4, c3 = _power_coeffs(w[::-1], n, n, inv, p)  # c_{2p-2}, c_{2p-1}
    if (a - c1 - c4) % p:
        raise AssertionError("a is not the Cartier-Manin trace")  # pragma: no cover
    low = (isqrt(4 * a * a * p - 1) + 1 if a else 0) - 2 * p  # ceil(2|a| sqrt(p)) - 2p
    e2s = range(low + (c1 * c4 - c2 * c3 - low) % p, a * a // 4 + 2 * p + 1, p)
    e2 = _pick_e2(curve, a, e2s, w, sq, root)
    return WeilData(q=p, n1=n1, n2=p * p + 1 - a * a + 2 * e2, a=a, b=e2 - 2 * p,
                    order=p * p + 1 - a * (p + 1) + e2)


def _power_coeffs(g, n, m, inv, p):
    """(d_m, d_(m-1)) of g^n = sum d_k x^k, for g(0) != 0, deg g <= 5 and
    1 <= m < p, from g H' = n g' H: m g0 d_m = sum_i ((n+1) i - m) g_i d_(m-i)."""
    r = pow(g[0], -1, p)
    b1, b2, b3, b4, b5 = (c * r % p for c in g[1:] + (0,) * (6 - len(g)))
    a1, a2, a3, a4, a5 = ((n + 1) * i * c % p for i, c in enumerate((b1, b2, b3, b4, b5), 1))
    d1, d2 = pow(g[0], n, p), 0
    d3 = d4 = d5 = 0
    for k in range(1, m + 1):
        d = (a1 * d1 + a2 * d2 + a3 * d3 + a4 * d4 + a5 * d5
             - k * (b1 * d1 + b2 * d2 + b3 * d3 + b4 * d4 + b5 * d5)) % p * inv[k] % p
        d5, d4, d3, d2, d1 = d4, d3, d2, d1, d
    return d1, d2


def _pick_e2(curve, a, e2s, w, sq, root):
    """The one e2 of e2s whose order N = p^2 + 1 - a (p + 1) + e2 has
    [N]D = 0 on the divisors of _pick_divisors, else from counting N2.
    With m the middle slot, Z = [N_m]D and Y = [p]D, [N_k]D = 0 iff
    Z = -(k - m) Y, and |k - m| <= 2.  A single candidate is checked too,
    on one divisor, as a test of the Cartier-Manin step, so every call runs
    the same ladder, on raw vectors."""
    field, f, h = curve.field, curve.f.raw, curve.h.raw
    p, neg = field.p, partial(_g2_neg, field.p, h)
    add = lambda x, y: _raw_sum(field, f, h, x, y)[0]
    m = (len(e2s) - 1) // 2
    n = p * p + 1 - a * (p + 1) + e2s[m]
    alive = range(len(e2s))
    digits = [_naf(k) for k in (n, p)]
    size = max(map(len, digits))  # N_m < p can happen at tiny p
    for d in _pick_divisors(curve, w, sq, root):
        twos = [d]  # 2^i D, for both [N_m]D and [p]D
        while len(twos) < size:
            twos.append(add(twos[-1], twos[-1]))
        z, y = (reduce(add, [t if e > 0 else neg(t) for t, e in zip(twos, ds) if e])
                for ds in digits)
        y2 = add(y, y)
        targets = {-2: y2, -1: y, 0: ((1,), ()), 1: neg(y), 2: neg(y2)}
        hits = [k for k in alive if z == targets[k - m]]
        if not hits:
            raise AssertionError("no candidate order")  # pragma: no cover
        alive = hits
        if len(alive) == 1:
            break
    if len(alive) == 1:
        return e2s[alive[0]]
    orders = [p * p + 1 - a * (p + 1) + e2s[k] for k in alive]
    if p > COUNT_MAX_P:
        raise UnsupportedCaseError(
            f"the orders {orders} over GF({p}) all pass [N]D = 0 on the divisors "
            f"tried; counting N2 to decide needs about {p * p // 2} evaluations, "
            f"supported up to p = {COUNT_MAX_P}")
    e2 = (a * a - p * p - 1 + _count_n2(p, w, sq)) // 2
    if e2 not in [e2s[k] for k in alive]:
        raise AssertionError("the count contradicts the pick")  # pragma: no cover
    return e2


def _naf(k):
    """The non-adjacent form of k > 0: digits in {-1, 0, 1}, lowest first,
    no two adjacent ones nonzero, so about a third of them are."""
    out = []
    while k:
        e = 2 - k % 4 if k & 1 else 0
        out.append(e)
        k = (k - e) >> 1
    return out


def _pick_divisors(curve, w, sq, root):
    """D = P1 + P2 - 2 infinity as raw (u, v) for consecutive pairs of the
    affine points with 2y + h != 0, in order of x; at most PICK_DIVISORS of
    them."""
    p, f, h = curve.field.p, curve.f.raw, curve.h.raw
    w0, w1, w2, w3, w4, w5 = w
    h0, h1, h2 = h + (0,) * (3 - len(h))
    points, made = [], 0
    for x in range(p):
        v = (((((w5 * x + w4) * x + w3) * x + w2) * x + w1) * x + w0) % p
        if sq[v] != 2:
            continue
        points.append((x, (root[v] - h0 - (h1 + h2 * x) * x) * ((p + 1) // 2) % p))
        if len(points) == 2:
            (x1, y1), (x2, y2) = points
            yield _g2_points(p, f, h, x1, y1, x2, y2)
            points, made = [], made + 1
            if made == PICK_DIVISORS:
                return


def _count_n2(p, w, sq):
    """N2 = #C(GF(p^2)) by counting, sq[v] = 1 + chi(v) on GF(p).

    Over GF(p^2) = GF(p)[s]/(s^2 - t), t the least non-residue, chi(A + B s)
    is the Legendre symbol of the norm A^2 - t B^2, and the conjugates
    a + b s and a - b s share it, so b runs over 1..(p-1)/2 and each count
    is doubled; every x in GF(p) is a square in GF(p^2).  w(a + b s) is
    summed from the Taylor coefficients of w at a, tabulated once: p^2/2
    evaluations over GF(p^2) and O(p) memory.
    """
    t = sq.index(0)
    # w(a + z) = sum_k w_k(a) z^k; w_5 = w[5] for every a
    taylor = []
    for a in range(p):
        c = list(w)
        for k in range(5):
            for j in range(4, k - 1, -1):
                c[j] = (c[j] + a * c[j + 1]) % p
        taylor.append(c[:5])
    n2 = 1 + sum(2 if c[0] else 1 for c in taylor)
    pairs = 0
    for b in range(1, (p + 1) // 2):
        # z = b s has z^k = z_k s^(k mod 2) with z_k = b^k t^(k div 2)
        z2 = b * b * t % p
        z3, z4 = z2 * b % p, z2 * z2 % p
        top = w[5] * z4 * b % p
        pairs += sum([sq[((w0 + w2 * z2 + w4 * z4) ** 2
                          - t * (w1 * b + w3 * z3 + top) ** 2) % p]
                      for w0, w1, w2, w3, w4 in taylor])
    return n2 + 2 * pairs


def jacobian_order_g2(curve):
    data = weil_data_g2(curve)
    if not hasse_interval_contains(data.q, data.order):
        raise AssertionError("order outside the Hasse-Weil interval")  # pragma: no cover
    return data.order


def hasse_interval_contains(q, n):
    """Exact test for (sqrt(q)-1)^4 <= n <= (sqrt(q)+1)^4: both ends are
    (q + 1)^2 + 4q -/+ 4 (q + 1) sqrt(q)."""
    d = n - (q + 1) ** 2 - 4 * q
    return d * d <= 16 * q * (q + 1) ** 2
