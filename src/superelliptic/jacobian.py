"""Divisor class group arithmetic on hyperelliptic curves y^2 + h y = f
with f monic of degree 2g+1: Mumford representation, Cantor's
composition-and-reduction addition, the genus-2 geometric adder through
an interpolated cubic, and group orders over prime fields through the
Weil polynomial.

Cantor's addition runs on the raw coefficient vectors of u and v (int
residues over GF(p), Fractions over Q) through algebra's raw_* functions,
the loops Poly itself wraps, and boxes the sum into a MumfordDivisor once.
In genus g = 2 or 3 over GF(p), a sum of two degree-g divisors with
coprime u1, u2, or a doubling with 2v + h prime to u, whose result has
degree g, takes explicit formulas with one inversion instead.  In the
ladder of a 64-bit scalar_mul (CPython 3.11 on a shared Intel Xeon), a
genus-2 addition then takes about 12 us at p near 1000 and at p = 65521
and 27 us at p = 2^61 - 1, and a genus-3 addition 11-20 us at the two
smaller primes and 31-48 us at 2^61 - 1 (three runs), against 115-175 us
(genus 2) and 135-330 us (genus 3) through the general code.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

from .algebra import (
    Poly,
    PrimeField,
    QQ,
    _poly,
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
        if isinstance(f.field, PrimeField) and f.field.p == 2:
            raise DomainError("characteristic 2 not supported")
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
    "divisibility"} naming the first failed condition.
    """
    field = curve.field
    if u.is_zero or u.lc != field.one:
        raise MumfordError("monic", "u must be monic")
    if not (v.degree < u.degree <= curve.genus):
        raise MumfordError("degree", "need deg v < deg u <= g")
    if u.field != field or v.field != field:
        raise DomainError("mixed coefficient fields")
    w = raw_sub(field, raw_mul(field, v.raw, raw_add(field, v.raw, curve.h.raw)), curve.f.raw)
    if raw_divmod(field, w, u.raw)[1]:
        raise MumfordError("divisibility", "u does not divide v^2 + v h - f")
    return MumfordDivisor(curve, u, v)


def identity(curve):
    return MumfordDivisor(curve, Poly.one(curve.field), Poly.zero(curve.field))


def divisor_from_points(curve, points):
    """Mumford divisor of sum of affine points with distinct x-coordinates."""
    field = curve.field
    xs = [field.of(x) for x, _ in points]
    ys = [field.of(y) for _, y in points]
    for x, y in zip(xs, ys):
        if y * y + curve.h(x) * y != curve.f(x):
            raise DomainError("point is not on the curve")
    u = Poly.one(field)
    for x in xs:
        u = u * Poly(field, [-x, 1])
    v = lagrange_interpolate(field, xs, ys)
    return mumford_validate(u, v, curve)


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
    field = curve.field
    xs = [field.of(x) for x, _ in points]
    ys = [field.of(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise DomainError("repeated x-coordinates need multiplicity handling")
    for x, y in zip(xs, ys):
        if y * y != curve.f(x):
            raise DomainError("point is not on the curve")
    u = Poly.one(field)
    for x in xs:
        u = u * Poly(field, [-x, 1])
    v = lagrange_interpolate(field, xs, ys)
    w = (curve.f - v * v).exact_div(u)
    if w.is_zero or w.lc != field.one:
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
    out = _cantor_sum(d1, d2)[0]
    _check_height(out, height_cap)
    return out


def _cantor_sum(d1, d2):
    """(D1 + D2, V): the reduced sum, and the raw composed v, the V with
    V = v1 mod u1 and V = v2 mod u2, when u1, u2 are coprime and D1 != D2
    (None otherwise).

    In genus 2 over GF(p), with deg u1 = deg u2 = 2, Harley's explicit
    formulas (Gaudry-Harley, ANTS-IV, LNCS 1838 (2000); Lange, AAECC 15
    (2005)) give the sum in one straight line with one inversion: V =
    v1 + u1 s for a linear s, and with k1 = (f - v1 (v1 + h))/u1,
    f - V (V + h) = -u1 T for T = u1 s^2 + s (2 v1 + h) - k1, so u3 is
    T/u2 made monic and v3 = -(V + h) mod u3.  s comes from the inverse of
    a linear a x + b modulo the monic quadratic x^2 + c1 x + c0, which is
    (-a x + b - a c1)/r with r = b^2 - a b c1 + a^2 c0, and exists iff
    r != 0.  The pairs with r = 0 (a shared root, D + (-D), a doubling
    through a Weierstrass point) or with a sum of degree < 2 (s1 = 0) fall
    through to the general code below.

    In genus 3 over GF(p), with deg u1 = deg u2 = 3, the same line runs
    with a quadratic s (after Pelzl-Wollinger-Guajardo-Paar, CHES 2003;
    Wollinger-Pelzl-Paar, IEEE Trans. Comput. 54 (2005)): with t = u1 - u2
    and w = v2 - v1 for an addition, t = 2v + h mod u and w = (f - v (v +
    h))/u mod u for a doubling, s = w/t mod u2 solves M s = w for the
    matrix M of multiplication by t mod u2, so r s = adj(M) w with r =
    det M = Res(u2, t).  Then V = v1 + u1 s has degree 5, u' = (f - V (V +
    h))/(u1 u2) has degree 4 and leading coefficient -s2^2, v' = -(V + h)
    mod u', and u'' = (f - v' (v' + h))/u' is monic of degree 3, as f is
    monic of degree 7, with v'' = -(v' + h) mod u''; both quotients are
    read from the top coefficients.  One inversion, of r s2, gives 1/r
    and 1/s2.  The pairs with r = 0 (a shared root, D + (-D), a doubling
    through a Weierstrass point) or with a sum of degree < 3 (s2 = 0) pay
    for r (and r s2) and fall through.  In a 64-bit scalar_mul ladder a
    genus-3 sum takes 11-20 us at p near 1000 and 65521 and 31-48 us at
    p = 2^61 - 1, against 135-330 us in the general code.

    There, one xgcd per sum in the common cases: coprime u1, u2 compose by
    the Chinese remainder theorem, and a doubling with 2v + h prime to u by
    Newton's step v + k u, k = (f - h v - v^2)/u / (2v + h) mod u.  Any
    other pair (a shared factor, D + (-D)) takes the general composition
    through the xgcds of (u1, u2) and (gcd, v1 + v2 + h).
    """
    if d1.curve != d2.curve:
        raise DomainError("divisors live on different curves")
    curve = d1.curve
    field, g = curve.field, curve.genus
    f, h = curve.f.raw, curve.h.raw
    u1, v1, u2, v2 = d1.u.raw, d1.v.raw, d2.u.raw, d2.v.raw
    double = u1 == u2 and v1 == v2
    if g == 2 and len(u1) == len(u2) == 3 and isinstance(field, PrimeField):
        p = field.p
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
        if r and rs1:
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
            out = MumfordDivisor(curve, _poly(field, (m0, m1, 1)), _poly(field, v3))
            return out, None if double else (V0, V1, V2, s1)
    if g == 3 and len(u1) == len(u2) == 4 and isinstance(field, PrimeField):
        p = field.p
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
            out = MumfordDivisor(curve, _poly(field, (d0, d1, d2, 1)), _poly(field, v3))
            return out, None if double else (V0, V1, V2, V3, V4, s2)
    add, sub, mul, div, exact, xgcd = (partial(op, field) for op in (
        raw_add, raw_sub, raw_mul, raw_divmod, raw_exact_div, raw_xgcd))
    one = (field._one,)
    u3 = cubic = None
    if double:
        e, c = xgcd(add(add(v1, v1), h), u1)  # c = (2v + h)^-1 mod u if e = 1
        if e == one:
            k = div(mul(exact(sub(f, mul(v1, add(v1, h))), u1), c), u1)[1]
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
        u3 = exact(sub(f, mul(v3, add(v3, h))), u3)
        v3 = div(sub((), add(h, v3)), u3)[1]
    u3 = mul(u3, (field._inv(u3[-1]),))
    v3 = div(v3, u3)[1] if len(u3) > 1 else ()
    return MumfordDivisor(curve, _poly(field, u3), _poly(field, v3)), cubic


def negate(divisor):
    """Image under the hyperelliptic involution, v -> (-v - h) mod u."""
    u = divisor.u
    if u.degree == 0:
        return divisor
    return MumfordDivisor(divisor.curve, u, (-divisor.v - divisor.curve.h) % u)


def scalar_mul(k, divisor, height_cap=None):
    """k-fold sum by double-and-add; 0 gives the identity."""
    if k < 0:
        return negate(scalar_mul(-k, divisor, height_cap))
    acc = identity(divisor.curve)
    base = divisor
    while k:
        if k & 1:
            acc = cantor_add(acc, base, height_cap)
        k >>= 1
        if k:
            base = cantor_add(base, base, height_cap)
    return acc


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


# Largest p that weil_data_g2 counts over, so that no accepted call runs
# much past 10 s: its p^2/2 evaluations over GF(p^2) took 0.34 s at
# p = 1009, 7.6 s at p = 5003 and 11.6 s at p = 5701 (CPython 3.11 on
# one core of an Intel Xeon).
ORDER_MAX_P = 5700


def weil_data_g2(curve):
    """Point counts N1, N2 and the order #J(F_q) = f(1) of the Weil
    polynomial f(T) = T^4 - a T^3 + (b + 2q) T^2 - a q T + q^2.

    With w = 4f + h^2, each x gives 1 + chi(w(x)) affine points, read
    from a table of the squares of GF(p); every x in GF(p) is a square in
    GF(p^2).  Over GF(p^2) = GF(p)[s]/(s^2 - t), t the least non-residue,
    chi(A + B s) is the Legendre symbol of the norm A^2 - t B^2, and the
    conjugates a + b s and a - b s share it, so b runs over 1..(p-1)/2
    and each count is doubled.  w(a + b s) is summed from the Taylor
    coefficients of w at a, tabulated once.  Cost: p^2/2 evaluations over
    GF(p^2), i.e. O(p^2) table lookups, and O(p) memory; p > ORDER_MAX_P
    raises UnsupportedCaseError before counting.
    """
    field = curve.field
    if not isinstance(field, PrimeField):
        raise UnsupportedCaseError("order computation needs GF(p), p an odd prime")
    if curve.genus != 2:
        raise DomainError("weil_data_g2 needs a genus 2 curve")
    p = field.p
    if p > ORDER_MAX_P:
        raise UnsupportedCaseError(
            f"point count over GF({p}^2) needs about {p * p // 2} evaluations; "
            f"supported up to p = {ORDER_MAX_P}")
    w = 4 * curve.f + curve.h * curve.h  # (2y + h)^2 = w, of degree 5
    wc = list(w.raw)
    roots = [0] * p  # roots[v] = #{y : y^2 = v} = 1 + chi(v)
    for y in range(p):
        roots[y * y % p] += 1
    t = roots.index(0)
    # w(a + z) = sum_k w_k(a) z^k; w_5 = wc[5] for every a
    taylor = []
    for a in range(p):
        c = wc[:]
        for k in range(5):
            for j in range(4, k - 1, -1):
                c[j] = (c[j] + a * c[j + 1]) % p
        taylor.append(c[:5])
    n1 = 1 + sum(roots[c[0]] for c in taylor)  # one point at infinity
    # x in GF(p): w(x) is a square in GF(p^2)
    n2 = 1 + sum(2 if c[0] else 1 for c in taylor)
    pairs = 0
    for b in range(1, (p + 1) // 2):
        # z = b s has z^k = z_k s^(k mod 2) with z_k = b^k t^(k div 2)
        z2 = b * b * t % p
        z3, z4 = z2 * b % p, z2 * z2 % p
        top = wc[5] * z4 * b % p
        pairs += sum([roots[((w0 + w2 * z2 + w4 * z4) ** 2
                             - t * (w1 * b + w3 * z3 + top) ** 2) % p]
                      for w0, w1, w2, w3, w4 in taylor])
    n2 += 2 * pairs
    a_coef = p + 1 - n1
    s2 = p * p + 1 - n2
    e2 = (a_coef * a_coef - s2) // 2  # = b + 2q
    b_coef = e2 - 2 * p
    order = 1 - a_coef + e2 - a_coef * p + p * p
    return WeilData(q=p, n1=n1, n2=n2, a=a_coef, b=b_coef, order=order)


def jacobian_order_g2(curve):
    data = weil_data_g2(curve)
    if not hasse_interval_contains(data.q, data.order):
        raise AssertionError("order outside the Hasse-Weil interval")  # pragma: no cover
    return data.order


def hasse_interval_contains(q, n):
    """Exact test for (sqrt(q)-1)^4 <= n <= (sqrt(q)+1)^4."""
    base = (q + 1) ** 2 + 4 * q
    root_part = 16 * q * (q + 1) ** 2
    lo_diff = base - n  # need lo_diff <= 4 (q+1) sqrt(q)
    if lo_diff > 0 and lo_diff * lo_diff > root_part:
        return False
    hi_diff = n - base  # need hi_diff <= 4 (q+1) sqrt(q)
    if hi_diff > 0 and hi_diff * hi_diff > root_part:
        return False
    return True
