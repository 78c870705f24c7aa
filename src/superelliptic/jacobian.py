"""Divisor class group arithmetic on hyperelliptic curves y^2 + h y = f
with f monic of degree 2g+1: Mumford representation, Cantor's
composition-and-reduction addition, the genus-2 geometric adder through
an interpolated cubic, and group orders over prime fields through the
Weil polynomial.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import Poly, PrimeField, QQ, lagrange_interpolate
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
        w = 4 * f + h * h
        if not w.gcd(w.derivative()).degree <= 0:
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
    if u.is_zero or u.lc != curve.field.one:
        raise MumfordError("monic", "u must be monic")
    if not (v.degree < u.degree <= curve.genus):
        raise MumfordError("degree", "need deg v < deg u <= g")
    if not ((v * v + v * curve.h - curve.f) % u).is_zero:
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
    four supporting points; falls back to cantor_add (flagged) outside
    general position."""
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
        divisor=cantor_add(d1, d2), used_fallback=True, cubic=None
    )


def enumerate_divisors(curve):
    """All reduced Mumford divisors over a prime field, identity included."""
    field = curve.field
    if not isinstance(field, PrimeField):
        raise DomainError("enumeration needs a finite field")
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
