import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from superelliptic import jacobian
from superelliptic.algebra import GF, QQ, Poly
from superelliptic.errors import DomainError, SingularCurveError, UnsupportedCaseError
from superelliptic.jacobian import (
    COUNT_MAX_P,
    MAX_DIVISOR_PAIRS,
    ORDER_MAX_P,
    HyperCurve,
    MumfordDivisor,
    MumfordError,
    WeilData,
    _count_n2,
    cantor_add,
    divisor_from_points,
    enumerate_divisors,
    hasse_interval_contains,
    identity,
    interpolation_add_g2,
    jacobi_polynomials,
    jacobian_order_g2,
    mumford_validate,
    negate,
    scalar_mul,
    weil_data_g2,
)

from oracles import hasse_interval_contains_by_ends

C7 = HyperCurve.make(GF(7), [1, 0, 0, 0, 0, 1])        # y^2 = x^5 + 1
C5 = HyperCurve.make(GF(5), [1, 1, 0, 0, 0, 1])        # y^2 = x^5 + x + 1
C11 = HyperCurve.make(GF(11), [1, 0, 0, 0, 0, 1])
C101 = HyperCurve.make(GF(101), [7, 1, 2, 0, 0, 1])


_SQRT_TABLES = {}


def _sqrt_table(p):
    if p not in _SQRT_TABLES:
        table = {}
        for y in range(p):
            table.setdefault(y * y % p, []).append(y)
        _SQRT_TABLES[p] = table
    return _SQRT_TABLES[p]


def random_divisor(rng, curve, degree=2):
    """Random reduced divisor supported on rational points (h = 0 model)."""
    p = curve.field.p
    F = curve.field
    table = _sqrt_table(p)
    while True:
        xs = rng.sample(range(p), degree)
        pts = []
        for x in xs:
            ys = table.get(int(curve.f(F.of(x)).value))
            if not ys:
                break
            pts.append((x, rng.choice(ys)))
        if len(pts) == degree:
            return divisor_from_points(curve, pts)


# ---------------------------------------------------------------------------
# curve and Mumford validation


def test_curve_rejects_singular():
    with pytest.raises(SingularCurveError):
        HyperCurve.make(GF(7), [0, 0, 2, 0, 0, 1])  # x^2 (x^3 + 2)


def test_curve_rejects_even_degree():
    with pytest.raises(DomainError):
        HyperCurve.make(GF(7), [1, 0, 0, 0, 0, 0, 1])


def test_mumford_validate_identity():
    F = GF(7)
    d = mumford_validate(Poly.one(F), Poly.zero(F), C7)
    assert d.is_identity


def test_mumford_validate_example_valid():
    F = GF(7)
    d = mumford_validate(Poly(F, [0, 1]), Poly(F, [1]), C7)
    assert d.u.degree == 1


def test_mumford_validate_example_invalid():
    F = GF(7)
    with pytest.raises(MumfordError) as exc:
        mumford_validate(Poly(F, [0, 1]), Poly(F, [3]), C7)
    assert exc.value.condition == "divisibility"


def test_mumford_validate_monic_and_degree():
    F = GF(7)
    with pytest.raises(MumfordError) as e1:
        mumford_validate(Poly(F, [0, 2]), Poly(F, [1]), C7)
    assert e1.value.condition == "monic"
    with pytest.raises(MumfordError) as e2:
        mumford_validate(Poly(F, [0, 0, 0, 1]), Poly(F, [1]), C7)
    assert e2.value.condition == "degree"


def _validate_oracle(u, v, curve):
    """Mumford's conditions through the Poly operators: the first one that
    fails, or None."""
    if u.is_zero or u.lc != curve.field.one:
        return "monic"
    if not (v.degree < u.degree <= curve.genus):
        return "degree"
    if not ((v * v + v * curve.h - curve.f) % u).is_zero:
        return "divisibility"
    return None


@given(st.sampled_from([C7, C11, HyperCurve.make(GF(7), [3, 1, 0, 4, 0, 1], [1, 2]),
                        HyperCurve.make(QQ, [1, 0, -2, 0, 0, 0, 0, 1], [0, 1])]),
       st.lists(st.integers(-3, 3), max_size=5), st.lists(st.integers(-3, 3), max_size=4))
@settings(max_examples=300, deadline=None)
def test_mumford_validate_matches_the_poly_operators(curve, u, v):
    F = curve.field
    u, v = Poly(F, u), Poly(F, v)
    try:
        d = mumford_validate(u, v, curve)
    except MumfordError as e:
        assert e.condition == _validate_oracle(u, v, curve)
    else:
        assert _validate_oracle(u, v, curve) is None
        assert (d.u, d.v) == (u, v)


def test_mumford_validate_mixed_fields():
    # monic over GF(11) is not monic over GF(7); a monic u over Q is, and
    # then the coefficient fields clash
    with pytest.raises(MumfordError) as e:
        mumford_validate(Poly(GF(11), [0, 1]), Poly(GF(11), [1]), C7)
    assert e.value.condition == "monic"
    for u, v in [(Poly(QQ, [0, 1]), Poly(GF(7), [1])), (Poly(GF(7), [0, 1]), Poly(QQ, [1]))]:
        with pytest.raises(DomainError, match="mixed coefficient fields"):
            mumford_validate(u, v, C7)


# ---------------------------------------------------------------------------
# Jacobi polynomials


def test_jacobi_single_point():
    F = GF(101)
    x0, y0 = None, None
    for x in range(101):
        ys = _sqrt_table(101).get(int(C101.f(F.of(x)).value))
        if ys:
            x0, y0 = F.of(x), F.of(ys[0])
            break
    jt = jacobi_polynomials([(x0, y0)], C101)
    assert jt.U == Poly(F, [-x0, 1])
    assert jt.V == Poly(F, [y0])
    assert jt.U * jt.W == C101.f - jt.V * jt.V
    assert jt.W.degree == 4  # 2g+1 - d


def test_jacobi_interpolation_and_degree(rng):
    F = GF(101)
    pts = []
    for x in range(101):
        val = C101.f(F.of(x))
        for y in range(101):
            if F.of(y) ** 2 == val:
                pts.append((F.of(x), F.of(y)))
    rng.shuffle(pts)
    for d in (2, 3):
        chosen, seen = [], set()
        for x, y in pts:
            if x not in seen:
                chosen.append((x, y))
                seen.add(x)
            if len(chosen) == d:
                break
        jt = jacobi_polynomials(chosen, C101)
        assert all(jt.V(x) == y for x, y in chosen)
        assert jt.W.degree == 5 - d
        assert jt.W.lc == F.one and jt.U.lc == F.one


def test_jacobi_rejects_repeated_x():
    F = GF(7)
    with pytest.raises(DomainError):
        jacobi_polynomials([(F.of(0), F.of(1)), (F.of(0), F.of(6))], C7)


# ---------------------------------------------------------------------------
# group identities


def test_identity_laws(rng):
    I = identity(C7)
    for _ in range(10):
        d = random_divisor(rng, C7)
        assert cantor_add(d, I) == d
        assert cantor_add(I, d) == d
        assert cantor_add(d, negate(d)) == I
        assert negate(negate(d)) == d


def test_negate_example():
    F = GF(7)
    d = mumford_validate(Poly(F, [0, 1]), Poly(F, [1]), C7)
    assert negate(d).v == Poly(F, [6])


def test_scalar_mul_basics(rng):
    d = random_divisor(rng, C7)
    assert scalar_mul(0, d) == identity(C7)
    assert scalar_mul(1, d) == d
    assert scalar_mul(2, d) == cantor_add(d, d)
    assert scalar_mul(-3, d) == negate(scalar_mul(3, d))
    assert scalar_mul(7, d) == cantor_add(scalar_mul(3, d), scalar_mul(4, d))


def test_scalar_mul_height_cap():
    CQ = HyperCurve.make(QQ, [1, 3, 0, 0, 0, 1])
    d = divisor_from_points(CQ, [(0, 1)])
    with pytest.raises(DomainError):
        scalar_mul(2**14, d, height_cap=10**40)


def test_cantor_preserves_invariants(rng):
    for _ in range(40):
        a = random_divisor(rng, C101)
        b = random_divisor(rng, C101)
        c = cantor_add(a, b)
        assert c.u.lc == C101.field.one
        assert c.v.degree < max(c.u.degree, 1) <= 2
        assert ((c.v * c.v + c.v * C101.h - C101.f) % c.u).is_zero


# ---------------------------------------------------------------------------
# independent linear-equivalence oracle over GF(p^2)
#
# Tests [D1 + D2] = [E] through Riemann-Roch: the class difference is zero
# iff some function F = A(x) + B(x) y has divisor exactly
# (points of D1 + D2 + iota(E)) - m * infinity.  Norm and branch orders are
# checked directly; nothing here shares code with Cantor addition.


class Ext:
    """GF(p^2) as GF(p)[s]/(s^2 - t)."""

    def __init__(self, p, t, a, b=0):
        self.p, self.t, self.a, self.b = p, t, a % p, b % p

    def _new(self, a, b):
        return Ext(self.p, self.t, a, b)

    def __add__(self, o):
        return self._new(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return self._new(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return self._new(
            self.a * o.a + self.b * o.b * self.t, self.a * o.b + self.b * o.a
        )

    def __eq__(self, o):
        return self.p == o.p and self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.p))

    def __bool__(self):
        return bool(self.a or self.b)

    def inv(self):
        d = pow((self.a * self.a - self.t * self.b * self.b) % self.p, -1, self.p)
        return self._new(self.a * d, -self.b * d)


def _ext_field(p):
    t = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
    return t, (lambda v: Ext(p, t, v, 0))


def _ext_sqrt(p, t, value):
    """Square root in GF(p^2) of a GF(p) element."""
    if value % p == 0:
        return Ext(p, t, 0, 0)
    if pow(value, (p - 1) // 2, p) == 1:
        r = next(r for r in range(p) if r * r % p == value % p)
        return Ext(p, t, r, 0)
    w = value * pow(t, -1, p) % p  # value = t * w with w a QR
    r = next(r for r in range(p) if r * r % p == w)
    return Ext(p, t, 0, r)


def _poly_eval_ext(poly, x):
    acc = Ext(x.p, x.t, 0, 0)
    for c in reversed(poly.coeffs):
        acc = acc * x + Ext(x.p, x.t, int(c.value), 0)
    return acc


def _divisor_points(curve, d, t):
    """Points of a Mumford divisor over GF(p^2), with multiplicity."""
    p = curve.field.p
    if d.u.degree == 0:
        return []
    if d.u.degree == 1:
        x0 = Ext(p, t, -int(d.u.coeffs[0].value), 0)
        y0 = _poly_eval_ext(d.v, x0)
        return [((x0, y0), 1)]
    b, c = int(d.u.coeffs[1].value), int(d.u.coeffs[0].value)
    disc = (b * b - 4 * c) % p
    sq = _ext_sqrt(p, t, disc)
    inv2 = Ext(p, t, pow(2, -1, p), 0)
    r1 = (Ext(p, t, -b, 0) + sq) * inv2
    r2 = (Ext(p, t, -b, 0) - sq) * inv2
    if r1 == r2:
        return [((r1, _poly_eval_ext(d.v, r1)), 2)]
    return [((r, _poly_eval_ext(d.v, r)), 1) for r in (r1, r2)]


def _f_derivatives_ext(curve, x0, order, t):
    """f(x0), f'(x0), ... as Ext values."""
    out = []
    poly = curve.f
    for _ in range(order + 1):
        out.append(_poly_eval_ext(poly, x0))
        poly = poly.derivative()
    return out


def _branch_derivatives(curve, x0, y0, order, t):
    """Derivatives of the y-branch through (x0, y0), y0 != 0."""
    p = curve.field.p
    fs = _f_derivatives_ext(curve, x0, order + 1, t)
    ys = [y0]
    inv2y = (y0 + y0).inv()
    # y' = f' / (2 y);  differentiate y^2 = f repeatedly
    if order >= 1:
        ys.append(fs[1] * inv2y)
    if order >= 2:
        ys.append((fs[2] - (ys[1] * ys[1] + ys[1] * ys[1])) * inv2y)
    if order >= 3:
        six = Ext(p, t, 6, 0)
        ys.append((fs[3] - six * ys[1] * ys[2]) * inv2y)
    return ys


def _ord_at_point(curve, A, B, x0, y0, cap, t):
    """Vanishing order (up to cap) of F = A + B y at a point over GF(p^2)."""
    p = curve.field.p
    zero = Ext(p, t, 0, 0)
    if y0 == zero:
        # Weierstrass point: ord = min(2 mult_A, 1 + 2 mult_B)
        def root_mult(poly):
            k = 0
            while not poly.is_zero and _poly_eval_ext(poly, x0) == zero:
                k += 1
                poly = poly.derivative()
            return k if not poly.is_zero else cap
        ma = root_mult(A) if not A.is_zero else cap
        mb = root_mult(B) if not B.is_zero else cap
        return min(2 * ma, 1 + 2 * mb, cap)
    ys = _branch_derivatives(curve, x0, y0, cap, t)
    # derivatives of A(x) + B(x) y(x) via Leibniz
    def poly_derivs(poly, k):
        out = []
        for _ in range(k + 1):
            out.append(_poly_eval_ext(poly, x0))
            poly = poly.derivative()
        return out
    As = poly_derivs(A, cap)
    Bs = poly_derivs(B, cap)
    from math import comb
    for k in range(cap):
        total = As[k]
        for j in range(k + 1):
            if j < len(ys):
                total = total + Ext(p, t, comb(k, j), 0) * Bs[k - j] * ys[j]
        if total:
            return k
    return cap


def _poly_sqrt(poly):
    """Exact square root of a polynomial over a field, or None."""
    if poly.is_zero or poly.degree % 2:
        return None
    field = poly.field
    # leading coefficient must be a square
    lead = poly.lc
    root = next((e for e in field.elements() if e * e == lead), None)
    if root is None:
        return None
    half = poly.degree // 2
    coeffs = [field.zero] * (half + 1)
    coeffs[half] = root
    for i in range(half - 1, -1, -1):
        # match coefficient of x^(half + i)
        acc = field.zero
        for j in range(i + 1, half):
            if i + half - j <= half:
                acc = acc + coeffs[j] * coeffs[i + half - j]
        target = poly[half + i] - acc
        coeffs[i] = target / (root + root)
    cand = Poly(field, coeffs)
    return cand if cand * cand == poly else None


def class_sum_oracle(curve, d1, d2):
    """The reduced divisor equivalent to d1 + d2, found by brute force:
    for each reduced candidate E, decide [d1 + d2 + iota(E)] ~ m * infinity
    by exhibiting a function A(x) + B(x) y with that divisor."""
    field = curve.field
    p = field.p
    t, _ = _ext_field(p)
    answers = []
    for E in enumerate_divisors(curve):
        pts = []
        for (pt, mu) in _divisor_points(curve, d1, t):
            pts.append((pt, mu))
        for (pt, mu) in _divisor_points(curve, d2, t):
            pts.append((pt, mu))
        for ((x0, y0), mu) in _divisor_points(curve, E, t):
            pts.append(((x0, Ext(p, t, 0, 0) - y0), mu))
        # merge multiplicities
        merged = {}
        for (pt, mu) in pts:
            merged[pt] = merged.get(pt, 0) + mu
        m = sum(merged.values())
        norm = Poly.one(field)
        for d in (d1, d2, E):
            if d.u.degree > 0:
                norm = norm * d.u
        found = False
        b_degree = (m - 5) // 2 if m >= 5 else -1
        b_candidates = [Poly.zero(field)]
        if b_degree >= 0:
            b_candidates += [
                Poly(field, list(tail))
                for tail in product(*([list(field.elements())] * (b_degree + 1)))
                if any(tail)
            ]
        for B in b_candidates:
            for c in field.elements():
                if not c:
                    continue
                rhs = norm * c + B * B * curve.f
                A = _poly_sqrt(rhs)
                if A is None:
                    continue
                for Asign in (A, -A):
                    if Asign.is_zero and B.is_zero:
                        continue
                    ok = True
                    for (x0, y0), mu in merged.items():
                        if _ord_at_point(curve, Asign, B, x0, y0, mu + 1, t) < mu:
                            ok = False
                            break
                    if ok:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if found:
            answers.append(E)
    assert len(answers) == 1, f"oracle found {len(answers)} classes"
    return answers[0]


def test_cantor_doubling_matches_oracle():
    F = GF(7)
    d = mumford_validate(Poly(F, [0, 1]), Poly(F, [1]), C7)
    expected = class_sum_oracle(C7, d, d)
    assert cantor_add(d, d) == expected


def test_cantor_random_sums_match_oracle(rng):
    divs = enumerate_divisors(C7)
    for _ in range(6):
        d1, d2 = rng.choice(divs), rng.choice(divs)
        assert cantor_add(d1, d2) == class_sum_oracle(C7, d1, d2)


# ---------------------------------------------------------------------------
# exhaustive group law (smooth curves)


@pytest.mark.parametrize("curve", [C5, C7], ids=["GF5-smooth", "GF7"])
def test_group_axioms_exhaustive(curve):
    divs = enumerate_divisors(curve)
    assert len(divs) == jacobian_order_g2(curve)
    index = {d: i for i, d in enumerate(divs)}
    table = [[index[cantor_add(a, b)] for b in divs] for a in divs]
    n = len(divs)
    ident = index[identity(curve)]
    # identity and inverses
    for i in range(n):
        assert table[i][ident] == i
        assert table[i][index[negate(divs[i])]] == ident
    # commutativity
    assert all(table[i][j] == table[j][i] for i in range(n) for j in range(i, n))
    # associativity over all triples
    assert all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n) for j in range(n) for k in range(n)
    )


# ---------------------------------------------------------------------------
# interpolation adder


def test_interpolation_matches_cantor(rng):
    direct = fallback = 0
    for _ in range(150):
        d1 = random_divisor(rng, C101)
        d2 = random_divisor(rng, C101)
        res = interpolation_add_g2(d1, d2)
        assert res.divisor == cantor_add(d1, d2)
        if res.used_fallback:
            fallback += 1
        else:
            direct += 1
    assert direct > 100  # general position dominates


def test_interpolation_fallback_on_shared_support(rng):
    d1 = random_divisor(rng, C101)
    res = interpolation_add_g2(d1, d1)
    assert res.used_fallback
    assert res.divisor == cantor_add(d1, d1)


def test_interpolation_cubic_vieta_relations(rng):
    # the two new x-coordinates satisfy the Vieta relations of g^2 - f
    f = C101.f
    a5, a0 = f.lc, f.coeffs[0]
    done = 0
    while done < 25:
        d1 = random_divisor(rng, C101)
        d2 = random_divisor(rng, C101)
        res = interpolation_add_g2(d1, d2)
        if res.used_fallback or res.divisor.u.degree != 2:
            continue
        g = res.cubic
        b0, b3 = g.lc, g[0]
        u1u2 = d1.u * d2.u
        sum4 = -(u1u2[3])          # sum of the four input x-coordinates
        prod4 = u1u2[0]            # their product
        u3 = res.divisor.u
        s2, p2 = -u3[1], u3[0]     # new coordinates: sum and product
        # product relation: x5 x6 * prod4 * b0^2 = b3^2 - a0
        assert p2 * prod4 * b0 * b0 == b3 * b3 - a0
        # sum relation: (x5 + x6 + sum4) b0^2 = a5 - 2 b0 b1
        b1 = g[2]
        assert (s2 + sum4) * b0 * b0 == a5 - (b0 * b1 + b0 * b1)
        done += 1


def test_interpolation_requires_h_zero():
    F = GF(7)
    C = HyperCurve.make(F, [1, 1, 0, 0, 0, 1], [1])
    d = identity(C)
    with pytest.raises(DomainError):
        interpolation_add_g2(d, d)


# ---------------------------------------------------------------------------
# orders


def test_weil_data_x5_plus_1_gf7():
    data = weil_data_g2(C7)
    assert (data.n1, data.n2) == (8, 50)
    assert (data.a, data.b) == (0, -14)
    assert data.order == 50


def test_order_counts_match_enumeration():
    for curve in (C5, C7, C11):
        assert len(enumerate_divisors(curve)) == jacobian_order_g2(curve)


def test_enumerate_divisors_refuses_past_its_cap():
    # 19^2 + 19^4 = 130682 pairs are tried; 23^2 + 23^4 = 280370 are not
    assert MAX_DIVISOR_PAIRS < 23**2 + 23**4
    curve = HyperCurve.make(GF(23), [1, 0, 0, 0, 0, 1])
    with pytest.raises(UnsupportedCaseError, match="tries 280370 .u, v. pairs"):
        enumerate_divisors(curve)
    genus3 = HyperCurve.make(GF(11), [2, 1, 0, 0, 0, 0, 0, 1])
    with pytest.raises(UnsupportedCaseError, match="genus 3 tries 1786323 "):
        enumerate_divisors(genus3)


def test_order_in_hasse_interval():
    for curve in (C5, C7, C11):
        q = curve.field.p
        order = jacobian_order_g2(curve)
        assert hasse_interval_contains(q, order)
    assert not hasse_interval_contains(7, 2)
    assert not hasse_interval_contains(7, 200)


def test_hasse_test_matches_the_oracle_on_every_small_n():
    # n runs from below the lower end to past the upper one, (sqrt(q) + 1)^4
    for q in range(64):
        for n in range(-5, 4 * q * q + 50):
            assert hasse_interval_contains(q, n) == hasse_interval_contains_by_ends(q, n), (q, n)


@given(st.one_of(st.integers(1, 10**12), st.integers(1, 10**6).map(lambda r: r * r)),
       st.sampled_from((-1, 1)), st.integers(-3, 3))
@settings(max_examples=500, deadline=None)
def test_hasse_test_matches_the_oracle_near_both_ends(q, side, offset):
    # the ends are (q + 1)^2 + 4q -/+ 4 (q + 1) sqrt(q), exact for a square q
    n = (q + 1) ** 2 + 4 * q + side * isqrt(16 * q * (q + 1) ** 2) + offset
    assert hasse_interval_contains(q, n) == hasse_interval_contains_by_ends(q, n)


def test_order_annihilates_group(rng):
    order = jacobian_order_g2(C7)
    for d in enumerate_divisors(C7):
        assert scalar_mul(order, d) == identity(C7)


def _ext_sqrt_count(p, t, coeffs_w, x):
    """1 + chi(w(x)) over GF(p^2) = GF(p)[s]/(s^2 - t); x is an (a, b) pair."""
    w = (0, 0)
    for c in reversed(coeffs_w):
        # w = w * x + c
        a, b = w
        xa, xb = x
        w = ((a * xa + b * xb * t) % p, (a * xb + b * xa) % p)
        w = ((w[0] + c) % p, w[1])
    if w == (0, 0):
        return 1
    # chi via w^((p^2-1)/2)
    e = (p * p - 1) // 2
    base, acc = w, (1, 0)
    while e:
        if e & 1:
            a, b = acc
            xa, xb = base
            acc = ((a * xa + b * xb * t) % p, (a * xb + b * xa) % p)
        a, b = base
        base = ((a * a + b * b * t) % p, (2 * a * b) % p)
        e >>= 1
    if acc == (1, 0):
        return 2
    return 0


def _weil_data_oracle(curve):
    """Direct O(p^2 log p) count: Euler's criterion on every x of GF(p)
    and GF(p^2)."""
    p = curve.field.p
    w = 4 * curve.f + curve.h * curve.h
    wc = [int(c.value) for c in w.coeffs]
    n1 = 1
    half = (p - 1) // 2
    for x in range(p):
        val = 0
        for c in reversed(wc):
            val = (val * x + c) % p
        if val == 0:
            n1 += 1
        elif pow(val, half, p) == 1:
            n1 += 2
    t = next(c for c in range(2, p) if pow(c, half, p) == p - 1)
    n2 = 1
    for a in range(p):
        for b in range(p):
            n2 += _ext_sqrt_count(p, t, wc, (a, b))
    a_coef = p + 1 - n1
    e2 = (a_coef * a_coef - (p * p + 1 - n2)) // 2
    order = 1 - a_coef + e2 - a_coef * p + p * p
    return WeilData(q=p, n1=n1, n2=n2, a=a_coef, b=e2 - 2 * p, order=order)


_PRIMES = [p for p in range(3, 200) if all(p % d for d in range(2, p))]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_PRIMES), st.data())
def test_weil_data_matches_oracle(p, data):
    coeffs = st.integers(0, p - 1)
    f = data.draw(st.lists(coeffs, min_size=5, max_size=5)) + [1]
    h = data.draw(st.lists(coeffs, max_size=3))
    try:
        curve = HyperCurve.make(GF(p), f, h)
    except SingularCurveError:
        assume(False)
    assert weil_data_g2(curve) == _weil_data_oracle(curve)


def _weil_data_table(curve):
    """The O(p^2) table count weil_data_g2 ran before its Cartier-Manin
    pick: N1 and N2 from a table of the squares of GF(p), with w(a + b s)
    over GF(p^2) = GF(p)[s]/(s^2 - t) summed from the Taylor coefficients
    of w at a, and b over 1..(p-1)/2 for the conjugate pairs."""
    p = curve.field.p
    wc = list((4 * curve.f + curve.h * curve.h).raw)
    roots = [0] * p  # roots[v] = #{y : y^2 = v} = 1 + chi(v)
    for y in range(p):
        roots[y * y % p] += 1
    t = roots.index(0)
    taylor = []
    for a in range(p):
        c = wc[:]
        for k in range(5):
            for j in range(4, k - 1, -1):
                c[j] = (c[j] + a * c[j + 1]) % p
        taylor.append(c[:5])
    n1 = 1 + sum(roots[c[0]] for c in taylor)
    n2 = 1 + sum(2 if c[0] else 1 for c in taylor)
    pairs = 0
    for b in range(1, (p + 1) // 2):
        z2 = b * b * t % p
        z3, z4 = z2 * b % p, z2 * z2 % p
        top = wc[5] * z4 * b % p
        pairs += sum(roots[((w0 + w2 * z2 + w4 * z4) ** 2
                            - t * (w1 * b + w3 * z3 + top) ** 2) % p]
                     for w0, w1, w2, w3, w4 in taylor)
    n2 += 2 * pairs
    a_coef = p + 1 - n1
    e2 = (a_coef * a_coef - (p * p + 1 - n2)) // 2
    order = 1 - a_coef + e2 - a_coef * p + p * p
    return WeilData(q=p, n1=n1, n2=n2, a=a_coef, b=e2 - 2 * p, order=order)


_MID_PRIMES = [p for p in range(201, 2001) if all(p % d for d in range(2, int(p**0.5) + 1))]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(_MID_PRIMES), st.data())
def test_weil_data_matches_the_table_count(p, data):
    coeffs = st.integers(0, p - 1)
    f = data.draw(st.lists(coeffs, min_size=5, max_size=5)) + [1]
    h = data.draw(st.lists(coeffs, max_size=3))
    try:
        curve = HyperCurve.make(GF(p), f, h)
    except SingularCurveError:
        assume(False)
    assert weil_data_g2(curve) == _weil_data_table(curve)


def test_ambiguous_pick_is_resolved_by_counting(monkeypatch):
    # y^2 = x^5 + 1 over GF(11) has 5 rational Weierstrass points and 2
    # other affine points, both at x = 0: no divisor to draw, so more than
    # one candidate is left
    counts = []
    monkeypatch.setattr(jacobian, "_count_n2",
                        lambda *args: counts.append(args) or _count_n2(*args))
    assert weil_data_g2(C11) == _weil_data_oracle(C11)
    assert len(counts) == 1


def test_pick_stops_at_its_cap_and_the_count_decides(monkeypatch):
    # y^2 = x^5 + 10 over GF(19) has 9 x with two points, so 4 divisors to
    # draw; with PICK_DIVISORS = 1 the first leaves more than one candidate,
    # the pick stops at its cap, and the count decides
    curve = HyperCurve.make(GF(19), [10, 0, 0, 0, 0, 1])
    want = _weil_data_oracle(curve)
    real, drawn, counts = jacobian._pick_divisors, [], []
    monkeypatch.setattr(jacobian, "_pick_divisors",
                        lambda *args: (drawn.append(d) or d for d in real(*args)))
    assert weil_data_g2(curve) == want and len(drawn) > 1
    drawn.clear()
    monkeypatch.setattr(jacobian, "PICK_DIVISORS", 1)
    monkeypatch.setattr(jacobian, "_count_n2",
                        lambda *args: counts.append(args) or _count_n2(*args))
    assert weil_data_g2(curve) == want
    assert len(drawn) == 1 and len(counts) == 1


def test_single_candidate_is_checked_on_one_divisor(monkeypatch):
    # y^2 = x^5 + 1 over GF(61): a = -16 leaves one candidate, which the pick
    # still checks by [N]D = 0 on the first divisor; with no divisor at all
    # the candidate stands, and nothing is counted
    curve = HyperCurve.make(GF(61), [1, 0, 0, 0, 0, 1])
    want = _weil_data_oracle(curve)
    assert want.a == -16
    real, drawn = jacobian._pick_divisors, []
    monkeypatch.setattr(jacobian, "_pick_divisors",
                        lambda *args: (drawn.append(d) or d for d in real(*args)))
    monkeypatch.setattr(jacobian, "_count_n2", None)
    assert weil_data_g2(curve) == want
    assert len(drawn) == 1
    monkeypatch.setattr(jacobian, "_pick_divisors", lambda *args: iter(()))
    assert weil_data_g2(curve) == want


def test_ambiguous_pick_past_the_count_cap_is_refused(monkeypatch):
    curve = HyperCurve.make(GF(10007), [1, 1, 0, 0, 0, 1])
    assert curve.field.p > COUNT_MAX_P
    order = weil_data_g2(curve).order
    monkeypatch.setattr(jacobian, "_pick_divisors", lambda *args: iter(()))
    with pytest.raises(UnsupportedCaseError, match="50070024 evaluations") as err:
        weil_data_g2(curve)
    assert str(order) in str(err.value)


def test_weil_data_near_p_1e5():
    # no oracle runs at this size: the order must lie in the Hasse-Weil
    # interval, N1 must match a direct count, and [N]D = 0 on random divisors
    p, rng = 100003, random.Random(5)  # p = 3 mod 4: sqrt(v) = v^((p+1)/4)
    F = GF(p)
    curve = HyperCurve.make(F, [rng.randrange(p) for _ in range(5)] + [1],
                            [rng.randrange(p) for _ in range(3)])
    data = weil_data_g2(curve)
    assert hasse_interval_contains(p, data.order)
    w = [c.value for c in (4 * curve.f + curve.h * curve.h).coeffs]
    n1 = 1
    for x in range(p):
        v = sum(c * pow(x, i, p) for i, c in enumerate(w)) % p
        n1 += 1 if v == 0 else 2 if pow(v, (p - 1) // 2, p) == 1 else 0
    assert (data.n1, data.a) == (n1, p + 1 - n1)
    for _ in range(3):
        pts = []
        while len(pts) < 2:
            x = rng.randrange(p)
            v = curve.f(F.of(x)) * 4 + curve.h(F.of(x)) ** 2
            Y = pow(v.value, (p + 1) // 4, p)
            if Y and Y * Y % p == v.value and x not in [q for q, _ in pts]:
                pts.append((x, (F.of(Y) - curve.h(F.of(x))) / 2))
        d = divisor_from_points(curve, pts)
        assert scalar_mul(data.order, d).is_identity


def test_order_refused_above_max_p():
    curve = HyperCurve.make(GF(1000003), [1, 1, 0, 0, 0, 1])
    assert curve.field.p > ORDER_MAX_P
    with pytest.raises(UnsupportedCaseError, match="about 4000012 table and recurrence steps"):
        weil_data_g2(curve)


def test_scalar_mul_large_prime_exact_result():
    p = 2**61 - 1
    F = GF(p)
    curve = HyperCurve.make(F, [
        60043843193914770, 123130825854188873, 884195012983257563,
        34030129504929377, 1825017222793591549, 1])
    d = mumford_validate(Poly(F, [1443791918684305234, 1303889869748103078, 1]),
                         Poly(F, [973624995968406917, 604937829028692597]), curve)
    out = scalar_mul(0xDEADBEEFCAFEF00D, d)
    assert [c.value for c in out.u.coeffs] == [
        1835327226569942371, 1235428626041513574, 1]
    assert [c.value for c in out.v.coeffs] == [
        2032383166907924750, 567775018948835697]
