"""Brute-force oracles that the tests compare the library's closed forms
and criteria against.  They enumerate or search, so they run only at
small sizes."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from superelliptic import atlas
from superelliptic.algebra import (
    BinaryForm,
    Poly,
    QQ,
    factorize,
    raw_add,
    raw_divmod,
    raw_mul,
    raw_sub,
    valuation,
)
from superelliptic.curves import SuperellipticCurve, genus_formula
from superelliptic.errors import DomainError, SingularCurveError, UnsupportedCaseError
from superelliptic.minimal import SuperellipticMinimalReport
from superelliptic.theta import (
    HalfIntChar,
    branch_characteristic,
    branch_index_set,
    odd_branch_indices,
    parity,
    syzygetic,
)
from superelliptic.weighted import WeightedPoint, moduli_point, star_act


def all_characteristics(g):
    """All 4^g half-integer characteristics of genus g."""
    for top in product((0, 1), repeat=g):
        for bottom in product((0, 1), repeat=g):
            yield HalfIntChar(top, bottom)


def gopel_groups(g, r):
    """All Goepel groups of order 2^r, by searching spans of characteristics."""
    nonzero = [m for m in all_characteristics(g) if any(m.top) or any(m.bottom)]
    found = set()

    def extend(basis, span):
        if len(basis) == r:
            found.add(frozenset(span))
            return
        for m in nonzero:
            if m in span:
                continue
            if any(not syzygetic(m, b) for b in span):
                continue
            new_span = set(span)
            for s in list(span):
                new_span.add(s + m)
            extend(basis + [m], new_span)

    extend([], {HalfIntChar.zero(g)})
    return [sorted(s, key=lambda c: (c.top, c.bottom)) for s in found]


def vanishing_even_thetanulls_by_characteristics(g):
    """The vanishing even thetanulls, each T's parity read from the sum of
    its branch characteristics: the walk Mumford's size criterion replaces."""
    U = set(odd_branch_indices(g))
    out = []
    for size in range(0, 2 * g + 2, 2):
        for T in combinations(branch_index_set(g), size):
            if parity(branch_characteristic(g, T)) != 1:
                continue
            if len(set(T) ^ U) != g + 1:
                out.append(T)
    return out


def quotient_genus_triple(n, m, delta):
    """(g, g1, g2) of the covered curve and its two quotients."""
    return (genus_formula(n, delta * m), genus_formula(n, delta),
            genus_formula(n, delta + 1))


# ---------------------------------------------------------------------------
# weighted points and minimal models: the weighted gcd by factoring the gcd
# of the coordinates, normalization in two star actions, and the minimal
# model by searching (beta, direction) pairs from the largest beta down


def _integer_coords(point):
    out = []
    for x in point.coords:
        x = Fraction(x)
        if x.denominator != 1:
            raise DomainError("weighted gcd needs integer coordinates")
        out.append(x.numerator)
    return out


def wgcd_by_factoring(point, weights=None):
    """Largest positive integer m with m^q_i | x_i for every coordinate."""
    xs = _integer_coords(point)
    ws = weights if weights is not None else point.weights
    if len(ws) != len(xs):
        raise DomainError("weight tuple length mismatch")
    nonzero = [(abs(x), q) for x, q in zip(xs, ws) if x]
    g0 = 0
    for x, _ in nonzero:
        g0 = gcd(g0, x)
    if g0 <= 1:
        return 1
    out = 1
    for p in factorize(g0):
        e = min(valuation(x, p) // q for x, q in nonzero)
        out *= p**e
    return out


def normalize_in_two_stages(point):
    """Clear denominators by the least power of each prime, divide out the
    weighted gcd, then make the first nonzero odd-weight coordinate positive."""
    need = {}
    for x, q in zip(point.coords, point.weights):
        den = Fraction(x).denominator
        if den == 1:
            continue
        for p, e in factorize(den).items():
            need[p] = max(need.get(p, 0), -((-e) // q))  # ceil(e / q)
    lam = Fraction(1)
    for p, e in need.items():
        lam *= Fraction(p) ** e
    pt = star_act(lam, point) if lam != 1 else point
    g = wgcd_by_factoring(pt)
    if g > 1:
        pt = star_act(Fraction(1, g), pt)
    for x, q in zip(pt.coords, pt.weights):
        if x and q % 2 == 1:
            if x < 0:
                pt = star_act(Fraction(-1), pt)
            break
    return WeightedPoint(tuple(Fraction(x) for x in pt.coords), pt.weights)


def is_minimal_tuple_by_factoring(point, d):
    """(minimal?, offending primes): the prime factors of the weighted gcd
    for the weights (d/2) q_i."""
    if any(Fraction(x).denominator != 1 for x in point.coords):
        raise DomainError("minimality needs an integral tuple")
    g = wgcd_by_factoring(point, weights=tuple((d * q) // 2 for q in point.weights))
    if g == 1:
        return True, ()
    return False, tuple(sorted(factorize(g)))


def _rescale_form(form, p, beta, direction):
    """Divide the invariant tuple by p^((d/2) q_i) via an exact coordinate
    scaling; direction 'x' divides coefficient of X^(d-i) Y^i by p^(b i),
    direction 'y' by p^(b (d-i)).  Returns None when not integral."""
    d = form.degree
    out = []
    for i, c in enumerate(form.coeffs):
        e = beta * (i if direction == "x" else d - i)
        c = Fraction(c) / Fraction(p) ** e
        if c.denominator != 1:
            return None
        out.append(c)
    return BinaryForm(form.field, d, out)


def superelliptic_minimal_by_search(curve):
    """The minimal-model report: for each prime of the weighted gcd, try
    beta from the exponent left down to 1, along X then Y, and take the
    first scaling that stays integral; then recompute the output point."""
    if curve.n != 2 or curve.form_degree() not in (6, 8):
        raise UnsupportedCaseError(
            "minimal models are implemented for n = 2, deg f in {5, 6, 7, 8}"
        )
    if curve.field != QQ or not curve.is_integral():
        raise DomainError("minimal models need an integral model over Q")
    point = moduli_point(curve)
    d = curve.form_degree()
    target = wgcd_by_factoring(point, weights=tuple((d * q) // 2 for q in point.weights))
    form = curve.binary_form()
    lam = 1
    x_factor, y_factor, scale = Fraction(1), Fraction(1), Fraction(1)
    if target > 1:
        for p, alpha in sorted(factorize(target).items()):
            remaining = alpha
            while remaining > 0:
                hit = None
                for beta in range(remaining, 0, -1):
                    for direction in ("x", "y"):
                        cand = _rescale_form(form, p, beta, direction)
                        if cand is not None:
                            hit = (cand, beta, direction)
                            break
                    if hit:
                        break
                if hit is None:
                    break
                form, beta, direction = hit
                remaining -= beta
                lam *= p**beta
                if direction == "x":
                    x_factor *= Fraction(p) ** beta
                else:
                    y_factor *= Fraction(p) ** beta
                scale /= Fraction(p) ** (beta * d)
    new_curve = SuperellipticCurve(curve.n, form.to_poly())
    point_out = moduli_point(new_curve)
    minimal, offending = is_minimal_tuple_by_factoring(point_out, d)
    return SuperellipticMinimalReport(
        curve=new_curve, lam=lam, x_factor=x_factor, y_factor=y_factor,
        form_scale=scale, is_twist=(d % curve.n != 0), point_in=point,
        point_out=point_out, fully_minimal=minimal, offending=offending,
    )


# ---------------------------------------------------------------------------
# family equations: each row block's polynomials built in x on every call,
# the degree read off hand-typed offsets, and one squarefree test of the
# whole product


def _poly(coeff_map, field=QQ):
    deg = max(coeff_map)
    return Poly(field, [coeff_map.get(i, 0) for i in range(deg + 1)])


def _x_power_shift(p, m):
    """p(x^m) for a polynomial p."""
    out = {}
    for i, c in enumerate(p.coeffs):
        if c:
            out[i * m] = c
    return _poly(out, p.field)


def _prod(polys, field=QQ):
    acc = Poly.one(field)
    for p in polys:
        acc = acc * p
    return acc


def family_degree_by_offsets(case, m, delta):
    """Degree of row `case`'s equation: delta parameter factors and an extra."""
    if case <= 3:
        return m * (delta + 1) + (case == 3)
    if case <= 9:
        return 2 * m * delta + (0, m, 1, 2 * m, m + 1, 2 * m + 1)[case - 4]
    if case <= 15:  # rows 11 and 14 are refused before
        return 12 * delta + (0, 0, 8, 5, 0, 13)[case - 10]
    if case <= 23:
        return 24 * delta + (0, 8, 5, 13, 12, 20, 17, 25)[case - 16]
    return 60 * delta + (0, 11, 31, 20, 30, 41, 50, 61)[case - 24]


def family_equation_by_blocks(case, n, params, m=None):
    """`atlas.family_equation` with every block's polynomials built in x and
    one `is_squarefree` of the whole product."""
    if not 1 <= case <= 45:
        raise DomainError("case must be in 1..45")
    if case >= 32:
        raise UnsupportedCaseError(
            "cases 32-45 are positive-characteristic families (out of scope)"
        )
    params = [QQ.of(p) for p in params]
    delta = len(params)
    if case <= 9 and (m is None or m < 1):
        raise DomainError("cases 1..9 need the cyclic order m >= 1")
    if case in (11, 14):
        raise UnsupportedCaseError(
            "rows 11 and 14 need sqrt(-3); not constructible over Q"
        )
    degree = family_degree_by_offsets(case, m, delta)
    if degree > atlas.MAX_FAMILY_DEGREE:
        raise UnsupportedCaseError(
            f"the equation of family row {case} has degree {degree}; "
            f"supported up to {atlas.MAX_FAMILY_DEGREE}")
    x = Poly.x(QQ)
    one = Poly.one(QQ)
    if case in (1, 2, 3):
        # g(u) = u^(delta+1) + a1 u^delta + ... + a_delta u + 1
        g_inner = _poly({delta + 1: 1, 0: 1, **{delta - i: params[i] for i in range(delta)}})
        f = _x_power_shift(g_inner, m)
        if case == 3:
            f = x * f
    elif case <= 9:
        F = _prod(_poly({2 * m: 1, m: lam, 0: 1}) for lam in params)
        extra = {
            4: one,
            5: _poly({m: 1, 0: -1}),
            6: x,
            7: _poly({2 * m: 1, 0: -1}),
            8: x * _poly({m: 1, 0: -1}),
            9: x * _poly({2 * m: 1, 0: -1}),
        }[case]
        f = extra * F
    elif case <= 15:
        G = _prod(_poly({12: 1, 10: -lam, 8: -33, 6: 2 * lam, 4: -33, 2: -lam, 0: 1})
                  for lam in params)
        v = x * _poly({4: 1, 0: -1})
        u2 = _poly({8: 1, 4: 14, 0: 1})
        extra = {10: one, 12: u2, 13: v, 15: v * u2}[case]
        f = extra * G
    elif case <= 23:
        M = _prod(_poly({24: 1, 20: lam, 16: 759 - 4 * lam, 12: 2 * (3 * lam + 1228),
                         8: 759 - 4 * lam, 4: lam, 0: 1}) for lam in params)
        e1 = _poly({8: 1, 4: 14, 0: 1})
        e2 = x * _poly({4: 1, 0: -1})
        e3 = _poly({12: 1, 8: -33, 4: -33, 0: 1})
        extra = {
            16: one, 17: e1, 18: e2, 19: e1 * e2,
            20: e3, 21: e3 * e1, 22: e3 * e2, 23: e3 * e1 * e2,
        }[case]
        f = extra * M
    else:
        L = _prod(
            _poly({60: -1, 55: 684 - lam, 50: -(55 * lam + 157434),
                   45: -(1205 * lam - 12527460), 40: -(13090 * lam + 77460495),
                   35: 130689144 - 69585 * lam, 30: 33211924 - 134761 * lam,
                   25: 69585 * lam - 130689144, 20: -(13090 * lam + 77460495),
                   15: -(12527460 - 1205 * lam), 10: -(157434 + 55 * lam),
                   5: lam - 684, 0: -1})
            for lam in params)
        w1 = x * _poly({10: 1, 5: 11, 0: -1})
        w2 = _poly({20: 1, 15: -228, 10: 494, 5: 228, 0: 1})
        w3 = _poly({30: 1, 25: 522, 20: -10005, 10: -10005, 5: -522, 0: 1})
        extra = {
            24: one, 25: w1, 26: w2 * w1, 27: w2,
            28: w3, 29: w1 * w3, 30: w2 * w3, 31: w2 * w1 * w3,
        }[case]
        f = extra * L
    if f.degree < 1 or not f.is_squarefree():
        raise SingularCurveError("degenerate parameters: f is not separable")
    return SuperellipticCurve(n, f)


# ---------------------------------------------------------------------------
# binary forms: a partial derivative term by term, on public scalars


def diff_xy_by_terms(f, i, j):
    """d^(i+j) f / dX^i dY^j as a list of public scalars, or None if zero."""
    d = f.degree
    out = []
    for k in range(d - i - j + 1):
        xe, ye = d - k - j, k + j
        m = 1
        for t in range(i):
            m *= xe - t
        for t in range(j):
            m *= ye - t
        out.append(f.coeffs[k + j] * m)
    return out if any(out) else None


# ---------------------------------------------------------------------------
# Jacobians: Mumford's division in three kernel calls, and the Hasse-Weil
# interval tested one end at a time


def mumford_divmod_by_three_ops(field, f, h, u, v):
    """(q, r) with f - v (v + h) = q u + r: raw_add, raw_mul and raw_sub,
    each trimmed, then a general raw_divmod."""
    return raw_divmod(field, raw_sub(field, f, raw_mul(field, v, raw_add(field, v, h))), u)


def mumford_condition_by_three_ops(u, v, curve):
    """(condition, message) of the first of Mumford's three conditions
    that (u, v) fails on curve, or None; divisibility is the remainder of
    mumford_divmod_by_three_ops."""
    field = curve.field
    if u.is_zero or u.lc != field.one:
        return "monic", "u must be monic"
    if not (v.degree < u.degree <= curve.genus):
        return "degree", "need deg v < deg u <= g"
    if mumford_divmod_by_three_ops(field, curve.f.raw, curve.h.raw, u.raw, v.raw)[1]:
        return "divisibility", "u does not divide v^2 + v h - f"
    return None


def hasse_interval_contains_by_ends(q, n):
    """Exact test for (sqrt(q)-1)^4 <= n <= (sqrt(q)+1)^4, each end in its
    own branch."""
    base = (q + 1) ** 2 + 4 * q
    root_part = 16 * q * (q + 1) ** 2
    lo_diff = base - n  # need lo_diff <= 4 (q+1) sqrt(q)
    if lo_diff > 0 and lo_diff * lo_diff > root_part:
        return False
    hi_diff = n - base  # need hi_diff <= 4 (q+1) sqrt(q)
    if hi_diff > 0 and hi_diff * hi_diff > root_part:
        return False
    return True
