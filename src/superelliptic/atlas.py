"""Curve-level tables and closed formulas: genus, q-Weierstrass gap bases
and weights, automorphism signature records, parametric family equations
for the characteristic-0 reduced groups, and Jacobian splitting tests.

Signature records come from one Riemann-Hurwitz count. Each case of the
classification fixes a reduced group and some ramification entries; the
count gives the number of free level-n branch orbits that complete the
signature, and a stratum with r branch points has dimension delta = r - 3.
The genus 3 and 4 tables with explicit full groups and equations are
embedded verbatim and cross-linked by (n, signature).
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd

from .algebra import Poly, QQ
from .curves import SuperellipticCurve, genus_formula
from .errors import (
    DomainError,
    NotInAtlasError,
    SingularCurveError,
    UnsupportedCaseError,
)

ATLAS_VERSION = "1"
HURWITZ_FACTOR = 84


# ---------------------------------------------------------------------------
# genus and Weierstrass gap combinatorics


def genus(n, d):
    """Genus of y^n = f(x) with separable f of degree d > n."""
    if n < 2 or d <= n:
        raise DomainError("genus formula needs d > n >= 2")
    return genus_formula(n, d)


@dataclass(frozen=True)
class GapBasis:
    n: int
    d: int
    q: int
    S: frozenset  # pairs (a, b) indexing the basis x^a y^b (dx / y^(n-1))^q
    d_q: int

    def weight(self):
        """q-Weierstrass weight of an affine branch point of y^n = f(x)."""
        total = sum(a * self.n + b + 1 for a, b in self.S)
        return total - self.d_q * (self.d_q + 1) // 2


# Largest gap basis built, as d_q pairs.  Time and memory grow linearly in
# d_q: the `gap-basis` command (build, weight, print) takes 1.3 s with a
# peak RSS of 72 MB at d_q = 249 999 (n = 2, d = 5, q = 125000) and 1.3 s,
# 67 MB at d_q = 244 650 (n = 700, d = 701, q = 1), CPython 3.11 on one
# core of an Intel Xeon.  Every curve of genus g >= 2 has g >= n, so the
# cap bounds n too.
MAX_GAP_BASIS_SIZE = 250_000


def weierstrass_gap_basis(n, d, q):
    """Index set S of the monomial basis of holomorphic q-differentials.
    d_q > MAX_GAP_BASIS_SIZE raises UnsupportedCaseError before any work."""
    if q < 1:
        raise DomainError("q must be >= 1")
    g = genus(n, d)
    if g < 2:
        raise DomainError("gap basis needs genus >= 2")
    d_q = g if q == 1 else (g - 1) * (2 * q - 1)
    if d_q > MAX_GAP_BASIS_SIZE:
        raise UnsupportedCaseError(
            f"the gap basis at (n, d, q) = ({n}, {d}, {q}) has d_q = {d_q} "
            f"pairs; supported up to {MAX_GAP_BASIS_SIZE}")
    bound = (2 * g - 2) * q
    S = frozenset(
        (a, b)
        for b in range(n)
        for a in range(bound // n + 1)
        if a * n + b * d <= bound
    )
    if len(S) != d_q:  # pragma: no cover
        raise AssertionError(f"|S| = {len(S)} != d_q = {d_q} at {(n, d, q)}")
    return GapBasis(n=n, d=d, q=q, S=S, d_q=d_q)


def branch_weight(n, d, q):
    """q-Weierstrass weight of an affine branch point of y^n = f(x)."""
    return weierstrass_gap_basis(n, d, q).weight()


# ---------------------------------------------------------------------------
# automorphism signature records


@dataclass(frozen=True)
class AutRecord:
    genus: int
    case: int | None
    reduced_group: str
    group: str | None
    group_order: int | None
    n: int
    m: int | None
    signature: tuple
    dimension: int
    equation: str | None = None

    def hurwitz_ok(self):
        if self.group_order is None:
            return True
        return self.group_order <= HURWITZ_FACTOR * (self.genus - 1)


def _rh_tail_count(g, order, n, fixed):
    """Number of free level-n branch orbits from Riemann-Hurwitz, or None."""
    acc = 2 * (g - 1) + 2 * order
    for c in fixed:
        acc -= (order // c) * (c - 1)
    step = (order // n) * (n - 1)
    if acc < 0 or acc % step:
        return None
    return acc // step


# case table: (case id, reduced-group family, fixed ramification entries as
# a function of (n, m)), in the order of the classification table; the free
# level-n orbits that complete a signature come out of Riemann-Hurwitz
_CASES = (
    (1, "C_m", lambda n, m: (m, m)),
    (2, "C_m", lambda n, m: (m, m * n)),
    (3, "C_m", lambda n, m: (m * n, m * n)),
    (4, "D_2m", lambda n, m: (2, 2, m)),
    (5, "D_2m", lambda n, m: (2 * n, 2, m)),
    (6, "D_2m", lambda n, m: (2, 2, m * n)),
    (7, "D_2m", lambda n, m: (2 * n, 2 * n, m)),
    (8, "D_2m", lambda n, m: (2 * n, 2, m * n)),
    (9, "D_2m", lambda n, m: (2 * n, 2 * n, m * n)),
    (10, "A4", lambda n, m: (2, 3, 3)),
    (11, "A4", lambda n, m: (2, 3 * n, 3)),
    (12, "A4", lambda n, m: (2, 3 * n, 3 * n)),
    (13, "A4", lambda n, m: (2 * n, 3, 3)),
    (14, "A4", lambda n, m: (2 * n, 3 * n, 3)),
    (15, "A4", lambda n, m: (2 * n, 3 * n, 3 * n)),
    (16, "S4", lambda n, m: (2, 3, 4)),
    (17, "S4", lambda n, m: (2, 3 * n, 4)),
    (18, "S4", lambda n, m: (2, 3, 4 * n)),
    (19, "S4", lambda n, m: (2, 3 * n, 4 * n)),
    (20, "S4", lambda n, m: (2 * n, 3, 4)),
    (21, "S4", lambda n, m: (2 * n, 3 * n, 4)),
    (22, "S4", lambda n, m: (2 * n, 3, 4 * n)),
    (23, "S4", lambda n, m: (2 * n, 3 * n, 4 * n)),
    (24, "A5", lambda n, m: (2, 3, 5)),
    (25, "A5", lambda n, m: (2, 3, 5 * n)),
    (26, "A5", lambda n, m: (2, 3 * n, 5 * n)),
    (27, "A5", lambda n, m: (2, 3 * n, 5)),
    (28, "A5", lambda n, m: (2 * n, 3, 5)),
    (29, "A5", lambda n, m: (2 * n, 3, 5 * n)),
    (30, "A5", lambda n, m: (2 * n, 3 * n, 5)),
    (31, "A5", lambda n, m: (2 * n, 3 * n, 5 * n)),
)


# order of the reduced group of each family as a function of m
_REDUCED_ORDER = {"C_m": lambda m: m, "D_2m": lambda m: 2 * m,
                  "A4": lambda m: 12, "S4": lambda m: 24, "A5": lambda m: 60}


# genus 3 and genus 4 explicit rows (full groups, equations); m = 1 marks the
# strata with trivial or fully cyclic reduced action
_EXPLICIT = {
    3: [
        (1, "trivial", "C2", 2, 2, 1, (2,) * 8,
         "x*(x^6 + a5*x^5 + a4*x^4 + a3*x^3 + a2*x^2 + a1*x + 1)"),
        (2, "C_m", "V4", 4, 2, 2, (2,) * 6,
         "x^8 + a3*x^6 + a2*x^4 + a1*x^2 + 1"),
        (3, "C_m", "C4", 4, 2, 2, (2, 2, 2, 4, 4),
         "x*(x^6 + a2*x^4 + a1*x^2 + 1)"),
        (4, "C_m", "C6", 6, 3, 2, (2, 3, 3, 6), "x^4 + a1*x^2 + 1"),
        (5, "D_2m", "V4 x C4", 16, 4, 2, (2, 2, 2, 4), "x^4 + a1*x^2 + 1"),
    ],
    4: [
        (1, "trivial", "C2", 2, 2, 1, (2,) * 10,
         "x*(x^8 + a7*x^7 + ... + a1*x + 1)"),
        (2, "C_m", "V4", 4, 2, 2, (2,) * 7,
         "x^10 + a4*x^8 + a3*x^6 + a2*x^4 + a1*x^2 + 1"),
        (3, "C_m", "C4", 4, 2, 2, (2, 2, 2, 2, 4, 4),
         "x*(x^8 + a3*x^6 + a2*x^4 + a1*x^2 + 1)"),
        (4, "C_m", "C6", 6, 2, 3, (2, 2, 2, 3, 6), "x^9 + a2*x^6 + a1*x^3 + 1"),
        (5, "trivial", "C3", 3, 3, 1, (3,) * 6,
         "x*(x^4 + a3*x^3 + a2*x^2 + a1*x + 1)"),
        (6, "C_m", "C2 x C3", 6, 3, 2, (2, 2, 3, 3, 3),
         "x^6 + a2*x^4 + a1*x^2 + 1"),
        (7, "D_2m", "D6 x C3", 18, 3, 3, (2, 2, 3, 3), "x^6 + a1*x^3 + 1"),
        (8, "D_2m", "V4 x C3", 12, 3, 2, (2, 2, 3, 6),
         "(x^2 - 1)*(x^4 + a1*x^2 + 1)"),
        (9, "D_2m", "V4 x C3", 12, 3, 2, (2, 2, 3, 6), "x*(x^4 + a1*x^2 + 1)"),
    ],
}

# GAP ids of automorphism groups of genus 3 superelliptic curves in
# characteristic 0 (same list for p > 7)
GENUS3_GROUP_IDS_CHAR0 = (
    (2, 1), (4, 2), (3, 1), (4, 1), (8, 2), (14, 2), (6, 2), (9, 1), (8, 5),
    (16, 11), (32, 9), (12, 4), (16, 13), (24, 5), (48, 33), (48, 48), (96, 64),
)

_MAX_ATLAS_GENUS = 10


@lru_cache(maxsize=None)
def _records_for_genus(g):
    """Signature records of genus g: a (case, n, m) point is a stratum when
    Riemann-Hurwitz completes its fixed entries with r >= 3 branch points,
    and the stratum has dimension r - 3."""
    records = []
    nmax = 4 * g + 4
    for case, family, fixed_fn in _CASES:
        has_m = family in ("C_m", "D_2m")
        for n in range(2, nmax + 1):
            for m in range(2, nmax + 3) if has_m else (None,):
                order = n * _REDUCED_ORDER[family](m)
                fixed = fixed_fn(n, m)
                tail = _rh_tail_count(g, order, n, fixed)
                if tail is None or len(fixed) + tail < 3:
                    continue
                signature = tuple(sorted(fixed + (n,) * tail))
                rec = AutRecord(
                    genus=g, case=case, reduced_group=_family_name(family, m),
                    group=None, group_order=order, n=n, m=m,
                    signature=signature, dimension=len(signature) - 3,
                )
                if rec.hurwitz_ok():
                    records.append(rec)
    for nr, family, gname, gorder, n, m, sig, eq in _EXPLICIT.get(g, ()):
        sig = tuple(sorted(sig))
        for i, rec in enumerate(records):
            if rec.n == n and rec.signature == sig and rec.group is None:
                records[i] = replace(rec, group=gname, group_order=gorder,
                                     equation=eq)
                break
        else:
            rec = AutRecord(
                genus=g, case=None, reduced_group=_family_name(family, m),
                group=gname, group_order=gorder, n=n, m=m,
                signature=sig, dimension=len(sig) - 3, equation=eq,
            )
            if not rec.hurwitz_ok():  # pragma: no cover
                raise AssertionError("embedded record violates the Hurwitz bound")
            records.append(rec)
    records.sort(key=lambda r: (r.n, r.signature, r.case or 0))
    return tuple(records)


def _family_name(family, m):
    if family == "C_m":
        return f"C{m}"
    if family == "D_2m":
        return "V4" if m == 2 else f"D{2 * m}"
    return family


def aut_lookup(g, n=None, reduced_group=None, m=None, dimension=None, case=None):
    """Embedded signature records for genus g, optionally filtered."""
    if not 2 <= g <= _MAX_ATLAS_GENUS:
        raise NotInAtlasError(f"no embedded automorphism data for genus {g}")
    out = []
    for rec in _records_for_genus(g):
        if n is not None and rec.n != n:
            continue
        if m is not None and rec.m != m:
            continue
        if reduced_group is not None and rec.reduced_group != reduced_group:
            continue
        if dimension is not None and rec.dimension != dimension:
            continue
        if case is not None and rec.case != case:
            continue
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# parametric family equations (characteristic 0, cases 1..31)


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


# Largest degree D of a family equation.  The product and the squarefree
# test cost about D^2 operations on coefficients that grow with delta, so
# rows 4-9 at m = 1 (delta = D/2) are the slowest: with parameters 100,
# 101, ... `family-eq` takes 2.1-2.6 s and 24 MB peak RSS at D = 1500 on
# them, 0.1 s on row 24, CPython 3.11 on one core of an Intel Xeon.
# Repeated parameters send that test to Euclid over Q, which it does not bound.
MAX_FAMILY_DEGREE = 1500


def _family_degree(case, m, delta):
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


def family_equation(case, n, params, m=None):
    """Defining polynomial of table row `case` with the given parameters.

    params supplies the lambda_i (or a_i for the cyclic rows); its length
    is the moduli dimension delta.  Characteristic 0 only; rows 32-45 are
    positive-characteristic families and are rejected, and so is a degree
    past MAX_FAMILY_DEGREE, before any product.
    """
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
    degree = _family_degree(case, m, delta)
    if degree > MAX_FAMILY_DEGREE:
        raise UnsupportedCaseError(
            f"the equation of family row {case} has degree {degree}; "
            f"supported up to {MAX_FAMILY_DEGREE}")
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
# Jacobian splitting


@dataclass(frozen=True)
class SplitResult:
    decomposes: bool
    lhs: int
    rhs: int


def split_jacobian(n, m, delta):
    """Test delta (n-1)(m-2) = 1 - (gcd(delta+1,n) + gcd(delta,n) - gcd(delta m,n))."""
    if n < 2 or m < 2 or delta < 1:
        raise DomainError("split test needs n, m >= 2 and delta >= 1")
    lhs = delta * (n - 1) * (m - 2)
    rhs = 1 - (gcd(delta + 1, n) + gcd(delta, n) - gcd(delta * m, n))
    return SplitResult(decomposes=(lhs == rhs), lhs=lhs, rhs=rhs)


def quotient_equations(curve):
    """The quotient curves y^n = g(u) and y^n = u g(u) when f(x) = g(x^m).

    The substitution exponent m is the largest one under which f is a
    polynomial in x^m; inputs without that structure are rejected.
    """
    f = curve.f
    exponents = [i for i, c in enumerate(f.coeffs) if c]
    m = 0
    for e in exponents:
        m = gcd(m, e)
    if m < 2:
        raise DomainError("f is not a polynomial in x^m for any m >= 2")
    g_coeffs = {}
    for i, c in enumerate(f.coeffs):
        if c:
            g_coeffs[i // m] = c
    g_poly = _poly(g_coeffs, f.field)
    x1 = SuperellipticCurve(curve.n, g_poly)
    x2 = SuperellipticCurve(curve.n, Poly.x(f.field) * g_poly)
    return x1, x2, m
