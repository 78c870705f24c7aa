"""Curve-level tables and closed formulas: genus, q-Weierstrass gap bases
and weights, automorphism signature records, parametric family equations
for the characteristic-0 reduced groups, and Jacobian splitting tests.

Signature records come from one Riemann-Hurwitz count. Each case of the
classification fixes a reduced group and some ramification entries; the
count gives the number of free level-n branch orbits that complete the
signature, and a stratum with r branch points has dimension delta = r - 3.
The genus 3 and 4 tables with explicit full groups and equations are
embedded verbatim and cross-linked by (n, signature).

Family equations come from one factor table.  Each row is f = x^e H(x^k),
and on rows 4-31 H is the row's extra factors in u = x^k times one factor
A + lambda B of its block per parameter; the degree, the product and the
separability test all read the table.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, prod

from .algebra import Poly, QQ, _convolve
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
    group_order: int
    n: int
    m: int | None
    signature: tuple
    dimension: int
    equation: str | None = None

    def hurwitz_ok(self):
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

# Records are counted for any g, and only the genus 3 and 4 rows are
# embedded; the cap is where the count was checked against the paper's tables.
_MAX_ATLAS_GENUS = 10


@lru_cache(maxsize=None)
def _records_for_genus(g):
    """Signature records of genus g: a (case, n, m) point is a stratum when
    Riemann-Hurwitz completes its fixed entries with r >= 3 branch points,
    and the stratum has dimension r - 3.  A counted record meets the
    Hurwitz bound by that count: 2g - 2 = |G| (-2 + sum (1 - 1/c_i)) > 0
    with r >= 3 makes the bracket at least 1/42, so |G| <= 84 (g - 1)."""
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
                records.append(AutRecord(
                    genus=g, case=case, reduced_group=_family_name(family, m),
                    group=None, group_order=order, n=n, m=m,
                    signature=signature, dimension=len(signature) - 3,
                ))
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
    """Signature records for genus g, counted by Riemann-Hurwitz with the
    embedded genus 3 and 4 rows, optionally filtered; g = 2..10, where the
    count was checked against the paper's tables."""
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


# Every row is f = x^e H(x^k) with H(0) != 0, written in u = x^k.  On rows
# 1-3, k = m and H(u) = u^(delta+1) + a1 u^delta + ... + a_delta u + 1.  On
# rows 4-31, H = E prod_i P_(lambda_i): each block has k (None: the cyclic
# order m) and P_lambda = A + lambda B as the pairs (a_j, b_j) of its
# u^j coefficients; each row has e and its extra factors, whose product is E.
_BLOCKS = (  # (last row, k, P)
    (9, None, ((1, 0), (0, 1), (1, 0))),
    (15, 2, ((1, 0), (0, -1), (-33, 0), (0, 2), (-33, 0), (0, -1), (1, 0))),
    (23, 4, ((1, 0), (0, 1), (759, -4), (2456, 6), (759, -4), (0, 1), (1, 0))),
    (31, 5, ((-1, 0), (-684, 1), (-157434, -55), (-12527460, 1205),
             (-77460495, -13090), (-130689144, 69585), (33211924, -134761),
             (130689144, -69585), (-77460495, -13090), (12527460, -1205),
             (-157434, -55), (684, -1), (-1, 0))),
)
_U1, _U2 = (-1, 1), (-1, 0, 1)         # u - 1, u^2 - 1
_T8 = (1, 0, 14, 0, 1)                  # x^8 + 14 x^4 + 1 at u = x^2
_E1, _E3 = (1, 14, 1), (1, -33, -33, 1)  # the S4 extras at u = x^4
_W1, _W2 = (-1, 11, 1), (1, 228, 494, -228, 1)  # the A5 extras at u = x^5
_W3 = (1, -522, -10005, 0, -10005, 522, 1)
_ROWS = {case: (e, reduce(_convolve, extras, (1,))) for case, e, extras in (
    (4, 0, ()), (5, 0, (_U1,)), (6, 1, ()), (7, 0, (_U2,)), (8, 1, (_U1,)),
    (9, 1, (_U2,)),
    (10, 0, ()), (12, 0, (_T8,)), (13, 1, (_U2,)), (15, 1, (_U2, _T8)),
    (16, 0, ()), (17, 0, (_E1,)), (18, 1, (_U1,)), (19, 1, (_E1, _U1)),
    (20, 0, (_E3,)), (21, 0, (_E3, _E1)), (22, 1, (_E3, _U1)),
    (23, 1, (_E3, _E1, _U1)),
    (24, 0, ()), (25, 1, (_W1,)), (26, 1, (_W2, _W1)), (27, 0, (_W2,)),
    (28, 0, (_W3,)), (29, 1, (_W1, _W3)), (30, 0, (_W2, _W3)),
    (31, 1, (_W2, _W1, _W3)),
)}


def _shape(case, m, delta):
    """(k, e, E, P, D) of row `case` with delta parameters: f = x^e H(x^k) has
    degree D, and on rows 4-31 H = E prod P_lambda (E = P = None on rows 1-3)."""
    if case <= 3:
        e = int(case == 3)
        return m, e, None, None, m * (delta + 1) + e
    k, P = next((k, P) for last, k, P in _BLOCKS if case <= last)
    k = k or m
    e, E = _ROWS[case]
    return k, e, E, P, k * (len(E) - 1 + delta * (len(P) - 1)) + e


# Largest degree D of a family equation.  H is multiplied out in u = x^k
# and, on rows 4-31, separability is decided on each E P_lambda, of
# u-degree at most 24, so the product on rows 4-9 at m = 1 (delta = D/2) is
# the slowest: with parameters 100, 101, ... `family-eq` takes 0.7-1.1 s
# and 23 MB peak RSS at D = 1500 on them, 0.1-0.2 s on rows 1, 10 and 24,
# CPython 3.11 on one core of an Intel Xeon.  Rows 1-3 test H, and a
# repeated factor there leaves the decision to the sub-resultant PRS: row 1
# at m = 1 took 0.1 s at D = 151, 2.2 s at D = 301 and 31 s at D = 601.
MAX_FAMILY_DEGREE = 1500


def family_equation(case, n, params, m=None):
    """Defining polynomial of table row `case` with the given parameters.

    params supplies the lambda_i (or a_i for the cyclic rows); its length
    is the moduli dimension delta.  Characteristic 0 only; rows 32-45 are
    positive-characteristic families and are rejected, and so is a degree
    past MAX_FAMILY_DEGREE, before any product.

    The row is f = x^e H(x^k) with H(0) != 0 (`_BLOCKS`, `_ROWS`), so f is
    squarefree iff H is.  Rows 1-3 test H, of u-degree delta + 1.  On rows
    4-31, H = E prod P_lambda with E squarefree, E(0) != 0, P_lambda(0) a
    nonzero constant and gcd(A, B) = 1 over Q (all checked in
    tests/test_atlas.py): a root shared by P_lambda and P_mu with lambda !=
    mu would be a root of both A and B.  So H is squarefree iff the lambda
    are distinct and each E P_lambda is squarefree, which is what is tested.
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
    k, e, E, P, degree = _shape(case, m, delta)
    if degree > MAX_FAMILY_DEGREE:
        raise UnsupportedCaseError(
            f"the equation of family row {case} has degree {degree}; "
            f"supported up to {MAX_FAMILY_DEGREE}")
    if P is None:
        H = [1, *reversed(params), 1]
        if not Poly(QQ, H).is_squarefree():
            raise SingularCurveError("degenerate parameters: f is not separable")
    else:
        # P_lambda scaled by lambda's denominator q, so H = prod / prod q
        factors = {lam: [lam.denominator * a + lam.numerator * b for a, b in P]
                   for lam in params}
        if degree < 1 or len(factors) < delta or not all(
                Poly(QQ, _convolve(E, p)).is_squarefree() for p in factors.values()):
            raise SingularCurveError("degenerate parameters: f is not separable")
        den = prod(lam.denominator for lam in factors)
        H = [Fraction(c, den) for c in reduce(_convolve, factors.values(), E)]
    coeffs = [0] * (degree + 1)
    coeffs[e::k] = H
    return SuperellipticCurve(n, Poly(QQ, coeffs))


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
    g_poly = Poly(f.field, f.coeffs[::m])
    x1 = SuperellipticCurve(curve.n, g_poly)
    x2 = SuperellipticCurve(curve.n, Poly.x(f.field) * g_poly)
    return x1, x2, m
