from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from superelliptic.algebra import (
    GF,
    QQ,
    GFElement,
    BinaryForm,
    Mat2,
    Poly,
    discriminant,
    factorize,
    fraction_nth_roots,
    integer_nth_root,
    is_prime,
    kth_roots_in_field,
    resultant,
    transvectant,
)
from superelliptic import algebra
from superelliptic.errors import CharacteristicError, DomainError, UnsupportedCaseError

from conftest import form_from_roots, rand_form, rand_matrix
from oracles import diff_xy_by_terms

small_ints = st.integers(min_value=-30, max_value=30)


# ---------------------------------------------------------------------------
# fields


def test_gf_arithmetic():
    F = GF(11)
    a, b = F.of(7), F.of(5)
    assert a + b == 1
    assert a * b == 2
    assert a / b == 7 * 9  # 5^-1 = 9 mod 11
    assert -a == 4
    assert a ** (-1) == 8
    assert F.of(Fraction(1, 2)) == 6


def test_gf_rejects_bad_p():
    with pytest.raises(DomainError):
        GF(2)
    with pytest.raises(DomainError):
        GF(15)


# psi_k: the least strong pseudoprime to each of the first k prime bases
PSI_9 = 3825123056546413051            # 149491 * 747451 * 34233211
PSI_12 = 318665857834031151167461      # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_is_prime_refuses_the_psi_pseudoprimes():
    assert not is_prime(PSI_9)
    assert not is_prime(PSI_12)
    with pytest.raises(DomainError):
        GF(PSI_12)
    # past the proven range True is only probable: PSI_13 passes every
    # base up to 41, and 43 is its first witness
    assert is_prime(PSI_13)


def test_is_prime_agrees_with_a_sieve():
    n = 10**5
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_gf_char_error_on_bad_denominator():
    F = GF(7)
    with pytest.raises(CharacteristicError):
        F.of(Fraction(1, 14))


@given(st.sampled_from([7, 1009, 2**61 - 1]), st.integers(-10**30, 10**30),
       st.integers(1, 10**6))
@settings(max_examples=200, deadline=None)
def test_from_fraction_is_num_over_den(p, num, den):
    F = GF(p)
    q = Fraction(num, den)
    if q.denominator % p == 0:
        with pytest.raises(CharacteristicError, match=f"denominator {q.denominator} "):
            F.from_fraction(q)
        return
    want = q.numerator * pow(q.denominator, -1, p) % p
    assert F.from_fraction(q).value == want
    if q.denominator == 1:
        assert F.from_fraction(q.numerator).value == want


def test_integer_roots():
    assert integer_nth_root(3**10, 5) == (9, True)
    assert integer_nth_root(3**10 + 1, 5) == (9, False)
    assert fraction_nth_roots(Fraction(8, 27), 3) == [Fraction(2, 3)]
    assert fraction_nth_roots(Fraction(4, 9), 2) == [Fraction(2, 3), Fraction(-2, 3)]
    assert fraction_nth_roots(Fraction(-8), 3) == [Fraction(-2)]
    assert fraction_nth_roots(Fraction(-4), 2) == []
    assert fraction_nth_roots(Fraction(5), 2) == []


def test_factorize():
    assert factorize(2**5 * 3**2 * 97) == {2: 5, 3: 2, 97: 1}
    assert factorize(1) == {}


@given(st.integers(min_value=0, max_value=2**4000), st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
def test_integer_nth_root_brackets_the_root(n, k):
    r, exact = integer_nth_root(n, k)
    assert r**k <= n < (r + 1) ** k
    assert exact == (r**k == n)


def test_integer_nth_root_past_float_range_and_precision():
    # a float seed overflowed past 1e308, and below it was off by about
    # 1e84 here, walked back one step at a time
    r, exact = integer_nth_root(10**620, 3)
    assert r**3 < 10**620 < (r + 1) ** 3 and not exact
    assert integer_nth_root(10**621, 3) == (10**207, True)
    assert integer_nth_root(10**300, 3) == (10**100, True)
    assert fraction_nth_roots(Fraction(-(3**900), 10**600), 3) == [Fraction(-(3**300), 10**200)]


def _scan_roots(v, k, p):
    """The k-th roots of v in GF(p) by scanning the field: the oracle."""
    return [0] if v == 0 else [x for x in range(1, p) if pow(x, k, p) == v]


SMALL_PRIMES = [p for p in range(3, 2000) if is_prime(p)]
# p - 1 with a large 2-part (65537, 7 * 2^20 + 1, 119 * 2^23 + 1), with all
# primes to 23 (4 * 223092870 + 1), and up to p = 2^61 - 1
LARGE_PRIMES = [65537, 1000003, 7340033, 998244353, 2**31 - 1,
                4 * 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 + 1, 2**61 - 1]


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=24), st.data())
@settings(max_examples=400, deadline=None)
def test_field_roots_match_the_scan(p, k, data):
    v = data.draw(st.one_of(st.integers(0, p - 1),
                            st.integers(1, p - 1).map(lambda x: pow(x, k, p))))
    got = kth_roots_in_field(GFElement(v, p), k, GF(p))
    assert [r.value for r in got] == _scan_roots(v, k, p)


@given(st.sampled_from(LARGE_PRIMES), st.integers(min_value=1, max_value=64),
       st.integers(min_value=1), st.booleans())
@settings(max_examples=300, deadline=None)
def test_field_roots_large_p(p, k, x, power):
    assert all(is_prime(q) for q in LARGE_PRIMES)
    x %= p
    v = pow(x, k, p) if power and x else x or 1
    roots = [r.value for r in kth_roots_in_field(GFElement(v, p), k, GF(p))]
    assert roots == sorted(set(roots))
    assert all(pow(r, k, p) == v for r in roots)
    assert len(roots) in (0, gcd(k, p - 1))
    if power and x:
        assert x in roots


def test_field_roots_past_the_listing_cap_are_refused():
    p = 7 * 2**20 + 1  # 1 has p - 1 = 7340032 roots of order dividing p - 1
    with pytest.raises(UnsupportedCaseError, match="7340032 = gcd"):
        kth_roots_in_field(GF(p).one, p - 1, GF(p))
    assert kth_roots_in_field(GF(p).of(3), p - 1, GF(p)) == []


def test_factorize_stops_at_its_budget(monkeypatch):
    # two 10-digit primes split within the budget
    assert factorize(1000000007 * 3000000019) == {1000000007: 1, 3000000019: 1}
    monkeypatch.setattr(algebra, "RHO_BUDGET", 1000)
    with pytest.raises(UnsupportedCaseError, match="about 19 decimal digits"):
        factorize(1000000007 * 3000000019)


# ---------------------------------------------------------------------------
# polynomials


@given(st.lists(small_ints, max_size=6), st.lists(small_ints, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_poly_divmod_invariant(acoeffs, bcoeffs):
    a = Poly(QQ, acoeffs)
    b = Poly(QQ, bcoeffs)
    if b.is_zero:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(st.lists(small_ints, min_size=1, max_size=5),
       st.lists(small_ints, min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_poly_xgcd(acoeffs, bcoeffs):
    a, b = Poly(QQ, acoeffs), Poly(QQ, bcoeffs)
    if a.is_zero or b.is_zero:
        return
    g, s, t = a.xgcd(b)
    assert s * a + t * b == g
    assert (a % g).is_zero and (b % g).is_zero


# Poly over GF(p) against an oracle on boxed GFElement coefficients

GF_PRIMES = (3, 7, 1009, 65521, 2**61 - 1)


def _boxed_mul(F, a, b):
    """Schoolbook product on the public GFElement coefficients."""
    out = [F.zero] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return out


@st.composite
def gf_polys(draw):
    p = draw(st.sampled_from(GF_PRIMES))
    coeffs = st.lists(st.integers(min_value=-2 * p, max_value=2 * p), max_size=7)
    return GF(p), draw(coeffs), draw(coeffs)


@given(gf_polys())
@settings(max_examples=150, deadline=None)
def test_poly_gf_matches_boxed_oracle(case):
    F, acoeffs, bcoeffs = case
    a, b = Poly(F, acoeffs), Poly(F, bcoeffs)
    for P in (a, b):
        assert all(isinstance(c, GFElement) and 0 <= c.value < F.p for c in P.coeffs)
        assert P.is_zero or P.lc.value != 0
        assert Poly(F, P.coeffs) == P
    assert a * b == Poly(F, _boxed_mul(F, a, b))
    if b.is_zero:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    g, s, t = a.xgcd(b)
    assert s * a + t * b == g
    assert g.lc == 1
    assert (a % g).is_zero and (b % g).is_zero


# squarefreeness over QQ against Euclid on Fraction lists, and the raw
# kernels it runs on

CERT_P = algebra._CERTIFICATE.p
rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


def _trim_list(a):
    while a and not a[-1]:
        a.pop()
    return a


def _fraction_mul(a, b):
    """Schoolbook product of two Fraction lists."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim_list(out)


def _euclid_squarefree(coeffs):
    """Oracle: deg gcd(f, f') <= 0, by Euclid's algorithm on Fractions."""
    a = _trim_list([Fraction(c) for c in coeffs])
    b = _trim_list([i * c for i, c in enumerate(a)][1:])
    while b:
        r = list(a)
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            for i, y in enumerate(b, len(r) - len(b)):
                r[i] -= c * y
            _trim_list(r)
        a, b = b, r
    return len(a) <= 1


def _decide(coeffs):
    """(is_squarefree, the path it took) for f over QQ: the field of each
    Euclid run, then "subres" if the sub-resultant PRS decided."""
    path = []
    euclid, subres = algebra._squarefree, algebra._subres

    def spy_euclid(field, a):
        path.append(field)
        return euclid(field, a)

    def spy_subres(field, a, b):
        path.append("subres")
        return subres(field, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_squarefree", spy_euclid)
        mp.setattr(algebra, "_subres", spy_subres)
        return Poly(QQ, coeffs).is_squarefree(), path


@given(st.lists(rationals, max_size=9))
@settings(max_examples=200, deadline=None)
def test_squarefree_matches_euclid_random(coeffs):
    got, path = _decide(coeffs)
    assert got == _euclid_squarefree(coeffs)
    if Poly(QQ, coeffs).degree >= 1:  # p does not divide these lc: the certificate runs first
        assert path[0] == algebra._CERTIFICATE and path[1:] in ([], ["subres"])
    else:  # constants and zero are squarefree without a test
        assert got is True and path == []


@given(st.lists(rationals, min_size=2, max_size=4).filter(lambda g: g[-1]),
       st.lists(rationals, min_size=1, max_size=5).filter(lambda h: h[-1]))
@settings(max_examples=100, deadline=None)
def test_squarefree_refuses_forced_repeats(g, h):
    f = _fraction_mul(_fraction_mul(g, g), h)
    got, path = _decide(f)
    assert got is False and _euclid_squarefree(f) is False
    assert path[-1] == "subres"  # a repeated factor survives mod p: the PRS decides


@given(st.lists(rationals, max_size=7), st.integers(-3, 3).filter(bool),
       st.integers(1, 5), st.booleans())
@settings(max_examples=100, deadline=None)
def test_squarefree_when_p_divides_the_leading_coefficient(low, k, den, repeat):
    f = low + [Fraction(k * CERT_P, den)]
    if repeat:
        f = _fraction_mul(f, [Fraction(1), Fraction(2), Fraction(1)])  # (x + 1)^2
    got, path = _decide(f)
    assert got == _euclid_squarefree(f)
    if len(f) > 1:
        assert path == ["subres"]  # no certificate: p divides lc


@given(st.integers(-10**6, 10**6), st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_squarefree_when_the_reduction_has_a_repeated_root(a, h):
    # (x - a)(x - a - p) h: squarefree over QQ for most h, a double root mod p
    h = _trim_list(list(h)) or [Fraction(1)]
    f = _fraction_mul(_fraction_mul([Fraction(-a), Fraction(1)],
                                    [Fraction(-a - CERT_P), Fraction(1)]), h)
    got, path = _decide(f)
    assert got == _euclid_squarefree(f)
    assert path[-1] == "subres"  # the certificate saw a common factor: fallback


@given(gf_polys())
@settings(max_examples=150, deadline=None)
def test_raw_gcd_is_raw_xgcd_g(case):
    F, acoeffs, bcoeffs = case
    a, b = Poly(F, acoeffs).raw, Poly(F, bcoeffs).raw
    g = algebra.raw_gcd(F, a, b)
    assert g == algebra.raw_xgcd(F, a, b)[0]
    if g:
        assert g[-1] == 1
        assert not algebra.raw_divmod(F, a, g)[1] and not algebra.raw_divmod(F, b, g)[1]


@given(st.lists(rationals, max_size=8), st.lists(rationals, max_size=8))
@settings(max_examples=150, deadline=None)
def test_raw_mul_over_q_is_the_fraction_product(acoeffs, bcoeffs):
    a, b = Poly(QQ, acoeffs), Poly(QQ, bcoeffs)
    want = tuple(_fraction_mul(list(a.raw), list(b.raw)))
    got = algebra.raw_mul(QQ, a.raw, b.raw)
    assert got == want
    assert all(type(c) is Fraction for c in got)


def test_poly_eval_and_derivative():
    p = Poly(QQ, [1, -2, 0, 1])  # x^3 - 2x + 1
    assert p(2) == 5
    assert p.derivative().coeffs == (Fraction(-2), Fraction(0), Fraction(3))


def test_poly_negative_power_raises():
    # used to loop forever: e >>= 1 stays -1
    with pytest.raises(DomainError):
        Poly(QQ, [1, 1]) ** -1
    with pytest.raises(DomainError):
        Poly(GF(7), [0, 1]) ** -3
    assert Poly(QQ, [1, 1]) ** 0 == Poly.one(QQ)


def _sylvester_resultant(f, g):
    # independent oracle: determinant of the Sylvester matrix
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    # exact Gaussian elimination determinant
    det = Fraction(1)
    mat = [row[:] for row in rows]
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            if mat[r][col]:
                factor = mat[r][col] * inv
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return det


def test_resultant_matches_sylvester(rng):
    for _ in range(25):
        f = Poly(QQ, [rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
        g = Poly(QQ, [rng.randint(-5, 5) for _ in range(rng.randint(2, 5))])
        if f.degree < 1 or g.degree < 1:
            continue
        assert resultant(f, g) == _sylvester_resultant(f, g)


# ---------------------------------------------------------------------------
# transvectants


def test_transvectant_r0_is_product():
    X = BinaryForm(QQ, 1, [1, 0])
    Y = BinaryForm(QQ, 1, [0, 1])
    assert transvectant(X, Y, 0).coeffs == (0, 1, 0)


def test_transvectant_xy_selfpair():
    XY = BinaryForm(QQ, 2, [0, 1, 0])
    assert transvectant(XY, XY, 2) == Fraction(-1, 2)


def test_transvectant_quadratic_discriminant():
    a0, a1, a2 = Fraction(3), Fraction(-7), Fraction(2)
    f = BinaryForm(QQ, 2, [a0, a1, a2])
    assert transvectant(f, f, 2) == 2 * a0 * a2 - a1 * a1 / 2


def test_transvectant_r_too_large():
    f = BinaryForm(QQ, 2, [1, 0, 1])
    with pytest.raises(DomainError):
        transvectant(f, f, 3)


def test_transvectant_characteristic_error():
    F = GF(5)
    f = BinaryForm(F, 6, [1, 0, 0, 0, 0, 0, 1])
    with pytest.raises(CharacteristicError):
        transvectant(f, f, 6)  # needs 6! invertible


def test_transvectant_bilinear(rng):
    for _ in range(10):
        f = rand_form(rng, 4)
        g = rand_form(rng, 4)
        h = rand_form(rng, 3)
        alpha = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        lhs = transvectant(
            BinaryForm(QQ, 4, [alpha * a + b for a, b in zip(f.coeffs, g.coeffs)]),
            h, 2,
        )
        t1 = transvectant(f, h, 2)
        t2 = transvectant(g, h, 2)
        rhs = BinaryForm(QQ, 3, [alpha * a + b for a, b in zip(t1.coeffs, t2.coeffs)])
        assert lhs == rhs


def test_transvectant_symmetry(rng):
    for _ in range(10):
        f = rand_form(rng, 3)
        g = rand_form(rng, 3)
        for r in range(4):
            a = transvectant(f, g, r)
            b = transvectant(g, f, r)
            if isinstance(a, BinaryForm):
                assert a.coeffs == tuple((-1) ** r * c for c in b.coeffs)
            else:
                assert a == (-1) ** r * b


# ---------------------------------------------------------------------------
# substitution


def test_substitute_identity_and_scaling():
    f = BinaryForm(QQ, 3, [1, 0, 0, 0])  # X^3
    assert f.substitute(Mat2(QQ, 1, 0, 0, 1)) == f
    g = f.substitute(Mat2(QQ, 4, 0, 0, 1))
    assert g.coeffs == (64, 0, 0, 0)


def test_substitute_swap():
    f = BinaryForm(QQ, 3, [0, 1, 0, 0])  # X^2 Y
    g = f.substitute(Mat2(QQ, 0, 1, 1, 0))
    assert g.coeffs == (0, 0, 1, 0)  # X Y^2


def test_substitute_is_right_action(rng):
    # regression-locked composition order: (f^M)^N = f^(M N)
    for _ in range(10):
        f = rand_form(rng, 4)
        M, N = rand_matrix(rng), rand_matrix(rng)
        assert f.substitute(M).substitute(N) == f.substitute(M * N)


def test_singular_matrix_rejected():
    with pytest.raises(DomainError):
        Mat2(QQ, 1, 2, 2, 4)


# ---------------------------------------------------------------------------
# discriminant


def test_discriminant_golden():
    assert discriminant(BinaryForm(QQ, 2, [1, 0, -1])) == 4


def test_discriminant_examples():
    assert discriminant(BinaryForm(QQ, 3, [0, 1, -1, 0])) != 0  # XY(X-Y)
    assert discriminant(BinaryForm(QQ, 3, [0, 1, 0, 0])) == 0  # X^2 Y


def test_discriminant_quartic_diag_covariance(rng):
    f = rand_form(rng, 4)
    assert discriminant(f.substitute(Mat2(QQ, 2, 0, 0, 1))) == 2**12 * discriminant(f)


def test_discriminant_covariance_general(rng):
    for d in (3, 4, 6):
        for _ in range(6):
            f = rand_form(rng, d)
            M = rand_matrix(rng)
            assert discriminant(f.substitute(M)) == M.det ** (d * (d - 1)) * discriminant(f)


def test_discriminant_vanishes_iff_gcd_nonconstant(rng):
    for _ in range(40):
        f = rand_form(rng, 5, bound=4)
        p = f.to_poly()
        d = f.degree
        # projective gcd criterion: common factor of f with both partials,
        # including the root at infinity bookkeeping
        fx = diff_xy_by_terms(f, 1, 0)
        fy = diff_xy_by_terms(f, 0, 1)
        gx = BinaryForm(QQ, d - 1, fx).to_poly() if fx else Poly.zero(QQ)
        gy = BinaryForm(QQ, d - 1, fy).to_poly() if fy else Poly.zero(QQ)
        g = p.gcd(gx).gcd(gy)
        inf_mult = d - p.degree
        repeated = g.degree > 0 or inf_mult >= 2
        assert (discriminant(f) == 0) == repeated


def test_discriminant_root_at_infinity():
    # X * Y^2 * (X - Y): repeated root at (1:0)? no: Y^2 -> double root (1:0)
    f = BinaryForm(QQ, 4, [0, 1, -1, 0, 0]) * 1  # X^3 Y - X^2 Y^2 = X^2 Y (X - Y)
    assert discriminant(f) == 0
    g = form_from_roots([0, 1], lead=1, degree=4)  # X(X-Y) * Y^2
    assert discriminant(g) == 0
    h = form_from_roots([0, 1, 2], lead=1, degree=4)  # simple root at infinity
    assert discriminant(h) != 0
