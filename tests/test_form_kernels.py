"""The binary-form kernels (transvectant, substitute, resultant and the
discriminant built on them) against oracles on public scalars: a Fraction /
GFElement transvectant built from partial derivatives, the termwise linear
substitution, and the Euclidean resultant on Poly.  Results must agree
value for value and type for type, errors by type and message."""

import io
import json
import os
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from superelliptic.algebra import (
    GF,
    QQ,
    BinaryForm,
    Mat2,
    Poly,
    discriminant,
    resultant,
    transvectant,
)
from superelliptic.cli import main
from superelliptic.errors import CharacteristicError, DomainError

# ---------------------------------------------------------------------------
# oracles


def _oracle_diff_xy(f, i, j):
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


def _oracle_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _oracle_transvectant(f, g, r):
    n, m = f.degree, g.degree
    field = f.field
    out_deg = n + m - 2 * r
    acc = [field.zero] * (out_deg + 1)
    for k in range(r + 1):
        df, dg = _oracle_diff_xy(f, r - k, k), _oracle_diff_xy(g, k, r - k)
        if df is None or dg is None:
            continue
        sign = -1 if k % 2 else 1
        c = sign * comb(r, k)
        for idx, v in enumerate(_oracle_mul(df, dg, field.zero)):
            acc[idx] = acc[idx] + v * c
    pref = Fraction(factorial(m - r) * factorial(n - r), factorial(n) * factorial(m))
    scale = field.from_fraction(pref)
    acc = [a * scale for a in acc]
    if out_deg == 0:
        return acc[0]
    if not any(acc):
        return field.zero
    return BinaryForm(field, out_deg, acc)


def _oracle_substitute(f, M):
    field, d = f.field, f.degree
    pow1, pow2 = [[field.one]], [[field.one]]
    for _ in range(d):
        pow1.append(_oracle_mul(pow1[-1], [M.a, M.b], field.zero))
        pow2.append(_oracle_mul(pow2[-1], [M.c, M.d], field.zero))
    acc = [field.zero] * (d + 1)
    for i, c in enumerate(f.coeffs):
        for k, t in enumerate(_oracle_mul(pow1[d - i], pow2[i], field.zero)):
            acc[k] = acc[k] + c * t
    return BinaryForm(field, d, acc)


def _euclid_resultant(f, g):
    field = f.field
    if f.is_zero or g.is_zero:
        return field.zero
    acc = field.one
    a, b = f, g
    while True:
        da, db = a.degree, b.degree
        if da == 0:
            return acc * a.coeffs[0] ** db
        if db == 0:
            return acc * b.coeffs[0] ** da
        if da < db:
            if (da * db) % 2 == 1:
                acc = -acc
            a, b = b, a
            continue
        r = a % b
        if r.is_zero:
            return field.zero
        if (da * db) % 2 == 1:
            acc = -acc
        acc = acc * b.lc ** (da - r.degree)
        a, b = b, r


def _oracle_discriminant(form):
    """Over GF(p) the discriminant of the integer lift over QQ, mod p.  Over
    QQ, roots are moved off (1:0) by X -> X, Y -> cX + Y, which keeps the
    discriminant and finds a c <= d + 1, then (-1)^(d(d-1)/2) Res(f, f') / lc
    by the Euclidean resultant."""
    field, d, f = form.field, form.degree, form
    if field != QQ:
        return field.of(_oracle_discriminant(BinaryForm(QQ, d, [c.value for c in f.coeffs])))
    c = 1
    while not f.coeffs[0]:
        f = _oracle_substitute(form, Mat2(field, 1, 0, c, 1))
        c += 1
    p = f.to_poly()
    res = _euclid_resultant(p, p.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return field.of(sign) * res / p.lc


def _outcome(fn, *args):
    """(value, type) of fn(*args), or (error type, message)."""
    try:
        out = fn(*args)
    except (CharacteristicError, DomainError) as exc:
        return type(exc), str(exc)
    if isinstance(out, BinaryForm):
        return out, [type(c) for c in out.coeffs]
    return out, type(out)


# ---------------------------------------------------------------------------
# strategies

PRIMES = (11, 1009, 2**61 - 1)


@st.composite
def fields(draw, primes=PRIMES):
    p = draw(st.sampled_from((0,) + tuple(primes)))
    return QQ if p == 0 else GF(p)


@st.composite
def scalars(draw, field):
    if field == QQ:
        num = draw(st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30)))
        den = draw(st.sampled_from((1, 1, 2, 3, 7, 12, 10**9 + 7)))
        return Fraction(num, den)
    return draw(st.one_of(st.integers(0, 3), st.integers(0, field.p - 1)))


@st.composite
def forms(draw, field, degree):
    cs = draw(st.lists(scalars(field), min_size=degree + 1, max_size=degree + 1))
    if not any(field.of(c) for c in cs):
        cs[draw(st.integers(0, degree))] = 1
    return BinaryForm(field, degree, cs)


@st.composite
def transvectant_cases(draw, primes=PRIMES, max_degree=9):
    field = draw(fields(primes))
    n = draw(st.integers(0, max_degree))
    f = draw(forms(field, n))
    kind = draw(st.sampled_from(("other", "equal-degree", "self")))
    if kind == "self":
        g = f  # odd r gives a form that vanishes identically
    else:
        m = n if kind == "equal-degree" else draw(st.integers(0, max_degree))
        g = draw(forms(field, m))
    r = draw(st.integers(0, min(n, g.degree)))
    return f, g, r


@st.composite
def matrices(draw, field):
    a, b, c, d = (draw(scalars(field)) for _ in range(4))
    if not field.of(a) * field.of(d) - field.of(b) * field.of(c):
        a, c, d = 1, 0, 1
    return Mat2(field, a, b, c, d)


@st.composite
def poly_pairs(draw):
    field = draw(fields())
    polys = []
    for _ in range(2):
        deg = draw(st.integers(-1, 9))
        polys.append(Poly(field, draw(st.lists(scalars(field), min_size=deg + 1,
                                              max_size=deg + 1))))
    if draw(st.booleans()):  # a forced common factor
        deg = draw(st.integers(1, 3))
        h = Poly(field, draw(st.lists(scalars(field), min_size=deg, max_size=deg)) + [1])
        polys = [p * h for p in polys]
    return tuple(polys)


# ---------------------------------------------------------------------------
# properties


@given(transvectant_cases())
@settings(max_examples=250, deadline=None)
def test_transvectant_matches_oracle(case):
    f, g, r = case
    assert _outcome(transvectant, f, g, r) == _outcome(_oracle_transvectant, f, g, r)


@given(transvectant_cases(primes=(3, 5, 7, 11), max_degree=12))
@settings(max_examples=150, deadline=None)
def test_transvectant_characteristic_errors_match_oracle(case):
    # small p divides the prefactor's denominator once n or m reaches p
    f, g, r = case
    assert _outcome(transvectant, f, g, r) == _outcome(_oracle_transvectant, f, g, r)


@given(transvectant_cases())
@settings(max_examples=100, deadline=None)
def test_diff_xy_matches_oracle(case):
    f, _, r = case
    for i in range(r + 1):
        got = f.diff_xy(i, r - i)
        want = _oracle_diff_xy(f, i, r - i)
        assert (None if got is None else list(got.coeffs)) == want
        if got is not None:
            assert {type(c) for c in got.coeffs} == {type(want[0])}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_substitute_matches_oracle(data):
    field = data.draw(fields())
    f = data.draw(forms(field, data.draw(st.integers(0, 9))))
    M = data.draw(matrices(field))
    assert _outcome(f.substitute, M) == _outcome(_oracle_substitute, f, M)


@given(poly_pairs())
@settings(max_examples=250, deadline=None)
def test_resultant_matches_euclidean_oracle(pair):
    f, g = pair
    assert _outcome(resultant, f, g) == _outcome(_euclid_resultant, f, g)
    assert _outcome(resultant, g, f) == _outcome(_euclid_resultant, g, f)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_discriminant_matches_oracle(data):
    field = data.draw(fields(primes=(3, 5, 7) + PRIMES))
    d = data.draw(st.integers(2, 9))
    f = data.draw(forms(field, d))
    if data.draw(st.booleans()):  # a root at (1:0), or a double one
        cs = list(f.coeffs)
        cs[0] = 0
        cs[1] = cs[1] if data.draw(st.booleans()) else 0
        if any(cs):
            f = BinaryForm(field, d, cs)
    assert _outcome(discriminant, f) == _outcome(_oracle_discriminant, f)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_discriminant_over_gf_p_is_the_lift_mod_p(data):
    # p | d drops the top term of f', leading zeros put a root (a double
    # one for two zeros) at (1:0), and the forms are rarely monic
    p = data.draw(st.sampled_from((3, 5, 7, 11)))
    multiples = [d for d in range(2, 10) if d % p == 0]
    if multiples and data.draw(st.booleans()):
        d = data.draw(st.sampled_from(multiples))
    else:
        d = data.draw(st.integers(2, 9))
    cs = data.draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1))
    zeros = data.draw(st.integers(0, 2))
    cs = [0] * zeros + cs[zeros:]
    if not any(cs):
        cs[-1] = 1
    got = discriminant(BinaryForm(GF(p), d, cs))
    want = discriminant(BinaryForm(QQ, d, cs))
    assert type(got) is type(GF(p).one) and got == GF(p).of(want)


# ---------------------------------------------------------------------------
# integer storage: kernel outputs hold (ints, den) and build coeffs lazily


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_chained_transvectants_match_oracle(data):
    # the inner result is a form built from ints, fed straight to the outer
    field = data.draw(fields())
    f = data.draw(forms(field, data.draw(st.integers(2, 8))))
    r1 = data.draw(st.integers(0, f.degree // 2)) * 2
    g = data.draw(forms(field, data.draw(st.integers(1, 8))))
    assert _outcome(transvectant, f, f, r1) == _outcome(_oracle_transvectant, f, f, r1)
    inner, oracle_inner = transvectant(f, f, r1), _oracle_transvectant(f, f, r1)
    if isinstance(inner, BinaryForm):
        r2 = data.draw(st.integers(0, min(inner.degree, g.degree)))
        assert (_outcome(transvectant, inner, g, r2)
                == _outcome(_oracle_transvectant, oracle_inner, g, r2))
        assert (_outcome(transvectant, g, inner, r2)
                == _outcome(_oracle_transvectant, g, oracle_inner, r2))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_forms_from_ints_equal_forms_from_coeffs(data):
    field = data.draw(fields())
    d = data.draw(st.integers(0, 8))
    ints = data.draw(st.lists(st.integers(-10**20, 10**20), min_size=d + 1,
                              max_size=d + 1))
    den = data.draw(st.sampled_from((1, 2, 6, 10**9 + 7, 2**70)))
    ints, den = field._canon(ints, 1, den)
    if not any(ints):
        return
    built = BinaryForm._of_ints(field, d, ints, den)
    public = BinaryForm(field, d, field._scalars(ints, den))
    assert built == public and public == built
    assert hash(built) == hash(public)
    assert (built.ints, built.den) == (public.ints, public.den)
    assert built.coeffs == public.coeffs
    assert [type(c) for c in built.coeffs] == [type(c) for c in public.coeffs]


def test_forms_differing_only_in_den_differ():
    half = BinaryForm(QQ, 2, [Fraction(1, 2), 0, Fraction(-3, 2)])
    whole = BinaryForm(QQ, 2, [1, 0, -3])
    assert (half.ints, half.den) == ((1, 0, -3), 2) and half.ints == whole.ints
    assert half != whole and half == whole.scale(Fraction(1, 2))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_discriminant_at_infinity_and_degree_drop_match_oracle(data):
    # coeffs[0] = 0 puts a root at (1:0); over GF(p) with p | d the
    # derivative of f(x, 1) loses its top term, or vanishes
    p = data.draw(st.sampled_from((0, 3, 5, 7, 11)))
    field = QQ if p == 0 else GF(p)
    d = data.draw(st.sampled_from((2, 3, 4, 6, 7, 8, 9) if p == 0 else (p, 2 * p)))
    f = data.draw(forms(field, d))
    cs = list(f.coeffs)
    if p == 0 or data.draw(st.booleans()):
        cs[0] = 0
    elif data.draw(st.booleans()):  # f(x, 1) = x^d + c: the derivative vanishes
        cs = [1] + [0] * (d - 1) + [cs[-1]]
    if any(cs):
        f = BinaryForm(field, d, cs)
    assert _outcome(discriminant, f) == _outcome(_oracle_discriminant, f)


# ---------------------------------------------------------------------------
# edge cases


def test_degree_zero_and_vanishing_transvectants():
    F = GF(1009)
    c = BinaryForm(QQ, 0, [Fraction(3, 4)])
    assert transvectant(c, c, 0) == Fraction(9, 16)
    f = BinaryForm(F, 3, [1, 2, 3, 4])
    t = transvectant(f, f, 3)  # odd order: (f, f)^3 = 0
    assert t == 0 and type(t) is type(F.zero)
    q = BinaryForm(QQ, 4, [1, 0, 0, 0, 0])  # X^4: (X^4, X^4)^2 = 0
    assert transvectant(q, q, 2) == 0 and isinstance(transvectant(q, q, 2), Fraction)


def test_characteristic_error_message():
    f = BinaryForm(GF(5), 6, [1, 0, 0, 0, 0, 0, 1])
    with pytest.raises(CharacteristicError, match="denominator 518400 not invertible mod 5"):
        transvectant(f, f, 6)


def test_discriminant_small_field_values():
    # XY(X - Y)(X + Y) has every point of P^1(GF(3)) as a root and disc 4
    # over QQ; 2X^3 + X^2 Y + Y^3 has disc -112 over QQ, and over GF(3) the
    # derivative 2x of 2x^3 + x^2 + 1 falls below the formal degree 2
    F = GF(3)
    assert _outcome(discriminant, BinaryForm(F, 4, [0, 1, 0, -1, 0])) == (F.one, type(F.one))
    assert discriminant(BinaryForm(F, 3, [2, 1, 0, 1])) == F.of(2)


def test_resultant_mixed_fields():
    with pytest.raises(DomainError, match="mixed coefficient fields"):
        resultant(Poly(QQ, [1, 1]), Poly(GF(7), [1, 1]))


# ---------------------------------------------------------------------------
# pinned CLI output: captured before the kernels moved onto integer vectors,
# (the curves with a root at infinity, over GF(p) and singular over GF(5))
# before the discriminant lost its renormalising search, and (after the
# file's "#" line) before moduli points stopped building the full records


def _pinned():
    path = os.path.join(os.path.dirname(__file__), "data", "pinned_invariants_cli.jsonl")
    with open(path) as fh:
        return [json.loads(line) for line in fh if not line.startswith("#")]


@pytest.mark.parametrize("case", _pinned(), ids=lambda c: c["argv"][0])
def test_invariant_commands_pinned_stdout(case):
    buf = io.StringIO()
    assert main(case["argv"], out=buf) == case["exit"]
    assert buf.getvalue() == case["stdout"]
