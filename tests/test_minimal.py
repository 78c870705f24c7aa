import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superelliptic import algebra
from superelliptic.algebra import QQ, Mat2, Poly, valuation
from superelliptic.curves import SuperellipticCurve
from superelliptic.errors import DomainError, SingularCurveError, UnsupportedCaseError
from superelliptic.minimal import (
    EllipticModel,
    c4c6,
    is_minimal_tuple,
    laska_reduce,
    replay_reduction,
    superelliptic_minimal,
)
from superelliptic.weighted import WeightedPoint, moduli_point, wgcd

from oracles import is_minimal_tuple_by_factoring, superelliptic_minimal_by_search


def rand_model(rng, bound=6):
    while True:
        e = EllipticModel(*[rng.randint(-bound, bound) for _ in range(5)])
        if e.discriminant():
            return e


def scale_up(e, u, r=0, s=0, t=0):
    """Inverse transformation: a model that reduces to e under (u, r, s, t)."""
    a1p, a2p, a3p, a4p, a6p = e.ainvs()
    a1 = u * a1p - 2 * s
    a2 = u * u * a2p + s * a1 + s * s - 3 * r
    a3 = u**3 * a3p - r * a1 - 2 * t
    a4 = u**4 * a4p + s * a3 + (t + r * s) * a1 - 2 * r * a2 - 3 * r * r + 2 * s * t
    a6 = u**6 * a6p + t * a3 + r * t * a1 - r * a4 - r * r * a2 - r**3 + t * t
    return EllipticModel(a1, a2, a3, a4, a6)


# ---------------------------------------------------------------------------
# c4, c6


def test_c4c6_short_weierstrass():
    a, b = -3, 7
    assert c4c6(EllipticModel(0, 0, 0, a, b)) == (-48 * a, -864 * b)


def test_c4c6_a6_only():
    assert c4c6(EllipticModel(0, 0, 0, 0, 1)) == (0, -864)


def test_c4c6_disc_identity(rng):
    for _ in range(25):
        e = rand_model(rng)
        c4, c6 = c4c6(e)
        assert c4**3 - c6**2 == 1728 * e.discriminant()


# ---------------------------------------------------------------------------
# Laska reduction


def test_laska_11a3_already_minimal():
    e = EllipticModel(0, -1, 1, 0, 0)  # discriminant -11
    rep = laska_reduce(e)
    assert rep.u == 1
    assert rep.model == e
    assert rep.discriminant_out == -11


def test_laska_rejects_singular():
    with pytest.raises(SingularCurveError):
        laska_reduce(EllipticModel(0, 0, 0, 0, 0))


def test_laska_past_float_range():
    # c4 and c6 pass 1e308, where a float-seeded root bound overflowed
    u = 2**300
    rep = laska_reduce(EllipticModel(u, 0, 0, -3 * u**4, -2 * u**6))
    assert (rep.u, rep.model) == (u, EllipticModel(1, 0, 0, -3, -2))
    assert rep.valuations == {2: (3600, 0), 443: (1, 1)}


def test_laska_with_an_unsplit_discriminant_is_refused(monkeypatch):
    # the discriminant has 992 digits and a cofactor rho cannot split
    monkeypatch.setattr(algebra, "RHO_BUDGET", 10_000)
    with pytest.raises(UnsupportedCaseError, match="decimal digits"):
        laska_reduce(EllipticModel(0, 0, 0, 10**330, 1))


@pytest.mark.parametrize("u", [2, 3, 6])
def test_laska_planted_scaling(u, rng):
    base = laska_reduce(EllipticModel(1, -1, 1, -14, 29)).model
    big = scale_up(base, u, r=rng.randint(-4, 4), s=rng.randint(-4, 4),
                   t=rng.randint(-4, 4))
    rep = laska_reduce(big)
    assert rep.u == u
    assert rep.model == laska_reduce(base).model
    assert big.discriminant() == rep.discriminant_out * u**12


def test_laska_idempotent(rng):
    for _ in range(50):
        e = rand_model(rng)
        r1 = laska_reduce(e)
        r2 = laska_reduce(r1.model)
        assert r2.u == 1 and r2.model == r1.model


def test_laska_step4_normalization():
    for _ in range(20):
        rng = random.Random(_)
        e = rand_model(rng)
        m = laska_reduce(e).model
        assert m.a1 in (0, 1) and m.a3 in (0, 1) and m.a2 in (-1, 0, 1)


def test_laska_canonical_under_admissible_changes(rng):
    for _ in range(15):
        e = laska_reduce(rand_model(rng)).model
        u = rng.choice([1, 2, 3])
        big = scale_up(e, u, r=rng.randint(-3, 3), s=rng.randint(-3, 3),
                       t=rng.randint(-3, 3))
        rep = laska_reduce(big)
        base_rep = laska_reduce(e)
        assert c4c6(rep.model) == c4c6(base_rep.model)
        assert rep.model == base_rep.model


def test_laska_valuation_table(rng):
    e = scale_up(EllipticModel(0, -1, 1, 0, 0), 2)
    rep = laska_reduce(e)
    assert rep.valuations[2] == (12, 0)
    assert rep.valuations[11] == (1, 1)


# ---------------------------------------------------------------------------
# is_minimal_tuple


def test_minimal_tuple_units():
    ok, off = is_minimal_tuple(WeightedPoint.of([1, 1, 1, 1], (2, 4, 6, 10)), 6)
    assert ok and off == ()


def test_minimal_tuple_planted_violation():
    coords = [Fraction(2) ** (3 * q) for q in (2, 4, 6, 10)]
    ok, off = is_minimal_tuple(WeightedPoint.of(coords, (2, 4, 6, 10)), 6)
    assert not ok and off == (2,)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 4, 6, 10), (2, 3, 4, 5, 6, 7)]), st.sampled_from((6, 8)),
       st.lists(st.tuples(st.integers(-40, 40), st.sampled_from((1, 2, 3, 5, 6))),
                min_size=6, max_size=6))
def test_minimal_tuple_matches_the_factoring_oracle(weights, d, entries):
    # each coordinate is a cofactor times a power of one of 2, 3, 5, 6
    coords = [c * b ** (d * q // 2 + c % 3 - 1) for (c, b), q in zip(entries, weights)]
    if not any(coords):
        coords[0] = 1
    pt = WeightedPoint.of(coords, weights)
    assert is_minimal_tuple(pt, d) == is_minimal_tuple_by_factoring(pt, d)


def test_minimal_tuple_requires_integers():
    with pytest.raises(DomainError):
        is_minimal_tuple(WeightedPoint.of([Fraction(1, 2), 1, 1, 1], (2, 4, 6, 10)), 6)


# ---------------------------------------------------------------------------
# superelliptic minimal models


def _plant(g_coeffs, lam, direction="x"):
    """Scale a minimal model by lambda in either coefficient pattern."""
    d = len(g_coeffs) - 1
    if direction == "x":
        coeffs = [c * Fraction(lam) ** (d - j) for j, c in enumerate(g_coeffs)]
    else:
        coeffs = [c * Fraction(lam) ** j for j, c in enumerate(g_coeffs)]
    return SuperellipticCurve(2, Poly(QQ, coeffs))


def test_superelliptic_minimal_identity():
    g = SuperellipticCurve(2, Poly(QQ, [1, 2, -1, 3, 1, -2, 1]))
    rep = superelliptic_minimal(g)
    assert rep.lam == 1
    assert rep.curve.f == g.f
    assert rep.fully_minimal


def test_superelliptic_minimal_round_trip(rng):
    g_coeffs = [1, 2, -1, 3, 1, -2, 1]
    for lam in (2, 3, 6):
        for direction in ("x", "y"):
            c = _plant([Fraction(v) for v in g_coeffs], lam, direction)
            rep = superelliptic_minimal(c)
            assert rep.lam == lam
            assert list(rep.curve.f.coeffs) == [Fraction(v) for v in g_coeffs]
            assert rep.fully_minimal
            assert not rep.is_twist
            # invariant scaling law: out = (1/lam)^(d/2) star in
            for a, b, w in zip(rep.point_out.coords, rep.point_in.coords,
                               rep.point_in.weights):
                assert Fraction(a) == Fraction(b) / Fraction(lam) ** (3 * w)
            # transformation replay
            assert replay_reduction(c.binary_form(), rep) == rep.curve.binary_form()


def test_superelliptic_minimal_octavic(rng):
    g_coeffs = [Fraction(v) for v in [1, 1, 0, 2, -1, 1, 0, 3, 2]]
    c = _plant(g_coeffs, 3, "y")
    rep = superelliptic_minimal(c)
    assert rep.lam == 3
    assert list(rep.curve.f.coeffs) == g_coeffs
    for a, b, w in zip(rep.point_out.coords, rep.point_in.coords,
                       rep.point_in.weights):
        assert Fraction(a) == Fraction(b) / Fraction(3) ** (4 * w)


def test_superelliptic_minimal_output_wgcd_one(rng):
    for _ in range(10):
        coeffs = [rng.randint(-6, 6) for _ in range(7)]
        coeffs[-1] = coeffs[-1] or 1
        try:
            c = SuperellipticCurve(2, Poly(QQ, coeffs))
            rep = superelliptic_minimal(c)
        except (SingularCurveError, DomainError):
            continue
        d = rep.curve.form_degree()
        thresholds = tuple((d * q) // 2 for q in rep.point_out.weights)
        assert wgcd(WeightedPoint(rep.point_out.coords, thresholds)) == 1


@pytest.mark.parametrize("coeffs, lam", [
    ([3, -2, 7, 1, -5, 4], 1),
    ([1, 2, -1, 3, 1, -2, 1], 1),
    ([1, 1, 0, 2, -1, 1, 0, 3, 2], 1),
    ([1 * 2**6, 2 * 2**5, -1 * 2**4, 3 * 2**3, 1 * 2**2, -2 * 2, 1], 2),
])
def test_superelliptic_minimal_reuses_the_input_point(monkeypatch, coeffs, lam):
    # count calls under every name the package's modules bind moduli_point to
    real, calls = moduli_point, []

    def counted(curve):
        calls.append(curve)
        return real(curve)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "superelliptic":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    curve = SuperellipticCurve(2, Poly(QQ, coeffs))
    rep = superelliptic_minimal(curve)
    assert rep.lam == lam
    # the output point follows from the input one by the weight law
    assert len(calls) == 1
    assert rep.point_out == real(rep.curve)
    if lam == 1:
        assert rep.curve.f == curve.f and rep.point_out == rep.point_in


def test_superelliptic_minimal_rejects_unsupported():
    with pytest.raises(UnsupportedCaseError):
        superelliptic_minimal(SuperellipticCurve(3, Poly(QQ, [1, 1, 0, 0, 1])))


def test_superelliptic_minimal_rejects_rational_model():
    c = SuperellipticCurve(2, Poly(QQ, [Fraction(1, 2), 0, 0, 0, 0, 0, 1]))
    with pytest.raises(DomainError):
        superelliptic_minimal(c)


def _outcome(fn, curve):
    try:
        return repr(fn(curve))
    except (DomainError, UnsupportedCaseError) as e:
        return type(e).__name__, str(e)


@settings(max_examples=150, deadline=None)
@given(st.integers(5, 8), st.lists(st.integers(-9, 9), min_size=9, max_size=9),
       st.sampled_from((1, 2, 3, 4, 6, 9, 10, 25)), st.sampled_from((1, 2, 3, 5, 8, 12)),
       st.sampled_from([None, (1, 0, 1, 2), (2, 1, 0, 1), (3, 1, 0, 3), (1, 0, 2, 4),
                        (5, 2, 0, 1)]))
def test_superelliptic_minimal_matches_the_search_oracle(deg, coeffs, ax, ay, mat):
    """Every report field equals the (beta, direction) search's, on models
    scaled along X and Y and moved by matrices that leave a weighted gcd
    no diagonal scaling realizes."""
    base = coeffs[:deg] + [coeffs[deg] or 1]
    curve = SuperellipticCurve(2, Poly(QQ, base))
    d = curve.form_degree()
    form = curve.binary_form()
    if mat is not None:
        form = form.substitute(Mat2(QQ, *mat))
    form = type(form)(QQ, d, [c * ax**i * ay ** (d - i) for i, c in enumerate(form.coeffs)])
    curve = SuperellipticCurve(2, form.to_poly())
    want = _outcome(superelliptic_minimal_by_search, curve)
    assert _outcome(superelliptic_minimal, curve) == want
    if isinstance(want, str):
        rep = superelliptic_minimal(curve)
        assert rep.point_out == moduli_point(rep.curve)
        assert (rep.fully_minimal, rep.offending) == is_minimal_tuple(rep.point_out, d)
        assert replay_reduction(curve.binary_form(), rep) == rep.curve.binary_form()


def test_a_stopped_search_names_its_prime():
    # the weighted gcd has 2^4 5^2; two steps divide out 200 and 2 is left
    f = [-81920, 3174400, -107520000, 2560000000, 67200000000, 320000000000]
    curve = SuperellipticCurve(2, Poly(QQ, f))
    rep = superelliptic_minimal(curve)
    assert (rep.lam, rep.y_factor, rep.fully_minimal, rep.offending) == (200, 200, False, (2,))
    assert repr(rep) == repr(superelliptic_minimal_by_search(curve))
