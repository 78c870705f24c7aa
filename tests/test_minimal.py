import random
from fractions import Fraction

import pytest

from superelliptic import algebra
from superelliptic.algebra import QQ, Poly, valuation
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
        assert wgcd(rep.point_out, weights=thresholds) == 1


def test_superelliptic_minimal_rejects_unsupported():
    with pytest.raises(UnsupportedCaseError):
        superelliptic_minimal(SuperellipticCurve(3, Poly(QQ, [1, 1, 0, 0, 1])))


def test_superelliptic_minimal_rejects_rational_model():
    c = SuperellipticCurve(2, Poly(QQ, [Fraction(1, 2), 0, 0, 0, 0, 0, 1]))
    with pytest.raises(DomainError):
        superelliptic_minimal(c)
