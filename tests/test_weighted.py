import random
import sys
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from superelliptic.algebra import GF, QQ, Poly
from superelliptic.curves import SuperellipticCurve
from superelliptic.errors import DomainError, SingularCurveError, UnsupportedCaseError
from superelliptic.weighted import (
    MAX_HEIGHT_TUPLES,
    WeightedPoint,
    enumerate_bounded_height,
    moduli_point,
    normalize,
    star_act,
    weighted_height,
    wgcd,
    wpoint_equal,
)

from conftest import rand_matrix
from oracles import normalize_in_two_stages, wgcd_by_factoring


def P(coords, weights):
    return WeightedPoint.of(coords, weights)


# ---------------------------------------------------------------------------
# star action


def test_star_identity_and_example():
    p = P([1, 1], (1, 2))
    assert star_act(Fraction(1), p).coords == p.coords
    assert star_act(Fraction(2), p).coords == (2, 4)


def test_star_group_law(rng):
    p = P([3, -2, 7], (1, 2, 3))
    for _ in range(10):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        mu = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        a = star_act(lam, star_act(mu, p))
        b = star_act(lam * mu, p)
        assert a.coords == b.coords


def test_star_rejects_zero():
    with pytest.raises(DomainError):
        star_act(Fraction(0), P([1], (1,)))


# ---------------------------------------------------------------------------
# weighted gcd


def test_wgcd_examples():
    assert wgcd(P([2**2, 2**4, 2**6, 2**10], (2, 4, 6, 10))) == 2
    assert wgcd(P([12, 16, 64, 1024], (2, 4, 6, 10))) == 2
    assert wgcd(P([7, 1, 5, 9], (2, 4, 6, 10))) == 1


def test_wgcd_unit_coordinate_forces_one(rng):
    for _ in range(10):
        coords = [rng.randint(-100, 100) for _ in range(3)]
        coords[rng.randrange(3)] = rng.choice([1, -1])
        assert wgcd(P(coords, (2, 3, 4))) == 1


def test_wgcd_star_multiplicative(rng):
    for _ in range(20):
        coords = [rng.randint(1, 60) for _ in range(3)]
        m = rng.randint(1, 7)
        p = P(coords, (1, 2, 3))
        assert wgcd(star_act(Fraction(m), p)) == m * wgcd(p)


def test_wgcd_rejects_rationals():
    with pytest.raises(DomainError):
        wgcd(P([Fraction(1, 2), 1], (1, 2)))


# ---------------------------------------------------------------------------
# heights


def test_height_examples():
    assert weighted_height(P([1, 1, 1, 1], (2, 4, 6, 10))) == 1
    assert weighted_height(P([4, 16, 64, 1024], (2, 4, 6, 10))) == 1
    h = weighted_height(P([3, 1, 1, 1], (2, 4, 6, 10)))
    assert (h.radicand, h.root) == (3, 2)
    assert abs(h.approx() - 3**0.5) < 1e-12


def test_height_at_least_one(rng):
    for _ in range(30):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        if not any(coords):
            continue
        assert weighted_height(P(coords, (1, 2, 3))) >= 1


def test_height_orbit_invariance(rng):
    for _ in range(50):
        coords = [rng.randint(-30, 30) for _ in range(4)]
        if not any(coords):
            continue
        p = P(coords, (2, 4, 6, 10))
        lam = Fraction(rng.randint(1, 12))
        assert weighted_height(p) == weighted_height(star_act(lam, p))
        assert weighted_height(p) == weighted_height(star_act(1 / lam, p))
        assert weighted_height(p) == weighted_height(star_act(Fraction(-1), p))


def test_height_cross_powering_comparisons():
    from superelliptic.weighted import WeightedHeight
    a = WeightedHeight(Fraction(8), 3)  # 2
    b = WeightedHeight(Fraction(9), 2)  # 3
    c = WeightedHeight(Fraction(4), 2)  # 2
    assert a < b
    assert a == c
    assert b > c


def test_height_comparisons_match_cross_powering():
    # h = radicand^(1/root): h op h' iff radicand^root' op radicand'^root,
    # h op x iff radicand op x^root for a plain x >= 0, and h > x for x < 0
    from operator import eq, ge, gt, le, lt, ne
    from superelliptic.weighted import WeightedHeight
    heights = [WeightedHeight(Fraction(r), q)
               for r in (1, 4, 8, 9, Fraction(1, 4), Fraction(27, 8)) for q in (1, 2, 3)]
    plain = [0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), -1, -2, -3, Fraction(-1, 2)]
    for op in (lt, le, gt, ge, eq, ne):
        for a, b in product(heights, heights):
            assert op(a, b) == op(a.radicand**b.root, b.radicand**a.root), (op, a, b)
        for a, x in product(heights, plain):
            h, y = (a.radicand, Fraction(x) ** a.root) if x >= 0 else (0, x)
            assert op(a, x) == op(h, y), (op, a, x)
            assert op(x, a) == op(y, h), (op, x, a)
    assert WeightedHeight(Fraction(4), 2) != -2
    assert WeightedHeight(Fraction(4), 2) > -3


def test_height_approx_past_float_range():
    from superelliptic.weighted import WeightedHeight
    assert WeightedHeight(Fraction(3), 2).approx() == 1.7320508075688772
    assert abs(WeightedHeight(Fraction(10**400 + 1), 2).approx() / 1e200 - 1) < 1e-9
    assert abs(WeightedHeight(Fraction(10**401, 10), 3).approx() / 10 ** (400 / 3) - 1) < 1e-9
    assert WeightedHeight(Fraction(10**400), 1).approx() is None


# ---------------------------------------------------------------------------
# equality of classes


def test_wpoint_equal_examples():
    assert wpoint_equal(P([1, 2], (1, 2)), P([1, 2], (1, 2))) == 1
    assert wpoint_equal(P([1, 1], (1, 2)), P([2, 4], (1, 2))) == 2
    assert wpoint_equal(P([1, 1], (1, 2)), P([2, 5], (1, 2))) is None


def test_wpoint_equal_over_large_prime_fields():
    # gcd(2, p - 1) = 2 for each p; the roots are found without a scan of GF(p)
    for p in (10007, 65537, 2**61 - 1):
        F = GF(p)
        pt = WeightedPoint.of([3, 5, 7, 11], (2, 4, 6, 10), F)
        assert wpoint_equal(pt, star_act(F.of(2), pt)) == F.of(2)
        assert wpoint_equal(pt, star_act(F.of(-2), pt)) == F.of(2)
        assert wpoint_equal(pt, WeightedPoint.of([3, 5, 7, 12], (2, 4, 6, 10), F)) is None


def test_wpoint_equal_weight_mismatch():
    with pytest.raises(DomainError):
        wpoint_equal(P([1, 1], (1, 2)), P([1, 1], (1, 3)))


def test_normalize_canonical(rng):
    for _ in range(30):
        coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(3)]
        if not any(coords):
            continue
        p = P(coords, (1, 2, 3))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        q = star_act(lam, p)
        assert normalize(p).coords == normalize(q).coords
        n = normalize(p)
        assert wgcd(n) == 1
        assert all(Fraction(c).denominator == 1 for c in n.coords)


# ---------------------------------------------------------------------------
# the exponent map against factoring the gcd and the denominators apart


WEIGHT_TUPLES = [(2, 4, 6, 10), (2, 3, 4, 5, 6, 7), (1, 2, 3), (1, 1), (3, 5)]


@st.composite
def points(draw, integral=False):
    """Coordinates built on 2, 3, 5 and 7 and a cofactor, some zero, moved
    by a star action, so both denominators and weighted factors occur."""
    ws = draw(st.sampled_from(WEIGHT_TUPLES))
    low = 0 if integral else -5
    coord = st.one_of(
        st.just(0),
        st.builds(lambda sign, c, es: sign * c * prod(Fraction(p) ** e for p, e in
                                                       zip((2, 3, 5, 7), es)),
                  st.sampled_from((1, -1)), st.integers(1, 60),
                  st.tuples(*[st.integers(low, 9)] * 4)))
    coords = draw(st.lists(coord, min_size=len(ws), max_size=len(ws)).filter(any))
    lam = draw(st.sampled_from((1, 2, 6, 30, -1) if integral else
                               (1, 2, 6, -1, Fraction(1, 3), Fraction(10, 7))))
    return star_act(lam, WeightedPoint(tuple(Fraction(c) for c in coords), ws))


@settings(max_examples=300, deadline=None)
@given(points())
def test_normalize_matches_the_two_stage_oracle(pt):
    assert repr(normalize(pt)) == repr(normalize_in_two_stages(pt))
    assert weighted_height(pt) == weighted_height(normalize_in_two_stages(pt))


@settings(max_examples=300, deadline=None)
@given(points(integral=True), st.sampled_from((1, 3, 4)))
def test_wgcd_matches_the_factoring_oracle(pt, k):
    ws = tuple(k * q for q in pt.weights)
    assert wgcd(pt) == wgcd_by_factoring(pt)
    assert wgcd(WeightedPoint(pt.coords, ws)) == wgcd_by_factoring(pt, weights=ws)


# ---------------------------------------------------------------------------
# bounded-height enumeration


def _brute_force_classes(weights, bound):
    """Independent double loop: reduce every tuple in the box by every
    admissible rational lambda and keep orbit representatives."""
    bound = Fraction(bound)
    boxes = [int(bound**q) for q in weights]
    pts = set()
    for tup in product(*(range(-b, b + 1) for b in boxes)):
        if not any(tup):
            continue
        pts.add(tup)
    classes = []
    seen = set()
    lams = [Fraction(n, d) for n in range(1, 13) for d in range(1, 13)]
    lams += [-l for l in lams]
    for tup in sorted(pts):
        if tup in seen:
            continue
        orbit = {tup}
        for lam in lams:
            img = tuple(lam**q * x for x, q in zip(tup, weights))
            if all(v.denominator == 1 for v in img):
                key = tuple(int(v) for v in img)
                if key in pts:
                    orbit.add(key)
        seen |= orbit
        classes.append(min(orbit))
    return classes


@pytest.mark.parametrize("weights", [(1, 1), (1, 2), (2, 3)])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_enumeration_matches_brute_force(weights, bound):
    mine = enumerate_bounded_height(weights, Fraction(bound))
    assert len(mine) == len(set(p.coords for p in mine))
    for p in mine:
        assert weighted_height(p) <= bound
    other = _brute_force_classes(weights, bound)
    assert len(mine) == len(other)
    # representatives must pairwise match up to the star action
    mine_set = {p.coords for p in mine}
    for rep in other:
        assert normalize(P(rep, weights)).coords in mine_set


def test_enumeration_count_example():
    pts = enumerate_bounded_height((1, 1), 1)
    assert len(pts) == 4


def test_enumeration_refuses_past_its_cap():
    with pytest.raises(UnsupportedCaseError, match="tries 78503337 tuples"):
        enumerate_bounded_height((2, 4, 6, 10), 2)
    assert 7 * 19 * 55 <= MAX_HEIGHT_TUPLES < 19 * 55 * 163
    assert len(enumerate_bounded_height((1, 2, 3), 3)) > 0
    with pytest.raises(UnsupportedCaseError, match="tries 170335 tuples"):
        enumerate_bounded_height((2, 3, 4), 3)


def test_enumeration_below_floor_empty():
    assert enumerate_bounded_height((1, 2), Fraction(1, 2)) == []


# ---------------------------------------------------------------------------
# moduli points


def _curve(coeffs):
    return SuperellipticCurve(2, Poly(QQ, coeffs))


def test_moduli_point_isomorphism_invariance(rng):
    f = _curve([1, 2, 0, -1, 3, 1, 1])
    form = f.binary_form()
    M = rand_matrix(rng)
    g = SuperellipticCurve(2, form.substitute(M).to_poly())
    p1, p2 = moduli_point(f), moduli_point(g)
    assert wpoint_equal(p1, p2) is not None


def test_moduli_point_distinct_classes():
    c1 = _curve([1, 0, 0, 0, 0, 0, 1])
    c2 = _curve([1, 0, 0, 0, 1, 0, 1])
    assert wpoint_equal(moduli_point(c1), moduli_point(c2)) is None


def test_moduli_point_octavic_weights():
    c = _curve([1, 1, 0, 0, 0, 0, 0, 0, 1])
    pt = moduli_point(c)
    assert pt.weights == (2, 3, 4, 5, 6, 7)


def test_moduli_point_rejects_singular():
    with pytest.raises(SingularCurveError):
        moduli_point(_curve([0, 0, 1, 0, 0, 0, 1]))


@pytest.mark.parametrize("degree", [5, 6, 7, 8])
def test_moduli_point_takes_one_discriminant(monkeypatch, degree):
    # count calls under every name the package's modules bind the function to
    import superelliptic.algebra as algebra
    real, calls = algebra.discriminant, []

    def counted(form):
        calls.append(form.degree)
        return real(form)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "superelliptic":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    moduli_point(_curve([3, -1, 4, 1, -5, 9, 2, 6, 5][:degree + 1]))
    assert calls == [6 if degree <= 6 else 8]


def test_weighted_height_over_gf_p_is_a_domain_error():
    pt = WeightedPoint.of([1, 2, 3, 4], [2, 4, 6, 10], field=GF(7))
    with pytest.raises(DomainError, match="over Q only"):
        weighted_height(pt)
