"""Acceptance criteria, one test per criterion, each printed with a
PASS/FAIL line and checked against its stated runtime budget.

Criterion 4 names the curve y^2 = x^5 + 1 over both GF(5) and GF(7).
Over GF(5) that polynomial is (x+1)^5, so the curve is singular and the
Mumford/Cantor/Weil machinery does not apply (the Mumford pair count is
31, the Weil formula gives 26, and associativity fails on the pair set).
The GF(5) sub-case is therefore unattainable as stated and its test is
red on purpose.  The exhaustive group-law content is additionally
exercised over GF(5) on a smooth curve in tests/test_jacobian.py.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

from superelliptic.algebra import GF, QQ, BinaryForm, Mat2, Poly, discriminant, valuation
from superelliptic.atlas import (
    HURWITZ_FACTOR,
    aut_lookup,
    branch_weight,
    split_jacobian,
    weierstrass_gap_basis,
)
from superelliptic.curves import SuperellipticCurve
from superelliptic.errors import SingularCurveError
from superelliptic.invariants import (
    SEXTIC_WEIGHTS,
    igusa_sextic,
    octavic_invariants,
)
from superelliptic.jacobian import (
    HyperCurve,
    cantor_add,
    enumerate_divisors,
    hasse_interval_contains,
    identity,
    interpolation_add_g2,
    jacobian_order_g2,
    negate,
    weil_data_g2,
)
from superelliptic.minimal import EllipticModel, is_minimal_tuple, laska_reduce, superelliptic_minimal
from superelliptic.theta import (
    gopel_count,
    parity_census,
    vanishing_count_formula,
    vanishing_even_thetanulls,
)
from superelliptic.weighted import (
    WeightedPoint,
    enumerate_bounded_height,
    normalize,
    star_act,
    weighted_height,
    wgcd,
)

from conftest import form_from_roots, rand_form, rand_matrix
from oracles import gopel_groups, quotient_genus_triple


class Budget:
    def __init__(self, number, limit, label):
        self.number, self.limit, self.label = number, limit, label

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d}: {status} ({elapsed:.2f}s / "
              f"{self.limit}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def test_criterion_01_sextic_triple_root_law():
    rng = random.Random(101)
    with Budget(1, 5, "sextic triple-root law on 200 planted sextics"):
        for _ in range(200):
            pool = rng.sample(range(-12, 13), 4)
            roots = [pool[0]] * 3 + pool[1:]
            f = form_from_roots(roots, lead=rng.choice([1, 2, 3, -1, -2]))
            inv = igusa_sextic(f)
            assert inv.J10 == 0
            assert inv.J4 == 9 * inv.J2**2
            assert 27 * inv.J6 == inv.J2**3


def test_criterion_02_octavic_planted_root_law():
    rng = random.Random(102)
    with Budget(2, 1, "octavic planted-root values"):
        f = BinaryForm(QQ, 8, [1, 0, 0, 0, 1, 0, 0, 0, 0])  # X^4 (X^4 + Y^4)
        inv = octavic_invariants(f)
        assert inv.tuple()[:7] == (2, 12, 64, 64, 512, 512, 18432)
        for _ in range(5):
            tail = [rng.randint(-5, 5) for _ in range(2)] + [1]
            g = BinaryForm(QQ, 8, tail + [0] * 6)  # multiplicity >= 5 at (0:1)
            assert octavic_invariants(g).tuple()[:7] == (0,) * 7


def test_criterion_03_covariance():
    rng = random.Random(103)
    with Budget(3, 10, "GL2 covariance of sextic, octavic, discriminant"):
        for _ in range(100):
            f6 = rand_form(rng, 6, bound=6)
            M = rand_matrix(rng)
            det = M.det
            t0 = igusa_sextic(f6).tuple()
            t1 = igusa_sextic(f6.substitute(M)).tuple()
            for w, a, b in zip(SEXTIC_WEIGHTS, t1, t0):
                assert a == det ** (3 * w) * b
            assert discriminant(f6.substitute(M)) == det**30 * discriminant(f6)
        for _ in range(100):
            f8 = rand_form(rng, 8, bound=5)
            M = rand_matrix(rng)
            det = M.det
            t0 = octavic_invariants(f8).tuple()
            t1 = octavic_invariants(f8.substitute(M)).tuple()
            for i, (a, b) in enumerate(zip(t1, t0)):
                assert a == det ** (4 * (i + 2)) * b
            assert discriminant(f8.substitute(M)) == det**56 * discriminant(f8)


def _exhaustive_group_law(curve):
    divs = enumerate_divisors(curve)
    order = jacobian_order_g2(curve)
    assert len(divs) == order
    assert hasse_interval_contains(curve.field.p, order)
    index = {d: i for i, d in enumerate(divs)}
    table = [[index[cantor_add(a, b)] for b in divs] for a in divs]
    n = len(divs)
    ident = index[identity(curve)]
    for i in range(n):
        assert table[i][ident] == i
        assert table[i][index[negate(divs[i])]] == ident
    assert all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(n) for j in range(n) for k in range(n)
    )
    return order


def test_criterion_04_group_law_gf7():
    with Budget(4, 60, "exhaustive group law, y^2 = x^5 + 1 over GF(7)"):
        data = weil_data_g2(HyperCurve.make(GF(7), [1, 0, 0, 0, 0, 1]))
        assert (data.n1, data.n2, data.order) == (8, 50, 50)
        order = _exhaustive_group_law(HyperCurve.make(GF(7), [1, 0, 0, 0, 0, 1]))
        assert order == 50


def test_criterion_04_group_law_gf5_as_stated():
    # x^5 + 1 = (x + 1)^5 over GF(5), so the named curve is singular and
    # the criterion cannot hold as written; kept faithful and red on
    # purpose (see the module docstring).
    with Budget(4, 60, "exhaustive group law, y^2 = x^5 + 1 over GF(5) (as stated)"):
        try:
            curve = HyperCurve.make(GF(5), [1, 0, 0, 0, 0, 1])
        except SingularCurveError as e:
            pytest.fail(
                "unattainable as stated: y^2 = x^5 + 1 is singular over "
                f"GF(5) since x^5 + 1 = (x+1)^5 there ({e})"
            )
        _exhaustive_group_law(curve)


def test_criterion_05_adder_equivalence():
    from test_jacobian import random_divisor  # point-supported sampler

    rng = random.Random(105)
    curve = HyperCurve.make(GF(101), [7, 1, 2, 0, 0, 1])
    with Budget(5, 30, "interpolation adder vs Cantor on 500 pairs"):
        done = 0
        while done < 500:
            d1 = random_divisor(rng, curve)
            d2 = random_divisor(rng, curve)
            res = interpolation_add_g2(d1, d2)
            if res.used_fallback:
                continue
            assert res.divisor == cantor_add(d1, d2)
            done += 1


def _scale_model_up(e, u, r=0, s=0, t=0):
    a1p, a2p, a3p, a4p, a6p = e.ainvs()
    a1 = u * a1p - 2 * s
    a2 = u * u * a2p + s * a1 + s * s - 3 * r
    a3 = u**3 * a3p - r * a1 - 2 * t
    a4 = u**4 * a4p + s * a3 + (t + r * s) * a1 - 2 * r * a2 - 3 * r * r + 2 * s * t
    a6 = u**6 * a6p + t * a3 + r * t * a1 - r * a4 - r * r * a2 - r**3 + t * t
    return EllipticModel(a1, a2, a3, a4, a6)


def test_criterion_06_laska():
    rng = random.Random(106)
    with Budget(6, 10, "Laska idempotence and planted-u round trips"):
        count = 0
        while count < 50:
            e = EllipticModel(*[rng.randint(-6, 6) for _ in range(5)])
            if not e.discriminant():
                continue
            r1 = laska_reduce(e)
            r2 = laska_reduce(r1.model)
            assert r2.u == 1 and r2.model == r1.model
            assert e.discriminant() == r1.discriminant_out * r1.u**12
            count += 1
        base = laska_reduce(EllipticModel(1, -1, 1, -14, 29)).model
        for u in (2, 3, 6):
            big = _scale_model_up(base, u, r=rng.randint(-3, 3),
                                  s=rng.randint(-3, 3), t=rng.randint(-3, 3))
            rep = laska_reduce(big)
            assert rep.u == u
            assert rep.model == base
            assert big.discriminant() == rep.discriminant_out * u**12


def _random_minimal_curve(rng, degree):
    while True:
        coeffs = [rng.randint(-5, 5) for _ in range(degree)] + [1]
        try:
            c = SuperellipticCurve(2, Poly(QQ, coeffs))
            pt = None
            from superelliptic.weighted import moduli_point
            pt = moduli_point(c)
        except SingularCurveError:
            continue
        d = c.form_degree()
        # demand small valuations at the plantable primes for clean recovery
        ok = True
        for p in (2, 3):
            for x, q in zip(pt.coords, pt.weights):
                if x and valuation(int(x), p) >= (d // 2) * q:
                    ok = False
        if ok and all(pt.coords):
            return c, pt


def test_criterion_07_superelliptic_minimal():
    rng = random.Random(107)
    with Budget(7, 10, "superelliptic minimal model round trips"):
        for i in range(50):
            degree = 6 if i % 2 == 0 else 8
            g, _ = _random_minimal_curve(rng, degree)
            lam = rng.choice([2, 3, 6])
            direction = rng.choice(["x", "y"])
            d = g.form_degree()
            if direction == "x":
                coeffs = [c * Fraction(lam) ** (d - j)
                          for j, c in enumerate(g.f.coeffs)]
            else:
                coeffs = [c * Fraction(lam) ** j for j, c in enumerate(g.f.coeffs)]
            planted = SuperellipticCurve(2, Poly(QQ, coeffs))
            rep = superelliptic_minimal(planted)
            assert rep.lam == lam
            assert rep.curve.f == g.f
            thresholds = [(d // 2) * q for q in rep.point_out.weights]
            for p in {q for q in (2, 3) if lam % q == 0}:
                for x, t in zip(rep.point_out.coords, thresholds):
                    assert x == 0 or valuation(int(x), p) < t


def test_criterion_08_weighted_moduli():
    rng = random.Random(108)
    with Budget(8, 30, "height orbit invariance and bounded enumeration"):
        for _ in range(1000):
            coords = [rng.randint(-40, 40) for _ in range(4)]
            if not any(coords):
                continue
            pt = WeightedPoint.of(coords, (2, 4, 6, 10))
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert weighted_height(pt) == weighted_height(star_act(lam, pt))
        from test_weighted import _brute_force_classes
        for weights in ((1, 1), (1, 2), (2, 3)):
            for bound in (1, 2, 3):
                mine = enumerate_bounded_height(weights, Fraction(bound))
                other = _brute_force_classes(weights, bound)
                assert len(mine) == len(other), (weights, bound)
                mine_set = {p.coords for p in mine}
                for rep in other:
                    assert normalize(WeightedPoint.of(rep, weights)).coords in mine_set
                for p in mine:
                    assert weighted_height(p) <= bound


def test_criterion_09_weierstrass_combinatorics():
    with Budget(9, 5, "gap-basis cardinalities and branch weights"):
        for n in range(2, 7):
            for d in range(n + 1, 13):
                g = (n * d - n - d - gcd(n, d) + 2) // 2
                if g < 2:
                    continue
                for q in range(1, 5):
                    basis = weierstrass_gap_basis(n, d, q)
                    expect = g if q == 1 else (g - 1) * (2 * q - 1)
                    assert len(basis.S) == expect == basis.d_q
        assert branch_weight(2, 6, 1) == 1
        assert 6 * branch_weight(2, 6, 1) == 2**3 - 2


def test_criterion_10_theta_census():
    with Budget(10, 60, "theta parity census, vanishing counts, Goepel"):
        for g in range(1, 6):
            even, odd = parity_census(g)
            assert even == 2 ** (g - 1) * (2**g + 1)
            assert odd == 2 ** (g - 1) * (2**g - 1)
            vanish = vanishing_even_thetanulls(g)
            assert len(vanish) == vanishing_count_formula(g)
            assert len(vanish) == even - comb(2 * g + 1, g)
        assert vanishing_count_formula(2) == 0
        assert vanishing_count_formula(3) == 1
        for g in (1, 2, 3):
            for r in range(0, g + 1):
                assert len(gopel_groups(g, r)) == gopel_count(g, r)


def test_criterion_11_splitting_criterion():
    with Budget(11, 5, "splitting criterion vs genus-sum oracle"):
        for n in range(2, 7):
            for m in range(2, 7):
                for delta in range(1, 13):
                    res = split_jacobian(n, m, delta)
                    g, g1, g2 = quotient_genus_triple(n, m, delta)
                    assert res.decomposes == (g == g1 + g2)
        for delta in range(1, 13):
            assert split_jacobian(2, 2, delta).decomposes


def test_criterion_12_atlas_integrity():
    with Budget(12, 1, "atlas Hurwitz bound and Riemann-Hurwitz consistency"):
        for g in range(2, 11):
            for rec in aut_lookup(g):
                assert rec.group_order <= HURWITZ_FACTOR * (g - 1)
                if rec.case is not None:
                    total = -2 * rec.group_order
                    for c in rec.signature:
                        total += (rec.group_order // c) * (c - 1)
                    assert total == 2 * (g - 1)
                assert rec.dimension == len(rec.signature) - 3
