from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from superelliptic import atlas
from superelliptic.algebra import QQ, Poly
from superelliptic.atlas import (
    HURWITZ_FACTOR,
    aut_lookup,
    branch_weight,
    family_equation,
    genus,
    quotient_equations,
    split_jacobian,
    weierstrass_gap_basis,
    GENUS3_GROUP_IDS_CHAR0,
)
from superelliptic.curves import SuperellipticCurve, genus_formula
from superelliptic.errors import (
    DomainError,
    NotInAtlasError,
    SingularCurveError,
    UnsupportedCaseError,
)

from oracles import (
    family_degree_by_offsets,
    family_equation_by_blocks,
    quotient_genus_triple,
)


# ---------------------------------------------------------------------------
# genus


def test_genus_examples():
    assert genus(2, 5) == 2
    assert genus(2, 6) == 2
    assert genus(3, 4) == 3
    assert genus(3, 5) == 4


def test_genus_lower_bound_grid():
    # g >= n with equality only at (2,5), (2,6), (3,4)
    equal = []
    for n in range(2, 31):
        for d in range(n + 1, 31):
            g = genus(n, d)
            if g < 2:
                continue
            assert g >= n, (n, d)
            if g == n:
                equal.append((n, d))
    assert set(equal) == {(2, 5), (2, 6), (3, 4)}


def test_genus_rejects_bad_input():
    with pytest.raises(DomainError):
        genus(2, 2)
    with pytest.raises(DomainError):
        genus(1, 5)


# ---------------------------------------------------------------------------
# gap bases and weights


def test_gap_basis_examples():
    b = weierstrass_gap_basis(2, 6, 1)
    assert b.S == frozenset({(0, 0), (1, 0)})
    assert b.d_q == 2
    assert len(weierstrass_gap_basis(2, 6, 2).S) == 3
    assert len(weierstrass_gap_basis(2, 5, 1).S) == 2


def test_gap_basis_cardinality_grid():
    for n in range(2, 7):
        for d in range(n + 1, 13):
            g = (n * d - n - d - gcd(n, d) + 2) // 2
            if g < 2:
                continue
            for q in range(1, 5):
                basis = weierstrass_gap_basis(n, d, q)
                expect = g if q == 1 else (g - 1) * (2 * q - 1)
                assert len(basis.S) == expect, (n, d, q)


def test_branch_weight_examples():
    assert branch_weight(2, 6, 1) == 1
    assert 6 * branch_weight(2, 6, 1) == 2**3 - 2
    assert branch_weight(2, 5, 1) == 1
    # q = 2 totals bounded by g (g-1)^2 (2q-1)^2 = 36 for g = 2
    assert 6 * branch_weight(2, 6, 2) <= 36


def test_branch_weight_positive_grid():
    for n in range(2, 6):
        for d in range(n + 1, 11):
            g = (n * d - n - d - gcd(n, d) + 2) // 2
            if g < 2:
                continue
            for q in (1, 2, 3):
                assert branch_weight(n, d, q) > 0


def test_gap_basis_cap_refuses_before_any_work(monkeypatch):
    # genus 2: d_q = 2q - 1, so q = 3 gives exactly 5 pairs
    monkeypatch.setattr(atlas, "MAX_GAP_BASIS_SIZE", 5)
    assert weierstrass_gap_basis(2, 5, 3).d_q == 5
    for build in (weierstrass_gap_basis, branch_weight):
        with pytest.raises(UnsupportedCaseError, match=r"d_q = 7 pairs; supported up to 5$"):
            build(2, 5, 4)
    monkeypatch.undo()
    with pytest.raises(UnsupportedCaseError, match="supported up to"):
        weierstrass_gap_basis(2, 5, 10**40)


# ---------------------------------------------------------------------------
# automorphism records


def test_lookup_genus3_v4_row():
    recs = aut_lookup(3, n=4, m=2, reduced_group="V4", dimension=1)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.group == "V4 x C4"
    assert rec.signature == (2, 2, 2, 4)
    assert rec.dimension == 1


def test_lookup_genus4_d6_row():
    recs = aut_lookup(4, n=3, m=3, reduced_group="D6", dimension=1)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.group == "D6 x C3"
    assert rec.signature == (2, 2, 3, 3)


def test_lookup_hurwitz_bound_all_records():
    for g in range(2, 11):
        for rec in aut_lookup(g):
            assert rec.group_order is not None
            assert rec.group_order <= HURWITZ_FACTOR * (g - 1)


def test_records_riemann_hurwitz_consistency():
    # 2(g-1) = -2|G| + sum over signature entries of (|G|/c)(c-1)
    for g in range(2, 11):
        for rec in aut_lookup(g):
            if rec.case is None:
                continue  # explicit rows carry the full group, not the cover data
            total = -2 * rec.group_order
            for c in rec.signature:
                total += (rec.group_order // c) * (c - 1)
            assert total == 2 * (g - 1), rec


def test_records_dimension_is_branch_count_minus_3():
    for g in range(2, 11):
        for rec in aut_lookup(g):
            assert rec.dimension == len(rec.signature) - 3


def test_lookup_rejects_uncovered_genus():
    with pytest.raises(NotInAtlasError):
        aut_lookup(11)


def test_genus3_gap_ids_present():
    assert (96, 64) in GENUS3_GROUP_IDS_CHAR0
    assert len(GENUS3_GROUP_IDS_CHAR0) == 17


# ---------------------------------------------------------------------------
# family equations


def test_family_case1_pattern():
    c = family_equation(1, 3, [5], m=2)
    assert list(c.f.coeffs) == [1, 0, 5, 0, 1]  # x^4 + 5 x^2 + 1 = g(x^2)
    # symmetry replay: polynomial in x^m
    assert all(v == 0 for i, v in enumerate(c.f.coeffs) if i % 2)


def test_family_case3_extra_root():
    c = family_equation(3, 2, [Fraction(7)], m=3)
    assert c.f.coeffs[0] == 0  # x divides f
    inner = [v for v in c.f.coeffs[1:]]
    assert inner == [1, 0, 0, 7, 0, 0, 1]


def test_family_case4_d2m():
    c = family_equation(4, 2, [0], m=3)
    assert list(c.f.coeffs) == [1, 0, 0, 0, 0, 0, 1]  # x^6 + 1
    # reciprocal symmetry: x^deg f(1/x) = f(x)
    rev = list(reversed(c.f.coeffs))
    assert rev == list(c.f.coeffs)


def test_family_case4_symmetry_general(rng):
    lam = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
    try:
        c = family_equation(4, 2, lam, m=3)
    except SingularCurveError:
        return
    # polynomial in x^3 and reciprocal
    assert all(v == 0 for i, v in enumerate(c.f.coeffs) if i % 3)
    assert list(reversed(c.f.coeffs)) == list(c.f.coeffs)


def test_family_case10_ground_form():
    c = family_equation(10, 2, [0])
    assert list(c.f.coeffs) == [1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1]


def test_family_case12_fixed_s4_factor():
    # delta = 0 instance: y^2 = x^8 + 14 x^4 + 1 (genus 3, A4 row)
    c = family_equation(12, 2, [])
    assert list(c.f.coeffs) == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    assert c.genus() == 3


def test_family_case20_s4():
    c = family_equation(20, 2, [1])
    # contains the degree-12 S4 ground form as a factor
    e3 = Poly(QQ, [1, 0, 0, 0, -33, 0, 0, 0, -33, 0, 0, 0, 1])
    q, r = c.f.divmod(e3)
    assert r.is_zero


def test_family_case24_a5_degree():
    c = family_equation(24, 2, [3])
    assert c.f.degree == 60


def test_family_case28_q_factor():
    c = family_equation(28, 2, [2])
    # Q = x^30 + 522 x^25 - 10005 x^20 - 10005 x^10 - 522 x^5 + 1
    coeffs = {30: 1, 25: 522, 20: -10005, 10: -10005, 5: -522, 0: 1}
    w3 = Poly(QQ, [coeffs.get(i, 0) for i in range(31)])
    assert (c.f % w3).is_zero


def test_family_rejects_char_p_rows():
    with pytest.raises(UnsupportedCaseError):
        family_equation(33, 2, [])


def test_family_rejects_sqrt_minus3_rows():
    with pytest.raises(UnsupportedCaseError):
        family_equation(11, 2, [1])
    with pytest.raises(UnsupportedCaseError):
        family_equation(14, 2, [1])


@pytest.mark.parametrize("case", [c for c in range(1, 32) if c not in (11, 14)])
def test_family_degree_is_read_off_before_the_product(case):
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            curve = family_equation(case, 2, [7 + 3 * i for i in range(k)], m=m)
            assert curve.f.degree == atlas._shape(case, m, k)[-1]
            assert curve.f.degree == family_degree_by_offsets(case, m, k)


def test_family_table_meets_the_separability_preconditions():
    # family_equation decides separability per factor E P_lambda on these facts
    for _, _, P in atlas._BLOCKS:
        A, B = Poly(QQ, [a for a, _ in P]), Poly(QQ, [b for _, b in P])
        assert A.gcd(B) == Poly.one(QQ)
        assert A[0] != 0 and B[0] == 0          # P_lambda(0) = A(0) for every lambda
        assert P[-1][0] != 0 and P[-1][1] == 0  # deg P_lambda = deg A for every lambda
    assert sorted(atlas._ROWS) == [c for c in range(4, 32) if c not in (11, 14)]
    for e, E in atlas._ROWS.values():
        assert e in (0, 1) and E[0] != 0 and Poly(QQ, E).is_squarefree()


_LAMBDAS = st.one_of(st.sampled_from([2, -2, 0, 1728]), st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=6))


def _family_outcome(fn, case, n, params, m):
    try:
        return repr(fn(case, n, params, m=m))
    except DomainError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([c for c in range(1, 32) if c not in (11, 14)]),
       st.integers(2, 4), st.integers(1, 4),
       st.lists(_LAMBDAS, min_size=1, max_size=3), st.lists(st.integers(0, 3), max_size=4))
def test_family_equation_matches_the_block_builder(case, n, m, pool, picks):
    # drawing the delta <= 4 parameters from a pool of up to 3 values repeats some
    params = [pool[i % len(pool)] for i in picks]
    assert _family_outcome(family_equation, case, n, params, m) == \
        _family_outcome(family_equation_by_blocks, case, n, params, m)


def test_family_cap_refuses_before_any_product(monkeypatch):
    # row 24 with two parameters has degree 120, row 1 with m = 10^40 far more
    monkeypatch.setattr(atlas, "MAX_FAMILY_DEGREE", 120)
    assert family_equation(24, 2, [3, 4]).f.degree == 120
    with pytest.raises(UnsupportedCaseError,
                       match=r"family row 25 has degree 131; supported up to 120$"):
        family_equation(25, 2, [3, 4])
    monkeypatch.undo()
    with pytest.raises(UnsupportedCaseError, match="supported up to"):
        family_equation(1, 2, [3], m=10**40)


def test_family_degenerate_parameters():
    # lambda = 2 makes x^(2m) + 2 x^m + 1 = (x^m + 1)^2 non-separable
    with pytest.raises(SingularCurveError):
        family_equation(4, 2, [2], m=2)


# ---------------------------------------------------------------------------
# Jacobian splitting


def test_split_2_2_always_true():
    for delta in range(1, 13):
        res = split_jacobian(2, 2, delta)
        assert res.decomposes and res.lhs == 0 and res.rhs == 0


def test_split_2_3_always_false():
    for delta in range(1, 13):
        res = split_jacobian(2, 3, delta)
        assert not res.decomposes
        assert res.rhs in (0, -1)


def test_split_matches_genus_sum_oracle_grid():
    for n in range(2, 7):
        for m in range(2, 7):
            for delta in range(1, 13):
                res = split_jacobian(n, m, delta)
                g, g1, g2 = quotient_genus_triple(n, m, delta)
                assert res.decomposes == (g == g1 + g2), (n, m, delta)


# ---------------------------------------------------------------------------
# quotient equations


def test_quotient_equations_example():
    a, b = Fraction(3), Fraction(-2)
    C = SuperellipticCurve(2, Poly(QQ, [1, 0, b, 0, a, 0, 1]))
    x1, x2, m = quotient_equations(C)
    assert m == 2
    assert list(x1.f.coeffs) == [1, b, a, 1]
    assert list(x2.f.coeffs) == [0, 1, b, a, 1]


def test_quotient_genus_bookkeeping():
    # g(C) = g1 + g2 exactly when the splitting criterion holds
    C = SuperellipticCurve(2, Poly(QQ, [1, 0, 3, 0, -2, 0, 1]))
    x1, x2, m = quotient_equations(C)
    delta = x1.f.degree
    res = split_jacobian(2, m, delta)
    assert res.decomposes
    assert C.genus() == x1.genus() + x2.genus()


def test_quotient_rejects_non_power_input():
    C = SuperellipticCurve(2, Poly(QQ, [1, 1, 0, 0, 0, 0, 1]))
    with pytest.raises(DomainError):
        quotient_equations(C)


def test_one_genus_formula_matches_riemann_hurwitz():
    # y^n = f(x), f separable of degree d: each root ramifies fully, and
    # the gcd(n, d) points over infinity have index n / gcd(n, d)
    for n in range(2, 10):
        for d in range(1, 16):
            g = genus_formula(n, d)
            assert 2 * g - 2 == -2 * n + d * (n - 1) + n - gcd(n, d)
            if d > n:
                assert genus(n, d) == g
            C = SuperellipticCurve(n, Poly(QQ, [1] + [0] * (d - 1) + [1]))
            assert C.genus() == genus_formula(n, C.form_degree())
            assert quotient_genus_triple(n, 2, d) == (
                genus_formula(n, 2 * d), g, genus_formula(n, d + 1))
