import itertools
from math import comb, prod

import pytest

from superelliptic.errors import DomainError, UnsupportedCaseError
from superelliptic.theta import (
    MAX_DIGITS,
    MAX_THETANULL_GENUS,
    HalfIntChar,
    branch_characteristic,
    branch_index_set,
    gopel_count,
    odd_branch_indices,
    pairing,
    parity,
    parity_census,
    syzygetic,
    triple_pairing,
    triple_syzygetic,
    vanishing_count_formula,
    vanishing_even_thetanulls,
)

from oracles import (
    all_characteristics,
    gopel_groups,
    vanishing_even_thetanulls_by_characteristics,
)


# ---------------------------------------------------------------------------
# parity


def test_parity_zero_char_even():
    assert parity(HalfIntChar.zero(3)) == 1


def test_parity_g1_half_half_odd():
    assert parity(HalfIntChar((1,), (1,))) == -1


@pytest.mark.parametrize("g", range(1, 6))
def test_parity_census_closed_forms(g):
    even, odd = parity_census(g)
    assert even == 2 ** (g - 1) * (2**g + 1)
    assert odd == 2 ** (g - 1) * (2**g - 1)


def test_characteristic_group_structure():
    # addition mod 1 forms a group of order 2^(2g)
    g = 2
    chars = list(all_characteristics(g))
    assert len(chars) == 4**g
    zero = HalfIntChar.zero(g)
    for m in chars[:6]:
        assert m + zero == m
        assert m + m == zero
    assert chars[3] + chars[5] in set(chars)


# ---------------------------------------------------------------------------
# syzygy


def test_pairing_example_g1():
    m = HalfIntChar((0,), (1,))
    a = HalfIntChar((1,), (0,))
    assert pairing(m, a) == 1
    assert not syzygetic(m, a)


def test_self_pairing_zero():
    for m in all_characteristics(2):
        assert syzygetic(m, m)


def test_triple_pairing_symmetric():
    chars = list(all_characteristics(2))
    m, a, b = chars[3], chars[7], chars[11]
    vals = {triple_pairing(*p) for p in itertools.permutations([m, a, b])}
    assert len(vals) == 1
    assert triple_syzygetic(m, a, b) == (triple_pairing(m, a, b) == 0)


# ---------------------------------------------------------------------------
# Goepel groups


def test_gopel_count_examples():
    assert gopel_count(1, 1) == 3
    assert gopel_count(2, 2) == 15
    assert gopel_count(5, 0) == 1


def test_gopel_count_rejects_bad_r():
    with pytest.raises(DomainError):
        gopel_count(2, 3)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_gopel_brute_force_matches_formula(g):
    for r in range(0, g + 1):
        groups = gopel_groups(g, r)
        assert len(groups) == gopel_count(g, r), (g, r)
        for grp in groups:
            assert len(grp) == 2**r
            for a, b in itertools.combinations(grp, 2):
                assert syzygetic(a, b)


# ---------------------------------------------------------------------------
# branch characteristics


def test_branch_characteristic_empty_is_zero():
    assert branch_characteristic(3, ()) == HalfIntChar.zero(3)


@pytest.mark.parametrize("g", range(1, 6))
def test_branch_characteristic_full_set_integral(g):
    assert branch_characteristic(g, branch_index_set(g)) == HalfIntChar.zero(g)


def test_branch_characteristic_complement_identity_g2():
    S = set(branch_index_set(2))
    for size in range(6):
        for T in itertools.combinations(sorted(S), size):
            assert branch_characteristic(2, T) == branch_characteristic(2, S - set(T))


def test_branch_characteristic_rejects_out_of_range():
    with pytest.raises(DomainError):
        branch_characteristic(2, (6,))


def test_even_subsets_cover_all_characteristics():
    for g in (1, 2, 3):
        chars = set()
        for size in range(0, 2 * g + 2, 2):
            for T in itertools.combinations(branch_index_set(g), size):
                chars.add(branch_characteristic(g, T))
        assert len(chars) == 4**g


# ---------------------------------------------------------------------------
# vanishing even thetanulls


@pytest.mark.parametrize("g", range(1, 6))
def test_vanishing_count(g):
    vanishing = vanishing_even_thetanulls(g)
    assert len(vanishing) == vanishing_count_formula(g)
    assert vanishing_count_formula(g) == 2 ** (g - 1) * (2**g + 1) - comb(2 * g + 1, g)


def test_vanishing_examples():
    assert vanishing_count_formula(2) == 0
    assert vanishing_count_formula(3) == 1
    # the unique genus-3 vanishing even thetanull is eps_U
    (T,) = vanishing_even_thetanulls(3)
    assert set(T) == set(odd_branch_indices(3))


@pytest.mark.parametrize("g", range(1, 8))
def test_vanishing_list_matches_characteristic_oracle(g):
    assert vanishing_even_thetanulls(g) == vanishing_even_thetanulls_by_characteristics(g)


@pytest.mark.parametrize("g", range(1, 7))
def test_parity_from_subset_size(g):
    # eta_T is even iff #(T symdiff U) = g + 1 (mod 4), over every even T
    U = set(odd_branch_indices(g))
    for size in range(0, 2 * g + 2, 2):
        for T in itertools.combinations(branch_index_set(g), size):
            k = len(set(T) ^ U)
            assert (parity(branch_characteristic(g, T)) == 1) == (k % 4 == (g + 1) % 4), T


def test_vanishing_listing_refused_past_its_cap():
    g = MAX_THETANULL_GENUS
    assert len(vanishing_even_thetanulls(g)) == vanishing_count_formula(g)
    with pytest.raises(UnsupportedCaseError, match=f"walks 2\\^{2 * g + 2} subsets"):
        vanishing_even_thetanulls(g + 1)
    with pytest.raises(UnsupportedCaseError, match="supported up to g = "):
        vanishing_even_thetanulls(2**70)
    with pytest.raises(DomainError, match="need g >= 1"):
        vanishing_even_thetanulls(0)


# ---------------------------------------------------------------------------
# closed-form counts: the enumeration oracle and the printable-size limit


@pytest.mark.parametrize("g", range(0, 7))
def test_parity_census_matches_enumeration(g):
    even = sum(1 for m in all_characteristics(g) if parity(m) == 1)
    assert parity_census(g) == (even, 4**g - even)


def test_theta_counts_refuse_small_genus():
    with pytest.raises(DomainError):
        parity_census(-1)
    for g in (0, -1):
        with pytest.raises(DomainError, match="need g >= 1"):
            vanishing_count_formula(g)


def _gopel_oracle(g, r):
    return (prod(4 ** (g - j) - 1 for j in range(r))
            // prod(2**j - 1 for j in range(1, r + 1)))


def _first_too_long(count, g):
    """The least genus from g on whose count has more than MAX_DIGITS digits."""
    while count(g) < 10**MAX_DIGITS:
        g += 1
    return g


def test_counts_refused_exactly_past_the_digit_limit():
    g = _first_too_long(lambda g: (4**g + 2**g) // 2, 7000)
    assert parity_census(g - 1)[0] == 2 ** (g - 2) * (2 ** (g - 1) + 1)
    assert vanishing_count_formula(g - 1) == parity_census(g - 1)[0] - comb(2 * g - 1, g - 1)
    for count in (parity_census, vanishing_count_formula):
        with pytest.raises(UnsupportedCaseError, match="decimal digits"):
            count(g)
    for r, start in ((1, 7000), (2, 3500), (7, 1000), (60, 140), (100, 120)):
        g = _first_too_long(lambda g: _gopel_oracle(g, r), start)
        assert g > start
        assert gopel_count(g - 1, r) == _gopel_oracle(g - 1, r)
        with pytest.raises(UnsupportedCaseError, match="decimal digits"):
            gopel_count(g, r)


def test_huge_counts_are_refused_before_they_are_computed():
    for call in (lambda: parity_census(2**70), lambda: vanishing_count_formula(2**70),
                 lambda: gopel_count(2**40, 2**20)):
        with pytest.raises(UnsupportedCaseError):
            call()
