"""Brute-force oracles that the tests compare the library's closed forms
and criteria against.  They enumerate, so they run only at small sizes."""

from itertools import combinations, product

from superelliptic.curves import genus_formula
from superelliptic.theta import (
    HalfIntChar,
    branch_characteristic,
    branch_index_set,
    odd_branch_indices,
    parity,
    syzygetic,
)


def all_characteristics(g):
    """All 4^g half-integer characteristics of genus g."""
    for top in product((0, 1), repeat=g):
        for bottom in product((0, 1), repeat=g):
            yield HalfIntChar(top, bottom)


def gopel_groups(g, r):
    """All Goepel groups of order 2^r, by searching spans of characteristics."""
    nonzero = [m for m in all_characteristics(g) if any(m.top) or any(m.bottom)]
    found = set()

    def extend(basis, span):
        if len(basis) == r:
            found.add(frozenset(span))
            return
        for m in nonzero:
            if m in span:
                continue
            if any(not syzygetic(m, b) for b in span):
                continue
            new_span = set(span)
            for s in list(span):
                new_span.add(s + m)
            extend(basis + [m], new_span)

    extend([], {HalfIntChar.zero(g)})
    return [sorted(s, key=lambda c: (c.top, c.bottom)) for s in found]


def vanishing_even_thetanulls_by_characteristics(g):
    """The vanishing even thetanulls, each T's parity read from the sum of
    its branch characteristics: the walk Mumford's size criterion replaces."""
    U = set(odd_branch_indices(g))
    out = []
    for size in range(0, 2 * g + 2, 2):
        for T in combinations(branch_index_set(g), size):
            if parity(branch_characteristic(g, T)) != 1:
                continue
            if len(set(T) ^ U) != g + 1:
                out.append(T)
    return out


def quotient_genus_triple(n, m, delta):
    """(g, g1, g2) of the covered curve and its two quotients."""
    return (genus_formula(n, delta * m), genus_formula(n, delta),
            genus_formula(n, delta + 1))
