"""Weighted projective points, the lambda-star action, weighted gcd and
heights over Q, bounded-height enumeration, and the map sending a curve
to its weighted moduli point.

One exponent rule serves normalize, wgcd and minimal models: a point
(x_i) with weights (q_i) gives each prime p the exponent e_p = min_i
floor(v_p(x_i) / q_i) over its nonzero coordinates.  The weighted gcd is
the product of p^e_p over e_p > 0, and the star action by the product of
all p^(-e_p) clears the denominators minimally and divides it out.
Heights are max |x_j|^(1/q_j) on that representative, compared by
cross-powering instead of through floats.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import product
from math import exp, gcd, lcm, log, prod

from .algebra import GF, GFElement, QQ, discriminant, factorize, match_weighted_scale, valuation
from .curves import SuperellipticCurve
from .errors import DomainError, SingularCurveError, UnsupportedCaseError
from .invariants import OCTAVIC_WEIGHTS, SEXTIC_WEIGHTS, _octavic_head, _sextic_head


@dataclass(frozen=True)
class WeightedPoint:
    coords: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.weights):
            raise DomainError("coordinate and weight tuples differ in length")
        if not any(self.coords):
            raise DomainError("the zero tuple is not a weighted point")
        if any(w < 1 for w in self.weights):
            raise DomainError("weights must be positive integers")

    @classmethod
    def of(cls, coords, weights, field=QQ):
        return cls(tuple(field.of(c) for c in coords), tuple(int(w) for w in weights))


def star_act(lam, point):
    """The action lambda * (x_0 .. x_n) = (lambda^q0 x_0 .. lambda^qn x_n)."""
    if not lam:
        raise DomainError("star action needs lambda != 0")
    return WeightedPoint(
        tuple(lam**q * x for x, q in zip(point.coords, point.weights)),
        point.weights,
    )


def _exponents(coords, weights):
    """{p: e_p} in increasing p for each p with e_p = min floor(v_p(x_i) / q_i)
    over the nonzero x_i not 0: the primes of the gcd of the numerators
    (e_p > 0) and of the lcm of the denominators (e_p < 0)."""
    terms = [(x.numerator, x.denominator, q) for x, q in zip(coords, weights) if x]
    g = gcd(*[n for n, _, _ in terms])
    den = lcm(*[m for _, m, _ in terms])
    out = {}
    for p in sorted({**factorize(g), **factorize(den)}):
        e = min((valuation(n, p) - valuation(m, p)) // q for n, m, q in terms)
        if e:
            out[p] = e
    return out


def wgcd(point):
    """Largest positive integer m with m^q_i | x_i for every coordinate."""
    if any(x.denominator != 1 for x in point.coords):
        raise DomainError("weighted gcd needs integer coordinates")
    return prod(p**e for p, e in _exponents(point.coords, point.weights).items())


def normalize(point):
    """Canonical integral representative: wgcd 1, first odd-weight
    coordinate that is nonzero made positive."""
    exps = _exponents(point.coords, point.weights)
    lam = prod((Fraction(p) ** -e for p, e in exps.items()), start=Fraction(1))
    for x, q in zip(point.coords, point.weights):
        if x and q % 2 == 1:
            if x < 0:
                lam = -lam
            break
    return star_act(lam, point)


@total_ordering
@dataclass(frozen=True)
class WeightedHeight:
    """Exact height max |x_j|^(1/q_j); stores the selected radicand."""

    radicand: Fraction
    root: int

    def approx(self):
        """The height as a float for display, None past float range."""
        try:
            return float(self.radicand) ** (1.0 / self.root)
        except OverflowError:  # the radicand is past float range
            r = self.radicand
        try:
            return exp((log(r.numerator) - log(r.denominator)) / self.root)
        except OverflowError:  # so is the height
            return None

    def _cmp_key(self, other):
        """(a, b) comparing as self and other do, other a height or a number."""
        if not isinstance(other, WeightedHeight):
            other = Fraction(other)
            if other < 0:  # a height is never negative
                return 1, 0
            other = WeightedHeight(other, 1)
        return self.radicand**other.root, other.radicand**self.root

    def __eq__(self, other):
        a, b = self._cmp_key(other)
        return a == b

    def __le__(self, other):
        a, b = self._cmp_key(other)
        return a <= b

    def __hash__(self):
        return hash((self.radicand, self.root))


def weighted_height(point):
    """Height over Q of the class of the given point."""
    if not all(isinstance(x, (int, Fraction)) for x in point.coords):
        raise DomainError("heights are implemented over Q only")
    return normalized_height(normalize(point))


def normalized_height(pt):
    """Height of a point that `normalize` returned: max |x_j|^(1/q_j) on
    its own coordinates, the first of equal maxima."""
    return max(WeightedHeight(abs(x), q) for x, q in zip(pt.coords, pt.weights))


def _field_of(point):
    for c in point.coords:
        if isinstance(c, GFElement):
            return GF(c.p)
    return QQ


def wpoint_equal(p, q):
    """A scalar lam with star_act(lam, p) = q, or None."""
    if p.weights != q.weights:
        raise DomainError("weight tuples must match")
    field = _field_of(p)
    return match_weighted_scale(q.coords, p.coords, p.weights, field)


# Largest number of integer tuples enumerate_bounded_height normalizes: 30-80
# us each (CPython 3.11 on one core of an Intel Xeon; 2.1 s for the 38313
# tuples of weights (1, 2, 3) at bound 4), so an accepted call takes up to
# about 4 s.  Weights (2, 4, 6, 10) at bound 2 would try 78.5 million.
MAX_HEIGHT_TUPLES = 50_000


def enumerate_bounded_height(weights, bound):
    """All classes over Q with height <= bound, one normalized
    representative each.  Empty below the height floor 1.  Every tuple
    with |x_i| <= bound^(w_i) is tried, prod (2 bound^(w_i) + 1) of them,
    refused past MAX_HEIGHT_TUPLES before any is tried."""
    bound = Fraction(bound)
    weights = tuple(int(w) for w in weights)
    if bound < 1:
        return []
    boxes = []
    for q in weights:
        b = bound**q
        boxes.append(b.numerator // b.denominator)
    tuples = prod(2 * b + 1 for b in boxes)
    if tuples > MAX_HEIGHT_TUPLES:
        raise UnsupportedCaseError(
            f"bounded-height enumeration tries {tuples} tuples; "
            f"supported up to {MAX_HEIGHT_TUPLES}")
    seen = set()
    out = []
    for tup in product(*(range(-b, b + 1) for b in boxes)):
        if not any(tup):
            continue
        pt = normalize(WeightedPoint.of(tup, weights))
        if pt.coords not in seen:
            seen.add(pt.coords)
            out.append(pt)
    out.sort(key=lambda p: p.coords)
    return out


def moduli_point(curve):
    """Weighted moduli point of a level-2 curve with sextic or octavic form;
    its one discriminant refuses a repeated root first, and is a sextic's J10."""
    if not isinstance(curve, SuperellipticCurve):
        raise DomainError("moduli_point expects a SuperellipticCurve")
    if curve.n != 2:
        raise DomainError("moduli points are implemented for n = 2")
    form = curve.binary_form()
    disc = discriminant(form)
    if not disc:
        raise SingularCurveError("defining binary form has a repeated root")
    if form.degree == 6:
        return WeightedPoint(_sextic_head(form, disc)[0], SEXTIC_WEIGHTS)
    if form.degree == 8:
        return WeightedPoint(_octavic_head(form)[0], OCTAVIC_WEIGHTS[:6])
    raise DomainError("moduli points need deg f in {5, 6, 7, 8}")
