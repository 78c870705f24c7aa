"""Minimal models: Laska's form of Tate's reduction for elliptic curves
over Q, and the weighted-gcd minimal model for superelliptic curves.

Laska reduction searches the divisor set S = {u >= 1 : u^4 | c4, u^6 | c6},
that is {u : u^12 | g} for g = gcd(c4^3, c6^2).  As 1728 disc = c4^3 - c6^2,
S is the set of divisors of the product of p^(v_p(g) // 12) over the primes
of the discriminant, factored once, and is walked from the largest u down;
for each u the normalized a1', a3' in {0, 1} and a2' in {-1, 0, 1} are
tried in lexicographic order and a candidate is accepted only if the full
coordinate change (u, r, s, t) replays integrally on every coefficient.

The superelliptic reduction divides the invariant tuple by its weighted
gcd with respect to the weights (d/2) q_i, realizing the division on the
equation by exact coordinate scalings x -> p^b x or y -> p^b y of the
binary form sum c_i X^(d-i) Y^i.  For a prime p of exponent alpha in
that gcd, with bx = min floor(v_p(c_i) / i) over i >= 1 and by = min
floor(v_p(c_i) / (d - i)) over i < d, both over c_i != 0, a step divides
out beta = min(alpha, max(bx, by)): c_i by p^(beta i) when bx >= beta,
else by p^(beta (d - i)).  Steps repeat on alpha - beta; a prime left
when beta = 0 is offending.  The product lambda of the p^beta scales the
form by 1 / lambda^d, and as J_q has degree q in the coefficients, the
output moduli point is the star action of 1 / lambda^(d/2) on the input.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import BinaryForm, Poly, QQ, factorize, valuation
from .curves import SuperellipticCurve
from .errors import DomainError, SingularCurveError, UnsupportedCaseError
from .weighted import WeightedPoint, _exponents, moduli_point, star_act

# ---------------------------------------------------------------------------
# elliptic curves


@dataclass(frozen=True)
class EllipticModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        for v in (self.a1, self.a2, self.a3, self.a4, self.a6):
            if not isinstance(v, int):
                raise DomainError("EllipticModel needs integer coefficients")

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


def c4c6(model):
    """Step-1 quantities c4 and c6 of an integral model."""
    b2, b4, b6, _ = model.b_invariants()
    return b2 * b2 - 24 * b4, -(b2**3) + 36 * b2 * b4 - 216 * b6


def _transformed(model, u, r, s, t):
    """The model with x = u^2 x' + r, y = u^3 y' + u^2 s x' + t, if integral."""
    a1, a2, a3, a4, a6 = model.ainvs()
    num1 = a1 + 2 * s
    num2 = a2 - s * a1 + 3 * r - s * s
    num3 = a3 + r * a1 + 2 * t
    num4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
    num6 = a6 + r * a4 + r * r * a2 + r**3 - t * a3 - r * t * a1 - t * t
    vals = []
    for num, e in ((num1, 1), (num2, 2), (num3, 3), (num4, 4), (num6, 6)):
        ue = u**e
        if num % ue:
            return None
        vals.append(num // ue)
    return EllipticModel(*vals)


@dataclass(frozen=True)
class LaskaReport:
    model: EllipticModel
    u: int
    r: int
    s: int
    t: int
    discriminant_in: int
    discriminant_out: int
    valuations: dict  # prime -> (v_p before, v_p after)


def laska_reduce(model):
    """Minimal integral model of an elliptic curve over Q."""
    disc = model.discriminant()
    if disc == 0:
        raise SingularCurveError("elliptic model has discriminant 0")
    c4, c6 = c4c6(model)
    # u^4 | c4 and u^6 | c6 exactly when u^12 | g; then u^12 | 1728 disc
    g = gcd(c4**3, c6**2)
    primes = sorted(factorize(abs(disc)))
    us = [1]
    for p in primes:
        us = [u * p**k for u in us for k in range(valuation(g, p) // 12 + 1)]
    for u in sorted(us, reverse=True):
        for a1p in (0, 1):
            s2 = a1p * u - model.a1
            if s2 % 2:
                continue
            s = s2 // 2
            for a2p in (-1, 0, 1):
                r3 = a2p * u * u - model.a2 + s * model.a1 + s * s
                if r3 % 3:
                    continue
                r = r3 // 3
                for a3p in (0, 1):
                    t2 = a3p * u**3 - model.a3 - r * model.a1
                    if t2 % 2:
                        continue
                    t = t2 // 2
                    out = _transformed(model, u, r, s, t)
                    if out is None:
                        continue
                    disc_out = out.discriminant()
                    assert disc == disc_out * u**12
                    vals = {p: (valuation(disc, p), valuation(disc_out, p)) for p in primes}
                    return LaskaReport(
                        model=out, u=u, r=r, s=s, t=t,
                        discriminant_in=disc, discriminant_out=disc_out,
                        valuations=vals,
                    )
    raise AssertionError("u = 1 reduction must always exist")  # pragma: no cover


# ---------------------------------------------------------------------------
# superelliptic curves


@dataclass(frozen=True)
class SuperellipticMinimalReport:
    curve: SuperellipticCurve
    lam: int                    # realized reduction factor (product of p^beta)
    x_factor: Fraction          # X -> x_factor * X on the binary form
    y_factor: Fraction          # Y -> y_factor * Y on the binary form
    form_scale: Fraction        # overall scaling applied to the substituted form
    is_twist: bool
    point_in: WeightedPoint
    point_out: WeightedPoint
    fully_minimal: bool
    offending: tuple            # primes where the tuple stays reducible


def _minimal_weights(weights, d):
    return tuple((d * q) // 2 for q in weights)


def is_minimal_tuple(point, d):
    """(minimal?, offending primes) for the valuation criterion
    val_p(x_i) < (d/2) q_i: the primes whose weighted exponent is positive."""
    if any(x.denominator != 1 for x in point.coords):
        raise DomainError("minimality needs an integral tuple")
    offending = tuple(_exponents(point.coords, _minimal_weights(point.weights, d)))
    return not offending, offending


def superelliptic_minimal(curve):
    """Weighted-gcd minimal model of a level-2 sextic or octavic curve."""
    if curve.n != 2 or curve.form_degree() not in (6, 8):
        raise UnsupportedCaseError(
            "minimal models are implemented for n = 2, deg f in {5, 6, 7, 8}"
        )
    if curve.field != QQ or not curve.is_integral():
        raise DomainError("minimal models need an integral model over Q")
    point = moduli_point(curve)  # also rejects singular curves
    d = curve.form_degree()
    cs = curve.binary_form().ints  # an integral form: den = 1
    lam, x_factor, y_factor, offending = 1, 1, 1, []
    for p, alpha in _exponents(point.coords, _minimal_weights(point.weights, d)).items():
        while alpha:
            vals = [(i, valuation(c, p)) for i, c in enumerate(cs) if c]
            bx = min(v // i for i, v in vals if i)
            by = min(v // (d - i) for i, v in vals if i < d)
            beta = min(alpha, max(bx, by))
            if not beta:
                offending.append(p)
                break
            step = p**beta
            if bx >= beta:
                cs = [c // step**i for i, c in enumerate(cs)]
                x_factor *= step
            else:
                cs = [c // step ** (d - i) for i, c in enumerate(cs)]
                y_factor *= step
            lam *= step
            alpha -= beta
    return SuperellipticMinimalReport(
        curve=SuperellipticCurve(curve.n, Poly(QQ, reversed(cs))),
        lam=lam,
        x_factor=Fraction(x_factor),
        y_factor=Fraction(y_factor),
        form_scale=Fraction(1, lam**d),
        is_twist=(d % curve.n != 0),
        point_in=point,
        point_out=star_act(Fraction(1, lam ** (d // 2)), point) if lam > 1 else point,
        fully_minimal=not offending,
        offending=tuple(offending),
    )


def replay_reduction(form, report):
    """Apply the reported scalings to the input form; must reproduce the
    output curve coefficient for coefficient."""
    d = form.degree
    out = []
    for i, c in enumerate(form.coeffs):
        c = Fraction(c) * report.x_factor ** (d - i) * report.y_factor**i
        out.append(c * report.form_scale)
    return BinaryForm(form.field, d, out)
