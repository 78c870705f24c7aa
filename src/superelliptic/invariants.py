"""Invariants of binary sextics and octavics, isomorphism testing for the
corresponding genus 2 and 3 superelliptic curves, root-multiplicity
classification, and dihedral invariants of curves in normal form.

Sextic calibration.  The generating invariants are computed through the
Clebsch transvectants A, B, C, D and then converted to the tuple
(J2, J4, J6, J10).  The conversion constants below were solved exactly
(linear algebra over Q against the explicit triple-root polynomials), so
that a sextic with a root of multiplicity exactly three satisfies

    J2 = 3 r^2,   J4 = 81 r^4,   J6 = r^6,   J10 = 0,   r != 0,

equivalently J4 = 9 J2^2 and 27 J6 = J2^3 in ratio form.  With this
calibration J2, J4, J6 are primitive integer polynomials in the
coefficients; J10 is taken to be the discriminant itself.

Work by entry point.  A record splits into a head, which moduli points
and equivalence tests read, and a tail, which only the printed record
shows; `igusa_sextic` and `octavic_invariants` build the head and then
the tail, so no covariant is written twice.
- Sextic head, 5 transvectants: ff4 = (f, f)_4, A = (f, f)_6,
  B = (ff4, ff4)_4, delta = (ff4, ff4)_2 and C = (ff4, delta)_4, giving
  J2, J4, J6; tail, 4 more: y1 = (f, ff4)_4, y2 = (ff4, y1)_2,
  y3 = (ff4, y2)_2 and D = (y3, y1)_2, then the integral invariants.
- Octavic head, 10 transvectants: g = (f, f)_4, k = (f, f)_6,
  h = (k, k)_2, m = (f, k)_4 and one more for each of J2..J7; tail,
  6 more: (g, k)_4, (f, h)_4 and (g, h)_4, each against h for J8..J10.
`moduli_point`, `sextic_equivalent`, `octavic_equivalent` and
`multiplicity_profile` on a sextic compute the head only.
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BinaryForm,
    discriminant,
    match_weighted_scale,
    transvectant,
)
from .errors import DomainError, SingularCurveError, UnsupportedCaseError

SEXTIC_WEIGHTS = (2, 4, 6, 10)
OCTAVIC_WEIGHTS = (2, 3, 4, 5, 6, 7, 8, 9, 10)

# (c, x, y, z) with J2 = c A, J4 = x A^2 + y B and J6 = z C (solved exactly,
# see module docstring)
_SEXTIC_SCALES = (Fraction(-60), Fraction(90000), Fraction(-540000), Fraction(-562500))

# the scale of each octavic Jw on its transvectant, J2..J7 and J8..J10
_OCTAVIC_HEAD_SCALES = (
    Fraction(2**2 * 5 * 7), Fraction(2**4 * 5**2 * 7**3, 3), Fraction(2**9 * 3 * 7**4),
    Fraction(2**9 * 5 * 7**5), Fraction(2**14 * 3**2 * 7**6), Fraction(2**14 * 3 * 5 * 7**7),
)
_OCTAVIC_TAIL_SCALES = (
    Fraction(2**17 * 3 * 5**2 * 7**9), Fraction(2**19 * 3**2 * 5 * 7**9),
    Fraction(2**22 * 3**2 * 5**2 * 7**11),
)


def _in_field(field, consts):
    """Rational constants as scalars of field: the Fractions themselves
    over QQ."""
    return [field.from_fraction(c) for c in consts] if field.characteristic else consts


def _tv(f, g, r):
    """Transvectant of two covariants; a covariant that vanished
    identically is the scalar zero, and so is every transvectant of it."""
    if not isinstance(f, BinaryForm):
        return f
    if not isinstance(g, BinaryForm):
        return g
    return transvectant(f, g, r)


@dataclass(frozen=True)
class SexticInvariants:
    J2: object
    J4: object
    J6: object
    J10: object
    A: object
    B: object
    C: object
    D: object
    Afrak: object
    Bfrak: object
    Cfrak: object
    Dfrak: object

    def tuple(self):
        return (self.J2, self.J4, self.J6, self.J10)


@dataclass(frozen=True)
class OctavicInvariants:
    J2: object
    J3: object
    J4: object
    J5: object
    J6: object
    J7: object
    J8: object
    J9: object
    J10: object

    def tuple(self):
        return (
            self.J2, self.J3, self.J4, self.J5, self.J6,
            self.J7, self.J8, self.J9, self.J10,
        )

    def moduli_tuple(self):
        """The generators J2..J7 used for moduli points and equivalence."""
        return (self.J2, self.J3, self.J4, self.J5, self.J6, self.J7)


@dataclass(frozen=True)
class DihedralInvariants:
    r: int
    u: tuple


def _sextic_check(f, name):
    if not isinstance(f, BinaryForm) or f.degree != 6:
        raise DomainError(f"{name} needs a binary sextic")


def _sextic_head(f, J10):
    """The moduli tuple (J2, J4, J6, J10) of the sextic f whose
    discriminant is J10, and the (ff4, A, B, C) it is computed from."""
    ff4 = _tv(f, f, 4)
    A = _tv(f, f, 6)
    B = _tv(ff4, ff4, 4)
    delta = _tv(ff4, ff4, 2)
    C = _tv(ff4, delta, 4)
    c, x, y, z = _in_field(f.field, _SEXTIC_SCALES)
    J2 = c * A
    J4 = x * A * A + y * B
    J6 = z * C
    return (J2, J4, J6, J10), (ff4, A, B, C)


def _clebsch_D(f, ff4):
    """Clebsch's D of the sextic f, from its covariant ff4 = (f, f)_4."""
    y1 = _tv(f, ff4, 4)
    y2 = _tv(ff4, y1, 2)
    y3 = _tv(ff4, y2, 2)
    return _tv(y3, y1, 2)


def clebsch_sextic(f):
    """Clebsch invariants (A, B, C, D) of a binary sextic."""
    _sextic_check(f, "clebsch_sextic")
    _, (ff4, A, B, C) = _sextic_head(f, None)
    return A, B, C, _clebsch_D(f, ff4)


def igusa_sextic(f):
    """Full invariant record of a binary sextic (see module docstring)."""
    _sextic_check(f, "igusa_sextic")
    (J2, J4, J6, J10), (ff4, A, B, C) = _sextic_head(f, discriminant(f))
    # integral invariants from the J's, inverting the displayed relations
    Afrak = 8 * J2
    Bfrak = 4 * J2 * J2 - 96 * J4
    Cfrak = 8 * J2**3 - 160 * J2 * J4 - 576 * J6
    Dfrak = 4096 * J10
    return SexticInvariants(J2, J4, J6, J10, A, B, C, _clebsch_D(f, ff4),
                            Afrak, Bfrak, Cfrak, Dfrak)


def _octavic_head(f):
    """The generators (J2, .., J7) of the octavic f, and the covariants
    (g, k, h) that J8, J9 and J10 go on from."""
    if not isinstance(f, BinaryForm) or f.degree != 8:
        raise DomainError("octavic_invariants needs a binary octavic")
    p = f.field.characteristic
    if p and p <= 7:
        raise UnsupportedCaseError("octavic invariants need characteristic 0 or > 7")
    c2, c3, c4, c5, c6, c7 = _in_field(f.field, _OCTAVIC_HEAD_SCALES)
    g = _tv(f, f, 4)
    k = _tv(f, f, 6)
    h = _tv(k, k, 2)
    m = _tv(f, k, 4)
    J2 = c2 * _tv(f, f, 8)
    J3 = c3 * _tv(f, g, 8)
    J4 = c4 * _tv(k, k, 4)
    J5 = c5 * _tv(m, k, 4)
    J6 = c6 * _tv(k, h, 4)
    J7 = c7 * _tv(m, h, 4)
    return (J2, J3, J4, J5, J6, J7), (g, k, h)


def octavic_invariants(f):
    """The scaled transvectant invariants J2..J10 of a binary octavic."""
    head, (g, k, h) = _octavic_head(f)
    c8, c9, c10 = _in_field(f.field, _OCTAVIC_TAIL_SCALES)
    J8 = c8 * _tv(_tv(g, k, 4), h, 4)
    J9 = c9 * _tv(_tv(f, h, 4), h, 4)
    J10 = c10 * _tv(_tv(g, h, 4), h, 4)
    return OctavicInvariants(*head, J8, J9, J10)


def sextic_equivalent(f, g):
    """GL2-equivalence certificate for two nonsingular binary sextics.

    Returns a scalar r with J_w(f) = r^w J_w(g) for all weights, or None.
    """
    inv = []
    for h in (f, g):  # igusa_sextic's checks, in its order, without its tail
        _sextic_check(h, "igusa_sextic")
        inv.append(_sextic_head(h, discriminant(h))[0])
    inv_f, inv_g = inv
    if not inv_f[3] or not inv_g[3]:
        raise SingularCurveError("sextic equivalence needs nonzero discriminants")
    return match_weighted_scale(inv_f, inv_g, SEXTIC_WEIGHTS, f.field)


def octavic_equivalent(f, g):
    """Same as sextic_equivalent for octavics, using the generators J2..J7."""
    if not discriminant(f) or not discriminant(g):
        raise SingularCurveError("octavic equivalence needs nonzero discriminants")
    inv_f, _ = _octavic_head(f)
    inv_g, _ = _octavic_head(g)
    return match_weighted_scale(inv_f, inv_g, OCTAVIC_WEIGHTS[:6], f.field)


SEPARABLE = "separable"
EXACTLY_3 = "exactly-3"
GE_4 = "ge-4"
EXACTLY_4 = "exactly-4"
GE_5 = "ge-5"
OTHER_REPEATED = "other-repeated"


def multiplicity_profile(f):
    """Root-multiplicity classification of a sextic or octavic via invariants."""
    if not isinstance(f, BinaryForm) or f.degree not in (6, 8):
        raise DomainError("multiplicity_profile handles degrees 6 and 8 only")
    field = f.field
    disc = discriminant(f)
    if disc:
        return SEPARABLE
    if f.degree == 6:
        (J2, J4, J6, _), _ = _sextic_head(f, disc)
        if not J2 and not J4 and not J6:
            return GE_4
        if J2 and J4 == 9 * J2**2 and 27 * J6 == J2**3:
            return EXACTLY_3
        return OTHER_REPEATED
    inv = octavic_invariants(f)
    head = (inv.J2, inv.J3, inv.J4, inv.J5, inv.J6, inv.J7, inv.J8)
    if not any(head):
        return GE_5
    if inv.J2 and inv.J3:
        r = inv.J3 / (6 * inv.J2)
        expected = (
            2 * r**2, 12 * r**3, 2**6 * r**4, 2**6 * r**5,
            2**9 * r**6, 2**9 * r**7, 2**11 * 3**2 * r**8,
        )
        if head == expected:
            return EXACTLY_4
    return OTHER_REPEATED


def dihedral_invariants(n, coeffs, r):
    """Dihedral invariants of y^n = x^s + a_(r-1) x^(s-delta) + ... + a_1 x^delta + 1.

    coeffs lists a_1 .. a_(r-1) of the normal form, r = s/delta > 2; the
    returned u_i = a_1^(r-i) a_i + a_(r-1)^(r-i) a_(r-i) are constant on
    orbits of the rotation/inversion action on normal forms.
    """
    if r <= 2:
        raise DomainError("dihedral invariants need r = s/delta > 2")
    if len(coeffs) != r - 1:
        raise DomainError(f"expected {r - 1} coefficients a_1..a_{r - 1}")
    if n < 2:
        raise DomainError("superelliptic level n must be >= 2")
    a = {i + 1: c for i, c in enumerate(coeffs)}
    u = tuple(
        a[1] ** (r - i) * a[i] + a[r - 1] ** (r - i) * a[r - i]
        for i in range(1, r)
    )
    return DihedralInvariants(r=r, u=u)
