"""The superelliptic curve y^n = f(x) as a value type.

Shared by the atlas, weighted-moduli and minimal-model modules.  The
defining polynomial is stored dehomogenized; conversion to a binary form
of even declared degree (6 or 8) pads odd-degree models with their root
at infinity, which is the classical convention for genus 2 and 3.
"""

from dataclasses import dataclass
from math import gcd

from .algebra import BinaryForm, Poly, QQ
from .errors import DomainError


def genus_formula(n, d):
    """Genus of y^n = f(x) for separable f of degree d (Riemann-Hurwitz)."""
    return (n * d - n - d - gcd(n, d) + 2) // 2


@dataclass(frozen=True)
class SuperellipticCurve:
    n: int
    f: Poly

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("superelliptic level n must be >= 2")
        if self.f.degree < 1:
            raise DomainError("defining polynomial must be nonconstant")

    @property
    def field(self):
        return self.f.field

    @property
    def degree(self):
        return self.f.degree

    def genus(self):
        return genus_formula(self.n, self.form_degree())

    def form_degree(self):
        """Even degree of the associated binary form (6 or 8 for n = 2)."""
        d = self.f.degree
        if self.n == 2:
            if d in (5, 6):
                return 6
            if d in (7, 8):
                return 8
        return d

    def binary_form(self):
        return BinaryForm.from_poly(self.f, self.form_degree())

    def is_integral(self):
        if self.field != QQ:
            return True
        return all(c.denominator == 1 for c in self.f.coeffs)
