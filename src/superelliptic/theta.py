"""Half-integer theta characteristic combinatorics for hyperelliptic
curves: parity, syzygy, the Goepel group count in closed form, the
branch-point characteristic map, and the vanishing even thetanulls.

Characteristics are stored as bit vectors (bit 1 standing for the entry
1/2); all arithmetic is mod 2.  The parity and pairing conventions are
locked by the genus 2 census (10 even and 6 odd characteristics).

The vanishing even thetanulls are listed by Mumford's criterion (Tata
Lectures on Theta II, 1984, ch. IIIa), which reads parity and vanishing
from the size of T symdiff U alone, with no characteristic built; the
listing walks 2^(2g) subsets and is refused past MAX_THETANULL_GENUS.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DomainError, UnsupportedCaseError

# CPython refuses to print an int of more than 4300 decimal digits (the
# default of sys.set_int_max_str_digits; sys.get_int_max_str_digits is
# missing before 3.10.7), so a count that long is refused, and it is not
# computed where a lower bound on its bits already shows it.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()


def _too_long(bits, what):
    return UnsupportedCaseError(
        f"{what} has about {bits * 30103 // 100000 + 1} decimal digits; "
        f"counts of more than {MAX_DIGITS} digits are not printed")


@dataclass(frozen=True)
class HalfIntChar:
    top: tuple
    bottom: tuple

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise DomainError("top and bottom rows differ in length")
        if not all(b in (0, 1) for b in self.top + self.bottom):
            raise DomainError("entries must be 0 or 1 (standing for 0 or 1/2)")

    @property
    def g(self):
        return len(self.top)

    @classmethod
    def zero(cls, g):
        return cls((0,) * g, (0,) * g)

    def __add__(self, other):
        if self.g != other.g:
            raise DomainError("mixed genus")
        return HalfIntChar(
            tuple((a + b) % 2 for a, b in zip(self.top, other.top)),
            tuple((a + b) % 2 for a, b in zip(self.bottom, other.bottom)),
        )

    def halves(self):
        """Entries as exact fractions (0 or 1/2), top row then bottom."""
        from fractions import Fraction
        h = Fraction(1, 2)
        return (
            tuple(b * h for b in self.top),
            tuple(b * h for b in self.bottom),
        )


def parity(m):
    """+1 for even characteristics, -1 for odd: (-1)^(4 m' . m'')."""
    return -1 if sum(a * b for a, b in zip(m.top, m.bottom)) % 2 else 1


def pairing(m, a):
    """|m, a| = sum (m_i' a_i - m_i a_i') taken mod 2."""
    if m.g != a.g:
        raise DomainError("mixed genus")
    return sum(mb * at - mt * ab for mt, mb, at, ab in
               zip(m.top, m.bottom, a.top, a.bottom)) % 2


def syzygetic(m, a):
    return pairing(m, a) == 0


def triple_pairing(m, a, b):
    return (pairing(a, b) + pairing(b, m) + pairing(m, a)) % 2


def triple_syzygetic(m, a, b):
    return triple_pairing(m, a, b) == 0


def parity_census(g):
    """(number even, number odd) among all 2^(2g) characteristics:
    2^(g-1) (2^g + 1) even ones, a number of 2g bits."""
    if g < 0:
        raise DomainError("need g >= 0")
    if 2 * g <= _TOO_LONG_BITS:
        even = (4**g + 2**g) // 2
        if even < _TOO_LONG:
            return even, 4**g - even
    raise _too_long(2 * g, f"the parity census at g = {g}")


def gopel_count(g, r):
    """Number of Goepel groups (totally syzygetic subgroups) of order 2^r."""
    if not 0 <= r <= g:
        raise DomainError("need 0 <= r <= g")
    # num > 4^(sum of g - j) / 2, as prod (1 - 4^-k) > 1/2, and den < 2^(r(r + 1)/2)
    bits = 2 * g * r - r * (r - 1) - 1 - r * (r + 1) // 2
    if bits < _TOO_LONG_BITS:
        num = den = 1
        for j in range(r):
            num *= 4 ** (g - j) - 1
            den *= 2 ** (j + 1) - 1
        count = num // den
        if count < _TOO_LONG:
            return count
        bits = count.bit_length()
    raise _too_long(bits, f"the Goepel count at g = {g}, r = {r}")


def branch_characteristic(g, T):
    """eps_T = sum of eps(k) over k in T, for branch indices in 1..2g+1."""
    zero = HalfIntChar.zero(g)
    acc = zero
    for k in T:
        acc = acc + _eps(g, k)
    return acc


def _eps(g, k):
    if not 1 <= k <= 2 * g + 1:
        raise DomainError(f"branch index {k} out of range 1..{2 * g + 1}")
    if k % 2 == 1:
        i = (k + 1) // 2  # 1-based column of the 1/2 in the top row
        if i == g + 1:
            return HalfIntChar((0,) * g, (1,) * g)
        top = tuple(1 if j == i - 1 else 0 for j in range(g))
        bottom = tuple(1 if j < i - 1 else 0 for j in range(g))
        return HalfIntChar(top, bottom)
    i = k // 2
    top = tuple(1 if j == i - 1 else 0 for j in range(g))
    bottom = tuple(1 if j < i else 0 for j in range(g))
    return HalfIntChar(top, bottom)


def branch_index_set(g):
    return tuple(range(1, 2 * g + 2))


def odd_branch_indices(g):
    """The set U of odd indices whose symmetric difference drives vanishing."""
    return tuple(range(1, 2 * g + 2, 2))


# Largest genus whose vanishing even thetanulls are listed.  The walk
# visits 2^(2g) subsets and the list grows about 4.5x per genus: at g = 10,
# 172084 sets in 0.76 s with a peak RSS of 41 MB (19 MB after import), at
# g = 11 746098 sets in 3.5 s and 124 MB (CPython 3.11 on one core of an
# Intel Xeon).
MAX_THETANULL_GENUS = 10


def vanishing_even_thetanulls(g):
    """Even-cardinality subsets T (one per class) with even characteristic
    whose theta constant vanishes, in the order of `combinations` by size.
    With k = #(T symdiff U), eta_T is even iff k = g + 1 (mod 4), and an
    even thetanull vanishes iff k != g + 1 (Mumford, Tata Lectures on
    Theta II, ch. IIIa).  Odd characteristics vanish identically and are
    not counted.  g > MAX_THETANULL_GENUS raises UnsupportedCaseError
    before any work."""
    if g < 1:
        raise DomainError("need g >= 1")
    if g > MAX_THETANULL_GENUS:
        raise UnsupportedCaseError(
            f"listing the vanishing even thetanulls at g = {g} walks 2^{2 * g} "
            f"subsets of the branch points; supported up to g = {MAX_THETANULL_GENUS}")
    S = branch_index_set(g)
    U = frozenset(odd_branch_indices(g))
    h = g + 1  # = #U
    out = []
    for size in range(0, 2 * g + 2, 2):
        for T in combinations(S, size):
            k = size + h - 2 * len(U.intersection(T))  # #(T symdiff U)
            if k % 4 == h % 4 and k != h:
                out.append(T)
    return out


def thetanull_census(g):
    """(even, odd, vanishing even) thetanulls at genus g >= 1, in closed
    form: the parity census and (#even) - C(2g + 1, g)."""
    if g < 1:
        raise DomainError("need g >= 1")
    even, odd = parity_census(g)
    return even, odd, even - comb(2 * g + 1, g)


def vanishing_count_formula(g):
    """The number of vanishing even thetanulls, (#even) - C(2g + 1, g)."""
    return thetanull_census(g)[2]
