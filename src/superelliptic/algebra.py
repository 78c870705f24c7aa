"""Exact arithmetic substrate: prime fields, rationals, dense univariate
polynomials, homogeneous binary forms, and the covariant operations
(transvectant, linear substitution, discriminant) everything else consumes.

Scalars at the API boundary are ``fractions.Fraction`` (field ``QQ``) or
``GFElement`` (field ``GF(p)``, p an odd prime).  A ``Poly`` holds raw
residues instead (plain ints in [0, p) over GF(p), Fractions over QQ) and
runs on its field's small kernel: reduce and trim, invert, convert to and
from public scalars.  Its arithmetic is a set of functions on those raw
vectors (``raw_add`` ... ``raw_xgcd``), one loop per operation, which
``Poly`` wraps and Cantor's addition calls directly.  Over QQ a product
runs on the cleared integer vectors, and squarefreeness is first decided
modulo one fixed prime, else by the sub-resultant PRS.  A ``BinaryForm``
holds an integer vector with one denominator (lowest terms over QQ,
residues with denominator 1 over GF(p)) and builds its public ``coeffs``
on first read, so the form kernels (transvectant, linear substitution,
discriminant) pass integer vectors to each other and public scalars
appear only at the edges.  A transvectant is one pass of a cached
bilinear weight table; the discriminant and the resultant share the
sub-resultant PRS, the same routine for both fields, with no search in
the discriminant.  Values are immutable and every operation is pure, so
values can be shared freely.

One root kernel, with no floats: integer k-th roots by Newton's method on
ints, rational ones from those, GF(p) ones by Adleman-Manders-Miller in
polylog time, and weighted scales as the roots at the least weight.
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate, count, repeat, zip_longest
from math import comb, factorial, gcd, isqrt, lcm, perm

from .errors import CharacteristicError, DomainError, UnsupportedCaseError

# ---------------------------------------------------------------------------
# integer helpers


# The first 13 primes, and (psi_k, k): every composite below psi_k fails
# Miller-Rabin at one of the first k primes, psi_k being the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
    (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
    (3825123056546413051, 9), (318665857834031151167461, 12),
)


def is_prime(n):
    """Miller-Rabin at the first k primes, k as few as n's size needs:
    proven below psi_13 = 3317044064679887385961981; above it, True means
    a strong probable prime to every prime base up to 41."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next((k for psi, k in _MR_PSI if n < psi), 13)
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Rho steps per factorize call, weighted by size: a step on a b-bit n
# costs 1 + b^2 / 2^17 units, one unit being 2.1-2.6 us on an Intel Xeon
# under CPython 3.11 (3300 bits: 84 units, 174 us), so rho stops after
# about 5 s.  A product of two 12-digit primes splits in 1.3 s; one of two
# 13-digit primes is refused after 4.2 s.
RHO_BUDGET = 2_000_000


def _pollard_rho(n, budget):
    """(a proper factor of the odd composite n, budget left)."""
    cost = 1 + (n.bit_length() ** 2 >> 17)
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            budget -= cost
            if budget < 0:
                raise UnsupportedCaseError(
                    f"factorize gave up on a cofactor of about "
                    f"{n.bit_length() * 30103 // 100000 + 1} decimal digits")
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d, budget


def factorize(n):
    """Prime factorization of n >= 1 as a dict {p: exponent}: trial division
    by the primes up to 13, then Pollard rho within RHO_BUDGET."""
    if n < 1:
        raise DomainError("factorize expects a positive integer")
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    budget = RHO_BUDGET
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d, budget = _pollard_rho(m, budget)
        stack.append(d)
        stack.append(m // d)
    return out


def valuation(n, p):
    """Largest e with p^e | n; n must be nonzero."""
    if n == 0:
        raise DomainError("valuation of 0 is infinite")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def integer_nth_root(n, k):
    """(r, exact) with r = floor(n^(1/k)) for n >= 0: Newton's method on
    ints from the power of two above the root, math.isqrt for k = 2."""
    if n < 0:
        raise DomainError("negative radicand")
    if k == 2:
        r = isqrt(n)
        return r, r * r == n
    if n < 2:
        return n, True
    r = 1 << -(-n.bit_length() // k)
    while True:
        # from above the root, the steps fall until they reach floor(n^(1/k))
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r, r**k == n
        r = s


def fraction_nth_roots(q, k):
    """All rational k-th roots of a Fraction q, as a list."""
    q = Fraction(q)
    rn, okn = integer_nth_root(abs(q.numerator), k)
    rd, okd = integer_nth_root(q.denominator, k)
    if not (okn and okd) or (q < 0 and k % 2 == 0):
        return []
    r = Fraction(rn if q >= 0 else -rn, rd)
    return [r, -r] if r and k % 2 == 0 else [r]


# ---------------------------------------------------------------------------
# fields


def _residue(q, p):
    """The residue mod p of an int or a Fraction q."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return num % p
    if den % p == 0:
        raise CharacteristicError(f"denominator {den} not invertible mod {p}")
    return num * pow(den, -1, p) % p


class GFElement:
    """Element of GF(p).  Residues are kept in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise DomainError("mixed prime fields")
            return other
        if isinstance(other, (int, Fraction)):
            return GFElement(_residue(other, self.p), self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GFElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GFElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GFElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else GFElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o / self

    def __pow__(self, e):
        if e < 0 and not self.value:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return GFElement(pow(self.value, e, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return other.denominator % self.p != 0 and self.value == _residue(other, self.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"GF({self.p})({self.value})"


def _trimmed(cs):
    """The list cs without its trailing zeros, as a tuple."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class RationalField:
    """The rationals, with Fraction as the element type."""

    characteristic = 0

    def of(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, str)):
            return Fraction(v)
        raise DomainError(f"cannot coerce {v!r} into QQ")

    # Poly kernel: the raw values are the Fractions themselves
    _zero, _one = Fraction(0), Fraction(1)
    _raw = of
    _trim = staticmethod(_trimmed)
    _box = _red = staticmethod(lambda c: c)
    _inv = staticmethod(lambda c: 1 / c)

    @staticmethod
    def _ints(cs):
        """(ints, den) with cs[i] = ints[i] / den."""
        # unpack a list, not a generator: CPython sizes a tuple built from
        # a generator by resizing, which piles blocks up on a free list
        den = lcm(*[c.denominator for c in cs])
        return [c.numerator * (den // c.denominator) for c in cs], den

    @staticmethod
    def _scalars(ints, den):
        return [Fraction(c, den) for c in ints]

    @staticmethod
    def _canon(ints, num, den):
        """ints * num / den as (ints, den) in lowest terms, for den > 0."""
        if num != 1:
            ints = [c * num for c in ints]
        g = gcd(den, *ints)
        return ([c // g for c in ints], den // g) if g != 1 else (ints, den)

    @staticmethod
    def _exact(cs, d):
        return [c // d for c in cs]

    def from_fraction(self, q):
        return Fraction(q)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for an odd prime p."""

    def __init__(self, p):
        if not is_prime(p) or p == 2:
            raise DomainError(f"GF({p}): p must be an odd prime")
        self.p = self.characteristic = p
        self._red = p.__rmod__  # c -> c % p, without a Python frame

    def of(self, v):
        if isinstance(v, GFElement):
            if v.p != self.p:
                raise DomainError("mixed prime fields")
            return v
        if isinstance(v, str):
            v = Fraction(v)
        if isinstance(v, (int, Fraction)):
            return self.from_fraction(v)
        raise DomainError(f"cannot coerce {v!r} into GF({self.p})")

    def from_fraction(self, q):
        """The residue of the rational q, a Fraction or an int."""
        return GFElement(_residue(q, self.p), self.p)

    @property
    def zero(self):
        return GFElement(0, self.p)

    @property
    def one(self):
        return GFElement(1, self.p)

    def elements(self):
        return (GFElement(v, self.p) for v in range(self.p))

    # Poly kernel: the raw values are int residues in [0, p)
    _zero, _one = 0, 1

    def _raw(self, v):
        return v % self.p if type(v) is int else self.of(v).value

    def _box(self, c):
        return GFElement(c, self.p)

    def _inv(self, c):
        return pow(c, -1, self.p)

    def _trim(self, cs):
        return _trimmed(list(map(self._red, cs)))

    def _ints(self, cs):
        return list(map(self._raw, cs)), 1

    def _scalars(self, ints, den):
        """The GFElements ints[i] / den."""
        return [GFElement(c, self.p) for c in self._canon(ints, 1, den)[0]]

    def _canon(self, ints, num, den):
        """The residues of ints * num / den, with den 1."""
        s = num if den == 1 else _residue(Fraction(num, den), self.p)
        return [c * s % self.p for c in ints], 1

    def _exact(self, cs, d):
        inv = pow(d, -1, self.p)
        return [c * inv % self.p for c in cs]

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

# The prime of Poly.is_squarefree's certificate over QQ
_CERTIFICATE = PrimeField(2**31 - 1)


def GF(p):
    return PrimeField(p)


# ---------------------------------------------------------------------------
# dense univariate polynomials


def _convolve(a, b):
    """Schoolbook product of two sequences of ints, left unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


# The polynomial kernel on raw vectors: trimmed ascending tuples of a
# field's raw values (``Poly.raw``), with reduced and trimmed tuples out.
# ``Poly`` wraps these, and Cantor's addition in ``jacobian`` runs on them
# directly, so each operation has one loop and hot paths box nothing.


def raw_add(field, a, b):
    return field._trim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def raw_sub(field, a, b):
    return field._trim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def raw_mul(field, a, b):
    if not (a and b):
        return ()
    if field.characteristic:
        return field._trim(_convolve(a, b))
    # over QQ: one product of the cleared integer vectors, then one Fraction
    # per coefficient; a product of nonzero vectors is already trimmed
    (a, da), (b, db) = field._ints(a), field._ints(b)
    return tuple(field._scalars(_convolve(a, b), da * db))


def raw_divmod(field, a, b):
    """(q, r) with a = q b + r and deg r < deg b, for b nonzero."""
    d = len(b) - 1
    if len(a) <= d:
        return (), a
    r = list(a)
    red, low = field._red, b[:d]
    inv = field._inv(b[-1]) if b[-1] != 1 else 1  # b is mostly monic
    q = []
    for k in range(len(r) - 1, d - 1, -1):
        c = red(r[k] * inv)
        q.append(c)
        if c:  # r[k] - c * b[d] vanishes; only r[:d] is kept
            for i, y in enumerate(low, k - d):
                r[i] -= c * y
    q.reverse()
    return tuple(q), field._trim(r[:d])


def raw_exact_div(field, a, b):
    q, r = raw_divmod(field, a, b)
    if r:
        raise DomainError("division is not exact")
    return q


def raw_gcd(field, a, b):
    """The monic gcd of a and b (zero if both are): Euclid's algorithm,
    carrying no cofactor."""
    while b:
        a, b = b, raw_divmod(field, a, b)[1]
    return a if not a or a[-1] == 1 else raw_mul(field, a, (field._inv(a[-1]),))


def raw_derivative(field, a):
    return field._trim([i * c for i, c in enumerate(a)][1:])


def _squarefree(field, a):
    return len(raw_gcd(field, a, raw_derivative(field, a))) <= 1


def raw_xgcd(field, a, b):
    """(g, s) with s a = g mod b, g monic (or zero): the extended Euclidean
    algorithm, carrying the cofactor of a only."""
    s0, s1 = (field._one,), ()
    while b:
        q, r = raw_divmod(field, a, b)
        a, b = b, r
        s0, s1 = s1, raw_sub(field, s0, raw_mul(field, q, s1))
    if not a:
        return a, s0
    inv = (field._inv(a[-1]),)
    return raw_mul(field, a, inv), raw_mul(field, s0, inv)


def raw_bezout(field, a, b):
    """(g, s, t) with s a + t b = g, g monic (or zero)."""
    g, s = raw_xgcd(field, a, b)
    t = raw_exact_div(field, raw_sub(field, g, raw_mul(field, s, a)), b) if b else ()
    return g, s, t


def _poly(field, raw):
    """The Poly with the trimmed raw tuple ``raw``, taken as is."""
    out = object.__new__(Poly)
    out.field, out.raw = field, raw
    return out


class Poly:
    """Dense univariate polynomial; coefficients ascending by degree, kept
    as the field's raw values in ``raw`` and boxed by ``coeffs``."""

    __slots__ = ("field", "raw")

    def __init__(self, field, coeffs):
        self.field = field
        self.raw = field._trim([field._raw(c) for c in coeffs])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def coeffs(self):
        return tuple([self.field._box(c) for c in self.raw])  # a list: see _ints

    @property
    def degree(self):
        """Degree, with deg 0 = -1 by convention."""
        return len(self.raw) - 1

    @property
    def is_zero(self):
        return not self.raw

    @property
    def lc(self):
        if not self.raw:
            raise DomainError("leading coefficient of zero polynomial")
        return self.field._box(self.raw[-1])

    def __getitem__(self, i):
        raw = self.raw
        return self.field._box(raw[i] if 0 <= i < len(raw) else self.field._zero)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field, self.raw))

    def __add__(self, other):
        return _poly(self.field, raw_add(self.field, self.raw, self._coerce(other).raw))

    def __sub__(self, other):
        return _poly(self.field, raw_sub(self.field, self.raw, self._coerce(other).raw))

    def __neg__(self):
        return _poly(self.field, raw_sub(self.field, (), self.raw))

    def __mul__(self, other):
        field = self.field
        if isinstance(other, Poly):
            return _poly(field, raw_mul(field, self.raw, self._coerce(other).raw))
        return _poly(field, raw_mul(field, self.raw, (field._raw(other),)))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative power of a polynomial")
        out = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field and other.field != self.field:
                raise DomainError("mixed coefficient fields")
            return other
        return Poly(self.field, [other])

    def divmod(self, other):
        b = self._coerce(other).raw
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = raw_divmod(self.field, self.raw, b)
        return _poly(self.field, q), _poly(self.field, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if r.raw:
            raise DomainError("division is not exact")
        return q

    def monic(self):
        if not self.raw:
            return self
        return _poly(self.field, raw_mul(self.field, self.raw, (self.field._inv(self.raw[-1]),)))

    def gcd(self, other):
        return _poly(self.field, raw_gcd(self.field, self.raw, self._coerce(other).raw))

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g, g monic (or zero)."""
        field = self.field
        return tuple(_poly(field, c) for c in raw_bezout(field, self.raw, self._coerce(other).raw))

    def derivative(self):
        return _poly(self.field, raw_derivative(self.field, self.raw))

    def __call__(self, x):
        field = self.field
        x, red, acc = field._raw(x), field._red, field._zero
        for c in reversed(self.raw):
            acc = red(acc * x + c)
        return field._box(acc)

    def is_squarefree(self):
        """Whether no square of a nonconstant polynomial divides self.

        Over QQ a certificate comes first.  Let f be self with its
        denominators cleared and p = _CERTIFICATE.p.  If p does not divide
        lc(f) and gcd(f, f') mod p is a constant, f is squarefree: were
        f = g^2 h with deg g >= 1, Gauss's lemma would give f = c g0^2 h0
        with g0, h0 primitive in Z[x] and c an integer.  As p does not
        divide lc(f) = c lc(g0)^2 lc(h0), g0 mod p keeps its degree, and it
        divides both f mod p and f' mod p.  Only when p divides lc(f), or
        f mod p has a repeated factor, does the sub-resultant PRS run on f
        and f' in Z[x], which decides exactly: a nonconstant f is squarefree
        iff Res(f, f') != 0.  Constants, and zero, are squarefree.
        """
        field, a = self.field, self.raw
        if field.characteristic:
            return _squarefree(field, a)
        if len(a) <= 1:  # _subres would see an empty f'
            return True
        f = field._ints(a)[0]
        if f[-1] % _CERTIFICATE.p and _squarefree(_CERTIFICATE, _CERTIFICATE._trim(f)):
            return True
        return _subres(field, f, [i * c for i, c in enumerate(f)][1:]) != 0

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = [
            f"{c}*x^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c
        ]
        return "Poly(" + " + ".join(terms) + ")"


def lagrange_interpolate(field, xs, ys):
    """The unique polynomial of degree < len(xs) through the given points."""
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation needs distinct x-coordinates")
    out = Poly.zero(field)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = Poly.one(field)
        den = field.one
        for j, xj in enumerate(xs):
            if i == j:
                continue
            num = num * Poly(field, [-xj, 1])
            den = den * (xi - xj)
        out = out + num * (yi / den)
    return out


def resultant(f, g):
    """Resultant of two polynomials over their common field."""
    if f.field != g.field:
        raise DomainError("mixed coefficient fields")
    field = f.field
    if f.is_zero or g.is_zero:
        return field.zero
    (a, da), (b, db) = field._ints(f.raw), field._ints(g.raw)
    return field._scalars([_subres(field, a, b)], da ** g.degree * db ** f.degree)[0]


def _subres(field, a, b):
    """Resultant of two trimmed ascending vectors of ints (QQ) or residues
    (GF(p)), unreduced: the sub-resultant PRS (Cohen, GTM 138, Alg. 3.3.7),
    every division in the loop exact and taken from the field's kernel."""
    if not a or not b:
        return 0
    exact = field._exact

    def lift(h, x, e):
        """h^(1-e) x^e, an exact quotient for e >= 1."""
        return h if e == 0 else exact([x**e], h ** (e - 1))[0]

    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    lead, h = 1, 1
    while True:
        n = len(b) - 1
        delta = len(a) - len(b)
        if (len(a) - 1) * n % 2:
            s = -s
        r, lb = list(a), b[-1]
        for k in range(len(r) - 1, n - 1, -1):  # lb^(delta+1) a = q b + r
            c = r.pop()
            r = [x * lb for x in r]
            for i, y in enumerate(b[:n], k - n):
                r[i] -= c * y
        a, b = b, field._trim(exact(r, lead * h**delta))
        lead = a[-1]
        h = lift(h, lead, delta)
        if len(b) <= 1:
            break
    return s * lift(h, b[-1] if b else 0, len(a) - 1)


# ---------------------------------------------------------------------------
# binary forms


class Mat2:
    """2x2 matrix with nonzero determinant, acting on binary forms."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        self.field = field
        self.a, self.b = field.of(a), field.of(b)
        self.c, self.d = field.of(c), field.of(d)
        if not self.det:
            raise DomainError("singular matrix")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, other):
        if not isinstance(other, Mat2) or other.field != self.field:
            raise DomainError("can only compose Mat2 over the same field")
        return Mat2(
            self.field,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self):
        return f"Mat2[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


class BinaryForm:
    """Homogeneous form of declared degree d; coeffs[i] goes with X^(d-i) Y^i,
    held as coeffs[i] = ints[i] / den: in lowest terms over QQ, residues with
    den = 1 over GF(p).  The public coeffs are built on first read."""

    __slots__ = ("field", "degree", "ints", "den", "_coeffs")

    def __init__(self, field, degree, coeffs):
        coeffs = [field.of(c) for c in coeffs]
        if len(coeffs) != degree + 1:
            raise DomainError(f"degree {degree} form needs {degree + 1} coefficients")
        if not any(coeffs):
            raise DomainError("the zero form is not a valid BinaryForm")
        self.field = field
        self.degree = degree
        ints, self.den = field._ints(coeffs)
        self.ints = tuple(ints)
        self._coeffs = tuple(coeffs)

    @classmethod
    def _of_ints(cls, field, degree, ints, den):
        """The form ints / den, for a nonzero (ints, den) from field._canon."""
        out = object.__new__(cls)
        out.field, out.degree, out.ints, out.den = field, degree, tuple(ints), den
        out._coeffs = None
        return out

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = tuple(self.field._scalars(self.ints, self.den))
        return self._coeffs

    @classmethod
    def from_poly(cls, poly, degree=None):
        """Homogenize f(x) to F(X, Y) = Y^d f(X/Y) of declared degree d."""
        d = poly.degree if degree is None else degree
        if poly.degree > d:
            raise DomainError("declared degree below polynomial degree")
        return cls(poly.field, d, [poly[d - i] for i in range(d + 1)])

    def to_poly(self):
        """Dehomogenize: f(x) = F(x, 1)."""
        return Poly(self.field, list(reversed(self.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.field, self.degree, self.ints, self.den))

    def __add__(self, other):
        if self.degree != other.degree:
            raise DomainError("can only add forms of equal degree")
        return BinaryForm(
            self.field,
            self.degree,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def scale(self, c):
        return BinaryForm(self.field, self.degree, [self.field.of(c) * a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, BinaryForm):
            return self.scale(other)
        ints, den = self.field._canon(_convolve(self.ints, other.ints), 1, self.den * other.den)
        return BinaryForm._of_ints(self.field, self.degree + other.degree, ints, den)

    def diff_xy(self, i, j):
        """Mixed partial derivative d^(i+j) f / dX^i dY^j, exact."""
        d, a = self.degree, self.ints
        if i + j > d:
            return None
        ints, den = self.field._canon(
            [a[k + j] * perm(d - k - j, i) * perm(k + j, j) for k in range(d - i - j + 1)],
            1, self.den)
        return BinaryForm._of_ints(self.field, d - i - j, ints, den) if any(ints) else None

    def substitute(self, M):
        """f(aX + bY, cX + dY) for M = [[a, b], [c, d]]."""
        if not isinstance(M, Mat2) or M.field != self.field:
            raise DomainError("substitute needs a Mat2 over the same field")
        field = self.field
        d = self.degree
        (a, b, c, e), mden = field._ints((M.a, M.b, M.c, M.d))
        # powers of aX + bY and cX + dY, coefficient lists by Y-exponent
        pow1, pow2 = [[1]], [[1]]
        for _ in range(d):
            pow1.append(_convolve(pow1[-1], (a, b)))
            pow2.append(_convolve(pow2[-1], (c, e)))
        acc = [0] * (d + 1)
        for i, x in enumerate(self.ints):
            if x:
                for k, t in enumerate(_convolve(pow1[d - i], pow2[i])):
                    acc[k] += x * t
        ints, den = field._canon(acc, 1, self.den * mden**d)
        return BinaryForm._of_ints(field, d, ints, den)

    def __repr__(self):
        d = self.degree
        return "BinaryForm(" + " + ".join(
            f"{c}*X^{d - i}*Y^{i}" for i, c in enumerate(self.coeffs) if c) + ")"


@cache
def _weights(n, m, r):
    """(f, g)^r for degrees n, m as one bilinear form: rows[i] lists the
    (j, i + j - r, T[i][j]) with T[i][j] nonzero, where T[i][j] is the sum
    over k of (-1)^k C(r, k) (n-i)_(r-k) i_k * (m-j)_k j_(r-k) (falling
    factorials); then the prefactor (m-r)!(n-r)!/(n! m!) as num, den."""
    fs = [[(-1) ** k * comb(r, k) * perm(n - i, r - k) * perm(i, k) for k in range(r + 1)]
          for i in range(n + 1)]
    gs = [[perm(m - j, k) * perm(j, r - k) for k in range(r + 1)] for j in range(m + 1)]
    rows = [[(j, i + j - r, w) for j, g in enumerate(gs)
             if (w := sum(x * y for x, y in zip(f, g)))] for i, f in enumerate(fs)]
    pref = Fraction(factorial(m - r) * factorial(n - r), factorial(n) * factorial(m))
    return rows, pref.numerator, pref.denominator


def transvectant(f, g, r):
    """r-th transvectant (f, g)^r of two binary forms.

    The sum over k of (-1)^k C(r, k) d^r f/dX^(r-k)dY^k * d^r g/dX^k dY^(r-k)
    is the bilinear form of `_weights` on the integer vectors of f and g,
    scaled once by the factorial prefactor over the two denominators; over
    GF(p) that raises CharacteristicError when p divides the prefactor's
    denominator.  Degree-0 results, and results that vanish identically,
    come back as a scalar.
    """
    if not isinstance(f, BinaryForm) or not isinstance(g, BinaryForm):
        raise DomainError("transvectant expects binary forms")
    if f.field != g.field:
        raise DomainError("mixed coefficient fields")
    n, m = f.degree, g.degree
    if r < 0 or r > min(n, m):
        raise DomainError(f"transvection order {r} exceeds min degree")
    field, b = f.field, g.ints
    rows, num, den = _weights(n, m, r)
    out = [0] * (n + m - 2 * r + 1)
    for x, row in zip(f.ints, rows):
        if x:
            for j, k, w in row:
                out[k] += w * x * b[j]
    ints, den = field._canon(out, num, den * f.den * g.den)
    if len(ints) == 1:
        return field._scalars(ints, den)[0]
    if not any(ints):
        return field.zero
    return BinaryForm._of_ints(field, n + m - 2 * r, ints, den)


def discriminant(form):
    """Projective discriminant, normalized so disc(X^2 - Y^2) = 4.

    Equals lc^(2d-2) * prod_(i<j) (root_i - root_j)^2 and scales by
    (det M)^(d(d-1)) under substitution.  For F(1, 0) != 0 it is
    (-1)^(d(d-1)/2) Res(f, f') / lc with f = F(x, 1) and the resultant taken
    at the formal degree d - 1 of f' (lower in characteristic p | d); a
    root at (1:0), F = Y G, is split off by disc(Y G) = G(1, 0)^2 disc(G).
    """
    if form.degree < 2:
        raise DomainError("discriminant needs degree >= 2")
    field, d, a = form.field, form.degree, form.ints
    num = 1
    if not a[0]:  # F = Y G
        num, a = a[1] ** 2, a[1:]
        if not num or len(a) == 2:  # Y^2 | F, or G is linear with disc 1
            return field._scalars([num], form.den ** (2 * d - 2))[0]
    n, a = len(a) - 1, a[::-1]
    b = field._trim([i * c for i, c in enumerate(a)][1:])
    num *= (-1) ** (n * (n - 1) // 2)
    # Res_(n, n-1)(a, b) = a[-1]^(n-1-deg b) Res(a, b), divided by lc; the
    # disc has degree 2d - 2 in the coefficients, so den^(2d-2) clears them
    return field._scalars([num * _subres(field, a, b) * a[-1] ** (n - len(b))],
                          form.den ** (2 * d - 2) * a[-1])[0]


# A k-th root set in GF(p) has d = gcd(k, p - 1) elements, and listing them
# is the cost: 2^20 roots take 2.5 s and 140 MB (Intel Xeon, CPython 3.11).
# No p <= 2^20 comes near it, nor d <= 10 from the invariant records'
# weights; only library weights sharing a large factor with p - 1 do.
MAX_FIELD_ROOTS = 1 << 20


def _prime_root(a, l, c, p):
    """One l-th root of an l-th power a in GF(p)*, l a prime dividing p - 1
    and c not an l-th power: Adleman-Manders-Miller, Tonelli-Shanks for
    l = 2 (Cohen, GTM 138, 1.5-1.6).  With p - 1 = l^s t and l not dividing
    t, x = a^(l^-1 mod t) has x^l / a = z^j in the l-Sylow group <z = c^t>,
    with l | j found one base-l digit at a time; x z^(-j/l) is the root."""
    s, t = 0, p - 1
    while t % l == 0:
        s, t = s + 1, t // l
    z = pow(c, t, p)
    zeta = pow(z, l ** (s - 1), p)  # of order l
    x = pow(a, pow(l, -1, t), p)
    b = pow(x, l, p) * pow(a, -1, p) % p
    j = 0
    for i in range(1, s):
        h = pow(b * pow(z, -j, p) % p, l ** (s - 1 - i), p)
        e, digit = 1, 0
        while e != h:
            e, digit = e * zeta % p, digit + 1
        j += digit * l**i
    return x * pow(z, -(j // l), p) % p


def kth_roots_in_field(value, k, field):
    """All k-th roots of a scalar in QQ or GF(p), those in GF(p) in
    increasing order.  With d = gcd(k, p - 1), v != 0 is a k-th power iff
    v^((p-1)/d) = 1, and then x^k = v iff x^d = v^((k/d)^-1 mod (p-1)/d);
    that d-th root is taken one prime l | d at a time, and times the d-th
    roots of unity it gives all d roots."""
    if field.characteristic == 0:
        return fraction_nth_roots(value, k)
    p = field.p
    v = field._raw(value)
    if not v:
        return [field.zero]
    d = gcd(k, p - 1)
    if pow(v, (p - 1) // d, p) != 1:
        return []
    if d > MAX_FIELD_ROOTS:
        raise UnsupportedCaseError(
            f"{d} = gcd({k}, p - 1) roots in GF({p}); "
            f"more than {MAX_FIELD_ROOTS} roots are not listed")
    x = pow(v, pow(k // d, -1, (p - 1) // d), p)
    unity = 1
    for l, e in factorize(d).items():
        c = 2  # the least non-l-th power
        while pow(c, (p - 1) // l, p) == 1:
            c += 1
        for _ in range(e):
            x = _prime_root(x, l, c, p)
        unity = unity * pow(c, (p - 1) // l**e, p) % p
    roots = accumulate(repeat(unity, d - 1), lambda r, u: r * u % p, initial=x)
    return [GFElement(r, p) for r in sorted(roots)]


def match_weighted_scale(values_lhs, values_rhs, weights, field):
    """The first scalar r with values_lhs[i] = r^weights[i] * values_rhs[i]
    for all i, or None: r runs over the roots of the ratio at the least
    weight where both sides are nonzero, in kth_roots_in_field's order."""
    triples = list(zip(values_lhs, values_rhs, weights))
    support = [(w, vf / vg) for vf, vg, w in triples if vf and vg]
    if not support:
        return None
    w, ratio = min(support, key=lambda s: s[0])
    for r in kth_roots_in_field(ratio, w, field):
        if all(vf == r**q * vg for vf, vg, q in triples):
            return r
    return None
