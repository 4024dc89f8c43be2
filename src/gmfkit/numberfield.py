"""Exact coefficient arithmetic: Q and the cyclotomic fields Q(zeta_m).

Rational numbers are plain ``fractions.Fraction`` values, which already
maintain the reduced form we need (positive denominator, coprime
numerator and denominator, zero stored as 0/1).

A cyclotomic element is a coordinate vector of rationals in the power
basis 1, zeta_m, ..., zeta_m^(phi(m)-1), always reduced modulo the m-th
cyclotomic polynomial, so equality and rationality tests read straight
off the coordinates.  Elements never migrate to a smaller conductor on
their own; a value created in Q(zeta_12) stays there even if it happens
to lie in Q(zeta_4).  Every reduction mod Phi_m (products, Galois images,
powers of zeta) is one division by a monic polynomial, and every integer
polynomial product is one convolution, ``_convolve``, shared with the
series kernels in ``qseries``, whose packed path gives every signed slot a
half-slot bias.  The slots move between ints and bytes as two's complement:
all at once through ``array`` words when a slot is at most 8 bytes wide,
and by one ``int`` call per entry when it is wider, the slot width alone
picking the way.  An inverse is the product of the other Galois conjugates
over the norm; that and every other product of many factors is one
balanced tree, ``_product``.

A ``FieldTag`` names the coefficient field of a series.  Q is its degree-1
case, with modulus Phi_1 = x - 1: the tag reduces integer slots mod its
modulus and builds elements from integer coordinates, so the series kernels
in ``qseries`` run one integer code path over Q and over Q(zeta_m) alike.
``_integer_form`` writes a list of elements as those integer coordinates
over one common denominator, their lcm, through ``_over_lcm``, which takes
(numerator, denominator) pairs, so that the JSON reader puts the
coordinates it reads from text over the same lcm.

``FieldTag`` and the package's other immutable values (groups, their
invariants, eta quotients, bases, decompositions and certificates) derive
from ``_Value``: plain classes whose fields are slots, so a field read is a
slot read, equal and hashing as the tuple of their fields, read-only, and
pickled and copied through their constructors, which check their fields
again.  They import no ``dataclasses``, which would load ``inspect`` and
``ast`` and exec a generated method per class at every start-up.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import InvalidAutomorphismError, MalformedInputError

# Cap on the conductor m of Q(zeta_m), checked when a FieldTag is built.
# Kernel costs grow as powers of phi(m): the series recurrences do phi(m)^2
# dot products per coefficient and an inverse multiplies the phi(m) - 1
# other conjugates, a product phi(m) - 1 times as tall as the element.
MAX_CONDUCTOR = 100


def prime_divisors(n: int) -> list:
    """The distinct primes dividing a positive integer, in increasing
    order, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def euler_phi(m: int) -> int:
    """Euler totient of a positive integer."""
    if m < 1:
        raise ValueError("m must be positive")
    for p in prime_divisors(m):
        m -= m // p
    return m


def _poly_divmod_monic(num, den):
    """(quotient, remainder) of num by a monic polynomial, the remainder
    as exactly len(den) - 1 coefficients; exact over Z and over Q."""
    dd = len(den) - 1
    num = list(num) + [0] * (dd - len(num))
    fold = [(j, y) for j, y in enumerate(den[:dd]) if y]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, y in fold:
                num[i - dd + j] -= c * y
    return quot, num[:dd]


def _convolve(a, b, size):
    """The first ``size`` coefficients of the product of two nonempty
    integer sequences of length at most ``size``, each side's zero tail
    dropped first (one entry kept): a one-term side, such as a monomial
    series or a rational-valued element, costs a pass over the other.

    Packing both sides into one integer (Kronecker substitution) lets
    CPython's Karatsuba multiply do the whole convolution, but every slot
    is as wide as both heights together, so a short-height side pays for
    the tall one.  Dot products pay an interpreter step per pair of terms
    but only the product of the two heights.  The estimates below, in
    nanoseconds on CPython 3.11 with 30-bit digits, pick the cheaper from
    the lengths and bit heights alone.  Kronecker's per-entry term is the
    cost of ``_kronecker``'s per-entry path, for slots wider than 8 bytes.
    Its ``array`` path moves an entry of a narrower slot three to six times
    faster, but a lower term for those slots changes no choice on the
    products that ``certify``, ``decompose`` and ``eta-expand`` make, where
    dot products win only with slots of 68 bytes or more.
    """
    a, b = _trimmed(a), _trimmed(b)
    ha = max(map(abs, a)).bit_length()
    hb = max(map(abs, b)).bit_length()
    short, long_ = sorted((len(a), len(b)))
    # pairs (i, j) with i + j < size
    full = max(0, min(short, size - long_ + 1))
    pairs = full * long_ + sum(range(size - short + 1, size - full + 1))
    dot = pairs * (30 + 0.7 * (ha // 30 + 1) * (hb // 30 + 1)) + 500 * size
    width = ha + hb + short.bit_length() + 1
    kronecker = 4 * ((short + long_) * width / 60) ** 1.585 + 300 * (short + long_)
    if dot < kronecker:
        return _dot_products(a, b, size)
    return _kronecker(a, b, size, width)


def _trimmed(xs):
    n = len(xs)
    while n > 1 and not xs[n - 1]:
        n -= 1
    return xs[:n]


def _dot_products(a, b, size):
    if min(len(a), len(b)) == 1:  # a one-entry side c: c x in one pass over x
        (c,), x = (a, b) if len(a) == 1 else (b, a)
        return [c * y for y in x[:size]] + [0] * (size - len(x))
    top = len(b) - 1
    rb = b[::-1]
    out = []
    for k in range(size):
        lo, hi = max(0, k - top), min(k + 1, len(a))
        out.append(sum(map(mul, a[lo:hi], rb[top - k + lo : top - k + hi])))
    return out


def _kronecker(a, b, size, width):
    """Truncated product by Kronecker substitution, ``width`` bits being
    enough for any product coefficient and its sign.  Each slot of nbytes
    bytes, packed or unpacked, holds x + half, half = 2 ** (8 nbytes - 1),
    a nonnegative digit: every x, an entry or a product coefficient, lies in
    [-half, half), so no slot borrows from or carries into the next, and an
    integer is its slots minus their bias.

    The slots travel between ints and bytes as two's complement, which is
    x + half with the slot's top bit flipped.  The slot width alone picks
    how they travel: slots of at most 8 bytes all at once, as the low bytes
    of ``array`` words (``_slots_of_words``, ``_words_of_slots``); wider ones
    by one ``int`` call per entry (``_slots_of_ints``, ``_ints_of_slots``)."""
    nbytes = (width + 7) // 8
    if nbytes <= 8:
        to_slots, from_slots = _slots_of_words, _words_of_slots
    else:
        to_slots, from_slots = _slots_of_ints, _ints_of_slots

    def bias(slots):  # half, the top bit, in each slot
        return int.from_bytes((bytes(nbytes - 1) + b"\x80") * slots, "little")

    def pack(xs):
        top = bias(len(xs))
        return (int.from_bytes(to_slots(xs, nbytes), "little") ^ top) - top

    top = bias(size)
    low = (pack(a) * pack(b) + top) & ((1 << 8 * nbytes * size) - 1)
    return from_slots((low ^ top).to_bytes(nbytes * size, "little"), nbytes)


# byte b -> the byte that sign-extends a two's complement number whose top byte is b
_SIGN_FILL = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _slots_of_words(xs, nbytes):
    """The two's complement of each x in ``nbytes`` <= 8 little-endian
    bytes, in turn: the low bytes of x as a signed 64-bit word."""
    words = array("q", xs)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    out = bytearray(nbytes * len(xs))
    for i in range(nbytes):
        out[i::nbytes] = raw[i::8]
    return out


def _words_of_slots(raw, nbytes):
    """The integers whose two's complements ``raw`` holds in turn, in
    ``nbytes`` <= 8 little-endian bytes each, sign-extended to 64-bit words."""
    out = bytearray(8 * (len(raw) // nbytes))
    for i in range(nbytes):
        out[i::8] = raw[i::nbytes]
    fill = raw[nbytes - 1 :: nbytes].translate(_SIGN_FILL)
    for i in range(nbytes, 8):
        out[i::8] = fill
    words = array("q", out)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _slots_of_ints(xs, nbytes):
    """``_slots_of_words`` for any ``nbytes``, one entry at a time."""
    return b"".join(x.to_bytes(nbytes, "little", signed=True) for x in xs)


def _ints_of_slots(raw, nbytes):
    """``_words_of_slots`` for any ``nbytes``, one entry at a time."""
    raw = memoryview(raw)
    return [int.from_bytes(raw[k : k + nbytes], "little", signed=True) for k in range(0, len(raw), nbytes)]


def _over_lcm(ratios):
    """(numerators, d) with n / e == numerators[i] / d for the i-th pair
    (n, e > 0) of ``ratios``, d the lcm of the e.  When every pair is in
    lowest terms, the highest power of each prime of d divides some e
    whose n it does not divide, so gcd(d, *numerators) is 1."""
    d = 1
    for _, e in ratios:
        if d % e:
            d = math.lcm(d, e)
    if d == 1:
        return [n for n, _ in ratios], 1
    return [n if e == d else n * (d // e) for n, e in ratios], d


def _integer_form(elements):
    """(nums, d): the power-basis coordinates of a list of rationals or of
    elements of one Q(zeta_m), flattened in turn, as integers over their
    lcm denominator d, with gcd(d, *nums) == 1."""
    return _over_lcm([x.as_integer_ratio() for c in elements for x in getattr(c, "coords", (c,))])


def _times(a, b, m):
    """Integer coordinates of the product of two elements of Q(zeta_m)."""
    return _poly_divmod_monic(_convolve(a, b, 2 * len(a) - 1), cyclotomic_polynomial(m))[1]


def _power(base, e):
    """base ** e for e >= 1 by square-and-multiply, no squaring past the top bit."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _product(factors, times):
    """The product of a non-empty list under ``times``, as a balanced tree
    that keeps the two sides of each multiply alike in size."""
    while len(factors) > 1:
        pairs = zip(factors[::2], factors[1::2])
        factors = [times(x, y) for x, y in pairs] + factors[len(factors) // 2 * 2 :]
    return factors[0]


def _galois(coords, k, m):
    """Coordinates of the image of an element of Q(zeta_m) under zeta -> zeta^k;
    requires gcd(k, m) = 1."""
    if math.gcd(k, m) != 1:
        raise InvalidAutomorphismError(f"k = {k} is not coprime to the conductor {m}")
    image = [0] * m
    for i, c in enumerate(coords):
        image[i * k % m] = c
    return _poly_divmod_monic(image, cyclotomic_polynomial(m))[1]


def _inverse_coords(a, m):
    """(others, norm) for integer coordinates a != 0 of Q(zeta_m): others is
    the product of the other Galois conjugates of a, so a * others is the
    rational integer norm and 1 / a = others / norm."""
    factors = [_galois(a, k, m) for k in range(2, m) if math.gcd(k, m) == 1]
    others = _product(factors or [[1]], lambda x, y: _times(x, y, m))
    norm, *rest = _times(others, a, m)
    if any(rest):
        raise ArithmeticError("the norm of a cyclotomic element is not rational")
    return others, norm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m (low degree first, integer values).

    Computed by dividing x^m - 1 by the product of Phi_d over the proper
    divisors d of m.  Monic of degree phi(m).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    phis = [cyclotomic_polynomial(d) for d in range(1, m) if m % d == 0]
    den = _product(phis, lambda a, b: _convolve(a, b, len(a) + len(b) - 1))
    quot, rem = _poly_divmod_monic(num, den)
    if any(rem):
        raise ArithmeticError("x^m - 1 not divisible by product of proper Phi_d")
    return tuple(quot)


class CyclotomicElement:
    """An element of Q(zeta_m), reduced mod Phi_m in the power basis."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords):
        phi = euler_phi(conductor)
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if len(coords) > phi:
            raise ValueError(f"expected at most {phi} coordinates for conductor {conductor}")
        if len(coords) < phi:
            coords = coords + (Fraction(0),) * (phi - len(coords))
        self.conductor = conductor
        self.coords = coords

    @classmethod
    def from_rational(cls, conductor: int, value) -> "CyclotomicElement":
        return cls(conductor, (Fraction(value),))

    @classmethod
    def zeta(cls, conductor: int, power: int = 1) -> "CyclotomicElement":
        """zeta_m^power as a reduced element."""
        monomial = [0] * (power % conductor) + [1]
        return cls(conductor, _poly_divmod_monic(monomial, cyclotomic_polynomial(conductor))[1])

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            if other.conductor != self.conductor:
                raise ValueError("conductor mismatch; promote explicitly")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(self.conductor, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicElement(
            self.conductor, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.conductor, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CyclotomicElement(
            self.conductor, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, da = _over_lcm([c.as_integer_ratio() for c in self.coords])
        b, db = _over_lcm([c.as_integer_ratio() for c in other.coords])
        den = da * db
        prod = _times(a, b, self.conductor)
        return CyclotomicElement(self.conductor, [Fraction(c, den) for c in prod])

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """The product of the other Galois conjugates divided by the norm,
        the element times that product."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # on integer coordinates: for self = a / d, 1 / self = d (others) / N(a)
        a, d = _over_lcm([c.as_integer_ratio() for c in self.coords])
        others, norm = _inverse_coords(a, self.conductor)
        return CyclotomicElement(self.conductor, [Fraction(d * c, norm) for c in others])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return CyclotomicElement.from_rational(self.conductor, 1)
        return _power(self, exponent)

    def galois(self, k: int) -> "CyclotomicElement":
        """Image under zeta_m -> zeta_m^k; requires gcd(k, m) = 1."""
        return CyclotomicElement(self.conductor, _galois(self.coords, k, self.conductor))

    def conjugate(self) -> "CyclotomicElement":
        """Complex conjugation, zeta_m -> zeta_m^(-1)."""
        return self.galois(self.conductor - 1)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement):
            return self.conductor == other.conductor and self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return self.coords[0] == other and not any(self.coords[1:])
        return NotImplemented

    def __hash__(self):
        # a rational-valued element equals its rational, so it hashes as one
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.conductor, self.coords))

    def __repr__(self):
        parts = ", ".join(str(c) for c in self.coords)
        return f"CyclotomicElement({self.conductor}, [{parts}])"


def is_rational(a):
    """Whether a coefficient is a rational value; returns (flag, value)."""
    if isinstance(a, (int, Fraction)):
        return True, Fraction(a)
    if any(a.coords[1:]):
        return False, None
    return True, a.coords[0]


class _Value:
    """The base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__``, in its ``__init__``'s
    order, hands them to ``_Value.__init__`` once checked, and writes its
    own ``__eq__`` and ``__hash__`` over the tuple of them (the same class
    only, so never equal to a tuple).  Assigning or deleting an attribute
    raises AttributeError, and pickle and copy rebuild through ``__init__``.
    """

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {self.__class__.__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {self.__class__.__name__}.{name}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class FieldTag(_Value):
    """Coefficient-domain marker: Q when conductor is None, else Q(zeta_m).

    Every series carries exactly one tag; mixing fields requires an
    explicit promotion Q -> Q(zeta_m).  Q is the degree-1 field: its
    modulus is Phi_1 = x - 1, so the coordinate helpers below serve both.

    Fields: ``conductor``, an int m, or None for Q; derived from it, and
    out of equality, hash and repr, ``degree``, the int phi(m) (1 for Q),
    and ``modulus``, the tuple of Phi_m's coefficients, low degree first.
    """

    __slots__ = ("conductor", "degree", "modulus")

    def __init__(self, conductor: int | None = None):
        m = conductor
        if m is not None and (type(m) is not int or m < 1):  # nor a bool
            raise ValueError("conductor must be a positive integer")
        if m is not None and m > MAX_CONDUCTOR:
            raise MalformedInputError(f"conductor {m} exceeds the cap of {MAX_CONDUCTOR}")
        super().__init__(m, euler_phi(m or 1), cyclotomic_polynomial(m or 1))

    def __reduce__(self):
        return FieldTag, (self.conductor,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.conductor == other.conductor
        return NotImplemented

    def __hash__(self):
        return hash((self.conductor,))

    @classmethod
    def cyclotomic(cls, m: int) -> "FieldTag":
        return cls(m)

    @property
    def is_rational_field(self) -> bool:
        return self.conductor is None

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def coerce(self, value):
        """Bring a raw value into this field; rejects foreign elements."""
        if self.conductor is None:
            if isinstance(value, CyclotomicElement):
                raise ValueError("cyclotomic element in a rational-tagged context")
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, CyclotomicElement):
            if value.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: element has {value.conductor}, tag has {self.conductor}"
                )
            return value
        return CyclotomicElement.from_rational(self.conductor, value)

    # Power-basis coordinates, for the series kernels: a Fraction is its
    # own single coordinate.

    def reduce(self, slots):
        """Integer slots of a polynomial in zeta, reduced to ``degree``
        coordinates mod the modulus."""
        if len(slots) == self.degree:
            return slots
        return _poly_divmod_monic(slots, self.modulus)[1]

    def elements(self, nums, den):
        """The elements whose integer coordinates over ``den`` ``nums``
        lists in turn, ``degree`` of them per element."""
        if self.conductor is None:
            return [Fraction(x, den) for x in nums]
        deg = self.degree
        return [
            CyclotomicElement(self.conductor, [Fraction(x, den) for x in nums[i : i + deg]])
            for i in range(0, len(nums), deg)
        ]

    def __repr__(self):
        if self.conductor is None:
            return "FieldTag(Q)"
        return f"FieldTag(Q(zeta_{self.conductor}))"


RATIONAL = FieldTag(None)
