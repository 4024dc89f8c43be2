"""Exact coefficient arithmetic: Q and the cyclotomic fields Q(zeta_m).

Rational numbers are plain ``fractions.Fraction`` values, which already
maintain the reduced form we need (positive denominator, coprime
numerator and denominator, zero stored as 0/1).

A cyclotomic element is a coordinate vector of rationals in the power
basis 1, zeta_m, ..., zeta_m^(phi(m)-1), always reduced modulo the m-th
cyclotomic polynomial, so equality and rationality tests read straight
off the coordinates.  Elements never migrate to a smaller conductor on
their own; a value created in Q(zeta_12) stays there even if it happens
to lie in Q(zeta_4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidAutomorphismError

Rational = Fraction


def euler_phi(m: int) -> int:
    """Euler totient of a positive integer."""
    if m < 1:
        raise ValueError("m must be positive")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_divmod_monic(num, den):
    """Divide by a monic polynomial; exact over the integers."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if not c:
            continue
        quot[i - dd] = c
        for j, y in enumerate(den):
            num[i - dd + j] -= c * y
    while len(num) > 1 and not num[-1]:
        num.pop()
    return quot, num


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
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod_monic(num, den)
    if any(rem):
        raise ArithmeticError("x^m - 1 not divisible by product of proper Phi_d")
    return tuple(quot)


@lru_cache(maxsize=None)
def _zeta_power_table(m: int) -> tuple:
    """Coordinates of zeta_m^e reduced mod Phi_m, for 0 <= e < max(m, 2*phi-1).

    The range covers both products of reduced elements (degree up to
    2*phi-2) and Galois exponent images (up to m-1).
    """
    phi = euler_phi(m)
    top = cyclotomic_polynomial(m)
    fold = tuple(-c for c in top[:phi])  # x^phi == fold, since Phi_m is monic
    size = max(m, 2 * phi - 1)
    table = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(size):
        table.append(tuple(cur))
        hi = cur[phi - 1]
        nxt = [0] + cur[: phi - 1]
        if hi:
            nxt = [nxt[i] + hi * fold[i] for i in range(phi)]
        cur = nxt
    return tuple(table)


def _poly_degree(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_invert_mod(a, mod):
    """Inverse of a modulo an irreducible monic polynomial, over Q."""
    r0 = [Fraction(c) for c in mod]
    r1 = [Fraction(c) for c in a]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _poly_degree(r1) > 0:
        d0, d1 = _poly_degree(r0), _poly_degree(r1)
        q = [Fraction(0)] * (d0 - d1 + 1)
        rem = list(r0)
        lead = r1[d1]
        for i in range(d0, d1 - 1, -1):
            c = rem[i] / lead
            if not c:
                continue
            q[i - d1] = c
            for j in range(d1 + 1):
                rem[i - d1 + j] -= c * r1[j]
        r0, r1 = r1, rem
        qs1 = _poly_mul(q, s1)
        news = [Fraction(0)] * max(len(s0), len(qs1))
        for i, c in enumerate(s0):
            news[i] += c
        for i, c in enumerate(qs1):
            news[i] -= c
        s0, s1 = s1, news
    g = r1[_poly_degree(r1)] if _poly_degree(r1) == 0 else None
    if not g:
        raise ArithmeticError("element shares a factor with the (irreducible) modulus")
    inv = [c / g for c in s1]
    _, inv = _poly_divmod_frac(inv, mod)
    return inv


def _poly_divmod_frac(num, den):
    num = [Fraction(c) for c in num]
    dd = _poly_degree(den)
    lead = Fraction(den[dd])
    quot = [Fraction(0)] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / lead
        if not c:
            continue
        quot[i - dd] = c
        for j in range(dd + 1):
            num[i - dd + j] -= c * den[j]
    while len(num) > 1 and not num[-1]:
        num.pop()
    return quot, num


class CyclotomicElement:
    """An element of Q(zeta_m), reduced mod Phi_m in the power basis."""

    __slots__ = ("conductor", "coords")

    def __init__(self, conductor: int, coords):
        phi = euler_phi(conductor)
        coords = tuple(Fraction(c) for c in coords)
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
        table = _zeta_power_table(conductor)
        return cls(conductor, table[power % conductor])

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
        n = len(self.coords)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    prod[i + j] += a * b
        out = list(prod[:n])
        table = _zeta_power_table(self.conductor)
        for e in range(n, 2 * n - 1):
            c = prod[e]
            if c:
                row = table[e]
                out = [out[i] + c * row[i] for i in range(n)]
        return CyclotomicElement(self.conductor, out)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        inv = _poly_invert_mod(self.coords, cyclotomic_polynomial(self.conductor))
        return CyclotomicElement(self.conductor, inv)

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
        result = CyclotomicElement.from_rational(self.conductor, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def galois(self, k: int) -> "CyclotomicElement":
        """Image under zeta_m -> zeta_m^k; requires gcd(k, m) = 1."""
        m = self.conductor
        if math.gcd(k, m) != 1:
            raise InvalidAutomorphismError(f"k = {k} is not coprime to the conductor {m}")
        table = _zeta_power_table(m)
        out = [Fraction(0)] * len(self.coords)
        for i, c in enumerate(self.coords):
            if not c:
                continue
            row = table[(i * k) % m]
            out = [out[j] + c * row[j] for j in range(len(out))]
        return CyclotomicElement(m, out)

    def conjugate(self) -> "CyclotomicElement":
        """Complex conjugation, zeta_m -> zeta_m^(-1)."""
        return self.galois(self.conductor - 1 if self.conductor > 1 else 1)

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


def conjugate(a):
    """Complex conjugation on a coefficient; rationals are fixed."""
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    return a.conjugate()


def galois_apply(a, k: int):
    """Apply zeta_m -> zeta_m^k coefficientwise; rationals are fixed."""
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    return a.galois(k)


def is_rational(a):
    """Whether a coefficient is a rational value; returns (flag, value)."""
    if isinstance(a, (int, Fraction)):
        return True, Fraction(a)
    if any(a.coords[1:]):
        return False, None
    return True, a.coords[0]


def denominator_primes(r) -> frozenset:
    """The set of primes dividing the denominator of a rational."""
    den = Fraction(r).denominator
    primes = set()
    while den % 2 == 0:
        primes.add(2)
        den //= 2
    p = 3
    while p * p <= den:
        if den % p == 0:
            primes.add(p)
            while den % p == 0:
                den //= p
        p += 2
    if den > 1:
        primes.add(den)
    return frozenset(primes)


@dataclass(frozen=True)
class FieldTag:
    """Coefficient-domain marker: Q when conductor is None, else Q(zeta_m).

    Every series carries exactly one tag; mixing fields requires an
    explicit promotion Q -> Q(zeta_m).
    """

    conductor: int | None = None

    def __post_init__(self):
        if self.conductor is not None and self.conductor < 1:
            raise ValueError("conductor must be a positive integer")

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
            return Fraction(value)
        if isinstance(value, CyclotomicElement):
            if value.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: element has {value.conductor}, tag has {self.conductor}"
                )
            return value
        return CyclotomicElement.from_rational(self.conductor, value)

    def __repr__(self):
        if self.conductor is None:
            return "FieldTag(Q)"
        return f"FieldTag(Q(zeta_{self.conductor}))"


RATIONAL = FieldTag(None)
