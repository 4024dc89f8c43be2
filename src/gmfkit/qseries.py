"""Truncated Laurent series in q_N = e^(2 pi i z / N) with exact coefficients.

A series stores an absolute precision: ``coeffs[i]`` is the coefficient
of q_N^(lead + i), exponents lead .. precision-1 are known exactly, and
nothing is asserted at precision or beyond.  The leading coefficient is
always nonzero except for the distinguished zero series, which has empty
coefficients and lead == precision.

Precision contracts (h = lead, P = precision, M = P - h the relative
precision):

* ``f + g``            P = min(P_f, P_g)
* ``f * g``            P = min(P_f + h_g, P_g + h_f); M = min(M_f, M_g)
* ``f.inverse(T)``     P = min(T, P_f - 2 h_f), lead -h_f
* ``f.theta_logderiv``  P = P_f - h_f, lead 0 (constant term h_f)
* ``exp_from_logderiv(g, T)``  P = min(T, P_g), lead 0
* ``f ** m``           relative precision M preserved, lead m h_f
* ``f.rescale_level(L)``  exponents and P scale by L / N

Kernels.  Every kernel runs on integers, over Q and over Q(zeta_m) alike:
the field tag writes each operand's coefficients as integer power-basis
coordinates over one common denominator (the lcm of their denominators),
the inner sums run on Python ints, and each output coefficient is
reduced mod Phi_m and normalized exactly once.  Q is the degree-1 case,
where a coefficient is one coordinate and nothing is reduced.  A product
gives each coefficient 2 phi(m) - 1 slots, room for the product of two
elements, convolves the flattened operands once and reduces each block of
slots mod Phi_m (Kronecker substitution in q and zeta).  The convolution,
``numberfield._convolve`` (which multiplies field elements too), packs
both operands into one integer, so that CPython's Karatsuba multiply does
all of it, unless the bit heights are so lopsided that integer dot
products cost less; the choice depends only on the operands' lengths and
bit lengths.  ``divide`` (and through it ``inverse``),
``theta_logderiv`` (theta f / f) and ``exp_from_logderiv`` all solve one
online recurrence, which keeps each coordinate of its unknowns as an
integer over their running lcm denominator and forms each inner sum as
phi(m)^2 integer dot products.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import (
    BadLevelError,
    DivisionByZeroSeriesError,
    IncompatibleSeriesError,
    NotExponentiableError,
    NotRationalError,
    PrecisionError,
)
from .numberfield import RATIONAL, FieldTag, _convolve, _power, galois_apply, is_rational
from .numberfield import _dot_products, _kronecker  # noqa: F401  (for the kernel tests)

# Cap on the exponent window a spread (rescale_level, substitute_power) may
# allocate, and on what an eta expansion may be asked for (etaforms).  It
# lies far above every shipped or documented use (24 * 500 exponents).
MAX_TERMS = 100_000


class QExpansion:
    """Exact truncated Laurent series at the infinite cusp."""

    __slots__ = ("level", "lead", "precision", "coeffs", "field")

    def __init__(self, level, lead, coeffs, precision=None, field=RATIONAL):
        if not isinstance(level, int) or level < 1:
            raise BadLevelError(f"level must be a positive integer, got {level!r}")
        coeffs = [field.coerce(c) for c in coeffs]
        if precision is None:
            precision = lead + len(coeffs)
        window = precision - lead
        if window < len(coeffs):
            raise PrecisionError(
                f"{len(coeffs)} coefficients do not fit in window [{lead}, {precision})"
            )
        if window > len(coeffs):  # explicit padding: caller asserts exact zeros
            zero = field.zero
            coeffs = coeffs + [zero] * (window - len(coeffs))
        strip = 0
        while strip < len(coeffs) and not coeffs[strip]:
            strip += 1
        if strip == len(coeffs):
            lead, coeffs = precision, []
        elif strip:
            lead += strip
            coeffs = coeffs[strip:]
        self.level = level
        self.lead = lead
        self.precision = precision
        self.coeffs = tuple(coeffs)
        self.field = field

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, level, precision, field=RATIONAL):
        return cls(level, precision, [], precision, field)

    @classmethod
    def one(cls, level, precision, field=RATIONAL):
        return cls(level, 0, [1], precision, field)

    @classmethod
    def monomial(cls, level, exponent, precision=None, field=RATIONAL, coefficient=1):
        if precision is None:
            precision = exponent + 1
        return cls(level, exponent, [coefficient], precision, field)

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def relative_precision(self) -> int:
        return self.precision - self.lead

    def coeff(self, n: int):
        """Coefficient of q_N^n; zero below the lead, error at or past precision."""
        if n >= self.precision:
            raise PrecisionError(f"coefficient of exponent {n} unknown (precision {self.precision})")
        if n < self.lead:
            return self.field.zero
        return self.coeffs[n - self.lead]

    def truncate(self, precision: int) -> "QExpansion":
        if precision > self.precision:
            raise PrecisionError(
                f"cannot extend precision {self.precision} to {precision}"
            )
        if precision == self.precision:
            return self
        if precision <= self.lead:
            return QExpansion.zero(self.level, precision, self.field)
        return QExpansion(
            self.level, self.lead, self.coeffs[: precision - self.lead], precision, self.field
        )

    def _require_compatible(self, other):
        if not isinstance(other, QExpansion):
            raise TypeError(f"expected a QExpansion, got {type(other).__name__}")
        if self.level != other.level:
            raise IncompatibleSeriesError(
                f"level mismatch: {self.level} vs {other.level}; rescale first"
            )
        if self.field != other.field:
            raise IncompatibleSeriesError(
                f"field mismatch: {self.field!r} vs {other.field!r}; promote first"
            )

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other):
        self._require_compatible(other)
        precision = min(self.precision, other.precision)
        if self.is_zero or other.is_zero:
            return (other if self.is_zero else self).truncate(precision)
        lead = min(self.lead, other.lead)
        if lead >= precision:
            return QExpansion.zero(self.level, precision, self.field)
        out = [self.coeff(n) + other.coeff(n) for n in range(lead, precision)]
        return QExpansion(self.level, lead, out, precision, self.field)

    def __neg__(self):
        return QExpansion(
            self.level, self.lead, [-c for c in self.coeffs], self.precision, self.field
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_compatible(other)
        precision = min(self.precision + other.lead, other.precision + self.lead)
        if self.is_zero or other.is_zero:
            return QExpansion.zero(self.level, precision, self.field)
        lead = self.lead + other.lead
        size = precision - lead
        field = self.field
        # each coefficient gets room for a product of two elements
        stride = 2 * field.degree - 1
        an, ad = field.integer_coords(self.coeffs[:size], stride)
        bn, bd = field.integer_coords(other.coeffs[:size], stride)
        out = field.elements(_convolve(an, bn, size * stride), ad * bd, stride)
        return QExpansion(self.level, lead, out, precision, field)

    def scale(self, scalar) -> "QExpansion":
        """Multiply every coefficient by a fixed field element."""
        scalar = self.field.coerce(scalar)
        if not scalar:
            return QExpansion.zero(self.level, self.precision, self.field)
        return QExpansion(
            self.level, self.lead, [scalar * c for c in self.coeffs], self.precision, self.field
        )

    def shift(self, k: int) -> "QExpansion":
        """Multiply by q_N^k (shift all exponents by k)."""
        if self.is_zero:
            return QExpansion.zero(self.level, self.precision + k, self.field)
        return QExpansion(
            self.level, self.lead + k, list(self.coeffs), self.precision + k, self.field
        )

    def inverse(self, target_precision=None) -> "QExpansion":
        """Multiplicative inverse; lead -h, precision min(target, P - 2h)."""
        if self.is_zero:
            raise DivisionByZeroSeriesError("inverse of the zero series")
        one = QExpansion.one(self.level, self.precision - self.lead, self.field)
        out = one.divide(self, target_precision)
        if out.is_zero:  # the precision ends at or below the lead -h
            raise PrecisionError("no coefficients of the inverse are determined")
        return out

    def divide(self, other: "QExpansion", target_precision=None) -> "QExpansion":
        """self / other by one online recurrence; agrees with
        self * other.inverse() but skips the intermediate series."""
        self._require_compatible(other)
        if other.is_zero:
            raise DivisionByZeroSeriesError("division by the zero series")
        available = min(
            self.precision - other.lead,
            other.precision + self.lead - 2 * other.lead,
        )
        precision = available if target_precision is None else min(target_precision, available)
        lead = self.lead - other.lead
        if self.is_zero or precision <= lead:
            return QExpansion.zero(self.level, precision, self.field)
        terms = precision - lead
        out = _recurrence(self.coeffs[:terms], other.coeffs[:terms], terms, self.field)
        return QExpansion(self.level, lead, out, precision, self.field)

    def __pow__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        if m == 0:
            if self.is_zero:
                return QExpansion.one(self.level, max(self.precision, 1), self.field)
            return QExpansion.one(self.level, self.relative_precision, self.field)
        if m < 0:
            return self.inverse() ** (-m)
        return _power(self, m)

    # ------------------------------------------------------------------
    # logarithmic derivative and friends

    def theta_logderiv(self) -> "QExpansion":
        """(q d/dq f) / f.

        For f = q^h (c + ...) the result is the constant h plus a series
        with positive exponents; it does not depend on the scale c.
        """
        if self.is_zero:
            raise DivisionByZeroSeriesError("logarithmic derivative of the zero series")
        # theta f / f with both shifted by q^-h; x[0] = h c / c is the constant h
        h = self.lead
        theta = [(h + i) * c for i, c in enumerate(self.coeffs)]
        terms = self.relative_precision
        out = _recurrence(theta, self.coeffs, terms, self.field)
        return QExpansion(self.level, 0, out, terms, self.field)

    # ------------------------------------------------------------------
    # level changes

    def rescale_level(self, new_level: int) -> "QExpansion":
        """Re-express at a finer level: q_N = q_L^(L/N), exponents scale by L/N."""
        if new_level < 1:
            raise BadLevelError(f"level must be a positive integer, got {new_level!r}")
        if new_level % self.level != 0:
            raise BadLevelError(f"{new_level} is not a multiple of level {self.level}")
        return self._spread(new_level // self.level, new_level)

    def reduce_level(self, new_level: int) -> "QExpansion":
        """Inverse of rescale_level; every known exponent must lie on the
        coarser lattice."""
        if self.level % new_level != 0:
            raise BadLevelError(f"{new_level} does not divide level {self.level}")
        c = self.level // new_level
        if c == 1:
            return self
        precision = -(-self.precision // c)
        if self.is_zero:
            return QExpansion.zero(new_level, precision, self.field)
        out = []
        for i, a in enumerate(self.coeffs):
            e = self.lead + i
            if e % c == 0:
                out.append(a)
            elif a:
                raise BadLevelError(
                    f"coefficient at exponent {e} blocks reduction by {c}"
                )
        if self.lead % c != 0:
            raise BadLevelError(f"lead {self.lead} is not a multiple of {c}")
        return QExpansion(new_level, self.lead // c, out, precision, self.field)

    def substitute_power(self, d: int) -> "QExpansion":
        """Replace q by q^d at the same level (z -> d z on expansions)."""
        if d < 1:
            raise ValueError("substitution exponent must be positive")
        return self._spread(d, self.level)

    def _spread(self, c: int, level: int) -> "QExpansion":
        """Multiply every exponent and the precision by c >= 1, tagging
        the result with ``level``."""
        if c == 1:
            return self
        if self.is_zero:
            return QExpansion.zero(level, c * self.precision, self.field)
        # the window runs c (M - 1) + 1 exponents to the last known one,
        # then c - 1 known zeros; capping both bounds it by 2 MAX_TERMS
        if max(c, c * (self.relative_precision - 1) + 1) > MAX_TERMS:
            raise PrecisionError(
                f"spreading {self.relative_precision} exponents by {c} exceeds "
                f"the cap of {MAX_TERMS}"
            )
        out = [self.field.zero] * (c * (len(self.coeffs) - 1) + 1)
        for i, a in enumerate(self.coeffs):
            out[c * i] = a
        return QExpansion(level, c * self.lead, out, c * self.precision, self.field)

    # ------------------------------------------------------------------
    # coefficient field maps

    def galois_map(self, k: int) -> "QExpansion":
        """Apply zeta -> zeta^k to every coefficient; identity over Q."""
        if self.field.is_rational_field:
            return self
        return QExpansion(
            self.level,
            self.lead,
            [galois_apply(c, k) for c in self.coeffs],
            self.precision,
            self.field,
        )

    def conjugate_coeffs(self) -> "QExpansion":
        """Complex-conjugate every coefficient (zeta -> zeta^(-1))."""
        return self.galois_map((self.field.conductor or 1) - 1)

    def promote(self, field: FieldTag) -> "QExpansion":
        """Embed a rational-tagged series into Q(zeta_m)."""
        if field == self.field:
            return self
        if not self.field.is_rational_field or field.is_rational_field:
            raise IncompatibleSeriesError(
                f"no promotion from {self.field!r} to {field!r}"
            )
        return QExpansion(self.level, self.lead, list(self.coeffs), self.precision, field)

    def as_rational_series(self) -> "QExpansion":
        """Retag with Q; every coefficient must be rational-valued."""
        if self.field.is_rational_field:
            return self
        out = []
        for i, c in enumerate(self.coeffs):
            ok, value = is_rational(c)
            if not ok:
                raise NotRationalError(
                    f"coefficient at exponent {self.lead + i} is not rational"
                )
            out.append(value)
        return QExpansion(self.level, self.lead, out, self.precision, RATIONAL)

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (
            self.level == other.level
            and self.field == other.field
            and self.lead == other.lead
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.level, self.field, self.lead, self.precision, self.coeffs))

    def __repr__(self):
        var = "q" if self.level == 1 else f"q{self.level}"
        if self.is_zero:
            return f"QExpansion(0 + O({var}^{self.precision}))"
        parts = []
        shown = 0
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.lead + i
            if shown == 6:
                parts.append("...")
                break
            if e == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*{var}^{e}")
            shown += 1
        body = " + ".join(parts) if parts else "0"
        return f"QExpansion({body} + O({var}^{self.precision}))"


def exp_from_logderiv(g: QExpansion, target_precision: int) -> QExpansion:
    """The unique f = 1 + ... with theta_logderiv(f) = g.

    Solves n a(n) = sum_{k=1}^{n} b(k) a(n-k) upward from a(0) = 1; g must
    have no constant or negative-exponent terms.
    """
    if not g.is_zero and g.lead < 1:
        raise NotExponentiableError(
            f"series with a term at exponent {g.lead} has no unit exponential"
        )
    precision = min(target_precision, g.precision)
    if precision < 1:
        raise PrecisionError("target precision leaves no coefficients determined")
    field = g.field
    # with b(k) the coefficients of g, this is the recurrence for 1 - b, s(n) = n
    one_minus_b = QExpansion.one(g.level, precision, field) - g
    a = _recurrence([field.one], one_minus_b.coeffs, precision, field, by_index=True)
    return QExpansion(g.level, 0, a, precision, field)


def first_disagreement(f: QExpansion, g: QExpansion):
    """Smallest exponent where two series (same level/field) are known to
    differ, or None if they agree wherever both are known."""
    f._require_compatible(g)
    stop = min(f.precision, g.precision)
    start = min(f.lead, g.lead)
    return next((n for n in range(start, stop) if f.coeff(n) != g.coeff(n)), None)


# ----------------------------------------------------------------------
# the recurrence kernel (see the module docstring)


def _recurrence(r, g, terms, field, by_index=False):
    """x[0 .. terms-1] of the online recurrence

        x[k] = (r[k] - sum_{j>=1} g[j] x[k-j]) / (g[0] s(k)),

    with s(k) = max(k, 1) when ``by_index`` and s(k) = 1 otherwise.  Entries
    of r past its end are zero; g[0] must be nonzero.  The coordinates of
    the unknowns are kept as integers over their running lcm denominator.
    """
    if not is_rational(g[0])[0]:  # a rational g[0] divides each coordinate below
        inv0 = g[0] ** -1
        r, g = [inv0 * c for c in r], [inv0 * c for c in g]
    deg = field.degree
    gn, gd = field.integer_coords(g)
    rn, rd = field.integer_coords(r)
    t = gcd(gd, rd)
    gd, rd = gd // t, rd // t
    # times gd: x[k] = (gd rn[k] / rd - sum_j gn[j] x[k-j]) / (gn[0] s(k)),
    # the sum taken as one dot product per pair of coordinates (a of g, b of
    # x) into the slot a + b of a polynomial in zeta
    top, width, rg = len(g) - 1, 2 * deg - 1, rd * gn[0]
    grev = [gn[a::deg][::-1] for a in range(deg)]
    pairs = [(a, b, a + b) for a in range(deg) if any(grev[a][:top]) for b in range(deg)]
    zeros = [0] * deg
    coords, nums, d = [], [], 1  # coordinate b of x[i] is nums[i deg + b] / d
    for k in range(terms):
        j = min(k, top)
        lo = (k - j) * deg
        sums = [0] * width
        for a, b, e in pairs:
            sums[e] += sum(map(mul, nums[lo + b :: deg], grev[a][top - j : top]))
        rk = rn[k * deg : (k + 1) * deg] or zeros
        den = rg * d * (k if by_index and k > 1 else 1)
        xk = [Fraction(gd * u * d - rd * v, den) for u, v in zip(rk, field.reduce(sums))]
        coords += xk
        q = lcm(*[c.denominator for c in xk])
        grow = q // gcd(q, d)
        if grow > 1:
            d *= grow
            nums = [v * grow for v in nums]
        nums += [c.numerator * (d // c.denominator) for c in xk]
    return field.from_coords(coords)
