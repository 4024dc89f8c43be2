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

Stored form.  A series holds its coefficients as integers: ``nums`` lists
the power-basis coordinates of coefficients lead .. precision-1 in turn
(one per coefficient over Q, phi(m) over Q(zeta_m)) over one denominator
``den > 0``, canonical, gcd(den, *nums) == 1, so that equal series have
equal (nums, den).  The form is canonical as it is built, never checked
afterwards: ``__init__`` puts the elements' coordinates over the lcm of
their denominators, which is canonical, and ``_from_integers`` takes
integers already in that form, from a kernel, the Euler product or the
JSON reader (which puts its reduced coordinates over the lcm); both set the
series through ``_store``, which pads the window and strips leading zeros.
Every kernel reads and returns (nums, den), and ``coeffs`` builds the
field elements only when read (``coeff(n)`` builds one).

Kernels.  Every kernel runs on integers, over Q and over Q(zeta_m) alike;
Q is the degree-1 case, where a coefficient is one coordinate and nothing
is reduced.  A product gives each coefficient 2 phi(m) - 1 slots, room for
the product of two elements, convolves the flattened operands once and
reduces each block of slots mod Phi_m (Kronecker substitution in q and
zeta).  The convolution, ``numberfield._convolve`` (which multiplies field
elements too), packs both operands into one integer, so that CPython's
Karatsuba multiply does all of it, unless the bit heights are so lopsided
that integer dot products cost less; the choice depends only on the
operands' lengths and bit lengths.  The packed slots move between ints and
bytes all at once through ``array`` words when a slot is at most 8 bytes
wide, as it is for small-integer series such as eta products, and by one
call per entry when it is wider; the slot width alone picks the way.
Every product is ``*`` (``scale`` multiplies by a one-term series) and
convolves only its operands' nonzero spans; a divisor c q^h, with no term
past its lead, is a shift and a scale; and exp 0 is 1: so f * 1, f / 1 and
exp 0 (the f0 = 1 of every decomposition whose g0 is zero) cost one pass.
Every other quotient is ``divide`` (through it ``inverse`` and
``theta_logderiv``, theta N / N for the integers N = den f); it,
``exp_from_logderiv`` (on the integers den - B of 1 - g) and negative powers
all solve one online recurrence, ``_recurrence``, on integer series over 1
from every caller (``divide`` applies up and down, den g and den f over their
gcd, outside it, as ``*`` applies den f den g).  It keeps its unknowns as one
list of integers per coordinate over a running denominator that, when it
grows, takes in the next steps' denominators too (so earlier unknowns are
rescaled every few steps) and sums each step by phi(m)^2 integer dot products.
Each step picks, from counts alone, the terms its sum runs over: all of
them, or only those where the known series is nonzero (a fixed list) or
where the unknowns found so far are (a growing list), whichever list is
shorter than half the dense range (``SPARSE_STEP``); a coefficient counts
as nonzero when any coordinate is.  Lacunary series, such as the CM
newforms of levels 27, 32 and 36 or the Euler product, so pay only for
their nonzero terms.  A strategy chooses only its list of terms; both
operands are gathered from that list, and one loop forms every dot product.
J.C.P. Miller's recurrence n a(0) b(n) = sum_k ((m + 1) k - n) a(k)
b(n - k) for f ** m, m < -1, is a mode whose a(k) carry the small weight
(m + 1) k - n as they are gathered, so no inverse is powered; m > 1 squares
and multiplies.  The results that may share a factor with their
denominator (of ``truncate``, ``+``, ``*``, ``divide`` and the recurrence,
whose d may take in more than its steps use) divide it out with one running
gcd that stops at 1 (``_lowest``), from the last coordinate, where a
denominator built up term by term first shows in full; every other result,
a series over 1 among them, is canonical as computed.
"""

from __future__ import annotations

from itertools import compress
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
from .numberfield import RATIONAL, FieldTag, _convolve, _galois, _integer_form, _inverse_coords
from .numberfield import _power, _times

# Cap on the exponent window a spread (rescale_level, substitute_power) may
# allocate, on what an eta expansion may be asked for (etaforms), and on the
# windows that only a declared precision bounds (f ** 0 of a zero f, and
# exp_from_logderiv's).  It lies far above every shipped or documented use
# (24 * 500 exponents).
MAX_TERMS = 100_000

# Cap on the estimated bit height of the coefficients of a power f ** m,
# numerator and denominator together: writing one such coefficient as
# decimal text takes seconds.  Every eta factor (prod (1 - q^n) or its
# inverse to at most MAX_TERMS terms, to a power |r| <= 1,000) stays below.
MAX_POWER_BITS = 1 << 21

# What one term of a sparse inner sum of ``_recurrence`` costs, in terms of a
# dense one: a step sums over the nonzero terms alone when that list is
# shorter than 1 / SPARSE_STEP of the dense range.
SPARSE_STEP = 2

# A step of ``_recurrence`` that grows its running denominator d also takes
# in the next steps' denominators m while they fit in 1 / AHEAD_ROOM of d's
# bits, so the unknowns are rescaled once for several steps; a tall m (the
# lead of a divisor f0) leaves no room.
AHEAD_ROOM = 8


class QExpansion:
    """Exact truncated Laurent series at the infinite cusp."""

    __slots__ = ("level", "lead", "precision", "field", "nums", "den", "_coeffs")

    def __init__(self, level, lead, coeffs, precision=None, field=RATIONAL):
        coeffs = [field.coerce(c) for c in coeffs]
        if precision is None:
            precision = lead + len(coeffs)
        self._store(level, lead, *_integer_form(coeffs), precision, field)

    @classmethod
    def _from_integers(cls, level, lead, nums, den, precision, field):
        """The series whose coordinates from exponent lead on are the
        integers ``nums`` over ``den > 0``, gcd(den, *nums) == 1: every kernel
        result, ``jsonio``'s series and ``etaforms.euler_product``."""
        series = cls.__new__(cls)
        series._store(level, lead, nums, den, precision, field)
        return series

    def _store(self, level, lead, nums, den, precision, field):
        """Set the series whose coordinates from exponent lead on are
        ``nums`` over ``den``, padded with zeros to the window lead ..
        precision-1, its leading zeros stripped."""
        if type(level) is not int or level < 1:  # nor a bool
            raise BadLevelError(f"level must be a positive integer, got {level!r}")
        deg = field.degree
        pad = (precision - lead) * deg - len(nums)
        if pad < 0:
            raise PrecisionError(
                f"{len(nums) // deg} coefficients do not fit in window [{lead}, {precision})"
            )
        strip = 0
        while strip < len(nums) and not nums[strip]:
            strip += 1
        if strip == len(nums):
            lead, nums, den = precision, (), 1
        else:
            skip = strip // deg
            lead += skip
            # explicit padding: the caller asserts exact zeros
            nums = tuple(nums[skip * deg :]) + (0,) * pad
        self.level = level
        self.lead = lead
        self.precision = precision
        self.field = field
        self.nums = nums
        self.den = den
        self._coeffs = None

    def _like(self, lead, nums, den, precision, level=None, field=None):
        """A kernel result: the series of this level and field (unless
        given) with integer coordinates ``nums`` over ``den``, in lowest
        terms."""
        level, field = level or self.level, field or self.field
        return QExpansion._from_integers(level, lead, nums, den, precision, field)

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
    def coeffs(self) -> tuple:
        """The coefficients of exponents lead .. precision-1 as field
        elements, built on first read."""
        if self._coeffs is None:
            self._coeffs = tuple(self.field.elements(self.nums, self.den))
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def relative_precision(self) -> int:
        return self.precision - self.lead

    def coeff(self, n: int):
        """Coefficient of q_N^n; zero below the lead, error at or past precision."""
        if n >= self.precision:
            raise PrecisionError(f"coefficient of exponent {n} unknown (precision {self.precision})")
        if n < self.lead:
            return self.field.zero
        if self._coeffs is not None:
            return self._coeffs[n - self.lead]
        deg = self.field.degree
        i = (n - self.lead) * deg
        return self.field.elements(self.nums[i : i + deg], self.den)[0]

    def _window(self, start, stop):
        """The integer coordinates (over ``den``) of exponents start ..
        stop-1, for start <= lead and stop <= precision."""
        deg = self.field.degree
        pad = [0] * ((min(self.lead, stop) - start) * deg)
        return pad + list(self.nums[: max(stop - self.lead, 0) * deg])

    def truncate(self, precision: int) -> "QExpansion":
        if precision > self.precision:
            raise PrecisionError(
                f"cannot extend precision {self.precision} to {precision}"
            )
        if precision == self.precision:
            return self
        if precision <= self.lead:
            return QExpansion.zero(self.level, precision, self.field)
        size = (precision - self.lead) * self.field.degree
        return self._like(self.lead, *_lowest(self.nums[:size], self.den), precision)

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
        lead = min(self.lead, other.lead, precision)
        den = lcm(self.den, other.den)
        a, b = self._window(lead, precision), other._window(lead, precision)
        sa, sb = den // self.den, den // other.den
        out = [x * sa + y * sb for x, y in zip(a, b)]
        return self._like(lead, *_lowest(out, den), precision)

    def __neg__(self):
        negated = [-x for x in self.nums]
        return self._like(self.lead, negated, self.den, self.precision)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_compatible(other)
        precision = min(self.precision + other.lead, other.precision + self.lead)
        if self.is_zero or other.is_zero:
            return QExpansion.zero(self.level, precision, self.field)
        lead = self.lead + other.lead
        size = (precision - lead) * self.field.degree
        out = _convolved(self.nums[:size], other.nums[:size], precision - lead, self.field)
        return self._like(lead, *_lowest(out, self.den * other.den), precision)

    def scale(self, scalar) -> "QExpansion":
        """Every coefficient times ``scalar``: the product with scalar + O(q^M)."""
        c = self.field.coerce(scalar)
        if self.is_zero or c == 1:
            return self
        return self * QExpansion(self.level, 0, [c], self.relative_precision, self.field)

    def shift(self, k: int) -> "QExpansion":
        """Multiply by q_N^k (shift all exponents by k)."""
        return self._like(self.lead + k, self.nums, self.den, self.precision + k)

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
        """self / other by one online recurrence, or, when other is a
        monomial c q^h, by a shift and a scale; agrees with
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
        deg = self.field.degree
        if not any(other.nums[deg:]):  # other = c q^h + O(q^P): no term past its lead
            c = other.coeff(other.lead)
            return self.shift(-other.lead).truncate(precision).scale(1 / c)
        # (R / rd) / (G / gd) = (R up / G) / down, applied outside as in __mul__
        size, t = (precision - lead) * deg, gcd(self.den, other.den)
        up, down = other.den // t, self.den // t
        r = self.nums[:size] if up == 1 else [x * up for x in self.nums[:size]]
        nums, d = _recurrence(r, other.nums[:size], precision - lead, self.field)
        nums, down = _lowest(nums, down)  # gcd(d down, *nums) = gcd(down, *nums): d is lowest
        return self._like(lead, nums, d * down, precision)

    def __pow__(self, m):
        if not isinstance(m, int):
            return NotImplemented
        if m == 0:
            if self.is_zero:  # 1 + O(q^P): only the declared precision bounds it
                return QExpansion.one(self.level, _capped(max(self.precision, 1)), self.field)
            return QExpansion.one(self.level, self.relative_precision, self.field)
        base, n = (self.inverse(), -m) if m < 0 else (self, m)
        # each integer coordinate of base ** n over den ** n is at most
        # (sum |nums|) ** n, which is tight at small n
        bits = n * ((sum(map(abs, base.nums)) * base.den).bit_length() - 1)
        if n > 1 and bits > MAX_POWER_BITS:
            raise PrecisionError(
                f"f ** {m} would have coefficients of up to about {bits} bits, "
                f"past the cap of {MAX_POWER_BITS}"
            )
        if m < -1:  # the inverse is not powered: Miller's recurrence on self
            return self._miller(m)
        return _power(base, n)

    def _miller(self, m):
        """self ** m by J.C.P. Miller's recurrence: for self = q^h (a(0) +
        a(1) q + ...) and b = a ** m, n a(0) b(n) = sum_{k=1}^{n}
        ((m + 1) k - n) a(k) b(n - k) for every integer m.  It is linear in
        b, so it runs from b(0) = 1 and the result is scaled by a(0) ** m."""
        terms, deg = self.relative_precision, self.field.degree
        nums, den = _recurrence(self.nums[:deg], self.nums, terms, self.field, True, m)
        power = self._like(m * self.lead, nums, den, m * self.lead + terms)
        return power.scale(self.coeff(self.lead) ** m)

    # ------------------------------------------------------------------
    # logarithmic derivative and friends

    def theta_logderiv(self) -> "QExpansion":
        """theta f / f, theta = q d/dq: for f = q^h (c + ...) the constant h
        plus a series with positive exponents, whatever the scale c: theta N / N
        for the integers N = den f, over 1 and so canonical as built."""
        if self.is_zero:
            raise DivisionByZeroSeriesError("logarithmic derivative of the zero series")
        h, deg, P = self.lead, self.field.degree, self.precision
        theta = self._like(h, [(h + i // deg) * x for i, x in enumerate(self.nums)], 1, P)
        return theta.divide(self._like(h, self.nums, 1, P))

    # ------------------------------------------------------------------
    # level changes

    def rescale_level(self, new_level: int) -> "QExpansion":
        """Re-express at a finer level: q_N = q_L^(L/N), exponents scale by L/N."""
        if type(new_level) is not int or new_level < 1:  # nor a bool
            raise BadLevelError(f"level must be a positive integer, got {new_level!r}")
        if new_level % self.level != 0:
            raise BadLevelError(f"{new_level} is not a multiple of level {self.level}")
        return self._spread(new_level // self.level, new_level)

    def substitute_power(self, d: int) -> "QExpansion":
        """Replace q by q^d at the same level (z -> d z on expansions)."""
        if type(d) is not int or d < 1:  # nor a bool
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
        out = _strided(self.nums, self.field.degree, c * self.field.degree)
        precision = c * self.precision
        return self._like(c * self.lead, out, self.den, precision, level=level)

    # ------------------------------------------------------------------
    # coefficient field maps

    def galois_map(self, k: int) -> "QExpansion":
        """Apply zeta -> zeta^k to every coefficient; identity over Q."""
        if self.field.is_rational_field:
            return self
        m, deg = self.field.conductor, self.field.degree
        nums = self.nums
        out = [x for i in range(0, len(nums), deg) for x in _galois(nums[i : i + deg], k, m)]
        # an integer map whose inverse (k^-1) is one too keeps gcd(den, *nums)
        return self._like(self.lead, out, self.den, self.precision)

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
        out = _strided(self.nums, 1, field.degree)
        return self._like(self.lead, out, self.den, self.precision, field=field)

    def as_rational_series(self) -> "QExpansion":
        """Retag with Q; every coefficient must be rational-valued."""
        if self.field.is_rational_field:
            return self
        deg = self.field.degree
        for i in range(0, len(self.nums), deg):
            if any(self.nums[i + 1 : i + deg]):
                raise NotRationalError(
                    f"coefficient at exponent {self.lead + i // deg} is not rational"
                )
        out = self.nums[::deg]
        return self._like(self.lead, out, self.den, self.precision, field=RATIONAL)

    # ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (
            self.level == other.level
            and self.field == other.field
            and self.lead == other.lead
            and self.precision == other.precision
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.level, self.field, self.lead, self.precision, self.den, self.nums))

    def __repr__(self):
        var = "q" if self.level == 1 else f"q{self.level}"
        if self.is_zero:
            return f"QExpansion(0 + O({var}^{self.precision}))"
        # build only the (at most six) shown coefficients, not ``coeffs``
        deg, nums = self.field.degree, self.nums
        parts = []
        for i in range(0, len(nums), deg):
            if not any(nums[i : i + deg]):
                continue
            if len(parts) == 6:
                parts.append("...")
                break
            e = self.lead + i // deg
            c = self.coeff(e)
            parts.append(str(c) if e == 0 else f"{c}*{var}^{e}")
        return f"QExpansion({' + '.join(parts)} + O({var}^{self.precision}))"


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
    _capped(precision)  # the window 0 .. precision - 1, whatever g's lead
    field = g.field
    if g.is_zero:  # exp 0 = 1
        return QExpansion.one(g.level, precision, field)
    # with b(k) = B(k) / d the coefficients of g, the recurrence for d - B, s(n) = n
    r = [g.den] + [0] * (field.degree - 1)
    one_minus_b = r + [-x for x in g._window(0, precision)[field.degree :]]
    nums, den = _recurrence(r, one_minus_b, precision, field, by_index=True)
    return g._like(0, nums, den, precision)


def _capped(terms):
    """``terms``, the size of a window that only a declared precision bounds,
    refused past MAX_TERMS before anything is allocated."""
    if terms > MAX_TERMS:
        raise PrecisionError(f"a window of {terms} terms exceeds the cap of {MAX_TERMS}")
    return terms


def first_disagreement(f: QExpansion, g: QExpansion):
    """Smallest exponent where two series (same level/field) are known to
    differ, or None if they agree wherever both are known: the lead of
    f - g, whose leading zeros the stored form strips."""
    diff = f - g
    return None if diff.is_zero else diff.lead


def _lowest(nums, den):
    """(nums, den) with gcd(den, *nums) divided out, found by a running gcd
    that stops at 1: for the results that may share a factor with their
    denominator (a truncation, sum, product or quotient, the recurrence).  The
    scan runs from the last coordinate: in a series whose denominators grow
    term by term the full denominator first shows at the tail, so the gcd
    falls to 1 within a few tall steps instead of one tall step per coordinate."""
    g = den
    for x in reversed(nums):
        if g == 1:
            break
        if x % g:
            g = gcd(g, x)
    if g > 1:
        nums, den = [x // g for x in nums], den // g
    return nums, den


def _nonzero(nums, deg):
    """The indices of the nonzero coefficients given by integer coordinates
    ``nums``, deg to a coefficient: those with any coordinate nonzero."""
    flags = nums if deg == 1 else map(any, zip(*(nums[a::deg] for a in range(deg))))
    return list(compress(range(len(nums) // deg), flags))


def _convolved(a, b, terms, field):
    """Integer coordinates of the first ``terms`` coefficients of the
    product of two series given by nonempty integer coordinates: each
    coefficient gets room for a product of two elements, and each block of
    slots is reduced mod the modulus."""
    deg = field.degree
    stride = 2 * deg - 1
    out = _convolve(_strided(a, deg, stride), _strided(b, deg, stride), terms * stride)
    if deg == 1:
        return out
    return [x for i in range(0, len(out), stride) for x in field.reduce(out[i : i + stride])]


def _strided(nums, deg, stride):
    """Coordinates ``deg`` to an element moved to ``stride`` slots to an
    element, zeros in the slots between."""
    if stride == deg:
        return nums
    out = [0] * (len(nums) // deg * stride)
    for i in range(deg):
        out[i::stride] = nums[i::deg]
    return out


# ----------------------------------------------------------------------
# the recurrence kernel (see the module docstring)


def _recurrence(r, g, terms, field, by_index=False, power=None):
    """(nums, d): x[0 .. terms-1] of the online recurrence

        x[k] = (r[k] - sum_{j>=1} w(k, j) g[j] x[k-j]) / (g[0] s(k)),

    with s(k) = max(k, 1) when ``by_index`` and s(k) = 1 otherwise, and
    w(k, j) = k - (m + 1) j for a ``power`` m (J.C.P. Miller's recurrence for
    (g / g[0]) ** m, given by_index and r = g[0]), else 1.
    r and g are integer coordinates, series over 1, from every caller (``divide``
    applies its operands' denominators outside, as ``__mul__`` does), and the
    unknowns are returned as integer coordinates over their running denominator
    d, in lowest terms.  Entries of r and g past their ends are zero; g[0] != 0.
    """
    deg = field.degree
    if len(g) < terms * deg:  # so that g[k] exists at every step k
        g = g + [0] * (terms * deg - len(g))
    # 1 / g[0] = unit / c; a rational g[0] is c and needs no unit
    unit, c = (None, g[0]) if not any(g[1:deg]) else _inverse_coords(g[:deg], field.conductor)
    # x[k] = v / (c s(k) d) with x[i] = X[i] / d, coordinate b of X[i]
    # xcols[b][i], and v = (d r[k] - sum_{j>=1} w(k, j) g[j] X[k-j]) unit,
    # the sum taken as one dot product per pair of coordinates (a of g, b of
    # X) into the slot a + b of a polynomial in zeta
    width = 2 * deg - 1
    # the indices j >= 1 of the nonzero g[j], each coordinate a of g
    # (cols[a]), and the pairs whose a is nonzero at some j >= 1
    gnz = _nonzero(g, deg)[1:]
    cols = [g[a::deg] for a in range(deg)]
    pairs = [(a, b) for a in range(deg) if any(cols[a][1:]) for b in range(deg)]
    # each coordinate b of the unknowns so far (xcols[b]) and the indices of
    # the nonzero ones (xnz); ng counts the j in gnz up to k, advanced by at
    # most one a step
    xcols, xnz, ng, d = [[] for _ in range(deg)], [], 0, 1
    zeros = [0] * deg
    for k in range(terms):
        # the sum runs over every j = 1 .. k, or over the ng j with g[j]
        # nonzero, or over the nx with x[k-j] nonzero, whichever is shortest;
        # a term of a sparse sum costs about SPARSE_STEP of a dense one
        nx = len(xnz)
        if ng < len(gnz) and gnz[ng] == k:
            ng += 1
        # a strategy chooses only its j (js); coordinate b of the x[k-j]
        # (xs[b]) and coordinate a of the g[j] (gvs[a]) are gathered from js
        dense = SPARSE_STEP * (ng if ng < nx else nx) >= k
        js = range(k, 0, -1) if dense else gnz[:ng] if ng <= nx else [k - i for i in xnz]
        xs = xcols if dense else [[xcol[k - j] for j in js] for xcol in xcols]
        if power is None:
            gvs = [col[k:0:-1] if dense else [col[j] for j in js] for col in cols]
        else:  # each g[j] carries Miller's weight w(k, j), a small int, as it is gathered
            gvs = [[(k - (power + 1) * j) * col[j] for j in js] for col in cols]
        sums = [0] * width
        for a, b in pairs:
            sums[a + b] += sum(map(mul, xs[b], gvs[a]))
        rk = r[k * deg : (k + 1) * deg] or zeros
        v = [d * u - w for u, w in zip(rk, field.reduce(sums))]
        if unit is not None:
            v = _times(v, unit, field.conductor)
        # with t = gcd(m, *v), m = c s(k), x[k] = (v / t) / (d m / t), and
        # d m / t is the lcm of d and the reduced denominator of x[k]: a
        # prime p gains max(0, v_p(m) - v_p(v)) in both; den x[k] divides
        # d m, so a step whose m d took in ahead finds t = m and grows nothing
        m = c * (k if by_index and k > 1 else 1)
        t = gcd(m, *v) if m > 0 else -gcd(m, *v)
        grow, ahead = m // t, 1
        if grow > 1:  # d also takes in the m of the steps after k (AHEAD_ROOM)
            room = d.bit_length() // AHEAD_ROOM
            for i in range(k + 1, terms):
                more = ahead * abs(c) * (i if by_index and i > 1 else 1)
                if more.bit_length() > room:
                    break
                ahead = more
            grow *= ahead
            d *= grow
            xcols = [[x * grow for x in xcol] for xcol in xcols]
        if any(v):
            xnz.append(k)
        for xcol, x in zip(xcols, v):
            xcol.append(x // t * ahead)
    nums = [0] * (terms * deg)
    for b, xcol in enumerate(xcols):
        nums[b::deg] = xcol
    return _lowest(nums, d)  # d may have taken in more than the steps used
