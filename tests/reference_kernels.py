"""Schoolbook series kernels on field elements, kept as the reference the
library's integer kernels over Q and Q(zeta_m) must match exactly.

Each function is the coefficient loop ``gmfkit.qseries`` ran on
``Fraction`` and ``CyclotomicElement`` values before its kernels moved to
integer power-basis coordinates over a common denominator; the loops use
only field operations, so they serve every coefficient field.  Precision
and lead follow the contracts in the ``qseries`` module docstring.
"""

from fractions import Fraction

from gmfkit.errors import DivisionByZeroSeriesError, NotExponentiableError, PrecisionError
from gmfkit.qseries import QExpansion


def mul(f, g):
    precision = min(f.precision + g.lead, g.precision + f.lead)
    if f.is_zero or g.is_zero:
        return QExpansion.zero(f.level, precision, f.field)
    lead = f.lead + g.lead
    size = precision - lead
    out = [f.field.zero] * size
    for i, a in enumerate(f.coeffs[:size]):
        if not a:
            continue
        for j, b in enumerate(g.coeffs[: size - i]):
            if b:
                out[i + j] += a * b
    return QExpansion(f.level, lead, out, precision, f.field)


def divide(f, g, target_precision=None):
    if g.is_zero:
        raise DivisionByZeroSeriesError("division by the zero series")
    available = min(f.precision - g.lead, g.precision + f.lead - 2 * g.lead)
    precision = available if target_precision is None else min(target_precision, available)
    lead = f.lead - g.lead
    if f.is_zero or precision <= lead:
        return QExpansion.zero(f.level, precision, f.field)
    inv0 = g.coeffs[0] ** -1
    out = []
    for n in range(precision - lead):
        acc = f.coeffs[n] if n < len(f.coeffs) else f.field.zero
        for j in range(1, min(n, len(g.coeffs) - 1) + 1):
            if g.coeffs[j] and out[n - j]:
                acc = acc - g.coeffs[j] * out[n - j]
        out.append(inv0 * acc)
    return QExpansion(f.level, lead, out, precision, f.field)


def inverse(f, target_precision=None):
    if f.is_zero:
        raise DivisionByZeroSeriesError("inverse of the zero series")
    h = f.lead
    available = f.precision - 2 * h
    precision = available if target_precision is None else min(target_precision, available)
    if precision <= -h:
        raise PrecisionError("no coefficients of the inverse are determined")
    return divide(QExpansion.one(f.level, f.precision - h, f.field), f, target_precision)


def power(f, m):
    if m == 0:
        return QExpansion.one(f.level, max(f.precision, 1) if f.is_zero else f.relative_precision, f.field)
    if m < 0:
        return power(inverse(f), -m)
    result = None
    base = f
    while m:
        if m & 1:
            result = base if result is None else mul(result, base)
        m >>= 1
        if m:
            base = mul(base, base)
    return result


def theta_logderiv(f):
    if f.is_zero:
        raise DivisionByZeroSeriesError("logarithmic derivative of the zero series")
    terms = f.relative_precision
    inv0 = f.coeffs[0] ** -1
    u = [c * inv0 for c in f.coeffs]
    bs = []
    for n in range(1, terms):
        acc = n * u[n]
        for k in range(1, n):
            if u[n - k]:
                acc = acc - bs[k - 1] * u[n - k]
        bs.append(acc)
    return QExpansion(f.level, 0, [f.field.coerce(f.lead)] + bs, terms, f.field)


def exp_from_logderiv(g, target_precision):
    if not g.is_zero and g.lead < 1:
        raise NotExponentiableError(f"term at exponent {g.lead}")
    precision = min(target_precision, g.precision)
    if precision < 1:
        raise PrecisionError("target precision leaves no coefficients determined")
    zero = g.field.zero
    bs = [zero] * precision
    for i, c in enumerate(g.coeffs):
        if 1 <= g.lead + i < precision:
            bs[g.lead + i] = c
    a = [g.field.one]
    for n in range(1, precision):
        acc = None
        for k in range(1, n + 1):
            if bs[k] and a[n - k]:
                t = bs[k] * a[n - k]
                acc = t if acc is None else acc + t
        a.append(Fraction(1, n) * acc if acc is not None else zero)
    return QExpansion(g.level, 0, a, precision, g.field)
