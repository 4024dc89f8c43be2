"""Canonical decomposition of parabolic generalized modular functions.

A normalized PGMF factors uniquely as f = f1 * f0 where f1 (the unitary
part) has unitary character and f0 (the empty-divisor part) has no zeros
or poles; f0 = 1 + ... and its logarithmic derivative g0 is a weight-2
cusp form with rational coefficients once a rational basis is fixed.

Everything here works at the expansion level.  The character itself is
never materialized: each operation needed on it is expressible on the
q-expansion, and the leading coefficients of f1 pin the whole
decomposition down.  Given the first kappa+1 coefficients of f1, the
cofactor coefficients a0(n) come out of ``divide`` (q^-h f over the
prefix series), the coefficients b0(n) of g0 out of the cofactor's
``theta_logderiv``, g0 itself out of an exact overdetermined solve
against the basis (the leading kappa x d coefficient matrix has full
column rank), and then f0 = exp of the integrated g0 and f1 = f / f0 to
any precision f supports.  A failing fit raises its witness, the first
row that does not fit, in a PrefixInconsistentError: it certifies that
the supplied prefix is not the leading part of any decomposition.

Results are plain values; their JSON shapes belong to ``cli``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import (
    CorruptBasisError,
    DivisionByZeroSeriesError,
    GroupMismatchError,
    IncompatibleSeriesError,
    MalformedInputError,
    NotCyclotomicError,
    NotNormalizedError,
    PrecisionError,
    PrefixInconsistentError,
)
from .etaforms import CuspFormBasis
from .jsonio import check_entry
from .linalg import solve_full_column_rank
from .numberfield import _product, is_rational, prime_divisors
from .qseries import QExpansion, exp_from_logderiv, first_disagreement
from .subgroup import GroupDescriptor, kappa


@dataclass(frozen=True)
class PGMF:
    """A q-expansion attached to a congruence subgroup."""

    expansion: QExpansion
    group: GroupDescriptor

    @property
    def normalized(self) -> bool:
        """Leading coefficient equal to 1."""
        e = self.expansion
        return (not e.is_zero) and e.coeff(e.lead) == e.field.one


@dataclass(frozen=True)
class InconsistencyWitness:
    """First coefficient row at which a prefix fails to fit.

    ``row`` is the exponent n of the failing b0(n); ``residual`` is the
    mismatch b0(n) - (fitted combination)(n) when that value is rational.
    """

    row: int
    residual: Fraction | None
    reason: str


@dataclass(frozen=True)
class CanonicalDecomposition:
    """The triple certifying f = f1 * f0 to working precision."""

    f1: PGMF
    f0: PGMF
    g0: QExpansion
    basis_coords: tuple


class CertificateVerdict(enum.Enum):
    CONSISTENT_WITH_FINITE_ORDER = "finite-order-consistent"
    NONTRIVIAL_EMPTY_DIVISOR_PART = "nontrivial-f0"
    PREFIX_INCONSISTENT = "prefix-inconsistent"


@dataclass(frozen=True)
class Certificate:
    verdict: CertificateVerdict
    decomposition: CanonicalDecomposition | None
    witness: InconsistencyWitness | None


# ----------------------------------------------------------------------
# decomposition


def fit_cusp_form(b0_prefix, basis: CuspFormBasis) -> tuple:
    """Exact solve of the leading-coefficient system A c = b0: the
    coordinates c.

    Rows are indexed by the exponent n = 1..len(b0); by the validated
    rank invariant the solution is unique when one exists.  The first
    failing row is raised as the witness of a PrefixInconsistentError,
    which is the structural signal that the supplied unitary-part prefix
    belongs to no decomposition.
    """
    d = basis.dimension
    if d > len(b0_prefix):
        raise CorruptBasisError(
            f"basis dimension {d} exceeds the {len(b0_prefix)} available rows"
        )
    rational = [is_rational(x) for x in b0_prefix]
    bad = next((i for i, (ok, _) in enumerate(rational) if not ok), None)
    if bad is not None:
        residual, reason = None, "coefficient is not rational-valued"
    else:
        b = [value for _, value in rational]
        a_rows = [[form.coeff(n) for form in basis.forms] for n in range(1, len(b) + 1)]
        x, bad = solve_full_column_rank(a_rows, b)
        if bad is None:
            return tuple(x)
        residual = b[bad] - sum(a_rows[bad][j] * x[j] for j in range(d))
        if d == 0:
            reason = "no cusp forms exist but the prefix forces a nonzero g0"
        else:
            reason = "row contradicts the unique fit"
    raise PrefixInconsistentError(
        InconsistencyWitness(row=bad + 1, residual=residual, reason=reason)
    )


def working_precision(f: PGMF, precision: int) -> int:
    """Precision to which g0, f0 and the basis forms are needed for a
    decomposition of f to ``precision``.

    f1 = f / f0 is known to min(P_f, P_f0 + h) for f = q^h (1 + ...), so a
    pole of order k at the cusp (h = -k) costs f0 k extra terms.
    """
    return precision - min(f.expansion.lead, 0)


def basis_combination(coords, forms, level, precision) -> QExpansion:
    """sum c_i form_i over Q at ``level``, to ``precision`` or to the lowest
    precision of a form that enters it; a form on another level raises
    IncompatibleSeriesError."""
    combo = QExpansion.zero(level, precision)
    for c, form in zip(coords, forms):
        if c:
            combo = combo + form.truncate(min(form.precision, precision)).scale(c)
    return combo


def decompose_with_prefix(
    f: PGMF, f1_prefix, basis: CuspFormBasis, target_precision: int
) -> CanonicalDecomposition:
    """Reconstruct the canonical decomposition from the unitary-part prefix.

    Pipeline: prefix a1(h..h+kappa) -> a0 = q^-h f divided by the prefix
    series (``divide``) -> b0 = theta a0 / a0 (``theta_logderiv``) -> g0
    (exact basis fit) -> f0 = exp of the integrated g0 -> f1 = f / f0.
    When the cusp form space is trivial this collapses to f1 = f, f0 = 1
    (with the prefix checked against f, so a wrong prefix still surfaces
    as a witness).

    Raises PrefixInconsistentError when the fit has no solution,
    NotNormalizedError when f or the prefix does not start with 1,
    MalformedInputError when the prefix is not kappa+1 long, and
    PrecisionError when f, the basis, or the prefix cannot support the
    requested precision.
    """
    if basis.group != f.group:
        raise GroupMismatchError(f"basis is for {basis.group}, f is on {f.group}")
    e = f.expansion
    kap = max(kappa(f.group), 0)
    if e.precision < target_precision:
        raise PrecisionError(
            f"f is known to precision {e.precision}, below target {target_precision}"
        )
    if not f.normalized:
        raise NotNormalizedError("f must have leading coefficient 1")
    field = e.field
    prefix = [field.coerce(x) for x in f1_prefix]
    if len(prefix) != kap + 1:
        raise MalformedInputError(
            f"prefix must have length kappa+1 = {kap + 1}, got {len(prefix)}"
        )
    if prefix[0] != field.one:
        raise NotNormalizedError("prefix must start with 1")
    h = e.lead
    if e.precision < h + kap + 1:
        raise PrecisionError(
            f"need {kap + 1} coefficients of f from its lead, have {e.precision - h}"
        )
    prefix_series = QExpansion(e.level, 0, prefix, kap + 1, field)
    a0 = e.shift(-h).truncate(kap + 1).divide(prefix_series)
    b0 = a0.theta_logderiv()
    coords = fit_cusp_form([b0.coeff(n) for n in range(1, kap + 1)], basis)

    working = working_precision(f, target_precision)
    for form in basis.forms:
        if form.level != e.level:
            raise IncompatibleSeriesError(
                f"basis forms live at level {form.level}, f at level {e.level}"
            )
        if form.precision < working:
            raise PrecisionError(
                f"basis precision {form.precision} below working precision {working}"
            )
    g0 = basis_combination(coords, basis.forms, e.level, working)

    f0 = exp_from_logderiv(g0, working).promote(field)
    f1 = e.divide(f0, target_precision)
    return CanonicalDecomposition(
        f1=PGMF(f1, f.group),
        f0=PGMF(f0.truncate(target_precision), f.group),
        g0=g0.truncate(target_precision),
        basis_coords=coords,
    )


def verify_decomposition(f: PGMF, dec: CanonicalDecomposition, basis=None):
    """Replay the decomposition identities; diagnostic, never raises.

    Checks the product f1 * f0 against f, the logarithmic derivative of
    f0 against g0, and (when a basis is supplied) g0 against the fitted
    basis combination.  A failed comparison reports the first exponent
    where the two sides differ.
    """
    e = f.expansion
    f1 = dec.f1.expansion
    f0 = dec.f0.expansion

    def logderiv_pair():
        logd = f0.theta_logderiv()
        return logd, dec.g0.promote(logd.field)

    def fit_pair():
        g0 = dec.g0
        return basis_combination(dec.basis_coords, basis.forms, g0.level, g0.precision), g0

    checks = [
        check_entry(
            "f0-unit",
            (not f0.is_zero) and f0.lead == 0 and f0.coeff(0) == f0.field.one,
            "f0 does not start with constant term 1",
        ),
        check_entry(
            "f1-normalized",
            (not f1.is_zero) and f1.lead == e.lead and f1.coeff(e.lead) == f1.field.one,
            "f1 is not normalized at the lead of f",
        ),
        _agreement_check("product", lambda: (f1 * f0, e), IncompatibleSeriesError),
        _agreement_check(
            "logderiv", logderiv_pair, (IncompatibleSeriesError, DivisionByZeroSeriesError)
        ),
    ]
    if basis is None:
        checks.append(check_entry("basis-fit", None, "skipped: no basis supplied"))
    elif len(dec.basis_coords) != basis.dimension:
        checks.append(check_entry(
            "basis-fit", False,
            f"{len(dec.basis_coords)} coordinates for dimension {basis.dimension}",
        ))
    else:
        checks.append(
            _agreement_check("basis-fit", fit_pair, (IncompatibleSeriesError, PrecisionError))
        )
    return checks


def _agreement_check(name, build_pair, errors) -> dict:
    """The check that the two series ``build_pair()`` returns agree; an
    exception of the types ``errors`` fails it with its message."""
    try:
        bad = first_disagreement(*build_pair())
    except errors as exc:
        return check_entry(name, False, str(exc))
    return check_entry(name, bad is None, f"first discrepant exponent {bad}")


def self_prefix(f: PGMF, kap: int):
    """f's own leading kappa+1 coefficients (f must be normalized)."""
    e = f.expansion
    if not f.normalized:
        raise NotNormalizedError("f must have leading coefficient 1")
    h = e.lead
    if e.precision < h + kap + 1:
        raise PrecisionError(
            f"need {kap + 1} leading coefficients of f, have {e.precision - h}"
        )
    return [e.coeff(h + j) for j in range(kap + 1)]


def finite_order_certificate(
    f: PGMF, basis: CuspFormBasis, target_precision: int, prefix=None
) -> Certificate:
    """Classify f against the finite-order hypothesis at expansion level.

    A character of finite order forces f = f1, so by default the
    decomposition is attempted with f's own leading coefficients as the
    unitary-part prefix; that run must come back with f0 = 1.  Passing an
    explicit ``prefix`` instead encodes outside knowledge of the unitary
    part: a consistent fit with nontrivial f0 then certifies (contrapositive
    of the easy direction) that the character cannot have finite order if
    the data is exact, and an inconsistent fit refutes the prefix itself.

    The positive verdict is deliberately "consistent with": no finite
    amount of expansion data can prove finite order.
    """
    kap = max(kappa(f.group), 0)
    if prefix is None:
        prefix = self_prefix(f, kap)
    try:
        dec = decompose_with_prefix(f, prefix, basis, target_precision)
    except PrefixInconsistentError as exc:
        return Certificate(
            verdict=CertificateVerdict.PREFIX_INCONSISTENT,
            decomposition=None,
            witness=exc.witness,
        )
    if any(dec.basis_coords):
        return Certificate(
            verdict=CertificateVerdict.NONTRIVIAL_EMPTY_DIVISOR_PART,
            decomposition=dec,
            witness=None,
        )
    return Certificate(
        verdict=CertificateVerdict.CONSISTENT_WITH_FINITE_ORDER,
        decomposition=dec,
        witness=None,
    )


# ----------------------------------------------------------------------
# Galois norms and the conjugation operator


def galois_norm(f: PGMF) -> PGMF:
    """Product of all Galois conjugates; lands in rational coefficients.

    For a series over Q(zeta_m) this multiplies the images under
    zeta -> zeta^k over all k coprime to m, so every coefficient of the
    result is Galois-stable, hence rational; the output is retagged
    accordingly and its lead is phi(m) times the input lead.
    """
    e = f.expansion
    if e.field.is_rational_field:
        raise NotCyclotomicError("galois_norm needs a cyclotomic-tagged series")
    m = e.field.conductor
    norm = _product([e.galois_map(k) for k in range(1, m + 1) if gcd(k, m) == 1], mul)
    return PGMF(norm.as_rational_series(), f.group)


def k_operator(f: PGMF) -> PGMF:
    """Hecke conjugation operator on expansions: conjugate every Fourier
    coefficient.  The image stays on the same group: the twist diag(-1, 1)
    negates only b and c, and no defining congruence sees their sign."""
    return PGMF(f.expansion.conjugate_coeffs(), f.group)


def pgmf_product(f: PGMF, g: PGMF) -> PGMF:
    if f.group != g.group:
        raise GroupMismatchError(f"cannot multiply forms on {f.group} and {g.group}")
    return PGMF(f.expansion * g.expansion, f.group)


def pgmf_power(f: PGMF, m: int) -> PGMF:
    return PGMF(f.expansion ** m, f.group)


def denominator_prime_report(f: PGMF) -> frozenset:
    """Primes dividing any known coefficient denominator.

    Over a cyclotomic field these are the primes of the power-basis
    coordinate denominators.  Each distinct reduced denominator is
    factored on its own: their lcm, the stored denominator, may be a
    product of primes too tall to split by trial division.
    """
    e = f.expansion
    dens = {e.den // gcd(e.den, x) for x in e.nums}
    return frozenset(p for d in dens for p in prime_divisors(d))

