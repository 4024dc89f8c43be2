"""Dedekind eta expansions, eta quotients, and weight-2 cusp form bases.

The eta function is never stored as data: everything regenerates from the
pentagonal-number expansion of the Euler product E = prod (1 - q^n).  An
eta quotient prod eta(d z)^(r_d) is q_24^s, s = sum d r_d, times a unit
series in q = q_1, so it lives at level 24 / gcd(24, s), which lands
classical quotients (like the shipped basis forms) at level 1; the
ambient level N only bounds which divisors d may occur.  Each factor
E(q^d)^r is E powered at its own length and only then spread d-fold.

The shipped basis catalogue covers the genus-one Gamma_0(N) whose
one-dimensional space of weight-2 cusp forms is spanned by a known eta
quotient, and every group whose coset table gives genus 0, so the space 0;
none has level above 25, where no table is built.  Anything else comes in
through basis data files.

An ``EtaQuotient`` and a ``CuspFormBasis`` are immutable values
(``numberfield._Value``); a quotient's constructor merges and sorts its
terms and derives its ambient level, and those two fields decide equality.
"""

from __future__ import annotations

import math
import re
from operator import mul

from . import jsonio
from .errors import (
    CorruptBasisError,
    MalformedInputError,
    NoBasisAvailableError,
    PrecisionError,
)
from .linalg import rank
from .numberfield import RATIONAL, _product, _Value
from .qseries import MAX_TERMS, QExpansion
from .subgroup import GAMMA0, GroupDescriptor, invariants

# Caps on what an eta expansion may be asked for, far above every shipped
# or documented use (24 * 500 exponents, sum |r_d| = 48), so that an
# outsized request is refused before anything is allocated.
MAX_ETA_PRECISION = MAX_TERMS  # exponents from min(lead, 0) up to precision
MAX_ETA_EXPONENT_SUM = 1_000  # sum |r_d| of an eta quotient


def euler_product(terms: int) -> QExpansion:
    """prod_{n>=1} (1 - q^n) to the given number of terms, at level 1.

    Pentagonal number theorem: the coefficient of q^e is (-1)^k when
    e = k(3k -+ 1)/2 and zero otherwise.
    """
    if terms < 1:
        raise PrecisionError("need at least one term")
    coeffs = [0] * terms
    coeffs[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= terms and e2 >= terms:
            break
        sign = -1 if k % 2 else 1
        if e1 < terms:
            coeffs[e1] = sign
        if e2 < terms:
            coeffs[e2] = sign
        k += 1
    return QExpansion._from_integers(1, 0, coeffs, 1, terms, RATIONAL)


def eta_expansion(precision: int) -> QExpansion:
    """eta(z) at level 24: q24 * sum_k (-1)^k q24^(12 k (3k-1)), i.e.
    support on the odd squares (6k-1)^2."""
    return eta_quotient_expansion(EtaQuotient(((1, 1),), 1), precision)


class EtaQuotient(_Value):
    """prod_d eta(d z)^(r_d) with every divisor d dividing the ambient level.

    Construction consolidates repeated divisors and drops zero exponents;
    the empty quotient is the constant 1.  Fields: ``terms``, the tuple of
    (d, r_d) int pairs so merged, in increasing d, and ``ambient_level``, the
    int N, by default the lcm of the d; both decide equality.
    """

    __slots__ = ("terms", "ambient_level")

    def __init__(self, terms: tuple, ambient_level: int | None = None):
        merged: dict[int, int] = {}
        for d, r in terms:
            if d < 1:
                raise MalformedInputError(f"divisor must be positive, got {d}")
            merged[d] = merged.get(d, 0) + r
        terms = tuple(sorted((d, r) for d, r in merged.items() if r))
        ambient = ambient_level
        if ambient is None:
            ambient = math.lcm(*(d for d, _ in terms)) if terms else 1
        if not isinstance(ambient, int) or ambient < 1:
            raise MalformedInputError(f"bad ambient level {ambient!r}")
        for d, _ in terms:
            if ambient % d != 0:
                raise MalformedInputError(
                    f"divisor {d} does not divide the ambient level {ambient}"
                )
        weight = sum(abs(r) for _, r in terms)
        if weight > MAX_ETA_EXPONENT_SUM:
            raise MalformedInputError(
                f"exponent sum {weight} exceeds the cap {MAX_ETA_EXPONENT_SUM}"
            )
        super().__init__(terms, ambient)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.terms, self.ambient_level) == (other.terms, other.ambient_level)
        return NotImplemented

    def __hash__(self):
        return hash((self.terms, self.ambient_level))

    @classmethod
    def parse(cls, text: str, ambient_level: int | None = None) -> "EtaQuotient":
        """Parse the ``d1^r1 d2^r2 ...`` syntax, e.g. ``1^2 11^2``."""
        pairs = []
        for token in text.replace("−", "-").split():
            match = re.fullmatch(r"([0-9]+)(?:\^(-?[0-9]+))?", token)  # ASCII d or d^r
            if match is None:
                raise MalformedInputError(f"bad eta quotient token {token!r}")
            try:
                pairs.append((int(match[1]), int(match[2] or 1)))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise MalformedInputError(f"bad eta quotient token {token!r}") from None
        if not pairs:
            raise MalformedInputError("empty eta quotient expression")
        return cls(tuple(pairs), ambient_level)

    def __str__(self):
        return " ".join(f"{d}^{r}" for d, r in self.terms) if self.terms else "1^0"


def eta_quotient_expansion(eq: EtaQuotient, precision: int) -> QExpansion:
    """Expansion of an eta quotient, at the coarsest level its exponent
    lattice allows; ``precision`` counts in the units of that level.

    With s = sum d r_d the quotient is q_24^s w(q) for a unit series w at
    level 1, so it lives at level 24 / gcd(24, s) with lead s / gcd(24, s),
    and each factor of w is expanded at the length that level needs.
    """
    s = sum(d * r for d, r in eq.terms)
    step = math.gcd(24, s)
    out_level = 24 // step
    lead = s // step
    if precision <= lead:
        raise PrecisionError(
            f"precision {precision} does not reach past the lead exponent {lead}"
        )
    window = precision - min(lead, 0)
    if window > MAX_ETA_PRECISION:
        raise PrecisionError(
            f"expansion window of {window} exponents exceeds the cap {MAX_ETA_PRECISION}"
        )
    rel_terms = -(-(precision - lead) // out_level)
    factors = [_unit_factor(d, r, rel_terms) for d, r in eq.terms]
    unit = _product(factors or [QExpansion.one(1, rel_terms)], mul)
    return unit.rescale_level(out_level).shift(lead).truncate(precision)


def _unit_factor(d: int, r: int, terms: int) -> QExpansion:
    """prod_k (1 - q^(d k))^r to ``terms`` terms, a unit series at level 1.

    The Euler product is powered at its own length, ceil(terms / d), and
    only then spread d-fold: E(q^d)^r = (E^r)(q^d).
    """
    return (euler_product(-(-terms // d)) ** r).substitute_power(d).truncate(terms)


# ----------------------------------------------------------------------
# Shipped cusp form bases

# Genus-one Gamma_0(N) whose newform is an eta quotient; all have a(1) = 1.
_GENUS_ONE_ETA = {
    11: ((1, 2), (11, 2)),
    14: ((1, 1), (2, 1), (7, 1), (14, 1)),
    15: ((1, 1), (3, 1), (5, 1), (15, 1)),
    20: ((2, 2), (10, 2)),
    24: ((2, 1), (4, 1), (6, 1), (12, 1)),
    27: ((3, 2), (9, 2)),
    32: ((4, 2), (8, 2)),
    36: ((6, 4),),
}


class CuspFormBasis(_Value):
    """Rational-coefficient basis of the weight-2 cusp forms of a group:
    ``group``, a GroupDescriptor, and ``forms``, a tuple of QExpansion."""

    __slots__ = ("group", "forms")

    def __init__(self, group: GroupDescriptor, forms: tuple):
        super().__init__(group, forms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.group, self.forms) == (other.group, other.forms)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.forms))

    @property
    def dimension(self) -> int:
        return len(self.forms)


def shipped_levels():
    """Gamma_0 levels with a shipped one-dimensional eta-quotient basis."""
    return sorted(_GENUS_ONE_ETA)


def shipped_quotient(level: int) -> EtaQuotient:
    return EtaQuotient(_GENUS_ONE_ETA[level], level)


def load_basis(group: GroupDescriptor, precision: int, path=None) -> CuspFormBasis:
    """Basis expansions at the requested precision, regenerated from the
    shipped eta recipes or parsed from a data file; the dimension (the
    genus) and the leading-rank invariant are validated on load."""
    basis = _read_basis(group, precision, path)
    report = validate_basis(basis)
    bad = [c for c in report if c["passed"] is False]
    if bad:
        raise CorruptBasisError(
            "basis failed validation: " + "; ".join(c["check"] for c in bad)
        )
    return basis


def _read_basis(group: GroupDescriptor, precision: int, path=None) -> CuspFormBasis:
    """The basis ``load_basis`` returns, not yet validated."""
    if path is not None:
        return _basis_from_file(group, precision, path)
    if group.kind == GAMMA0 and group.level in _GENUS_ONE_ETA:
        form = eta_quotient_expansion(shipped_quotient(group.level), precision)
        return CuspFormBasis(group, (form,))
    # X_0(N) has genus 0 only for N <= 10, 12, 13, 16, 18 and 25 (Ogg), and
    # Gamma_1(N) and Gamma(N) lie inside Gamma_0(N): past level 25 every group
    # has cusp forms, and is refused without a coset table
    if group.level <= 25 and invariants(group).genus == 0:
        return CuspFormBasis(group, ())  # the weight-2 cusp form space is trivial
    raise NoBasisAvailableError(f"no shipped basis for {group}; supply a basis data file")


def _basis_from_file(group: GroupDescriptor, precision: int, path) -> CuspFormBasis:
    obj = jsonio.load_json_file(path)
    if not isinstance(obj, dict) or "group" not in obj or "forms" not in obj:
        raise MalformedInputError("basis file needs 'group' and 'forms' entries")
    file_group = GroupDescriptor.parse(obj["group"])
    if file_group != group:
        raise MalformedInputError(
            f"basis file is for {file_group}, requested {group}"
        )
    forms = []
    for entry in jsonio.require_json(obj["forms"], list, "basis forms must be a JSON array"):
        form = jsonio.series_from_obj(entry)
        if form.precision < precision:
            raise PrecisionError(
                f"basis form precision {form.precision} below requested {precision}"
            )
        forms.append(form.truncate(precision))
    return CuspFormBasis(group, tuple(forms))


def validate_basis(basis: CuspFormBasis):
    """Diagnostic checks; returns one entry per check, never raises."""
    forms = basis.forms
    d = len(forms)
    rational = all(f.field.is_rational_field for f in forms)
    leads_ok = all((not f.is_zero) and f.lead >= 1 for f in forms)
    inv = invariants(basis.group)
    kap, genus = inv.kappa, inv.genus
    rows = max(kap, 0)
    bound = f"dimension {d}, kappa {kap}"
    checks = [
        jsonio.check_entry("rational-coefficients", rational, "a form carries a cyclotomic field tag"),
        jsonio.check_entry("positive-lead", leads_ok, "a form is zero or has lead < 1"),
        jsonio.check_entry(
            "uniform-level", len({f.level for f in forms}) <= 1, "forms use different levels"
        ),
        # a basis spans S_2, whose dimension is the genus
        jsonio.check_entry(
            "dimension-bound",
            d <= rows and d == genus,
            bound if d > rows else f"dimension {d}, genus {genus}",
            bound,
        ),
    ]

    rank_ok = True
    detail = f"rank of the {rows}x{d} leading-coefficient matrix"
    if d > 0:
        if not rational or not leads_ok:
            rank_ok = False
            detail = "skipped: prior checks failed"
        else:
            try:
                matrix = [[f.coeff(nn) for f in forms] for nn in range(1, rows + 1)]
            except PrecisionError:
                rank_ok = False
                detail = f"forms too short to read {rows} leading coefficients"
            else:
                r = rank(matrix)
                rank_ok = r == d
                detail = f"rank {r} of the {rows}x{d} matrix, dimension {d}"
    checks.append(jsonio.check_entry("leading-rank", rank_ok, detail, detail))
    return checks
