import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmfkit import jsonio
from gmfkit.cli import run
from gmfkit.errors import (
    CorruptBasisError,
    MalformedInputError,
    NoBasisAvailableError,
    PrecisionError,
)
from gmfkit.etaforms import (
    MAX_ETA_EXPONENT_SUM,
    MAX_ETA_PRECISION,
    CuspFormBasis,
    EtaQuotient,
    eta_expansion,
    eta_quotient_expansion,
    euler_product,
    load_basis,
    shipped_levels,
    shipped_quotient,
    _unit_factor,
    validate_basis,
)
from gmfkit.qseries import QExpansion
from gmfkit.subgroup import GAMMA, GAMMA0, GAMMA1, GroupDescriptor, invariants, kappa


def brute_force_euler(terms):
    """prod_{n=1}^{terms} (1 - q^n), multiplied out factor by factor."""
    f = QExpansion.one(1, terms)
    for n in range(1, terms):
        factor = QExpansion(1, 0, [1] + [0] * (n - 1) + [-1], terms)
        f = f * factor
    return f


class TestEulerProduct:
    def test_matches_brute_force_200(self):
        assert euler_product(200) == brute_force_euler(200)

    def test_pentagonal_support(self):
        e = euler_product(60)
        nonzero = {n for n in range(60) if e.coeff(n)}
        assert nonzero == {0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51, 57}


class TestEtaExpansion:
    def test_leading_terms(self):
        eta = eta_expansion(200)
        assert eta.level == 24 and eta.lead == 1
        expected = {1: 1, 25: -1, 49: -1, 121: 1, 169: 1}
        for n in range(1, 200):
            assert eta.coeff(n) == expected.get(n, 0)

    def test_non_pentagonal_coefficient_vanishes(self):
        assert eta_expansion(100).coeff(1 + 24 * 3) == 0

    def test_pentagonal_coefficient_plus_one(self):
        assert eta_expansion(150).coeff(1 + 24 * 5) == 1

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            eta_expansion(1)


class TestEtaQuotient:
    def test_parse_and_str(self):
        eq = EtaQuotient.parse("1^2 11^2")
        assert eq.terms == ((1, 2), (11, 2)) and eq.ambient_level == 11

    def test_parse_bare_divisor(self):
        assert EtaQuotient.parse("6").terms == ((6, 1),)

    def test_consolidation(self):
        eq = EtaQuotient(((2, 1), (2, 2), (1, 3)), 4)
        assert eq.terms == ((1, 3), (2, 3))

    def test_divisor_must_divide_ambient(self):
        with pytest.raises(MalformedInputError):
            EtaQuotient(((5, 1),), 11)

    @pytest.mark.parametrize("bad", [
        "1^a", "1^", "^2", "1^2^3",
        # int() reads these as 11, 11^2 or 1^2; a token is ASCII d or d^r
        "1_1", "1_1^2", "１１", "1^２", "1^+2", "+1^2",
    ])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(MalformedInputError):
            EtaQuotient.parse(bad)


class TestEtaQuotientExpansion:
    def test_discriminant_form(self):
        delta = eta_quotient_expansion(EtaQuotient(((1, 24),), 1), 8)
        assert delta.level == 1 and delta.lead == 1
        assert [delta.coeff(n) for n in range(1, 7)] == [1, -24, 252, -1472, 4830, -6048]

    def test_tau_multiplicativity_spot(self):
        delta = eta_quotient_expansion(EtaQuotient(((1, 24),), 1), 16)
        assert delta.coeff(1) == 1
        assert delta.coeff(6) == delta.coeff(2) * delta.coeff(3)
        assert delta.coeff(10) == delta.coeff(2) * delta.coeff(5)
        assert delta.coeff(15) == delta.coeff(3) * delta.coeff(5)

    def test_delta_times_inverse_is_one(self):
        delta = eta_quotient_expansion(EtaQuotient(((1, 24),), 1), 12)
        delta_inv = eta_quotient_expansion(EtaQuotient(((1, -24),), 1), 10)
        assert delta_inv.lead == -1
        prod = delta * delta_inv
        assert prod.lead == 0 and prod.coeff(0) == 1
        assert all(not c for c in prod.coeffs[1:])
        assert prod == delta * delta.inverse(prod.precision)

    def test_level_11_basis_form(self):
        f = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 11)
        assert f.level == 1
        assert [f.coeff(n) for n in range(1, 11)] == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2]

    def test_level_11_against_brute_force_product(self):
        # independent route: multiply the two eta factors as level-264 series
        prec264 = 264 * 12
        e1 = eta_expansion(24 * 12).rescale_level(264)
        e11_unit = euler_product(12).substitute_power(11).rescale_level(264)
        e11 = e11_unit.shift(121)
        brute = (e1 * e1) * (e11 * e11)
        fast = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 10)
        assert brute.truncate(264 * 10) == fast.rescale_level(264)

    def test_trivial_quotient(self):
        assert eta_quotient_expansion(EtaQuotient(((1, 1), (1, -1)), 1), 5) == QExpansion.one(1, 5)

    def test_eta_itself_stays_at_level_24(self):
        raw = eta_quotient_expansion(EtaQuotient(((1, 1),), 1), 120)
        assert raw.level == 24
        assert raw == eta_expansion(120)

    def test_concatenation_is_product(self):
        a = EtaQuotient(((1, 2),), 11)
        b = EtaQuotient(((11, 2),), 11)
        ab = EtaQuotient(((1, 2), (11, 2)), 11)
        pa = eta_quotient_expansion(a, 30 * 12)
        pb = eta_quotient_expansion(b, 30 * 12)
        assert pa.level == pb.level == 12
        prod = pa * pb
        assert prod.truncate(12 * 20) == eta_quotient_expansion(ab, 20).rescale_level(12)

    def test_insufficient_precision_for_negative_lead(self):
        with pytest.raises(PrecisionError):
            eta_quotient_expansion(EtaQuotient(((1, -24),), 1), -1)


def unit_product_oracle(pairs, terms):
    """prod_(d, r) prod_(n >= 1) (1 - q^(d n))^r to ``terms`` terms as a
    list of ints, multiplied or divided out one factor 1 - q^k at a time."""
    w = [1] + [0] * (terms - 1)
    for d, r in pairs:
        for k in range(d, terms, d):
            for _ in range(abs(r)):
                if r > 0:  # times 1 - q^k
                    for i in range(terms - 1, k - 1, -1):
                        w[i] -= w[i - k]
                else:  # times 1 / (1 - q^k) = 1 + q^k + q^(2k) + ...
                    for i in range(k, terms):
                        w[i] += w[i - k]
    return w


@st.composite
def quotient_and_precision(draw):
    """An ambient level N <= 36, up to four (d, r) with d | N and |r| <= 3,
    and a precision whose length at the quotient's level, 31 .. 65 terms,
    lies on either side of a multiple of 32."""
    n = draw(st.integers(1, 36))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    pairs = draw(st.lists(st.tuples(st.sampled_from(divisors), st.integers(-3, 3)), max_size=4))
    s = sum(d * r for d, r in pairs)
    level, lead = 24 // math.gcd(24, s), s // math.gcd(24, s)
    terms = draw(st.sampled_from([31, 32, 33, 63, 64, 65]))
    precision = lead + level * (terms - 1) + 1 + draw(st.integers(0, level - 1))
    return n, tuple(pairs), precision


@settings(max_examples=80, deadline=None)
@given(case=quotient_and_precision())
@example(case=(24, ((1, -3), (24, -1)), -9 + 8 * 32 + 1))  # lead -9 at level 8, 33 terms
@example(case=(36, ((36, -3), (4, 2)), -25 + 6 * 63 + 1))  # lead -25 at level 6, 64 terms
@example(case=(1, (), 65))  # the constant 1
def test_quotient_against_integer_product(case):
    n, pairs, precision = case
    s = sum(d * r for d, r in pairs)
    level, lead = 24 // math.gcd(24, s), s // math.gcd(24, s)
    terms = -(-(precision - lead) // level)
    w = unit_product_oracle(pairs, terms)
    f = eta_quotient_expansion(EtaQuotient(pairs, n), precision)
    assert (f.level, f.lead, f.precision) == (level, lead, precision)
    for e in range(lead, precision):
        k, off = divmod(e - lead, level)
        assert f.coeff(e) == (0 if off else w[k]), e
    assert eta_quotient_expansion(EtaQuotient(pairs, 2 * n), precision) == f
    for d, r in EtaQuotient(pairs, n).terms:
        assert _unit_factor(d, r, terms) == QExpansion(1, 0, unit_product_oracle([(d, r)], terms))


@pytest.mark.parametrize(
    "text",
    [" ".join(f"{d}^{r}" for d, r in shipped_quotient(n).terms) for n in shipped_levels()]
    + ["1^24", "1^-24", "1^24 2^-24", "1^6 2^-30", "3^-1 5^2"],
)
def test_eta_expand_against_integer_product(capsys, text):
    # the CLI's expansion of each shipped quotient, and of powers of the
    # Euler product that take Miller's recurrence or square-and-multiply
    pairs = EtaQuotient.parse(text).terms
    s = sum(d * r for d, r in pairs)
    level, lead = 24 // math.gcd(24, s), s // math.gcd(24, s)
    terms = 150
    assert run(["eta-expand", text, "--prec", str(lead + level * (terms - 1) + 1)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["level"], obj["lead"]) == (level, lead)
    w = unit_product_oracle(pairs, terms)
    assert obj["coeffs"] == [str(w[i // level]) if i % level == 0 else "0" for i in range(len(obj["coeffs"]))]


class TestSizeCaps:
    # Sizes of 10**12 would exhaust memory if anything were allocated for
    # them, so a PrecisionError (not a MemoryError) shows the early refusal.
    def test_eta_expansion_precision(self):
        eta_expansion(MAX_ETA_PRECISION)  # the cap itself is allowed
        for precision in (MAX_ETA_PRECISION + 1, 10**12):
            with pytest.raises(PrecisionError):
                eta_expansion(precision)

    def test_quotient_expansion_precision(self):
        delta = EtaQuotient(((1, 24),), 1)
        for precision in (MAX_ETA_PRECISION + 1, 10**12):
            with pytest.raises(PrecisionError):
                eta_quotient_expansion(delta, precision)

    def test_quotient_window_counts_negative_lead(self):
        # lead about -10**12 at level 24: a short precision still spans a huge window
        quotient = EtaQuotient(((1, -1), (10**12, -1)), 10**12)
        with pytest.raises(PrecisionError):
            eta_quotient_expansion(quotient, 5)

    def test_exponent_sum(self):
        EtaQuotient(((1, MAX_ETA_EXPONENT_SUM // 2), (2, -MAX_ETA_EXPONENT_SUM // 2)))
        with pytest.raises(MalformedInputError):
            EtaQuotient(((1, MAX_ETA_EXPONENT_SUM // 2), (2, -MAX_ETA_EXPONENT_SUM // 2 - 1)))
        with pytest.raises(MalformedInputError):
            EtaQuotient.parse(f"1^{10**12}")


class TestShippedCatalogue:
    def test_levels(self):
        assert shipped_levels() == [11, 14, 15, 20, 24, 27, 32, 36]

    @pytest.mark.parametrize("n", [11, 14, 15, 20, 24, 27, 32, 36])
    def test_each_loads_and_validates(self, n):
        group = GroupDescriptor(GAMMA0, n)
        basis = load_basis(group, 25)
        assert basis.dimension == 1
        form = basis.forms[0]
        assert form.level == 1 and form.lead == 1 and form.coeff(1) == 1
        assert all(c["passed"] for c in validate_basis(basis))

    @pytest.mark.parametrize("n", [11, 14, 15, 20, 24, 27, 32, 36])
    def test_kappa_is_one_on_shipped_groups(self, n):
        assert kappa(GroupDescriptor(GAMMA0, n)) == 1

    @pytest.mark.parametrize("n", [11, 14, 15, 20, 24, 27, 32, 36])
    def test_genus_is_one_on_shipped_groups(self, n):
        assert invariants(GroupDescriptor(GAMMA0, n)).genus == 1

    # the classical levels where X_0(N), X_1(N) and X(N) have genus 0
    GENUS_ZERO = {
        GAMMA0: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25},
        GAMMA1: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12},
        GAMMA: {1, 2, 3, 4, 5},
    }

    def test_shipped_basis_exactly_where_known(self):
        # the empty basis exactly where the computed genus is 0, the eta form
        # on the shipped levels, and no basis anywhere else
        for kind, top in ((GAMMA0, 100), (GAMMA1, 60), (GAMMA, 24)):
            empty = set()
            for n in range(1, top + 1):
                group = GroupDescriptor(kind, n)
                if kind == GAMMA0 and n in shipped_levels():
                    assert load_basis(group, 12).dimension == 1
                    continue
                try:
                    basis = load_basis(group, 12)
                except NoBasisAvailableError as exc:
                    assert invariants(group).genus > 0, group
                    assert str(exc) == f"no shipped basis for {group}; supply a basis data file"
                    continue
                assert basis.dimension == 0 and invariants(group).genus == 0, group
                assert all(c["passed"] for c in validate_basis(basis))
                empty.add(n)
            assert empty == self.GENUS_ZERO[kind], kind

    def test_genus_zero_at_level_25_or_below(self):
        # the coset tables, across level 25, give genus 0 at the classical
        # levels alone: load_basis refuses past 25 without building a table
        for kind, top in ((GAMMA0, 60), (GAMMA1, 60), (GAMMA, 30)):
            zero = {n for n in range(1, top + 1) if invariants(GroupDescriptor(kind, n)).genus == 0}
            assert zero == self.GENUS_ZERO[kind] and max(zero) <= 25, kind

    @pytest.mark.parametrize("group", ["gamma:200", "gamma1:100000000", "gamma0:1000000000000000003"])
    def test_group_past_the_table_cap_has_no_basis(self, group):
        group = GroupDescriptor.parse(group)
        with pytest.raises(NoBasisAvailableError, match=r"^no shipped basis for "):
            load_basis(group, 10)

    def test_sl2_empty_basis(self):
        basis = load_basis(GroupDescriptor(GAMMA0, 1), 10)
        assert basis.dimension == 0
        assert all(c["passed"] for c in validate_basis(basis))

    def test_unknown_group_raises(self):
        with pytest.raises(NoBasisAvailableError):
            load_basis(GroupDescriptor(GAMMA0, 17), 10)  # genus 1 but no eta recipe shipped


class TestValidateBasis:
    def test_duplicate_form_fails_rank(self):
        group = GroupDescriptor(GAMMA0, 11)
        form = eta_quotient_expansion(shipped_quotient(11), 10)
        basis = CuspFormBasis(group, (form, form))
        report = {c["check"]: c["passed"] for c in validate_basis(basis)}
        assert report["leading-rank"] is False
        assert report["dimension-bound"] is False  # d = 2 > kappa = 1

    def test_zero_lead_fails(self):
        group = GroupDescriptor(GAMMA0, 11)
        basis = CuspFormBasis(group, (QExpansion.one(1, 5),))
        report = {c["check"]: c["passed"] for c in validate_basis(basis)}
        assert report["positive-lead"] is False

    def test_empty_basis_vacuously_passes(self):
        basis = CuspFormBasis(GroupDescriptor(GAMMA0, 2), ())
        assert all(c["passed"] for c in validate_basis(basis))

    def test_dimension_must_be_the_genus(self):
        group = GroupDescriptor(GAMMA0, 11)
        report = {c["check"]: c for c in validate_basis(CuspFormBasis(group, ()))}
        assert report["dimension-bound"] == {
            "check": "dimension-bound", "passed": False, "detail": "dimension 0, genus 1"
        }
        assert report["leading-rank"]["passed"] is True


class TestBasisDataFiles:
    def _write(self, tmp_path, group_text, forms):
        payload = {"group": group_text, "forms": [jsonio.series_to_obj(f) for f in forms]}
        path = tmp_path / "basis.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_roundtrip(self, tmp_path):
        group = GroupDescriptor(GAMMA0, 11)
        form = eta_quotient_expansion(shipped_quotient(11), 40)
        path = self._write(tmp_path, "gamma0:11", [form])
        basis = load_basis(group, 30, path)
        assert basis.dimension == 1
        assert basis.forms[0] == form.truncate(30)

    def test_group_mismatch(self, tmp_path):
        form = eta_quotient_expansion(shipped_quotient(11), 20)
        path = self._write(tmp_path, "gamma0:14", [form])
        with pytest.raises(MalformedInputError):
            load_basis(GroupDescriptor(GAMMA0, 11), 10, path)

    def test_rank_deficient_file(self, tmp_path):
        form = eta_quotient_expansion(shipped_quotient(11), 20)
        path = self._write(tmp_path, "gamma0:11", [form, form.scale(F(2))])
        with pytest.raises(CorruptBasisError):
            load_basis(GroupDescriptor(GAMMA0, 11), 10, path)

    def test_empty_file_for_a_genus_one_group(self, tmp_path):
        path = self._write(tmp_path, "gamma0:11", [])
        with pytest.raises(CorruptBasisError, match="dimension-bound"):
            load_basis(GroupDescriptor(GAMMA0, 11), 10, path)

    def test_insufficient_precision(self, tmp_path):
        form = eta_quotient_expansion(shipped_quotient(11), 5)
        path = self._write(tmp_path, "gamma0:11", [form])
        with pytest.raises(PrecisionError):
            load_basis(GroupDescriptor(GAMMA0, 11), 50, path)
