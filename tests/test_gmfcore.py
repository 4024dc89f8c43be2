import random
from fractions import Fraction as F

import pytest

from conftest import assert_agree
from gmfkit.cli import decomposition_from_obj, decomposition_to_obj
from gmfkit.errors import (
    GroupMismatchError,
    IncompatibleSeriesError,
    MalformedInputError,
    NotCyclotomicError,
    NotNormalizedError,
    PrecisionError,
    PrefixInconsistentError,
)
from gmfkit.etaforms import CuspFormBasis, EtaQuotient, eta_quotient_expansion, load_basis
from gmfkit.etaforms import shipped_levels
from gmfkit.gmfcore import (
    PGMF,
    CanonicalDecomposition,
    CertificateVerdict,
    decompose_with_prefix,
    denominator_prime_report,
    finite_order_certificate,
    fit_cusp_form,
    galois_norm,
    k_operator,
    pgmf_power,
    pgmf_product,
    self_prefix,
    verify_decomposition,
)
from gmfkit.jsonio import all_checks_passed
from gmfkit.numberfield import RATIONAL, CyclotomicElement, FieldTag
from gmfkit.qseries import QExpansion, exp_from_logderiv
from gmfkit.subgroup import GAMMA0, GroupDescriptor, kappa
from synth_helpers import make_cyclotomic_instance, make_instance

G11 = GroupDescriptor(GAMMA0, 11)
SL2 = GroupDescriptor(GAMMA0, 1)
BASIS11 = load_basis(G11, 90)
EMPTY = load_basis(SL2, 40)
ETA11 = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 80)


def cofactor(f, prefix):
    """a0 = q^-h f divided by the prefix series, to len(prefix) terms: the
    first stage of decompose_with_prefix."""
    prefix_series = QExpansion(f.level, 0, prefix, len(prefix), f.field)
    return list(f.shift(-f.lead).truncate(len(prefix)).divide(prefix_series).coeffs)


def b0_prefix(a0, field=RATIONAL):
    """b0(1..kappa): the coefficients of theta a0 / a0, the second stage."""
    logd = QExpansion(1, 0, a0, len(a0), field).theta_logderiv()
    return [logd.coeff(n) for n in range(1, len(a0))]


class TestCofactorPrefix:
    def test_worked_product(self):
        f = QExpansion(1, 1, [1, 0, -1], 10)  # q - q^3 = (q - q^2)(1 + q)
        assert cofactor(f, [1, -1]) == [F(1), F(1)]

    def test_own_prefix_forces_trivial_cofactor(self):
        assert cofactor(ETA11, [1, -2]) == [F(1), F(0)]
        long = cofactor(ETA11, self_prefix(PGMF(ETA11, G11), 6))
        assert long == [F(1)] + [F(0)] * 6

    def test_kappa_zero(self):
        assert cofactor(QExpansion(1, 0, [1, 9, 4], 5), [1]) == [F(1)]

    # the guards decompose_with_prefix runs before the division
    def test_requires_normalized(self):
        f = PGMF(QExpansion(1, 0, [2, 1], 4), SL2)
        with pytest.raises(NotNormalizedError, match="f must have leading coefficient 1"):
            decompose_with_prefix(f, [1], CuspFormBasis(SL2, ()), 4)

    def test_prefix_length_checked(self):
        f = PGMF(QExpansion(1, 0, [1, 1, 1], 5), G11)
        with pytest.raises(MalformedInputError, match="length kappa\\+1 = 2, got 3"):
            decompose_with_prefix(f, [1, 0, 0], CuspFormBasis(G11, ()), 5)

    def test_precision_guard(self):
        g17 = GroupDescriptor(GAMMA0, 17)
        assert kappa(g17) == 2
        f = PGMF(QExpansion(1, 0, [1, 1], 2), g17)
        with pytest.raises(PrecisionError, match="need 3 coefficients of f from its lead"):
            decompose_with_prefix(f, [1, 1, 1], CuspFormBasis(g17, ()), 2)


class TestLogderivPrefix:
    def test_trivial(self):
        assert b0_prefix([F(1), F(0), F(0), F(0)]) == [F(0)] * 3

    def test_single_step(self):
        assert b0_prefix([F(1), F(1)]) == [F(1)]

    def test_exponential_pattern(self):
        assert b0_prefix([F(1), F(1), F(1, 2)]) == [F(1), F(0)]

    def test_inverts_exp(self):
        g = QExpansion(1, 1, [F(3), F(-1, 2), F(5)], 4)
        f = exp_from_logderiv(g, 4)
        assert b0_prefix(list(f.coeffs)) == [F(3), F(-1, 2), F(5)]

    def test_cyclotomic_coefficients(self):
        z = CyclotomicElement.zeta(3)
        one = CyclotomicElement.from_rational(3, 1)
        q3 = FieldTag.cyclotomic(3)
        # b0(1) = a0(1) = z; b0(2) = 2 a0(2) - b0(1) a0(1) = z^2
        assert b0_prefix([one, z, z * z], q3) == [z, z * z]
        assert b0_prefix([F(1), z, z * z], q3) == [z, z * z]


class TestFitCuspForm:
    def test_one_dimensional(self):
        assert fit_cusp_form([F(3)], BASIS11) == (F(3),)

    def test_zero_vector(self):
        assert fit_cusp_form([F(0)], BASIS11) == (F(0),)

    def test_empty_basis_inconsistency(self):
        with pytest.raises(PrefixInconsistentError) as info:
            fit_cusp_form([F(0), F(2)], EMPTY)
        assert info.value.witness.row == 2 and info.value.witness.residual == F(2)

    def test_empty_basis_zero_prefix(self):
        assert fit_cusp_form([F(0), F(0)], EMPTY) == ()

    def test_overdetermined_consistent(self):
        # two-column synthetic basis over gamma0:11's kappa is impossible,
        # so fabricate a gamma(7)-sized system directly on the solver
        from gmfkit.etaforms import CuspFormBasis
        from gmfkit.subgroup import GAMMA, GroupDescriptor as GD

        g7 = GD(GAMMA, 7)
        assert kappa(g7) == 5
        f1 = QExpansion(7, 1, [1, 0, 0, 1, 2], 6)
        f2 = QExpansion(7, 2, [1, 1, 0, -1], 6)
        f3 = QExpansion(7, 3, [2, 0, 5], 6)
        basis = CuspFormBasis(g7, (f1, f2, f3))
        combo = f1.scale(2) + f2.scale(F(-1, 3)) + f3.scale(5)
        b0 = [combo.coeff(n) for n in range(1, 6)]
        assert fit_cusp_form(b0, basis) == (F(2), F(-1, 3), F(5))

        bad = list(b0)
        bad[4] += F(1, 7)
        with pytest.raises(PrefixInconsistentError) as info:
            fit_cusp_form(bad, basis)
        assert info.value.witness.row == 5
        assert info.value.witness.residual == F(1, 7)

    def test_cyclotomic_value_witness(self):
        z = CyclotomicElement.zeta(3)
        with pytest.raises(PrefixInconsistentError) as info:
            fit_cusp_form([z], BASIS11)
        assert info.value.witness.row == 1 and info.value.witness.residual is None


def synthetic_worked_example(precision=60):
    g = BASIS11.forms[0]
    f1_star = ETA11
    g0_star = g.truncate(precision + 4).scale(3)
    f0_star = exp_from_logderiv(g0_star, precision + 4)
    return PGMF(f1_star * f0_star, G11), f1_star, f0_star, g0_star


class TestDecomposeWithPrefix:
    def test_worked_example_exact_recovery(self):
        f, f1_star, f0_star, g0_star = synthetic_worked_example()
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 60)
        assert dec.basis_coords == (F(3),)
        assert dec.g0 == BASIS11.forms[0].truncate(60).scale(3)
        assert dec.f0.expansion == f0_star.truncate(60)
        assert dec.f1.expansion == f1_star.truncate(60)
        assert dec.f1.normalized and dec.f0.normalized

    def test_classical_input_gives_trivial_f0(self):
        f = PGMF(ETA11, G11)
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 60)
        assert dec.basis_coords == (F(0),)
        assert dec.f0.expansion == QExpansion.one(1, 60)
        assert dec.f1.expansion == ETA11.truncate(60)

    def test_trivial_space_branch(self):
        f = PGMF(QExpansion(1, 0, [1] + list(range(2, 30)), 29), SL2)
        dec = decompose_with_prefix(f, [1], EMPTY, 20)
        assert dec.f1.expansion == f.expansion.truncate(20)
        assert dec.f0.expansion == QExpansion.one(1, 20)
        assert dec.g0.is_zero and dec.basis_coords == ()

    def test_group_mismatch(self):
        f = PGMF(ETA11, SL2)
        with pytest.raises(GroupMismatchError):
            decompose_with_prefix(f, [1], BASIS11, 20)

    def test_precision_shortfall(self):
        f = PGMF(ETA11.truncate(10), G11)
        with pytest.raises(PrecisionError):
            decompose_with_prefix(f, [1, -2], BASIS11, 60)

    def test_prefix_must_start_with_one(self):
        f, *_ = synthetic_worked_example(30)
        with pytest.raises(NotNormalizedError, match="^prefix must start with 1$"):
            decompose_with_prefix(f, [2, -2], BASIS11, 30)

    def test_basis_at_another_level(self):
        # the forms' coefficients fit the prefix, but they are tagged level 22
        f, *_ = synthetic_worked_example(30)
        forms = tuple(QExpansion(22, g.lead, g.coeffs, g.precision) for g in BASIS11.forms)
        with pytest.raises(IncompatibleSeriesError, match="^basis forms live at level 22, f at level 1$"):
            decompose_with_prefix(f, [1, -2], CuspFormBasis(G11, forms), 30)

    def test_basis_below_working_precision(self):
        f, *_ = synthetic_worked_example(30)
        short = CuspFormBasis(G11, tuple(g.truncate(20) for g in BASIS11.forms))
        with pytest.raises(PrecisionError, match="^basis precision 20 below working precision 30$"):
            decompose_with_prefix(f, [1, -2], short, 30)

    def test_inconsistent_prefix_raises_with_witness(self):
        g13 = GroupDescriptor(GAMMA0, 13)
        assert kappa(g13) == 1
        b13 = load_basis(g13, 40)
        assert b13.dimension == 0
        delta = eta_quotient_expansion(EtaQuotient(((1, 24),), 1), 40)
        f = PGMF(delta, g13)
        with pytest.raises(PrefixInconsistentError) as err:
            decompose_with_prefix(f, [1, 5], b13, 30)
        assert err.value.witness.row == 1

    def test_laurent_input(self):
        # unitary part with a pole at infinity
        quot = EtaQuotient(((1, -22), (11, 2)), 11)  # sum d r = 0 -> lead 0? no: -22 + 22 = 0
        f1_star = eta_quotient_expansion(quot, 40)
        assert f1_star.lead == 0
        g0_star = BASIS11.forms[0].truncate(44).scale(F(-2, 7))
        f0_star = exp_from_logderiv(g0_star, 44)
        f = PGMF(f1_star * f0_star, G11)
        dec = decompose_with_prefix(f, [f1_star.coeff(0), f1_star.coeff(1)], BASIS11, 40)
        assert dec.basis_coords == (F(-2, 7),)
        assert dec.f1.expansion == f1_star.truncate(40)

    def test_roundtrip_through_json(self):
        f, *_ = synthetic_worked_example(30)
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 30)
        obj = decomposition_to_obj(dec)
        back = decomposition_from_obj(obj, G11)
        assert back == dec


class TestVerifyDecomposition:
    def test_clean_output_passes(self):
        f, *_ = synthetic_worked_example()
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 60)
        report = verify_decomposition(f, dec, BASIS11)
        assert all_checks_passed(report)
        assert {c["check"] for c in report} == {
            "f0-unit",
            "f1-normalized",
            "product",
            "logderiv",
            "basis-fit",
        }

    def test_perturbed_f0_fails_product_at_exponent(self):
        f, *_ = synthetic_worked_example()
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 60)
        coeffs = list(dec.f0.expansion.coeffs)
        coeffs[5] += 1
        broken = CanonicalDecomposition(
            f1=dec.f1,
            f0=PGMF(QExpansion(1, 0, coeffs, 60), G11),
            g0=dec.g0,
            basis_coords=dec.basis_coords,
        )
        report = {c["check"]: c for c in verify_decomposition(f, broken, BASIS11)}
        assert report["product"]["passed"] is False
        assert "exponent 6" in report["product"]["detail"]  # h + 5 with h = 1

    # (check, spoiled part, exponent): f1 leads at q^1 and f0 at q^0 with
    # constant term 1, so a change at exponent n shows first at n in f1 * f0
    # and in theta f0 / f0; g0 against its basis fit shows it at n as well
    SPOILED = [("product", "f1", 7), ("logderiv", "f0", 9), ("logderiv", "g0", 4),
               ("basis-fit", "g0", 11)]

    @pytest.mark.parametrize("delta", [F(1), F(1, 1000003)], ids=["same-den", "new-prime"])
    @pytest.mark.parametrize("check, part, n", SPOILED)
    def test_spoiled_coefficient_reported_at_its_exponent(self, check, part, n, delta):
        f, *_ = synthetic_worked_example()
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 60)
        parts = {"f1": dec.f1.expansion, "f0": dec.f0.expansion, "g0": dec.g0}
        s = parts[part]
        coeffs = list(s.coeffs)
        coeffs[n - s.lead] += delta
        parts[part] = QExpansion(s.level, s.lead, coeffs, s.precision, s.field)
        # a new prime changes the canonical denominator, so the two sides of
        # the check are brought to a common one before they are compared
        assert (parts[part].den == s.den) == (delta == 1)
        broken = CanonicalDecomposition(
            f1=PGMF(parts["f1"], G11),
            f0=PGMF(parts["f0"], G11),
            g0=parts["g0"],
            basis_coords=dec.basis_coords,
        )
        report = {c["check"]: c for c in verify_decomposition(f, broken, BASIS11)}
        assert report[check] == {
            "check": check, "passed": False, "detail": f"first discrepant exponent {n}"
        }

    def test_zeroed_g0_fails_logderiv(self):
        f, *_ = synthetic_worked_example()
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 60)
        broken = CanonicalDecomposition(
            f1=dec.f1,
            f0=dec.f0,
            g0=QExpansion.zero(1, 60),
            basis_coords=(F(0),),
        )
        report = {c["check"]: c for c in verify_decomposition(f, broken, BASIS11)}
        assert report["logderiv"]["passed"] is False

    def test_zero_f0_fails_logderiv(self):
        f, *_ = synthetic_worked_example()
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 60)
        broken = CanonicalDecomposition(
            f1=dec.f1,
            f0=PGMF(QExpansion.zero(1, 60), G11),
            g0=dec.g0,
            basis_coords=dec.basis_coords,
        )
        report = {c["check"]: c for c in verify_decomposition(f, broken, BASIS11)}
        assert report["logderiv"]["passed"] is False
        assert report["logderiv"]["detail"] == "logarithmic derivative of the zero series"

    def test_missing_basis_marks_skip(self):
        f, *_ = synthetic_worked_example(30)
        dec = decompose_with_prefix(f, [1, -2], BASIS11, 30)
        report = {c["check"]: c for c in verify_decomposition(f, dec)}
        assert report["basis-fit"]["passed"] is None
        assert all_checks_passed(list(report.values()))


class TestCertificates:
    def test_classical_eta_quotient_consistent(self):
        cert = finite_order_certificate(PGMF(ETA11, G11), BASIS11, 60)
        assert cert.verdict is CertificateVerdict.CONSISTENT_WITH_FINITE_ORDER
        assert cert.decomposition.f0.expansion == QExpansion.one(1, 60)
        assert cert.decomposition.basis_coords == (F(0),)

    def test_synthetic_with_known_prefix_is_nontrivial(self):
        f, *_ = synthetic_worked_example()
        cert = finite_order_certificate(f, BASIS11, 60, prefix=[1, -2])
        assert cert.verdict is CertificateVerdict.NONTRIVIAL_EMPTY_DIVISOR_PART
        assert cert.decomposition.basis_coords == (F(3),)
        assert cert.decomposition.g0 == BASIS11.forms[0].truncate(60).scale(3)

    def test_trivial_space_always_consistent(self):
        f = PGMF(QExpansion(1, 0, [1, 17, -3, F(1, 5)], 25).truncate(25), SL2)
        cert = finite_order_certificate(f, EMPTY, 20)
        assert cert.verdict is CertificateVerdict.CONSISTENT_WITH_FINITE_ORDER

    def test_prefix_inconsistent_verdict(self):
        g13 = GroupDescriptor(GAMMA0, 13)
        b13 = load_basis(g13, 40)
        delta = eta_quotient_expansion(EtaQuotient(((1, 24),), 1), 40)
        cert = finite_order_certificate(PGMF(delta, g13), b13, 30, prefix=[1, 5])
        assert cert.verdict is CertificateVerdict.PREFIX_INCONSISTENT
        assert cert.witness.row == 1

    def test_prefix_sensitivity(self):
        rng = random.Random(42)
        for level in (11, 24):
            group = GroupDescriptor(GAMMA0, level)
            basis = load_basis(group, 90)
            for _ in range(5):
                inst = make_instance(group, basis, rng, 40)
                delta = F(rng.randint(1, 50), rng.randint(1, 50))
                perturbed = list(inst["prefix"])
                perturbed[1] += delta
                cert = finite_order_certificate(inst["f"], basis, 40, prefix=perturbed)
                if cert.verdict is CertificateVerdict.PREFIX_INCONSISTENT:
                    continue
                assert cert.decomposition.g0 != inst["g0"].truncate(40)


class TestReconstructionInvariant:
    @pytest.mark.parametrize("level", shipped_levels())
    def test_random_instances(self, level):
        group = GroupDescriptor(GAMMA0, level)
        basis = load_basis(group, 90)
        rng = random.Random(level)
        for _ in range(3):
            inst = make_instance(group, basis, rng, 60)
            dec = decompose_with_prefix(inst["f"], inst["prefix"], basis, 60)
            assert dec.f1.expansion == inst["f1"].truncate(60)
            assert dec.f0.expansion == inst["f0"].truncate(60)
            assert dec.basis_coords == inst["coords"]
            assert_agree(
                inst["f"].expansion.theta_logderiv(),
                dec.f1.expansion.theta_logderiv() + dec.g0.promote(dec.g0.field),
            )


class TestGaloisNorm:
    def test_rational_valued_cyclotomic_series_squares(self):
        tag = FieldTag.cyclotomic(3)
        base = QExpansion(1, 0, [2, 5, -1], 8)
        f = PGMF(base.promote(tag), SL2)
        norm = galois_norm(f)
        assert norm.expansion.field == RATIONAL
        assert_agree(norm.expansion, base * base)

    def test_zeta3_example(self):
        tag = FieldTag.cyclotomic(3)
        z = CyclotomicElement.zeta(3)
        f = PGMF(QExpansion(1, 0, [1, z], 6, tag), SL2)
        norm = galois_norm(f)
        assert [norm.expansion.coeff(n) for n in range(3)] == [F(1), F(-1), F(1)]

    def test_output_rational_on_random_series(self):
        rng = random.Random(8)
        from synth_helpers import random_cyclotomic_element

        for m in (3, 4, 5, 8, 12):
            tag = FieldTag.cyclotomic(m)
            coeffs = [CyclotomicElement.from_rational(m, 1)] + [
                random_cyclotomic_element(rng, m) for _ in range(8)
            ]
            f = PGMF(QExpansion(1, 1, coeffs, 10, tag), SL2)
            norm = galois_norm(f)
            assert norm.expansion.field == RATIONAL

    def test_lead_scales_by_phi(self):
        tag = FieldTag.cyclotomic(5)
        f = PGMF(QExpansion(1, 2, [1, CyclotomicElement.zeta(5)], 8, tag), SL2)
        assert galois_norm(f).expansion.lead == 4 * 2

    def test_rejects_rational_field(self):
        with pytest.raises(NotCyclotomicError):
            galois_norm(PGMF(QExpansion.one(1, 4), SL2))

    def test_multiplicativity(self):
        tag = FieldTag.cyclotomic(4)
        z = CyclotomicElement.zeta(4)
        f = PGMF(QExpansion(1, 0, [1, z, 2], 8, tag), SL2)
        g = PGMF(QExpansion(1, 1, [1, -z], 8, tag), SL2)
        lhs = galois_norm(pgmf_product(f, g)).expansion
        rhs = galois_norm(f).expansion * galois_norm(g).expansion
        assert_agree(lhs, rhs)


class TestKOperator:
    def test_real_coefficients_fixed(self):
        f = PGMF(ETA11.truncate(30), G11)
        assert k_operator(f).expansion == f.expansion

    def test_conjugates_coefficients(self):
        tag = FieldTag.cyclotomic(4)
        z = CyclotomicElement.zeta(4)
        f = PGMF(QExpansion(1, 0, [1, z], 5, tag), G11)
        assert k_operator(f).expansion.coeff(1) == -z

    def test_involution(self):
        rng = random.Random(31)
        from synth_helpers import random_cyclotomic_element

        tag = FieldTag.cyclotomic(12)
        coeffs = [1] + [random_cyclotomic_element(rng, 12) for _ in range(7)]
        f = PGMF(QExpansion(1, -2, coeffs, 6, tag), G11)
        assert k_operator(k_operator(f)).expansion == f.expansion

    def test_decomposition_of_conjugated_form(self):
        rng = random.Random(77)
        for m in (3, 8):
            inst = make_cyclotomic_instance(G11, BASIS11, rng, m, 40)
            f = inst["f"]
            dec = decompose_with_prefix(f, inst["prefix"], BASIS11, 40)
            kf = k_operator(f)
            conj_prefix = [c.conjugate() for c in inst["prefix"]]
            dec_k = decompose_with_prefix(kf, conj_prefix, BASIS11, 40)
            assert dec_k.f1.expansion == k_operator(dec.f1).expansion
            assert dec_k.f0.expansion == k_operator(dec.f0).expansion
            assert dec_k.basis_coords == dec.basis_coords

    def test_real_heredity_over_cyclotomic_tag(self):
        rng = random.Random(13)
        tag = FieldTag.cyclotomic(4)
        inst = make_instance(G11, BASIS11, rng, 30)
        f = PGMF(inst["f"].expansion.promote(tag), G11)
        dec = decompose_with_prefix(f, inst["prefix"], BASIS11, 30)
        from gmfkit.numberfield import is_rational

        for part in (dec.f1.expansion, dec.f0.expansion):
            assert all(is_rational(c)[0] for c in part.coeffs)


class TestProductsAndPowers:
    def test_product_and_inverse(self):
        f = PGMF(ETA11.truncate(30), G11)
        unit = pgmf_product(pgmf_power(f, -1), f).expansion
        assert unit.lead == 0 and unit.coeff(0) == 1
        assert all(not c for c in unit.coeffs[1:])

    def test_power_one_is_identity(self):
        f = PGMF(ETA11.truncate(20), G11)
        assert pgmf_power(f, 1).expansion == f.expansion

    def test_lead_exponents_add(self):
        f = PGMF(ETA11.truncate(20), G11)
        assert pgmf_power(f, 2).expansion.lead == 2

    def test_group_mismatch(self):
        with pytest.raises(GroupMismatchError):
            pgmf_product(PGMF(ETA11, G11), PGMF(ETA11, SL2))

    def test_normalized_flag_recomputed(self):
        f = PGMF(ETA11.truncate(20).scale(3), G11)
        assert not f.normalized
        assert not pgmf_power(f, 2).normalized


class TestDenominatorReport:
    def test_integral_eta_quotient(self):
        assert denominator_prime_report(PGMF(ETA11.truncate(30), G11)) == frozenset()

    def test_exp_factorial_denominators(self):
        e = exp_from_logderiv(QExpansion.monomial(1, 1, 6), 6)
        assert denominator_prime_report(PGMF(e, SL2)) == {2, 3, 5}

    def test_single_denominator(self):
        f = PGMF(QExpansion(1, 0, [1, F(1, 7)], 4), SL2)
        assert denominator_prime_report(f) == {7}

    def test_cyclotomic_flagged(self):
        tag = FieldTag.cyclotomic(4)
        z = CyclotomicElement(4, [F(1, 6), F(1, 5)])
        f = PGMF(QExpansion(1, 0, [1, z], 4, tag), SL2)
        assert denominator_prime_report(f) == {2, 3, 5}
