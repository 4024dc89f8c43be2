import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_agree
from gmfkit.errors import (
    BadLevelError,
    DivisionByZeroSeriesError,
    IncompatibleSeriesError,
    InvalidAutomorphismError,
    NotExponentiableError,
    PrecisionError,
)
from gmfkit.etaforms import euler_product
from gmfkit.numberfield import CyclotomicElement, FieldTag
from gmfkit.qseries import MAX_POWER_BITS, MAX_TERMS, QExpansion, exp_from_logderiv, first_disagreement

TAG3 = FieldTag.cyclotomic(3)
Z3 = CyclotomicElement.zeta(3)


def poly_mul_oracle(f, g):
    """Plain convolution of two polynomial-like series, for cross-checks."""
    out = {}
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            e = f.lead + i + g.lead + j
            out[e] = out.get(e, F(0)) + a * b
    return out


class TestAdd:
    def test_zero_neutral(self, qs):
        f = qs(1, [1, 2, 3], 5)
        assert f + QExpansion.zero(1, 5) == f

    @pytest.mark.parametrize("zero_precision", [1, 2, 3, 5, 7])
    def test_zero_operand_gives_min_precision(self, qs, zero_precision):
        f = qs(2, [1, 2, 3], 5)
        z = QExpansion.zero(1, zero_precision)
        expected = f.truncate(min(5, zero_precision))
        assert f + z == expected and z + f == expected and z + z == z

    def test_cancellation_renormalizes_lead(self, qs):
        s = qs(1, [1, -1], 3) + qs(2, [1], 3)
        assert s.lead == 1 and s.coeff(1) == 1 and s.coeff(2) == 0

    def test_precision_is_min(self, qs):
        s = qs(0, [1, 1], 3) + QExpansion.one(1, 2)
        assert s.precision == 2 and s.coeffs == (F(2), F(1))

    def test_level_mismatch(self, qs):
        with pytest.raises(IncompatibleSeriesError):
            qs(0, [1]) + QExpansion.one(2, 3)

    def test_field_mismatch(self, qs):
        with pytest.raises(IncompatibleSeriesError):
            qs(0, [1], 3) + QExpansion.one(1, 3, TAG3)


class TestMul:
    def test_worked_product(self, qs):
        f, g = qs(1, [1, -1], 9), qs(0, [1, 1], 8)
        p = f * g
        oracle = poly_mul_oracle(f, g)
        for n in range(p.lead, p.precision):
            assert p.coeff(n) == oracle.get(n, F(0))
        assert p.coeff(1) == 1 and p.coeff(2) == 0 and p.coeff(3) == -1

    def test_one_neutral(self, qs):
        f = qs(2, [5, -7, 1], 9)
        assert f * QExpansion.one(1, 9) == f

    def test_laurent_leads_add(self):
        qinv = QExpansion.monomial(1, -1, 4)
        q = QExpansion.monomial(1, 1, 4)
        p = qinv * q
        assert p.lead == 0 and p.coeff(0) == 1

    def test_precision_contract(self, qs):
        f, g = qs(2, [1, 4], 7), qs(-1, [2, 0, 3], 5)
        assert (f * g).precision == min(7 + -1, 5 + 2)


class TestInverse:
    def test_geometric(self, qs):
        inv = qs(0, [1, -1], 7).inverse(7)
        assert inv.coeffs == tuple(F(1) for _ in range(7))

    def test_one(self):
        one = QExpansion.one(1, 5)
        assert one.inverse() == one

    def test_monomial(self):
        inv = QExpansion.monomial(1, 1, 6).inverse(4)
        assert inv.lead == -1 and inv.coeff(-1) == 1

    def test_zero_rejected(self):
        with pytest.raises(DivisionByZeroSeriesError):
            QExpansion.zero(1, 4).inverse()

    @pytest.mark.parametrize("target", [-2, -3])
    def test_target_at_or_below_lead_rejected(self, target):
        # q^2 + ... has inverse q^-2 + ...; a target <= -2 determines nothing
        with pytest.raises(PrecisionError):
            QExpansion.monomial(1, 2, 6).inverse(target)

    def test_mul_consistency(self, qs):
        rng = random.Random(3)
        for _ in range(20):
            lead = rng.randint(-2, 2)
            coeffs = [rng.randint(1, 4)] + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9)]
            f = QExpansion(1, lead, coeffs, lead + 10)
            prod = f * f.inverse()
            assert prod.lead == 0 and prod.coeff(0) == 1
            assert all(not c for c in prod.coeffs[1:])


class TestDivide:
    def test_agrees_with_inverse_route(self):
        rng = random.Random(4)
        for _ in range(20):
            hf, hg = rng.randint(-2, 3), rng.randint(-2, 2)
            f = QExpansion(1, hf, [rng.randint(-6, 6) for _ in range(8)] or [1], hf + 8)
            g = QExpansion(1, hg, [rng.choice([1, 2, -1])] + [rng.randint(-6, 6) for _ in range(7)], hg + 8)
            if f.is_zero:
                continue
            assert f.divide(g) == f * g.inverse()

    def test_zero_divisor_rejected(self, qs):
        with pytest.raises(DivisionByZeroSeriesError, match="^division by the zero series$"):
            qs(0, [1, 2], 4).divide(QExpansion.zero(1, 5))


class TestThetaLogderiv:
    def test_constant(self):
        assert QExpansion.one(1, 7).theta_logderiv().is_zero

    def test_one_minus_q(self, qs):
        t = qs(0, [1, -1], 6).theta_logderiv()
        assert [t.coeff(n) for n in range(1, 6)] == [F(-1)] * 5

    def test_pure_power(self):
        t = QExpansion.monomial(1, 3, 4).theta_logderiv()
        assert t.lead == 0 and t.coeffs == (F(3),) and t.precision == 1

    def test_scale_invariance(self, qs):
        f = qs(1, [2, 3, -1, 5], 9)
        assert f.theta_logderiv() == f.scale(F(7, 3)).theta_logderiv()

    def test_zero_rejected(self):
        # theta f / f divides by f, but names the logarithmic derivative
        with pytest.raises(DivisionByZeroSeriesError, match="^logarithmic derivative of the zero series$"):
            QExpansion.zero(1, 3).theta_logderiv()

    def test_precision_is_relative(self, qs):
        f = qs(2, [1, 5, -2], 5)
        assert f.theta_logderiv().precision == 5 - 2


class TestExpFromLogderiv:
    def test_zero_gives_one(self):
        assert exp_from_logderiv(QExpansion.zero(1, 6), 6) == QExpansion.one(1, 6)

    def test_all_minus_one(self, qs):
        e = exp_from_logderiv(qs(1, [-1] * 5, 6), 6)
        assert e.coeff(0) == 1 and e.coeff(1) == -1
        assert all(e.coeff(n) == 0 for n in range(2, 6))

    def test_factorials(self):
        e = exp_from_logderiv(QExpansion.monomial(1, 1, 7), 7)
        assert all(e.coeff(n) == F(1, math.factorial(n)) for n in range(7))

    def test_constant_term_rejected(self, qs):
        with pytest.raises(NotExponentiableError):
            exp_from_logderiv(qs(0, [2, 1], 5), 5)

    def test_negative_exponent_rejected(self, qs):
        with pytest.raises(NotExponentiableError):
            exp_from_logderiv(qs(-1, [1], 4), 4)

    def test_window_cap(self):
        # the result runs from q^0 to min(T, P_g) whatever g's lead, so a
        # one-term g at q^(10^6) or a zero g known that far would fill 10^6
        # terms: refused before anything is allocated
        assert exp_from_logderiv(QExpansion.zero(1, MAX_TERMS), 10**6).precision == MAX_TERMS
        for g in (QExpansion.monomial(1, 10**6, 10**6 + 1), QExpansion.zero(1, 10**6)):
            with pytest.raises(PrecisionError, match="exceeds the cap"):
                exp_from_logderiv(g, 10**7)


class TestPow:
    def test_power_zero(self, qs):
        f = qs(2, [1, 1], 8)
        assert f ** 0 == QExpansion.one(1, 6)

    @pytest.mark.parametrize("precision, expected", [(5, 5), (0, 1), (-2, 1)])
    def test_power_zero_of_zero_series(self, precision, expected):
        # 0 ** 0 = 1, known to the zero series' precision, and at least to q^1
        assert QExpansion.zero(1, precision) ** 0 == QExpansion.one(1, expected)

    def test_power_zero_of_zero_series_cap(self):
        # only the declared precision bounds 1 + O(q^P): past MAX_TERMS it is
        # refused before anything is allocated
        assert (QExpansion.zero(1, MAX_TERMS) ** 0).precision == MAX_TERMS
        for precision in (MAX_TERMS + 1, 10**6):
            with pytest.raises(PrecisionError, match="exceeds the cap"):
                QExpansion.zero(1, precision) ** 0

    def test_binomial(self, qs):
        sq = qs(0, [1, -1], 6) ** 2
        assert (sq.coeff(0), sq.coeff(1), sq.coeff(2)) == (1, -2, 1)

    def test_negative_power_of_laurent(self, qs):
        p = qs(1, [1, 1], 8) ** -1
        assert p.lead == -1
        assert [p.coeff(n) for n in range(-1, 3)] == [1, -1, 1, -1]

    def test_lead_scales(self, qs):
        f = qs(2, [1, 7], 9)
        assert (f ** 3).lead == 6
        assert (f ** -2).lead == -4

    def test_height_cap(self):
        # f and 1/f = 3 - 9q + ... both have sum |nums| * den of 4 bits, so
        # the estimate m * 4 reaches the cap at m = MAX_POWER_BITS / 4
        f = QExpansion(1, 0, [F(1, 3), 1, 1], 3)
        top = MAX_POWER_BITS // 4
        assert (f ** top).coeff(0) == F(1, 3**top)
        for m in (top + 1, -top - 1, 10**100):
            with pytest.raises(PrecisionError, match="past the cap"):
                f ** m
        # a negative exponent is refused under the exponent asked for
        with pytest.raises(PrecisionError, match=rf"^f \*\* {-top - 1} would"):
            f ** (-top - 1)
        # an eta factor at the exponent cap: 1 / prod (1 - q^n) to the 1000th
        assert (euler_product(200) ** -1000).coeff(1) == 1000

    @pytest.mark.parametrize("m", [10**200, 10**200 + 1, -(10**200), -(10**200) - 1])
    def test_monomial_to_a_huge_power(self, qs, m):
        # +-q^h has sum |nums| * den = 1, so the cap lets every power through
        for h, c in ((0, 1), (2, -1)):
            p = qs(h, [c, 0, 0]) ** m
            assert (p.lead, p.precision) == (m * h, m * h + 3)
            assert [p.coeff(m * h + i) for i in range(3)] == [c ** (m % 2), 0, 0]


class TestLevelChanges:
    def test_rescale_identity(self, qs):
        f = qs(0, [1, 2], 5)
        assert f.rescale_level(1) is f

    def test_q1_to_q24(self):
        r = QExpansion.monomial(1, 1, 2).rescale_level(24)
        assert r.level == 24 and r.lead == 24 and r.precision == 48

    def test_level2_to_level4(self):
        r = QExpansion(2, 0, [1, 1], 2).rescale_level(4)
        assert r.coeff(0) == 1 and r.coeff(1) == 0 and r.coeff(2) == 1

    def test_non_multiple_rejected(self, qs):
        with pytest.raises(BadLevelError):
            qs(0, [1]).rescale_level(0)
        with pytest.raises(BadLevelError):
            QExpansion.one(4, 3).rescale_level(6)

    @pytest.mark.parametrize("bad", [True, False, 2.0, "3", 0])
    def test_level_is_a_positive_int(self, bad):
        # a bool is an int subclass; a series of level True would be written
        # to JSON as "level": true, which the reader refuses
        with pytest.raises(BadLevelError, match="level must be a positive integer"):
            QExpansion(bad, 0, [1, 2], 2)

    @pytest.mark.parametrize("method, bad, error, message", [
        ("rescale_level", 2.0, BadLevelError, "level must be a positive integer"),
        ("rescale_level", "2", BadLevelError, "level must be a positive integer"),
        ("rescale_level", True, BadLevelError, "level must be a positive integer"),
        ("substitute_power", 2.0, ValueError, "substitution exponent must be positive"),
        ("substitute_power", "2", ValueError, "substitution exponent must be positive"),
        ("substitute_power", True, ValueError, "substitution exponent must be positive"),
    ], ids=["level-float", "level-str", "level-bool", "power-float", "power-str", "power-bool"])
    def test_spread_takes_a_positive_int(self, qs, method, bad, error, message):
        # unchecked, 2.0 would reach the stride arithmetic and '2' a
        # comparison, each as a TypeError, and True, an int subclass, would
        # spread by 1
        with pytest.raises(error, match=message):
            getattr(qs(0, [1, 2], 3), method)(bad)

    def test_substitute_power(self, qs):
        s = qs(1, [1, 2, 3], 4).substitute_power(3)
        assert s.lead == 3 and s.coeff(6) == 2 and s.coeff(5) == 0 and s.precision == 12

    def test_spread_cap(self, qs):
        # Up to MAX_TERMS exponents to the last known one, and up to
        # MAX_TERMS - 1 known zeros after it; sizes of 10**12 would exhaust
        # memory if allocated, so a PrecisionError shows the early refusal.
        assert qs(0, [1, 1]).substitute_power(MAX_TERMS - 1).precision == 2 * MAX_TERMS - 2
        assert qs(0, [1]).rescale_level(MAX_TERMS).precision == MAX_TERMS
        for f, c in ((qs(0, [1, 1]), MAX_TERMS), (qs(0, [1]), MAX_TERMS + 1), (qs(0, [1]), 10**12)):
            with pytest.raises(PrecisionError):
                f.substitute_power(c)
            with pytest.raises(PrecisionError):
                f.rescale_level(c)


class TestFieldMaps:
    def test_galois_rational_identity(self, qs):
        f = qs(0, [1, 2], 5)
        assert f.galois_map(5) is f

    def test_galois_example(self):
        f = QExpansion(1, 0, [1, Z3], 4, TAG3)
        assert f.galois_map(2).coeff(1) == Z3 ** 2

    def test_galois_group_action(self):
        f = QExpansion(1, 0, [1, Z3, Z3 ** 2, 5], 4, TAG3)
        assert f.galois_map(2).galois_map(2) == f.galois_map(4)

    def test_galois_invalid(self):
        f = QExpansion(1, 0, [Z3], 3, TAG3)
        with pytest.raises(InvalidAutomorphismError):
            f.galois_map(3)

    def test_conjugate_fixes_rationals(self, qs):
        f = qs(0, [1, -7, F(2, 3)], 5)
        assert f.conjugate_coeffs() is f

    def test_conjugate_example_and_involution(self):
        z4 = CyclotomicElement.zeta(4)
        f = QExpansion(1, 0, [1, z4], 4, FieldTag.cyclotomic(4))
        assert f.conjugate_coeffs().coeff(1) == -z4
        assert f.conjugate_coeffs().conjugate_coeffs() == f

    def test_promotion(self, qs):
        f = qs(0, [1, 2], 4)
        pf = f.promote(TAG3)
        assert pf.field == TAG3 and pf.coeff(1) == CyclotomicElement.from_rational(3, 2)
        with pytest.raises(IncompatibleSeriesError):
            pf.promote(FieldTag.cyclotomic(4))
        assert pf.as_rational_series() == f


class TestRepr:
    # the text as recorded before repr stopped building every coefficient
    @pytest.mark.parametrize("build, text", [
        (lambda: QExpansion(1, -1, [F(1, 2), 0, -3, F(7, 5)], 5),
         "QExpansion(1/2*q^-1 + -3*q^1 + 7/5*q^2 + O(q^5))"),
        (lambda: QExpansion(1, 0, [2, 0, 1], 5), "QExpansion(2 + 1*q^2 + O(q^5))"),
        (lambda: QExpansion(1, 1, [CyclotomicElement.zeta(5), 0,
                                   CyclotomicElement.zeta(5, 2) + F(1, 3), 2], 6,
                            FieldTag.cyclotomic(5)),
         "QExpansion(CyclotomicElement(5, [0, 1, 0, 0])*q^1 + "
         "CyclotomicElement(5, [1/3, 0, 1, 0])*q^3 + CyclotomicElement(5, [2, 0, 0, 0])*q^4 + O(q^6))"),
        (lambda: QExpansion.zero(3, 7), "QExpansion(0 + O(q3^7))"),
        (lambda: euler_product(40),
         "QExpansion(1 + -1*q^1 + -1*q^2 + 1*q^5 + 1*q^7 + -1*q^12 + ... + O(q^40))"),
    ], ids=["rational", "constant-term", "cyclotomic", "zero", "past-six-terms"])
    def test_text_builds_no_coefficient_list(self, build, text):
        f = build()
        assert repr(f) == text
        assert f._coeffs is None
        f.coeffs
        assert repr(f) == text


# ----------------------------------------------------------------------
# properties

coeffs_strategy = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=1, max_size=8
)


def series_strategy():
    return st.builds(
        lambda lead, cs, pad: QExpansion(1, lead, cs, lead + len(cs) + pad),
        st.integers(min_value=-3, max_value=3),
        coeffs_strategy,
        st.integers(min_value=0, max_value=3),
    )


@settings(max_examples=60, deadline=None)
@given(f=series_strategy(), g=series_strategy(), e=series_strategy())
def test_ring_axioms(f, g, e):
    assert_agree((f + g) + e, f + (g + e))
    assert_agree(f + g, g + f)
    assert_agree(f * g, g * f)
    assert_agree((f * g) * e, f * (g * e))
    assert_agree(f * (g + e), f * g + f * e)


@settings(max_examples=60, deadline=None)
@given(
    cs=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), min_size=0, max_size=12)
)
def test_exp_theta_roundtrip(cs):
    f = QExpansion(1, 0, [F(1)] + cs, 1 + len(cs))
    assert exp_from_logderiv(f.theta_logderiv(), f.precision) == f


@settings(max_examples=60, deadline=None)
@given(f=series_strategy(), g=series_strategy())
def test_logderiv_additivity(f, g):
    if f.is_zero or g.is_zero:
        return
    assert_agree((f * g).theta_logderiv(), f.theta_logderiv() + g.theta_logderiv())


def test_roundtrip_exact_at_precision_40():
    rng = random.Random(99)
    for _ in range(30):
        coeffs = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(39)]
        f = QExpansion(1, 0, coeffs, 40)
        assert exp_from_logderiv(f.theta_logderiv(), 40) == f


class TestPrecisionMetamorphic:
    """Truncating inputs never changes overlapping output coefficients,
    and output precision follows the stated formulas exactly."""

    def setup_method(self):
        rng = random.Random(17)
        self.samples = []
        for _ in range(12):
            lead = rng.randint(-2, 2)
            coeffs = [rng.choice([1, -1, 2])] + [
                F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9)
            ]
            self.samples.append(QExpansion(1, lead, coeffs, lead + 10))

    def test_mul(self):
        for f in self.samples[:6]:
            for g in self.samples[6:]:
                full = f * g
                assert full.precision == min(f.precision + g.lead, g.precision + f.lead)
                cut = f.truncate(f.precision - 3) * g
                assert first_disagreement(full, cut) is None

    def test_add(self):
        f, g = self.samples[0], self.samples[1]
        full = f + g
        cut = f + g.truncate(g.precision - 2)
        assert cut.precision == min(f.precision, g.precision - 2)
        assert first_disagreement(full, cut) is None

    def test_inverse(self):
        f = self.samples[2]
        full = f.inverse()
        assert full.precision == f.precision - 2 * f.lead
        cut = f.truncate(f.precision - 2).inverse()
        assert first_disagreement(full, cut) is None

    def test_theta_logderiv(self):
        f = self.samples[3]
        full = f.theta_logderiv()
        assert full.precision == f.precision - f.lead
        cut = f.truncate(f.precision - 2).theta_logderiv()
        assert first_disagreement(full, cut) is None

    def test_exp(self):
        g = QExpansion(1, 1, [F(1, 2), -2, 3, F(5, 7), 1, -1], 7)
        full = exp_from_logderiv(g, 7)
        assert full.precision == 7
        cut = exp_from_logderiv(g.truncate(5), 7)
        assert cut.precision == 5
        assert first_disagreement(full, cut) is None

    def test_pow_relative_precision(self):
        for f in self.samples[:4]:
            for m in (2, 3, -1, -2):
                p = f ** m
                assert p.lead == m * f.lead
                assert p.relative_precision == f.relative_precision
