import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit.errors import InvalidAutomorphismError, MalformedInputError
from gmfkit.numberfield import (
    MAX_CONDUCTOR,
    RATIONAL,
    CyclotomicElement,
    FieldTag,
    cyclotomic_polynomial,
    euler_phi,
    is_rational,
    prime_divisors,
)


# ----------------------------------------------------------------------
# independent oracle: recursive cyclotomic polynomials via plain Fraction
# polynomial division, kept deliberately separate from the library code


def _oracle_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _oracle_poly_div(num, den):
    num = [F(c) for c in num]
    quot = [F(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i] / den[-1]
        quot[i - (len(den) - 1)] = c
        for j, y in enumerate(den):
            num[i - (len(den) - 1) + j] -= c * y
    assert not any(num[: len(den) - 1]), "oracle division not exact"
    return quot


def _oracle_cyclotomic(m):
    if m == 1:
        return [F(-1), F(1)]
    num = [F(0)] * (m + 1)
    num[0], num[m] = F(-1), F(1)
    den = [F(1)]
    for d in range(1, m):
        if m % d == 0:
            den = _oracle_poly_mul(den, _oracle_cyclotomic(d))
    return _oracle_poly_div(num, den)


class TestCyclotomicPolynomial:
    def test_m1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_m4_is_minimal_polynomial_of_i(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_m12_against_division_oracle(self):
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        assert list(cyclotomic_polynomial(12)) == [int(c) for c in _oracle_cyclotomic(12)]

    @pytest.mark.parametrize("m", list(range(1, 31)))
    def test_degree_and_product_identity(self, m):
        phi_m = cyclotomic_polynomial(m)
        assert len(phi_m) == euler_phi(m) + 1
        assert phi_m[-1] == 1
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _oracle_poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (m + 1)
        expected[0], expected[m] = -1, 1
        assert [int(c) for c in prod] == expected

    def test_divides_x_m_minus_1(self):
        for m in (6, 8, 15):
            num = [F(0)] * (m + 1)
            num[0], num[m] = F(-1), F(1)
            _oracle_poly_div(num, [F(c) for c in cyclotomic_polynomial(m)])


class TestConjugation:
    def test_conj_i(self):
        z4 = CyclotomicElement.zeta(4)
        assert z4.conjugate() == -z4

    def test_rational_fixed(self):
        assert CyclotomicElement.from_rational(12, F(5, 3)).conjugate() == F(5, 3)

    def test_one_plus_zeta3(self):
        z3 = CyclotomicElement.zeta(3)
        assert (1 + z3).conjugate() == -z3

    def test_involution(self):
        rng = random.Random(11)
        for m in (3, 4, 5, 8, 12):
            for _ in range(10):
                a = CyclotomicElement(
                    m, [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(euler_phi(m))]
                )
                assert a.conjugate().conjugate() == a


class TestGaloisAction:
    def test_rational_fixed(self):
        assert CyclotomicElement.from_rational(12, F(7, 2)).galois(5) == F(7, 2)

    def test_zeta4_k3(self):
        z4 = CyclotomicElement.zeta(4)
        assert z4.galois(3) == -z4

    def test_zeta5_sum(self):
        z5 = CyclotomicElement.zeta(5)
        assert (z5 + z5 ** 4).galois(2) == z5 ** 2 + z5 ** 3

    def test_non_coprime_rejected(self):
        with pytest.raises(InvalidAutomorphismError):
            CyclotomicElement.zeta(12).galois(4)

    def test_ring_homomorphism(self):
        rng = random.Random(23)
        m = 12
        for k in (5, 7, 11):
            for _ in range(8):
                a = CyclotomicElement(m, [rng.randint(-5, 5) for _ in range(euler_phi(m))])
                b = CyclotomicElement(m, [rng.randint(-5, 5) for _ in range(euler_phi(m))])
                assert (a + b).galois(k) == a.galois(k) + b.galois(k)
                assert (a * b).galois(k) == a.galois(k) * b.galois(k)

    def test_norm_is_rational(self):
        import math

        rng = random.Random(5)
        for m in (3, 4, 5, 8, 12):
            for _ in range(6):
                a = CyclotomicElement(
                    m, [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(m))]
                )
                prod = CyclotomicElement.from_rational(m, 1)
                for k in range(1, m + 1):
                    if math.gcd(k, m) == 1:
                        prod = prod * a.galois(k)
                ok, _ = is_rational(prod)
                assert ok


class TestIsRational:
    def test_zeta3_plus_square(self):
        z3 = CyclotomicElement.zeta(3)
        ok, value = is_rational(z3 + z3 ** 2)
        assert ok and value == F(-1)

    def test_zeta3_alone(self):
        ok, value = is_rational(CyclotomicElement.zeta(3))
        assert not ok and value is None

    def test_embedded_rational(self):
        a = CyclotomicElement.from_rational(8, F(7, 2))
        ok, value = is_rational(a)
        assert ok and value == F(7, 2)


class TestDenominatorPrimes:
    def test_three_tenths(self):
        assert prime_divisors(F(3, 10).denominator) == [2, 5]

    def test_integer(self):
        assert prime_divisors(F(7).denominator) == []

    def test_negative(self):
        assert prime_divisors(F(-22, 45).denominator) == [3, 5]


# ----------------------------------------------------------------------
# field axioms on random samples

small_fraction = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def elements(m):
    return st.lists(
        small_fraction, min_size=euler_phi(m), max_size=euler_phi(m)
    ).map(lambda cs: CyclotomicElement(m, cs))


@settings(max_examples=50, deadline=None)
@given(a=elements(12), b=elements(12), c=elements(12))
def test_field_axioms_q_zeta12(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=50, deadline=None)
@given(a=elements(8))
def test_inverse_roundtrip_q_zeta8(a):
    if a:
        assert a.inverse().inverse() == a


MORE_CONDUCTORS = [1, 2, 5, 7, 9, 15, 16, 20]


@pytest.mark.parametrize("m", MORE_CONDUCTORS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_field_axioms_more_conductors(m, data):
    a, b, c = (data.draw(elements(m)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


@pytest.mark.parametrize("m", MORE_CONDUCTORS + [3, 4, 8, 12])
def test_zeta_has_order_m(m):
    z = CyclotomicElement.zeta(m)
    assert z ** m == 1
    assert all(z ** e != 1 for e in range(1, m))
    assert CyclotomicElement.zeta(m, m) == 1 and CyclotomicElement.zeta(m, -1) == z ** (m - 1)


@pytest.mark.parametrize("m", MORE_CONDUCTORS + [3, 4, 8, 12])
def test_zeta_power_is_galois_image(m):
    z = CyclotomicElement.zeta(m)
    for k in range(1, 2 * m + 1):
        if math.gcd(k, m) == 1:
            assert CyclotomicElement.zeta(m, k) == z.galois(k) == z ** k


def test_field_tag_coercion():
    tag = FieldTag.cyclotomic(4)
    assert tag.coerce(3) == CyclotomicElement.from_rational(4, 3)
    assert tag.one == CyclotomicElement.from_rational(4, 1)
    with pytest.raises(ValueError):
        RATIONAL.coerce(CyclotomicElement.zeta(4))
    with pytest.raises(ValueError):
        tag.coerce(CyclotomicElement.zeta(3))
    assert RATIONAL.is_rational_field and not tag.is_rational_field


def test_field_tag_degree_and_modulus():
    assert (RATIONAL.degree, RATIONAL.modulus) == (1, (-1, 1))
    for m in (1, 2, 5, 12, 20):
        tag = FieldTag.cyclotomic(m)
        assert tag.degree == euler_phi(m)
        assert tag.modulus == cyclotomic_polynomial(m)
    assert FieldTag.cyclotomic(12) == FieldTag(12) and hash(FieldTag(12)) == hash(FieldTag(12))


def test_conductor_cap():
    assert FieldTag.cyclotomic(MAX_CONDUCTOR).degree == euler_phi(MAX_CONDUCTOR)
    for m in (MAX_CONDUCTOR + 1, 10**6, 10**100):
        with pytest.raises(MalformedInputError):
            FieldTag.cyclotomic(m)


@pytest.mark.parametrize("bad", [True, False, 2.0, "5", 0, -3])
def test_conductor_is_a_positive_int(bad):
    # a bool is an int subclass: Q(zeta_True) is refused, not printed
    with pytest.raises(ValueError, match="conductor must be a positive integer"):
        FieldTag(bad)


def test_rational_valued_element_hashes_as_its_rational():
    assert CyclotomicElement(4, [3]) == F(3)
    assert hash(CyclotomicElement(4, [3])) == hash(F(3)) == hash(3)
    assert len({CyclotomicElement(4, [3]), F(3)}) == 1
    assert len({CyclotomicElement.zeta(4), CyclotomicElement(4, [0, 1])}) == 1


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_inverse_round_trip_every_conductor(data):
    # the inverse is the product of the other Galois conjugates over the norm
    m = data.draw(st.integers(1, MAX_CONDUCTOR), label="m")
    a = data.draw(elements(m).filter(bool), label="a")
    assert a * a.inverse() == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 12])
def test_conjugate_is_galois_minus_one(m):
    a = CyclotomicElement(m, [F(k + 1, k + 2) for k in range(euler_phi(m))])
    assert a.conjugate() == a.galois(m - 1) == a.galois(-1)
    assert a.conjugate().conjugate() == a


def test_prime_divisors_rebuild_n():
    for n in list(range(1, 501)) + [3**5 * 7**3 * 101, 10**12, 1_000_003 * 999_983]:
        primes = prime_divisors(n)
        assert primes == sorted(set(primes))
        rebuilt = 1
        for p in primes:
            assert all(p % q for q in range(2, math.isqrt(p) + 1))
            while n % (rebuilt * p) == 0:
                rebuilt *= p
        assert rebuilt == n


def test_euler_phi_counts_units():
    for n in range(1, 501):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
