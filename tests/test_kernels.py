"""The integer kernels over Q and Q(zeta_m) against the schoolbook
reference in ``reference_kernels``: every result must be equal in
coefficients, lead and precision, and stored in the canonical form the
constructor gives the same coefficients."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from gmfkit import numberfield, qseries
from gmfkit.errors import GmfError
from gmfkit.etaforms import EtaQuotient, eta_quotient_expansion
from gmfkit.numberfield import RATIONAL, CyclotomicElement, FieldTag, _convolve, _dot_products, _kronecker
from gmfkit.qseries import QExpansion, _recurrence, exp_from_logderiv

SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))
# about 3 kbit of numerator and up to 3 kbit of denominator
TALL = st.builds(
    lambda sign, n, d: Fraction(sign * n, d),
    st.sampled_from([-1, 1]), st.integers(2**2800, 2**3000), st.integers(1, 2**3000),
)
NONZERO = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 7))
# Q in half the draws; all series of one example share the field
FIELD = st.shared(st.sampled_from([None, None, None, None, 3, 4, 5, 8, 12]).map(FieldTag), key="field")


def element(draw, field, first, rest):
    """A field element whose first power-basis coordinate is drawn from
    ``first`` and the others from ``rest``."""
    if field.conductor is None:
        return draw(first)
    others = draw(st.lists(rest, min_size=field.degree - 1, max_size=field.degree - 1))
    return CyclotomicElement(field.conductor, [draw(first)] + others)


@st.composite
def series(draw, lead=st.integers(-3, 3), unit=False):
    """A level-1 series over Q or Q(zeta_m): small or tall coordinates, a
    leading coefficient other than 1 unless ``unit``, one term in some
    draws, known trailing zeros in others, and made sparse by q -> q^d in
    others.  A small body is often all zeros, so one of its terms is drawn
    nonzero: only the size-1 draws are monomials, listed last because
    hypothesis draws a list's first entry most often."""
    field = draw(FIELD)
    size = draw(st.sampled_from([2, 5, 9, 14, 1, 1]))
    height = draw(st.sampled_from([SMALL, SMALL, TALL]))
    body = [element(draw, field, height, height) for _ in range(size - 1)]
    if body:
        nonzero = NONZERO if height is SMALL else TALL
        body[draw(st.integers(0, size - 2))] = element(draw, field, nonzero, height)
    # tall coordinates enter over Q(zeta_m) through the body only: dividing
    # by a tall lead adds the height of its norm per term (400 kbit within 6
    # terms at m = 12), and the reference loops then take tens of seconds
    lead_height = NONZERO | TALL if field.conductor is None else NONZERO
    first = field.one if unit else element(draw, field, lead_height, SMALL)
    h = draw(lead)
    f = QExpansion(1, h, [first] + body, h + size + draw(st.integers(0, 2)), field)
    return f.substitute_power(draw(st.sampled_from([1, 1, 2, 3, 6])))


# Q in two draws of three, Q(zeta_5) in the third: the field of the
# growing-denominator series of one example
GROWING_FIELD = st.shared(st.sampled_from([None, None, 5]).map(FieldTag), key="growing field")


@st.composite
def growing_series(draw, lead=st.integers(-3, 3)):
    """A level-1 series over Q or Q(zeta_5) whose coefficient k past the
    lead is x_k / b^k, for a base b of 2, 3 or 61 and small integer
    coordinates x_k, with a few such terms and known zeros after them to up
    to 40 terms: its quotients, inverse, exponential and powers grow their
    denominators at nearly every step by much less than those denominators'
    height, so the recurrence takes the next steps' denominators in ahead."""
    field = draw(GROWING_FIELD)
    deg, b, size = field.degree, draw(st.sampled_from([2, 3, 61])), draw(st.integers(1, 6))
    coords = draw(st.lists(st.integers(-9, 9), min_size=size * deg, max_size=size * deg))
    coords[0] = draw(st.integers(1, 9) | st.integers(-9, -1))
    values = [Fraction(x, b ** (i // deg)) for i, x in enumerate(coords)]
    if field.conductor is not None:
        values = [CyclotomicElement(field.conductor, values[i : i + deg]) for i in range(0, len(values), deg)]
    h = draw(lead)
    return QExpansion(1, h, values, h + size + draw(st.integers(0, 40)), field)


RUNS = settings(max_examples=60, deadline=None)


def outcome(kernel, *args):
    """The kernel's result, checked to be canonical, or the type of the
    domain error it raised."""
    try:
        result = kernel(*args)
    except GmfError as exc:
        return type(exc)
    assert_canonical(result)
    return result


def assert_canonical(s):
    """Integer coordinates over a positive denominator sharing no factor
    with them, no leading zero, and equal, hash included, to the series
    the constructor builds from the same coefficients."""
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.relative_precision * s.field.degree
    assert s.is_zero or any(s.nums[: s.field.degree])
    rebuilt = QExpansion(s.level, s.lead, s.coeffs, s.precision, s.field)
    assert rebuilt == s and hash(rebuilt) == hash(s)


@RUNS
@given(series(), series())
def test_mul(f, g):
    assert outcome(QExpansion.__mul__, f, g) == outcome(ref.mul, f, g)


@RUNS
@given(st.tuples(series(), series()) | st.tuples(growing_series(), growing_series()),
       st.none() | st.integers(-4, 30))
def test_divide(operands, target):
    f, g = operands
    assert outcome(QExpansion.divide, f, g, target) == outcome(ref.divide, f, g, target)


@pytest.mark.parametrize("conductor", [None, 5], ids=["q", "zeta5"])
@pytest.mark.parametrize("gd, s, tail, up, down", [
    (6, 1, 1, 1, 1),  # den f = den g: t cancels both
    (6, 3, 3, 3, 1),  # den f = 2 divides den g = 6
    (2, 1, Fraction(1, 3), 1, 3),  # den g = 2 divides den f = 6
    (7, 7, Fraction(7, 5), 7, 5),  # den f = 5 and den g = 7 coprime
], ids=["equal", "up", "down", "coprime"])
def test_divide_applies_the_denominators_outside(conductor, gd, s, tail, up, down):
    # f = g (s + tail q^5) / g with t = gcd(den f, den g): the recurrence
    # takes f's integers times up = den g / t and g's over 1, and its
    # quotient goes over d down, down = den f / t; cut before q^5 the quotient
    # is s, whose s down over down shares all of down with its numerator
    field = FieldTag(conductor)
    z = CyclotomicElement.zeta(conductor) if conductor else 1
    # an irrational lead over Q(zeta_5), so the recurrence's unit is used
    c = CyclotomicElement(5, [2, -1, 0, 1]) if conductor else 2
    body = [z * Fraction(1, gd), 3, z**2 * Fraction(-5, gd), 0, 1, Fraction(2, gd), -z]
    g = QExpansion(1, -1, [c] + body + [0] * 5, 12, field)
    f = g * QExpansion(1, 0, [s, 0, 0, 0, 0, tail], 14, field)
    t = gcd(f.den, g.den)
    assert (g.den, g.den // t, f.den // t) == (gd, up, down)
    for target in (None, 5):
        assert outcome(QExpansion.divide, f, g, target) == outcome(ref.divide, f, g, target)


@RUNS
@given(series() | growing_series(), st.none() | st.integers(0, 30))
def test_inverse(f, target):
    assert outcome(QExpansion.inverse, f, target) == outcome(ref.inverse, f, target)


@RUNS
@given(series(), st.integers(-3, 3))
def test_pow(f, m):
    assert outcome(QExpansion.__pow__, f, m) == outcome(ref.power, f, m)


@RUNS
@given(series() | growing_series())  # b^k denominators: theta f may share a factor with den
def test_theta_logderiv(f):
    assert outcome(QExpansion.theta_logderiv, f) == outcome(ref.theta_logderiv, f)


# the zero series of the drawn field, known to a drawn precision
ZERO = FIELD.flatmap(lambda field: st.integers(-2, 20).map(lambda p: QExpansion.zero(1, p, field)))


@RUNS
@given(series(lead=st.integers(1, 3)) | ZERO | growing_series(lead=st.integers(1, 3)), st.integers(1, 40))
def test_exp_from_logderiv(g, target):
    assert outcome(exp_from_logderiv, g, target) == outcome(ref.exp_from_logderiv, g, target)


@st.composite
def sparse_series(draw, lead=st.integers(-3, 3), size=st.integers(12, 32),
                  density=st.sampled_from([0.05, 0.15, 0.3, 0.6, 1.0])):
    """A level-1 series over Q or Q(zeta_m) with small coordinates whose
    coefficients past the first are nonzero at a drawn density, so that a
    recurrence's steps fall on both sides of the switch between a dense and
    a sparse sum; the leading coefficient is other than 1 in half the draws."""
    field = draw(FIELD)
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(density)

    def value():
        coords = [Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 9), rnd.randint(1, 3))
                  for _ in range(field.degree)]
        return coords[0] if field.conductor is None else CyclotomicElement(field.conductor, coords)

    terms = draw(size)
    first = field.one if draw(st.booleans()) else value()
    body = [value() if rnd.random() < density else field.zero for _ in range(terms - 1)]
    h = draw(lead)
    return QExpansion(1, h, [first] + body, h + terms, field)


@settings(max_examples=40, deadline=None)
@given(sparse_series(), sparse_series())
def test_sparse_recurrences(f, g):
    # the four recurrence kernels on operands of every density, and a
    # quotient as sparse as f from the dense g * f and g
    assert outcome(QExpansion.divide, f, g) == outcome(ref.divide, f, g)
    assert outcome(QExpansion.divide, g * f, g) == outcome(ref.divide, g * f, g)
    assert outcome(QExpansion.inverse, f) == outcome(ref.inverse, f)
    assert outcome(QExpansion.theta_logderiv, f) == outcome(ref.theta_logderiv, f)
    e = f.shift(1 - f.lead)
    assert outcome(exp_from_logderiv, e, 40) == outcome(ref.exp_from_logderiv, e, 40)


@pytest.mark.parametrize(
    "pairs, level",
    [(((6, 4),), 36), (((4, 2), (8, 2)), 32), (((3, 2), (9, 2)), 27), (((1, 2), (11, 2)), 11)],
    ids=["eta(6z)^4", "eta(4z)^2 eta(8z)^2", "eta(3z)^2 eta(9z)^2", "eta(z)^2 eta(11z)^2"],
)
def test_recurrences_on_newforms(pairs, level):
    # the decomposition's shapes: g0 a newform (lacunary for the first
    # three), f0 = exp of 59/61 g0 dense and tall, and theta f0 / f0 = g0
    # as sparse as g0
    g0 = eta_quotient_expansion(EtaQuotient(pairs, level), 80).scale(Fraction(59, 61))
    f0 = outcome(exp_from_logderiv, g0, 80)
    assert f0 == outcome(ref.exp_from_logderiv, g0, 80)
    assert outcome(QExpansion.theta_logderiv, f0) == outcome(ref.theta_logderiv, f0)
    assert outcome(QExpansion.theta_logderiv, g0) == outcome(ref.theta_logderiv, g0)
    assert outcome(QExpansion.divide, g0, f0) == outcome(ref.divide, g0, f0)


@pytest.mark.parametrize("level, pairs", [(11, ((1, 2), (11, 2))), (27, ((3, 2), (9, 2)))])
def test_exp_of_newforms_at_240_terms(level, pairs):
    # the benchmark's f0 = exp of 59/61 g0 at its length: 61^k k! denominators
    # taken in several steps ahead once the running one is tall enough; its
    # theta f0 shares a small factor with den f0, and theta f0 / f0 is g0
    g0 = eta_quotient_expansion(EtaQuotient(pairs, level), 240).scale(Fraction(59, 61))
    f0 = outcome(exp_from_logderiv, g0, 240)
    assert f0 == outcome(ref.exp_from_logderiv, g0, 240)
    assert gcd(f0.den, *(k * x for k, x in enumerate(f0.nums))) > 1
    assert outcome(QExpansion.theta_logderiv, f0) == g0


@pytest.mark.parametrize("conductor, c", [
    (None, Fraction(-3, 7)),
    (None, Fraction(-(3**1890), 7**1070)),  # about 3 kbit over 3 kbit
    (5, CyclotomicElement(5, [Fraction(2, 3), -1, 0, Fraction(1, 5)])),
], ids=["q-small", "q-tall", "zeta5"])
def test_monomial_divisor_and_exp_of_zero_skip_the_recurrence(monkeypatch, conductor, c):
    # division by c q^3 (known to q^9) is a shift and a scale, the inverse
    # of c q^3 a scaled monomial, and exp 0 is 1: none runs the recurrence
    def refuse(*args, **kwargs):
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(qseries, "_recurrence", refuse)
    field = FieldTag(conductor)
    z = CyclotomicElement.zeta(conductor) if conductor else 1
    values = [Fraction((-1) ** k * (k % 7 + 1), 61**k) * z**k for k in range(20)]
    f = QExpansion(1, -2, values, 18, field)
    g = QExpansion.monomial(1, 3, 9, field, c)
    for target in (None, 0, 4, 30):
        assert outcome(QExpansion.divide, f, g, target) == outcome(ref.divide, f, g, target)
    assert outcome(QExpansion.inverse, g) == outcome(ref.inverse, g)
    zero = QExpansion.zero(1, 12, field)
    assert outcome(exp_from_logderiv, zero, 30) == outcome(ref.exp_from_logderiv, zero, 30)
    for h in (0, 2):  # theta f / f divides by f, here the monomial c q^h
        m = QExpansion.monomial(1, h, h + 9, field, c)
        assert outcome(QExpansion.theta_logderiv, m) == outcome(ref.theta_logderiv, m)


@pytest.mark.parametrize("conductor, terms, c", [
    (None, 2000, Fraction(-3, 7)),
    (5, 200, CyclotomicElement(5, [Fraction(2, 3), -1, 0, Fraction(1, 5)])),
], ids=["q", "zeta5"])
def test_monomial_factor_is_one_pass(monkeypatch, conductor, terms, c):
    # a product with 1 or with c q^3 convolves the monomial's one nonzero
    # coefficient against the other operand, by dot products for f's
    # 11-kbit denominator at 2,000 terms: f * 1, 1 * f and f * c q^3
    field = FieldTag(conductor)
    z = CyclotomicElement.zeta(conductor) if conductor else 1
    values = [Fraction((-1) ** k * (k % 7 + 1), 61**k) * z**k for k in range(terms)]
    f = QExpansion(1, -2, values, terms - 2, field)
    one = QExpansion.one(1, terms, field)
    cq3 = QExpansion.monomial(1, 3, terms + 3, field, c)
    shorter = []

    def refuse(*args):
        raise AssertionError("the operands were packed")

    def dot_products(a, b, size, run=numberfield._dot_products):
        shorter.append(min(len(a), len(b)))
        return run(a, b, size)

    for x, y in ((f, one), (one, f), (f, cq3)):
        expected = ref.mul(x, y)  # the reference's element products may pack
        shorter.clear()
        with monkeypatch.context() as patch:
            patch.setattr(numberfield, "_kronecker", refuse)
            patch.setattr(numberfield, "_dot_products", dot_products)
            assert outcome(QExpansion.__mul__, x, y) == expected
        assert len(shorter) == 1 and shorter[0] <= field.degree


def test_recurrence_past_short_operands():
    # r and g are zero past their ends: 3 / (2 - q^3) = 3/2 + 3/4 q^3 + 3/8 q^6
    # to seven terms from a g of four coefficients and an r of one
    assert _recurrence([3], [2, 0, 0, -1], 7, RATIONAL) == ([12, 0, 0, 6, 0, 0, 3], 8)


@pytest.mark.parametrize("r, g, terms, expected", [
    # (2 - q)(2 + q) / (2 (2 - q)): the quotient's denominator stops at 2
    ([4, 0, -1], [4, -2], 7, ([2, 1, 0, 0, 0, 0, 0], 2)),
    # 1 / (2 - q): one more 2 in the denominator at every step
    ([1], [2, -1], 7, ([2 ** (6 - k) for k in range(7)], 2**7)),
    # 3 / (6 - 3q) = 1 / (2 - q): each step's m = 6 is taken in ahead once d
    # has room for it, and the 3s that no step used are divided out at the end
    ([3], [6, -3], 40, ([2 ** (39 - k) for k in range(40)], 2**40)),
], ids=["stops-growing", "steady", "taken-ahead"])
def test_recurrence_denominator_in_lowest_terms(r, g, terms, expected):
    assert _recurrence(r, g, terms, RATIONAL) == expected


def test_recurrence_takes_in_the_next_steps_denominators(monkeypatch):
    # exp(q) = sum q^k / k!: step k needs all of its m = k, so what is taken
    # in ahead, the next steps' m, is all used and the result needs no gcd
    monkeypatch.setattr(qseries, "_lowest", lambda nums, den: (nums, den))
    top = factorial(59)
    assert _recurrence([1], [1, -1], 60, RATIONAL, True) == ([top // factorial(k) for k in range(60)], top)


@settings(max_examples=60, deadline=None)
@given(sparse_series(lead=st.integers(-2, 2), size=st.integers(1, 10))
       | growing_series(lead=st.integers(-2, 2)), st.integers(1, 30), st.booleans())
def test_pow_by_miller(f, n, negative):
    # Miller's recurrence alone, and the power (Miller's recurrence for
    # m < -1), for m = +-1 .. +-30 on sparse and dense bases with leads
    # other than 1
    m = -n if negative else n
    expected = outcome(ref.power, f, m)
    assert outcome(QExpansion._miller, f, m) == expected
    assert outcome(QExpansion.__pow__, f, m) == expected
    if negative:
        assert outcome(lambda: f.inverse() ** n) == expected


@settings(max_examples=40, deadline=None)
@given(sparse_series(size=st.integers(24, 48), density=st.sampled_from([0.05, 0.1, 0.15])))
def test_miller_over_sparse_unknowns(s):
    # the inverse f of a sparse s is dense, and f ** m for m = -1, -2, -3
    # (s, s^2 and s^3) sparse again: Miller's steps then sum over the few
    # nonzero unknowns found so far rather than the many nonzero f[j]
    f = s.inverse()
    for m in (-1, -2, -3):
        expected = outcome(ref.power, f, m)
        assert outcome(QExpansion._miller, f, m) == expected
        assert outcome(QExpansion.__pow__, f, m) == expected


@RUNS
@given(series() | ZERO, series(), st.integers(-3, 3), st.integers(0, 16), st.data())
def test_linear_kernels(f, g, k, cut, data):
    # sums, negation, scaling (by 0 and 1 too, and of the zero series),
    # shifts, truncations and Galois images against their coefficientwise
    # definitions; a scalar of another field is refused
    def built(lead, values, precision):
        if precision <= lead:
            return QExpansion.zero(f.level, precision, f.field)
        return QExpansion(f.level, lead, values, precision, f.field)

    p = min(f.precision, g.precision)
    lo = min(f.lead, g.lead, p)
    pairs = [(f.coeff(n), g.coeff(n)) for n in range(lo, p)]
    assert outcome(QExpansion.__add__, f, g) == built(lo, [x + y for x, y in pairs], p)
    assert outcome(QExpansion.__sub__, f, g) == built(lo, [x - y for x, y in pairs], p)
    assert outcome(QExpansion.__sub__, f, f) == QExpansion.zero(f.level, f.precision, f.field)
    for c in (element(data.draw, f.field, SMALL, SMALL), 0, 1):
        assert outcome(QExpansion.scale, f, c) == built(f.lead, [c * x for x in f.coeffs], f.precision)
    foreign = CyclotomicElement(7 if f.field.conductor == 5 else 5, [0, 1])
    with pytest.raises(ValueError, match="^(cyclotomic element in a rational-tagged context|conductor mismatch)"):
        f.scale(foreign)
    assert outcome(QExpansion.shift, f, k) == built(f.lead + k, f.coeffs, f.precision + k)
    q = f.precision - cut
    assert outcome(QExpansion.truncate, f, q) == built(f.lead, f.coeffs[: q - f.lead], q)
    m = f.field.conductor
    if m is not None:
        u = data.draw(st.sampled_from([u for u in range(1, m) if gcd(u, m) == 1]))
        image = built(f.lead, [x.galois(u) for x in f.coeffs], f.precision)
        assert outcome(QExpansion.galois_map, f, u) == image
    else:
        assert outcome(f.promote(FieldTag(5)).as_rational_series) == f


@pytest.mark.parametrize("conductor", [None, 5])
def test_canonical_form_on_truncation_stripping_and_zero(conductor):
    field = FieldTag(conductor)
    x = [field.coerce(v) for v in (0, Fraction(1, 2), Fraction(1, 3), Fraction(5, 7))]
    if conductor:  # sevenths in a coordinate past the first as well
        x[3] = x[3] + CyclotomicElement(conductor, [0, Fraction(1, 7)])
    f = QExpansion(1, -1, x, 4, field)
    assert (f.lead, f.den) == (0, 42)  # the leading zero is stripped
    low = f.truncate(2)  # dropping the sevenths lowers the denominator
    assert low.den == 6 and low.nums[:: field.degree] == (3, 2)
    rebuilt = QExpansion(1, 0, x[1:3], 2, field)
    assert low == rebuilt and hash(low) == hash(rebuilt)
    zero = f - f
    assert zero == QExpansion.zero(1, 4, field) and hash(zero) == hash(QExpansion.zero(1, 4, field))
    assert (zero.nums, zero.den, zero.lead) == ((), 1, 4)
    for s in (f, low, zero, f * f, f.divide(low), low.theta_logderiv()):
        assert_canonical(s)


# heights whose pairs fill slots of every width from 1 to 10 bytes and past
HEIGHTS = st.sampled_from([1, 4, 12, 20, 28, 36, 64, 3000])


@settings(max_examples=100, deadline=None)
@given(st.data(), HEIGHTS, HEIGHTS, st.integers(1, 40), st.integers(1, 40))
def test_product_methods_agree(data, ha, hb, la, lb):
    # both product methods on every shape, whichever the cost estimate picks
    a = data.draw(st.lists(st.integers(-(2**ha), 2**ha), min_size=la, max_size=la))
    b = data.draw(st.lists(st.integers(-(2**hb), 2**hb), min_size=lb, max_size=lb))
    assert_product_methods(a, b, data.draw(st.integers(max(la, lb), la + lb)))


# the entries of each side, all alike, that fill a slot the most: the
# largest magnitude of h bits, 2**h - 1 or its negative, or -(2**h), one bit
# longer; the first two pairs keep the ids they had when only b's sign varied
EXTREMES = {"pos": lambda h: 2**h - 1, "neg": lambda h: 1 - 2**h, "min": lambda h: -(2**h)}
SIGN_PAIRS = [pytest.param(("pos", "pos"), id="1"), pytest.param(("pos", "neg"), id="-1")] + [
    pytest.param(pair, id="-".join(pair))
    for pair in [("neg", "pos"), ("neg", "neg"), ("min", "min"), ("pos", "min"), ("min", "neg")]
]


# the rows past the first four take slots of 1 and 3 to 9 bytes, and the
# width estimate of their min-min sums is all 8 * nbytes bits of the slot
EXTREME_ROWS = [(1, 1, 400, 300), (64, 64, 200, 150), (1, 3000, 40, 30), (3000, 3000, 40, 30), (1, 1, 7, 5)]
EXTREME_ROWS += [(8, 8, 40, 30), (12, 12, 40, 30), (4, 28, 40, 30), (20, 20, 40, 30), (24, 24, 40, 30)]
EXTREME_ROWS += [(28, 28, 40, 30), (32, 32, 40, 30)]


@pytest.mark.parametrize("signs", SIGN_PAIRS)
@pytest.mark.parametrize("ha, hb, la, lb", EXTREME_ROWS)
def test_product_methods_extreme_sums(ha, hb, la, lb, signs):
    ea, eb = (EXTREMES[s] for s in signs)
    for size in (la + lb - 1, la):  # whole and truncated
        assert_product_methods([ea(ha)] * la, [eb(hb)] * lb, size)


def assert_product_methods(a, b, size):
    expected = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(size)]
    width = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + min(len(a), len(b)).bit_length() + 1
    assert _dot_products(a, b, size) == expected
    assert _kronecker(a, b, size, width) == expected
    assert _convolve(a, b, size) == expected
