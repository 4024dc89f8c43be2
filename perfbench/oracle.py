"""Reference results computed from the definitions, without gmfkit.

The benchmark checks every output against these.  Nothing here imports
gmfkit or shares an algorithm with it: eta quotients are expanded as a
naive product of (1 - q^m) factors, exponentials by a fraction-free
integer recurrence, subgroup invariants by closed formulas, and cosets
are told apart by canonical keys instead of a breadth-first search.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm


# ----------------------------------------------------------------------
# q-series


def eta_unit_product(pairs, terms):
    """First ``terms`` integer coefficients of prod_d prod_{n>=1} (1 - q^(d n))^(r_d)."""
    a = [1] + [0] * (terms - 1)
    for d, r in pairs:
        for m in range(d, terms, d):
            for _ in range(abs(r)):
                if r > 0:  # times (1 - q^m)
                    a = a[:m] + [x - y for x, y in zip(a[m:], a)]
                else:  # divided by (1 - q^m): running sums along each residue class
                    for start in range(m):
                        a[start::m] = list(accumulate(a[start::m]))
    return a


def eta_quotient_lead(pairs):
    """Lead exponent of prod eta(d z)^(r_d) at level 1; the quotient must
    have sum d r_d divisible by 24 so that it lives at level 1."""
    s = sum(d * r for d, r in pairs)
    if s % 24:
        raise ValueError(f"eta quotient {pairs} does not live at level 1")
    return s // 24


def unit_exponential(w, c, terms):
    """Coefficients a(0..terms-1) of the unit series f0 = 1 + ... whose
    theta-logarithmic derivative is c * w, for integer w with w[0] = 0.

    With c = p/s, the integers A(n) = a(n) n! s^n satisfy
    A(n) = sum_k p w(k) s^(k-1) (n-1)!/(n-k)! A(n-k), so the recurrence
    runs without a single gcd; each a(n) is reduced once at the end.
    """
    c = Fraction(c)
    p, s = c.numerator, c.denominator
    fact = [1]
    for n in range(1, terms):
        fact.append(fact[-1] * n)
    weight = [0] + [p * w[k] * s ** (k - 1) for k in range(1, terms)]
    big = [1]
    for n in range(1, terms):
        acc = 0
        for k in range(1, n + 1):
            if w[k] and big[n - k]:
                acc += weight[k] * (fact[n - 1] // fact[n - k]) * big[n - k]
        big.append(acc)
    return [Fraction(big[n], fact[n] * s ** n) for n in range(terms)]


def times_rational_series(f1, f0, terms):
    """First ``terms`` coefficients of f1 * f0, where f1 holds coordinate
    tuples (length 1 over Q) and f0 holds rationals, both from exponent 0.

    Works over one common denominator so the convolution is integer-only.
    """
    width = len(f1[0])
    den1 = lcm(*(Fraction(x).denominator for coords in f1[:terms] for x in coords))
    int1 = [[int(Fraction(x) * den1) for x in coords] for coords in f1[:terms]]
    den0 = lcm(*(x.denominator for x in f0[:terms]))
    int0 = [x.numerator * (den0 // x.denominator) for x in f0[:terms]]
    den = den1 * den0
    out = []
    for n in range(terms):
        acc = [0] * width
        for j in range(n + 1):
            b = int0[n - j]
            if b:
                coords = int1[j]
                for i in range(width):
                    if coords[i]:
                        acc[i] += coords[i] * b
        out.append(tuple(Fraction(x, den) for x in acc))
    return out


# ----------------------------------------------------------------------
# cyclotomic fields


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def cyclotomic_trace(coords, m):
    """Trace from Q(zeta_m) to Q of sum_i coords[i] zeta_m^i.

    Tr(zeta_m^i) is the Ramanujan sum mu(m/g) phi(m)/phi(m/g), g = gcd(i, m).
    """
    total = Fraction(0)
    for i, x in enumerate(coords):
        if x:
            g = gcd(i, m)
            total += Fraction(x) * mobius(m // g) * Fraction(totient(m), totient(m // g))
    return total


# ----------------------------------------------------------------------
# congruence subgroups


def _primes(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def psl2_index(kind, n):
    """Index of the image of the group in PSL_2(Z), by closed formula."""
    if kind == "gamma0":
        idx = n
        for p in _primes(n):
            idx = idx // p * (p + 1)
        return idx
    sl_index = n * n if kind == "gamma1" else n ** 3
    for p in _primes(n):
        sl_index = sl_index // (p * p) * (p * p - 1)
    return sl_index if n <= 2 else sl_index // 2


def cusp_count(kind, n):
    """Number of cusps, by closed formula."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    if kind == "gamma0":
        return sum(totient(gcd(d, n // d)) for d in divisors)
    if kind == "gamma1":
        if n <= 4:
            return {1: 1, 2: 2, 3: 2, 4: 3}[n]
        return sum(totient(d) * totient(n // d) for d in divisors) // 2
    if n <= 2:
        return {1: 1, 2: 3}[n]
    return psl2_index(kind, n) // n


def contains_minus_identity(kind, n):
    return kind == "gamma0" or n <= 2


def coset_key(kind, n, mat):
    """Canonical label of the right coset P Gamma g for g = ((a, b), (c, d)).

    Gamma_0(N): the bottom row as a point of P^1(Z/N), i.e. up to units.
    Gamma_1(N): the bottom row mod N up to sign.  Gamma(N): g mod N up to sign.
    """
    (a, b), (c, d) = mat
    if kind == "gamma0":
        return min(((u * c) % n, (u * d) % n) for u in range(1, n + 1) if gcd(u, n) == 1)
    if kind == "gamma1":
        return min((c % n, d % n), (-c % n, -d % n))
    return min((a % n, b % n, c % n, d % n), (-a % n, -b % n, -c % n, -d % n))
