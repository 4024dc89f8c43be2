"""Congruence-subgroup combinatorics.

Supports Gamma_0(N), Gamma_1(N) and the principal congruence subgroup
Gamma(N).  Cosets of the projective image P Gamma inside PSL_2(Z) are
enumerated once per group by breadth-first search over the generators
S = (0 -1; 1 0) and T = (1 1; 0 1); the same table serves the index, the
cusp count (the orbits of the right T-action, counted once from the
T-images the search computes anyway), the elliptic points (the cosets
fixed by S and by S T, from the S- and T-images) and so the genus, and
representative extraction.

Each coset is named by a canonical key of g mod N (every kind contains
Gamma(N), so the right coset of g depends only on g mod N).  The BFS keys
each neighbour g S, g T from the entries of g and builds a representative
(exact integer entries) only for a coset not seen before.  Groups of
index above ``MAX_INDEX`` are refused before any search.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .errors import BadGroupError, BadMatrixError, UnsupportedGroupError
from .numberfield import prime_divisors

GAMMA0 = "gamma0"
GAMMA1 = "gamma1"
GAMMA = "gamma"

_KINDS = (GAMMA0, GAMMA1, GAMMA)


@dataclass(frozen=True)
class GroupDescriptor:
    """Identity of a congruence subgroup: kind plus level N."""

    kind: str
    level: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise BadGroupError(f"unknown group kind {self.kind!r}")
        if not isinstance(self.level, int) or self.level < 1:
            raise BadGroupError(f"level must be a positive integer, got {self.level!r}")

    @classmethod
    def parse(cls, text: str) -> "GroupDescriptor":
        """Parse ``gamma0:N``, ``gamma1:N`` or ``gamma:N``."""
        if not isinstance(text, str) or ":" not in text:  # a basis file may say "group": 11
            raise BadGroupError(f"expected kind:level, got {text!r}")
        kind, _, level = text.strip().partition(":")
        try:
            n = int(level)
        except ValueError:
            raise BadGroupError(f"bad level in {text!r}") from None
        return cls(kind, n)

    def __str__(self):
        return f"{self.kind}:{self.level}"


@dataclass(frozen=True)
class IntegerMatrix:
    """2x2 integer matrix; group elements have determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __mul__(self, other):
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return IntegerMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return IntegerMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "IntegerMatrix":
        if self.det() != 1:
            raise BadMatrixError("inverse requires determinant 1")
        return IntegerMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self):
        return ((self.a, self.b), (self.c, self.d))


IDENTITY = IntegerMatrix(1, 0, 0, 1)
GEN_S = IntegerMatrix(0, -1, 1, 0)
GEN_T = IntegerMatrix(1, 1, 0, 1)


def _congruences_hold(a, b, c, d, group: GroupDescriptor) -> bool:
    n = group.level
    if c % n != 0:
        return False
    if group.kind == GAMMA0:
        return True
    if a % n != 1 % n or d % n != 1 % n:
        return False
    if group.kind == GAMMA1:
        return True
    return b % n == 0


def is_member(mat: IntegerMatrix, group: GroupDescriptor, projective: bool = False) -> bool:
    """Membership test; with ``projective`` the sign is quotiented out."""
    if mat.det() != 1:
        raise BadMatrixError(f"matrix has determinant {mat.det()}, expected 1")
    if _congruences_hold(mat.a, mat.b, mat.c, mat.d, group):
        return True
    if projective:
        return _congruences_hold(-mat.a, -mat.b, -mat.c, -mat.d, group)
    return False


def contains_minus_identity(group: GroupDescriptor) -> bool:
    if group.kind == GAMMA0:
        return True
    return group.level <= 2


def p_index(group: GroupDescriptor) -> int:
    """Index of the projective image in PSL_2(Z), by closed formula."""
    n = group.level
    primes = prime_divisors(n)
    if group.kind == GAMMA0:
        idx = n
        for p in primes:
            idx = idx // p * (p + 1)
        return idx
    idx = n ** (2 if group.kind == GAMMA1 else 3)
    for p in primes:
        idx = idx // (p * p) * (p * p - 1)
    return idx if contains_minus_identity(group) else idx // 2


# Largest index a coset table is built for.  Gamma(N) has index ~N^3/2,
# so without a cap a modest level would exhaust memory.
MAX_INDEX = 100_000


def _coset_key(group: GroupDescriptor, a: int, b: int, c: int, d: int) -> tuple:
    """Canonical name of the right coset P Gamma (a b; c d), sign quotiented out.

    Left multiplication by the group fixes, of the matrix mod N: for Gamma(N)
    the whole residue; for Gamma_1(N) the bottom row (c, d); for
    Gamma_0(N) the bottom row up to a unit, a point of P^1(Z/N).  That
    point's normal form: a unit u takes c to g = gcd(c, N), the units
    fixing g are the v = 1 mod N/g, and the least d u v over those (g
    candidates, not phi(N)) is the second coordinate.
    """
    n = group.level
    if group.kind == GAMMA:
        key = (a % n, b % n, c % n, d % n)
        return min(key, tuple(-x % n for x in key))
    c, d = c % n, d % n
    if group.kind == GAMMA1:
        return min((c, d), (-c % n, -d % n))
    g = math.gcd(c, n)
    m = n // g
    u = pow(c // g, -1, m)  # c/g is a unit mod N/g; lift it to one mod N
    while math.gcd(u, n) != 1:
        u += m
    return g, min(d * u * v % n for v in range(1, n + 1, m) if math.gcd(v, n) == 1)


class CosetTable:
    """Right-coset data for P Gamma \\ PSL_2(Z), built by BFS over S, T."""

    def __init__(self, group: GroupDescriptor):
        self.group = group
        reps: list[IntegerMatrix] = [IDENTITY]
        coset_of: dict[tuple, int] = {_coset_key(group, 1, 0, 0, 1): 0}
        self.reps, self._coset_of = reps, coset_of
        s_image, t_image = [], []  # s_image[i]: the coset of reps[i] * S; t_image for T
        # reps doubles as the BFS queue: the loop reaches each new coset
        # in the order it is appended
        for g in reps:
            a, b, c, d = g.a, g.b, g.c, g.d
            # g * S, then g * T
            for h, image in (((b, -a, d, -c), s_image), ((a, a + b, c, c + d), t_image)):
                index = coset_of.setdefault(_coset_key(group, *h), len(reps))
                if index == len(reps):
                    reps.append(IntegerMatrix(*h))
                image.append(index)
        # the elliptic points: the cosets fixed by S (order 2) and by S T (order 3)
        self.nu2 = sum(i == j for i, j in enumerate(s_image))
        self.nu3 = sum(t_image[j] == i for i, j in enumerate(s_image))
        self.cusp_count = 0  # the cycles of the right T-action on the cosets
        for start in range(len(t_image)):
            if t_image[start] >= 0:
                self.cusp_count += 1
                i = start
                while t_image[i] >= 0:
                    t_image[i], i = -1, t_image[i]  # mark i seen, step to its T-image

    def __len__(self):
        return len(self.reps)

    def coset_index(self, mat: IntegerMatrix) -> int:
        return self._coset_of[_coset_key(self.group, mat.a, mat.b, mat.c, mat.d)]


_TABLE_CACHE: dict[GroupDescriptor, CosetTable] = {}
_TABLE_LOCK = threading.Lock()


def coset_table(group: GroupDescriptor) -> CosetTable:
    """The cached coset table; UnsupportedGroupError above MAX_INDEX."""
    # the index is at least the level, which bounds the factorization below
    if group.level > MAX_INDEX:
        raise UnsupportedGroupError(
            f"{group} has index at least {group.level}, above the coset-table cap {MAX_INDEX}"
        )
    index = p_index(group)
    if index > MAX_INDEX:
        raise UnsupportedGroupError(
            f"{group} has index {index}, above the coset-table cap {MAX_INDEX}"
        )
    with _TABLE_LOCK:
        table = _TABLE_CACHE.get(group)
        if table is None:
            table = CosetTable(group)
            _TABLE_CACHE[group] = table
    return table


def coset_reps(group: GroupDescriptor):
    """A complete, duplicate-free list of coset representatives."""
    return list(coset_table(group).reps)


def cusp_count(group: GroupDescriptor) -> int:
    """Number of cusps: orbits of the right T-action on the coset space."""
    return coset_table(group).cusp_count


def kappa(group: GroupDescriptor) -> int:
    """floor(index/6) + 1 - #cusps; the number of leading coefficients of
    the unitary part that pin down a canonical decomposition.  May be
    negative for some genus-zero groups; consumers clamp as needed."""
    return invariants(group).kappa


@dataclass(frozen=True)
class SubgroupInvariants:
    p_index: int
    cusp_count: int
    kappa: int
    contains_minus_identity: bool
    genus: int  # = dim S_2, the number of forms in a weight-2 cusp form basis


def invariants(group: GroupDescriptor) -> SubgroupInvariants:
    table = coset_table(group)  # first: it refuses a group past the index cap
    idx, cusps = p_index(group), table.cusp_count
    return SubgroupInvariants(
        p_index=idx,
        cusp_count=cusps,
        kappa=idx // 6 + 1 - cusps,
        contains_minus_identity=contains_minus_identity(group),
        # g = 1 + mu/12 - nu2/4 - nu3/3 - nu_inf/2 (Diamond-Shurman Thm. 3.1.1)
        genus=(12 + idx - 3 * table.nu2 - 4 * table.nu3 - 6 * cusps) // 12,
    )


def is_parabolic_trace2(mat: IntegerMatrix) -> bool:
    """Parabolic of trace exactly 2 (the identity excluded)."""
    if mat.det() != 1:
        raise BadMatrixError(f"matrix has determinant {mat.det()}, expected 1")
    return mat.trace() == 2 and mat != IDENTITY


def j_twist(mat: IntegerMatrix) -> IntegerMatrix:
    """Conjugation by diag(-1, 1): negates the off-diagonal entries."""
    return IntegerMatrix(mat.a, -mat.b, -mat.c, mat.d)


def j_normalizes(group: GroupDescriptor) -> bool:
    """Whether conjugation by diag(-1, 1) maps the group onto itself.

    True for all three kinds: the twist negates only the off-diagonal
    entries b and c, and no defining congruence (c = 0 for Gamma_0,
    also a = d = 1 for Gamma_1, also b = 0 for Gamma, all mod N) sees
    their sign.
    """
    return True
