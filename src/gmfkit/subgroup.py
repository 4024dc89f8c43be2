"""Congruence-subgroup combinatorics.

Supports Gamma_0(N), Gamma_1(N) and the principal congruence subgroup
Gamma(N).  Cosets of the projective image P Gamma inside PSL_2(Z) are
enumerated once per group by breadth-first search over the generators
S = (0 -1; 1 0) and T = (1 1; 0 1); the same table serves the index, the
cusp count (the orbits of the right T-action, counted once from the
T-images the search computes anyway), the elliptic points (the cosets
fixed by S and by S T, from the S- and T-images) and so the genus, and
representative extraction.

Gamma_0(N) and Gamma_1(N) name each coset by one integer, a canonical key
of g mod N (both contain Gamma(N), so the right coset of g depends only
on g mod N), from a key function chosen once per table by the kind.
Gamma(N) is normal of index N in P Gamma_1(N), the union of the cosets
+-Gamma(N) T^t, t mod N: it names the coset of T^t r_i (r_i a Gamma_1(N)
representative) i N + t and searches by these ids, with no key.  Either
search builds a representative (an immutable ``IntegerMatrix`` with exact
integer entries) only for a coset not seen before.  Groups of index above
``MAX_INDEX`` are refused before any search.
"""

from __future__ import annotations

import math
import threading
from dataclasses import FrozenInstanceError, dataclass

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
        if type(self.level) is not int or self.level < 1:  # nor a bool
            raise BadGroupError(f"level must be a positive integer, got {self.level!r}")

    @classmethod
    def parse(cls, text: str) -> "GroupDescriptor":
        """Parse ``gamma0:N``, ``gamma1:N`` or ``gamma:N``."""
        if not isinstance(text, str) or ":" not in text:  # a basis file may say "group": 11
            raise BadGroupError(f"expected kind:level, got {text!r}")
        kind, _, level = text.strip().partition(":")
        # ASCII digits only: int() would also read "1_1", "+11" or "１１"
        if not (level.isascii() and level.isdigit()):
            raise BadGroupError(f"bad level in {text!r}")
        try:
            n = int(level)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise BadGroupError(f"bad level in {text!r}") from None
        return cls(kind, n)

    def __str__(self):
        return f"{self.kind}:{self.level}"


class IntegerMatrix:
    """2x2 integer matrix; group elements have determinant 1.

    Immutable, equal and hashing as the tuple of its entries does (but never
    equal to a tuple); ``__init__`` writes the entries through the slot
    descriptors' setters, bound once below the class, past the
    ``__setattr__`` that refuses every later write.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _SET_A(self, a)
        _SET_B(self, b)
        _SET_C(self, c)
        _SET_D(self, d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not the slots
        return IntegerMatrix, (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"IntegerMatrix(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

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


_SET_A, _SET_B, _SET_C, _SET_D = (
    slot.__set__ for slot in (IntegerMatrix.a, IntegerMatrix.b, IntegerMatrix.c, IntegerMatrix.d)
)

IDENTITY = IntegerMatrix(1, 0, 0, 1)
GEN_S = IntegerMatrix(0, -1, 1, 0)
GEN_T = IntegerMatrix(1, 1, 0, 1)


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


def _coset_key(group: GroupDescriptor):
    """The function naming each right coset P Gamma (a b; c d) by one
    integer, the sign quotiented out, for Gamma_1(N) and Gamma_0(N)
    (Gamma(N) names its cosets by the Gamma_1(N) coset and an offset).

    Left multiplication by the group fixes, of the matrix mod N: for
    Gamma_1(N) the bottom row (c, d); for Gamma_0(N) the bottom row up to a
    unit, a point of P^1(Z/N).  For the first the key reads (c, d) as
    base-N digits and takes the lesser number of g and -g, which is the
    lexicographically least residue pair: c picks the sign unless it is 0
    or N/2.  A point of P^1(Z/N) is packed as g N + d': a unit u takes c
    to g = gcd(c, N), the units fixing g are the v = 1 mod N/g, and d' is
    the least d u v over those (g candidates, not phi(N)); g, u and the v
    depend on c mod N alone, so they are found once per residue.
    """
    n = group.level
    if group.kind == GAMMA1:
        def key(a, b, c, d):
            c %= n
            if c + c > n:
                return (n - c) * n + -d % n
            if c and c + c < n:
                return c * n + d % n
            return c * n + min(d % n, -d % n)  # c = -c mod N
    else:
        points = {}  # c mod N -> (g N, u, the v)

        def key(a, b, c, d):
            c %= n
            point = points.get(c)
            if point is None:
                point = points[c] = _p1_point(c, n)
            gn, u, units = point
            if len(units) == 1:  # only v = 1 fixes g
                return gn + d * u % n
            du = d * u
            return gn + min(du * v % n for v in units)
    return key


def _p1_point(c: int, n: int):
    """(g N, u, vs) for the points (c : d) of P^1(Z/N), g = gcd(c, N): the
    unit u takes c to g, and the units vs = 1 mod N/g fix g."""
    g = math.gcd(c, n)
    m = n // g
    u = pow(c // g, -1, m)  # c/g is a unit mod N/g; lift it to one mod N
    while math.gcd(u, n) != 1:
        u += m
    return g * n, u, tuple(v for v in range(1, n + 1, m) if math.gcd(v, n) == 1)


class CosetTable:
    """Right-coset data for P Gamma \\ PSL_2(Z), built by BFS over S, T;
    s_image[i] and t_image[i] are the cosets of reps[i] * S and reps[i] * T."""

    def __init__(self, group: GroupDescriptor):
        self.group = group
        self.reps: list[IntegerMatrix] = [IDENTITY]
        if group.kind == GAMMA:
            s_image, t_image = self._search_by_offsets(coset_table(GroupDescriptor(GAMMA1, group.level)))
        else:
            s_image, t_image = self._search_by_keys(_coset_key(group))
        self.s_image, self.t_image = s_image, t_image
        # the elliptic points: the cosets fixed by S (order 2) and by S T (order 3)
        self.nu2 = sum(i == j for i, j in enumerate(s_image))
        self.nu3 = sum(t_image[j] == i for i, j in enumerate(s_image))
        self.cusp_count = start = 0  # the cycles of the right T-action on the cosets
        seen = bytearray(len(t_image))
        while (start := seen.find(0, start)) >= 0:  # the first coset not yet seen
            self.cusp_count += 1
            i = start
            while not seen[i]:
                seen[i], i = 1, t_image[i]  # mark i seen, step to its T-image

    def _search_by_keys(self, key):
        reps, s_image, t_image = self.reps, [], []
        self._coset_of = coset_of = {key(1, 0, 0, 1): 0}
        # reps doubles as the BFS queue: the loop reaches each new coset
        # in the order it is appended
        for g in reps:
            a, b, c, d = g.a, g.b, g.c, g.d
            new = len(reps)
            index = coset_of.setdefault(key(b, -a, d, -c), new)  # g * S
            if index == new:
                reps.append(IntegerMatrix(b, -a, d, -c))
                new += 1
            s_image.append(index)
            index = coset_of.setdefault(key(a, a + b, c, c + d), new)  # g * T
            if index == new:
                reps.append(IntegerMatrix(a, a + b, c, c + d))
            t_image.append(index)
        return s_image, t_image

    def _search_by_offsets(self, base: "CosetTable"):
        """The keyed search, in its order, over the ids i N + t of the
        Gamma(N) cosets +-Gamma(N) T^t r_i, r_i = base.reps[i].  For X = S, T
        r_i X = h r_j, j the X-image of i, with h = +-(1 sigma; 0 1) mod N in
        +-Gamma_1(N); Gamma(N) is normal, so T^t r_i X is in T^(t + sigma) r_j's coset."""
        n, reps, base_reps = self.group.level, self.reps, base.reps
        every = list(range(len(base_reps) * n))  # the ids: one int object each, shared below
        s_ids, t_ids = [], []  # s_ids[i N + t]: the id of the coset of T^t r_i S; t_ids for T
        for r, js, jt in zip(base_reps, base.s_image, base.t_image):
            a, b = r.a, r.b
            for p, q, j, nids in ((b, -a, js, s_ids), (a, a + b, jt, t_ids)):  # top row of r S, r T
                e = base_reps[j]  # h = (p q; ..) e^-1: sigma = h12 h11, h11 = +-1 mod N
                sigma = (q * e.a - p * e.b) * (p * e.d - q * e.c) % n
                jn = j * n  # t = 0 .. N-1 goes to j N + (t + sigma) % N
                nids += every[jn + sigma : jn + n] + every[jn : jn + sigma]
        at = [0] + [-1] * (len(every) - 1)  # at[id]: the coset's place in reps, -1 unseen
        ids = [0]
        for g, gid in zip(reps, ids):  # both grow in step as cosets are found
            nid = s_ids[gid]
            if at[nid] < 0:  # g * S
                at[nid] = len(reps)
                reps.append(IntegerMatrix(g.b, -g.a, g.d, -g.c))
                ids.append(nid)
            nid = t_ids[gid]
            if at[nid] < 0:  # g * T
                at[nid] = len(reps)
                reps.append(IntegerMatrix(g.a, g.a + g.b, g.c, g.c + g.d))
                ids.append(nid)
        return [at[s_ids[gid]] for gid in ids], [at[t_ids[gid]] for gid in ids]

    def __len__(self):
        return len(self.reps)


_TABLE_CACHE: dict[GroupDescriptor, CosetTable] = {}
_TABLE_LOCK = threading.RLock()  # a Gamma(N) build fetches Gamma_1(N)'s table


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
            table = _TABLE_CACHE[group] = CosetTable(group)
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

