import copy
import json
import math
import pickle
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit import subgroup
from gmfkit.cli import run
from gmfkit.errors import BadGroupError, BadMatrixError, UnsupportedGroupError
from gmfkit.subgroup import (
    GAMMA,
    GAMMA0,
    GAMMA1,
    GEN_S,
    GEN_T,
    IDENTITY,
    MAX_INDEX,
    CosetTable,
    GroupDescriptor,
    IntegerMatrix,
    contains_minus_identity,
    coset_reps,
    coset_table,
    cusp_count,
    invariants,
    kappa,
    p_index,
)

SL2 = GroupDescriptor(GAMMA0, 1)


# ----------------------------------------------------------------------
# independent oracle: membership read off the defining congruences, kept
# apart from the coset keys the library names cosets by


def _congruences_hold(a, b, c, d, group):
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


def is_member(mat, group, projective=False):
    """Membership test; with ``projective`` the sign is quotiented out."""
    if mat.det() != 1:
        raise BadMatrixError(f"matrix has determinant {mat.det()}, expected 1")
    if _congruences_hold(mat.a, mat.b, mat.c, mat.d, group):
        return True
    if projective:
        return _congruences_hold(-mat.a, -mat.b, -mat.c, -mat.d, group)
    return False


def j_twist(mat):
    """Conjugation by diag(-1, 1): negates the off-diagonal entries."""
    return IntegerMatrix(mat.a, -mat.b, -mat.c, mat.d)


def totient(n):
    r, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            r -= r // p
        p += 1
    if m > 1:
        r -= r // m
    return r


def cusps_gamma0_formula(n):
    return sum(totient(math.gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)


def cusps_gamma1_formula(n):
    if n == 1:
        return 1
    if n == 2:
        return 2
    if n == 4:
        return 3
    if n == 3:
        return 2
    return sum(totient(d) * totient(n // d) for d in range(1, n + 1) if n % d == 0) // 2


def cusps_gamma_formula(n):
    if n == 1:
        return 1
    if n == 2:
        return 3
    return p_index(GroupDescriptor(GAMMA, n)) // n


class TestDescriptor:
    def test_parse_roundtrip(self):
        g = GroupDescriptor.parse("gamma1:14")
        assert g == GroupDescriptor(GAMMA1, 14)
        assert str(g) == "gamma1:14"

    @pytest.mark.parametrize("bad", [
        "gamma2:4", "gamma0", "gamma0:x", "gamma0:0",
        # int() reads these as 11; a level is ASCII digits only
        "gamma0:1_1", "gamma0:１１", "gamma0:+11", "gamma0: 11",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(BadGroupError):
            GroupDescriptor.parse(bad)

    @pytest.mark.parametrize("bad", [11, None, ["gamma0:11"], {"gamma0": 11}])
    def test_parse_rejects_non_string(self, bad):
        with pytest.raises(BadGroupError, match="expected kind:level"):
            GroupDescriptor.parse(bad)

    @pytest.mark.parametrize("bad", [True, False, 11.0, "11", 0])
    def test_level_is_a_positive_int(self, bad):
        # a bool is an int subclass: gamma0:True is refused, not printed
        with pytest.raises(BadGroupError, match="level must be a positive integer"):
            GroupDescriptor(GAMMA0, bad)

    def test_minus_identity(self):
        assert contains_minus_identity(GroupDescriptor(GAMMA0, 37))
        assert contains_minus_identity(GroupDescriptor(GAMMA, 2))
        assert contains_minus_identity(GroupDescriptor(GAMMA1, 2))
        assert not contains_minus_identity(GroupDescriptor(GAMMA, 3))
        assert not contains_minus_identity(GroupDescriptor(GAMMA1, 5))


class TestMembership:
    def test_identity_everywhere(self):
        for g in (SL2, GroupDescriptor(GAMMA1, 9), GroupDescriptor(GAMMA, 6)):
            assert is_member(IDENTITY, g)

    def test_t_in_gamma0(self):
        assert is_member(GEN_T, GroupDescriptor(GAMMA0, 11))

    def test_lower_triangular_not_in_gamma0_11(self):
        assert not is_member(IntegerMatrix(1, 0, 1, 1), GroupDescriptor(GAMMA0, 11))

    def test_t_not_in_gamma_full(self):
        assert not is_member(GEN_T, GroupDescriptor(GAMMA, 5))

    def test_projective_flag(self):
        g = GroupDescriptor(GAMMA1, 5)
        assert not is_member(IntegerMatrix(-1, 0, 0, -1), g)
        assert is_member(IntegerMatrix(-1, 0, 0, -1), g, projective=True)

    def test_determinant_checked(self):
        with pytest.raises(BadMatrixError):
            is_member(IntegerMatrix(1, 0, 0, 2), SL2)


class TestIntegerMatrix:
    def test_equal_and_hashed_as_its_entries(self):
        m = IntegerMatrix(3, 2, 4, 3)
        assert m == IntegerMatrix(3, 2, 4, 3)
        assert m != IntegerMatrix(3, 2, 4, -3)
        assert m != (3, 2, 4, 3)  # equal to no tuple
        assert hash(m) == hash((3, 2, 4, 3))
        assert hash(IntegerMatrix(2**70, -1, 0, 1)) == hash((2**70, -1, 0, 1))
        assert len({m, IntegerMatrix(3, 2, 4, 3), -(-m)}) == 1

    def test_repr(self):
        assert repr(IDENTITY) == "IntegerMatrix(a=1, b=0, c=0, d=1)"
        assert repr(IntegerMatrix(-2, 5, 7, -17)) == "IntegerMatrix(a=-2, b=5, c=7, d=-17)"

    def test_immutable(self):
        m = IntegerMatrix(1, 1, 0, 1)
        with pytest.raises(AttributeError):
            m.a = 5
        with pytest.raises(AttributeError):
            del m.b
        with pytest.raises(AttributeError):
            m.e = 0
        assert m == GEN_T

    @pytest.mark.parametrize("clone", [
        *(pytest.param(lambda m, p=p: pickle.loads(pickle.dumps(m, protocol=p)), id=f"pickle{p}")
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy,
        copy.deepcopy,
    ])
    def test_round_trips(self, clone):
        m = IntegerMatrix(2**70, -1, 5, 7)
        twin = clone(m)
        assert type(twin) is IntegerMatrix
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
        with pytest.raises(AttributeError):
            twin.a = 0

    @pytest.mark.parametrize("name", "abcd")
    def test_entries_read_only(self, name):
        m = IntegerMatrix(3, 2, 4, 3)
        with pytest.raises(AttributeError):
            setattr(m, name, 0)
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert (m.a, m.b, m.c, m.d) == (3, 2, 4, 3)

    def test_no_instance_dict(self):
        assert not hasattr(IntegerMatrix(3, 2, 4, 3), "__dict__")

    def test_every_matrix_built_through_init(self, monkeypatch):
        built = TestCosetKeys.count_matrices(monkeypatch)
        m = IntegerMatrix(3, 2, 4, 3)
        made = [m * GEN_T, -m, m.inverse(), copy.copy(m), pickle.loads(pickle.dumps(m))]
        assert built == [(3, 2, 4, 3)] + [(x.a, x.b, x.c, x.d) for x in made]
        del built[:]
        table = CosetTable(GroupDescriptor(GAMMA0, 12))
        assert built == [(r.a, r.b, r.c, r.d) for r in table.reps[1:]]  # reps[0] is IDENTITY


class TestCosetEnumeration:
    def test_sl2_trivial(self):
        assert coset_reps(SL2) == [IDENTITY]

    def test_gamma0_2(self):
        assert len(coset_reps(GroupDescriptor(GAMMA0, 2))) == 3

    def test_gamma_7(self):
        assert len(coset_reps(GroupDescriptor(GAMMA, 7))) == 168

    def test_gamma_2_no_halving(self):
        assert p_index(GroupDescriptor(GAMMA, 2)) == 6
        assert len(coset_reps(GroupDescriptor(GAMMA, 2))) == 6

    @pytest.mark.parametrize(
        "group",
        [GroupDescriptor(GAMMA0, n) for n in (1, 2, 6, 11, 12, 25, 30)]
        + [GroupDescriptor(GAMMA1, n) for n in (1, 3, 5, 8, 13)]
        + [GroupDescriptor(GAMMA, n) for n in (1, 2, 3, 5, 8)],
    )
    def test_bfs_count_matches_formula(self, group):
        assert len(coset_reps(group)) == p_index(group)

    @pytest.mark.parametrize(
        "group",
        [GroupDescriptor(GAMMA0, 11), GroupDescriptor(GAMMA1, 5), GroupDescriptor(GAMMA, 3)]
        + [GroupDescriptor(kind, n) for kind in (GAMMA0, GAMMA1, GAMMA) for n in range(1, 7)],
    )
    def test_reps_pairwise_inequivalent(self, group):
        reps = coset_reps(group)
        for i, ri in enumerate(reps):
            for j, rj in enumerate(reps):
                if i != j:
                    assert not is_member(ri * rj.inverse(), group, projective=True)

    def test_reps_are_unimodular(self):
        for rep in coset_reps(GroupDescriptor(GAMMA0, 24)):
            assert rep.det() == 1


class TestIndexValues:
    def test_gamma0_11(self):
        assert p_index(GroupDescriptor(GAMMA0, 11)) == 12

    def test_gamma0_1(self):
        assert p_index(SL2) == 1

    def test_gamma1_halving(self):
        # index 24 in SL2, halved projectively since -I is absent
        assert p_index(GroupDescriptor(GAMMA1, 5)) == 12


class TestCusps:
    def test_sl2(self):
        assert cusp_count(SL2) == 1

    def test_gamma0_11(self):
        assert cusp_count(GroupDescriptor(GAMMA0, 11)) == 2

    def test_gamma0_14(self):
        assert cusp_count(GroupDescriptor(GAMMA0, 14)) == 4

    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_gamma0_sweep_vs_formula(self, n):
        assert cusp_count(GroupDescriptor(GAMMA0, n)) == cusps_gamma0_formula(n)

    @pytest.mark.parametrize("n", list(range(1, 16)))
    def test_gamma1_sweep_vs_formula(self, n):
        assert cusp_count(GroupDescriptor(GAMMA1, n)) == cusps_gamma1_formula(n)

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_gamma_sweep_vs_formula(self, n):
        assert cusp_count(GroupDescriptor(GAMMA, n)) == cusps_gamma_formula(n)

    @pytest.mark.parametrize("group, cusps", [
        (GroupDescriptor(GAMMA0, 36), cusps_gamma0_formula(36)),
        (GroupDescriptor(GAMMA1, 13), cusps_gamma1_formula(13)),
        (GroupDescriptor(GAMMA, 7), cusps_gamma_formula(7)),
    ])
    def test_counted_once_by_the_table_build(self, monkeypatch, group, cusps):
        # the build finds the coset of each rep * T; no coset is keyed again
        table = coset_table(group)

        def no_key(*args):
            raise AssertionError("a coset was keyed after the table build")

        monkeypatch.setattr(subgroup, "_coset_key", no_key)
        assert cusp_count(group) == table.cusp_count == cusps
        assert kappa(group) == p_index(group) // 6 + 1 - cusps


class TestKappa:
    def test_sl2(self):
        assert kappa(SL2) == 0

    def test_gamma0_11(self):
        assert kappa(GroupDescriptor(GAMMA0, 11)) == 1

    def test_gamma_7(self):
        assert kappa(GroupDescriptor(GAMMA, 7)) == 5

    def test_gamma_2_negative(self):
        assert kappa(GroupDescriptor(GAMMA, 2)) == -1

    @pytest.mark.parametrize(
        "group",
        [GroupDescriptor(GAMMA0, n) for n in range(1, 26)]
        + [GroupDescriptor(GAMMA1, n) for n in range(1, 12)]
        + [GroupDescriptor(GAMMA, n) for n in range(1, 9)],
    )
    def test_definition_replay(self, group):
        inv = invariants(group)
        assert inv.kappa == inv.p_index // 6 + 1 - inv.cusp_count
        assert inv.kappa == kappa(group)


def elliptic_gamma0_formula(n, order):
    """nu_2 or nu_3 of Gamma_0(n) (Diamond-Shurman Cor. 3.7.2): 0 when 4 | n
    (resp. 9 | n), else prod_(p | n) (1 + (-1/p)) (resp. (-3/p))."""
    if n % (4 if order == 2 else 9) == 0:
        return 0
    count, m, p = 1, n, 2
    while m > 1:
        if m % p == 0:
            while m % p == 0:
                m //= p
            if order == 2 and p % 4 == 1 or order == 3 and p % 3 == 1:
                count *= 2  # (-1/p) or (-3/p) is 1
            elif order == 2 and p % 4 == 3 or order == 3 and p % 3 == 2:
                return 0  # (-1/p) or (-3/p) is -1
        p += 1
    return count


class TestGenus:
    def test_gamma0_elliptic_points_match_closed_formulas(self):
        for n in range(1, 301):
            table = coset_table(GroupDescriptor(GAMMA0, n))
            assert (table.nu2, table.nu3) == (
                elliptic_gamma0_formula(n, 2), elliptic_gamma0_formula(n, 3)
            ), n

    @pytest.mark.parametrize("kind, top, first", [
        # Diamond-Shurman 3.9: Gamma_1(N) has (1, 1) elliptic points at N = 1,
        # (1, 0) at 2, (0, 1) at 3 and none from 4; Gamma(N) none from 2
        (GAMMA1, 60, [(1, 1), (1, 0), (0, 1)]),
        (GAMMA, 24, [(1, 1)]),
    ])
    def test_elliptic_points_of_gamma1_and_gamma(self, kind, top, first):
        counts = [(table.nu2, table.nu3) for table in
                  (coset_table(GroupDescriptor(kind, n)) for n in range(1, top + 1))]
        assert counts == first + [(0, 0)] * (top - len(first))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_gamma_closed_formula(self, n):
        # Gamma(N), N >= 3, has no elliptic points and index / N cusps
        group = GroupDescriptor(GAMMA, n)
        mu = p_index(group)
        assert 12 * n * (invariants(group).genus - 1) == mu * (n - 6)

    @pytest.mark.parametrize("group, genus", [
        (SL2, 0), (GroupDescriptor(GAMMA0, 23), 2), (GroupDescriptor(GAMMA0, 100), 7),
        (GroupDescriptor(GAMMA0, 389), 32), (GroupDescriptor(GAMMA1, 13), 2),
        (GroupDescriptor(GAMMA, 7), 3), (GroupDescriptor(GAMMA, 2), 0),
    ])
    def test_known_values(self, group, genus):
        assert invariants(group).genus == genus


class TestJTwist:
    def test_identity_fixed(self):
        assert j_twist(IDENTITY) == IDENTITY

    def test_t_image(self):
        assert j_twist(GEN_T) == IntegerMatrix(1, -1, 0, 1)

    def test_involution(self):
        m = IntegerMatrix(3, 2, 4, 3)
        assert j_twist(j_twist(m)) == m

    def test_normalizes_all_kinds(self):
        # w T^N w^-1 lies in Gamma(N), hence in each kind; its twist must too
        for group in (GroupDescriptor(GAMMA0, 40), GroupDescriptor(GAMMA, 9),
                      GroupDescriptor(GAMMA1, 5)):
            t_level = word_product([GEN_T] * group.level)
            for rep in coset_reps(group):
                gamma = rep * t_level * rep.inverse()
                assert is_member(gamma, group) and is_member(j_twist(gamma), group)

    def test_twist_membership_agrees(self):
        # the twist keeps membership, so k_operator keeps its group
        g = GroupDescriptor(GAMMA1, 7)
        t_cubed = GEN_T * GEN_T * GEN_T
        for rep in coset_reps(g):
            for gamma in (rep * GEN_T * rep.inverse(), rep * t_cubed * rep.inverse()):
                if is_member(gamma, g):
                    assert is_member(j_twist(gamma), g)


GEN_T_INV = IntegerMatrix(1, -1, 0, 1)
WORD_GROUPS = (
    [GroupDescriptor(GAMMA0, n) for n in (1, 2, 4, 6, 9, 11, 12, 25, 30, 36, 60)]
    + [GroupDescriptor(GAMMA1, n) for n in (1, 2, 3, 4, 5, 8, 12, 24)]
    + [GroupDescriptor(GAMMA, n) for n in (1, 2, 3, 4, 6, 12)]
)
WORDS = st.lists(st.sampled_from([GEN_S, GEN_T, GEN_T_INV]), max_size=12)


def word_product(word):
    mat = IDENTITY
    for gen in word:
        mat = mat * gen
    return mat


KEYED_GROUPS = [group for group in WORD_GROUPS if group.kind != GAMMA]


class TestCosetKeys:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(KEYED_GROUPS), WORDS, WORDS, WORDS, st.booleans())
    def test_same_coset_iff_projective_member(self, group, g_word, h_word, w_word, conjugate):
        g = word_product(g_word)
        if conjugate:
            # w T^N w^-1 lies in Gamma(N), hence in every kind: same coset as g
            w = word_product(w_word)
            h = w * word_product([GEN_T] * group.level) * w.inverse() * g
        else:
            h = word_product(h_word)
        key = subgroup._coset_key(group)
        g_key, h_key = key(g.a, g.b, g.c, g.d), key(h.a, h.b, h.c, h.d)
        # the table's representatives reach the coset of every drawn matrix
        assert {g_key, h_key} <= {key(r.a, r.b, r.c, r.d) for r in coset_table(group).reps}
        same = g_key == h_key
        assert same == is_member(g * h.inverse(), group, projective=True)
        assert same or not conjugate

    @pytest.mark.parametrize("group", WORD_GROUPS)
    def test_table_holds_one_key_per_coset(self, group):
        table = CosetTable(group)
        assert not hasattr(table, "_coset_of")  # the search's dict ends with the search
        if group.kind != GAMMA:
            key = subgroup._coset_key(group)
            keys = {key(r.a, r.b, r.c, r.d) for r in table.reps}
            assert len(keys) == len(table.reps) == p_index(group)
        else:
            # no key: a coset's id is its Gamma_1(N) coset and an offset mod N
            base = coset_table(GroupDescriptor(GAMMA1, group.level))
            assert len(table.reps) == len(base) * group.level == p_index(group)

    @pytest.mark.parametrize("group", WORD_GROUPS)
    def test_images_are_the_cosets_of_rep_times_generator(self, group):
        # read from the table alone: reps[i] X lies in the coset of reps[X(i)]
        table = coset_table(group)
        reps = table.reps
        for gen, images in ((GEN_S, table.s_image), (GEN_T, table.t_image)):
            assert len(images) == len(reps) == p_index(group)
            for rep, j in zip(reps, images):
                assert is_member(rep * gen * reps[j].inverse(), group, projective=True)

    @pytest.mark.parametrize(
        "group",
        [GroupDescriptor(GAMMA0, 30), GroupDescriptor(GAMMA1, 8), GroupDescriptor(GAMMA, 5)],
    )
    def test_builds_one_matrix_per_new_coset(self, monkeypatch, group):
        # the search names each neighbour without a matrix; only a coset it
        # keeps gets one (the identity, reps[0], exists already)
        if group.kind == GAMMA:
            coset_table(GroupDescriptor(GAMMA1, group.level))  # its base, built before the count
        built = self.count_matrices(monkeypatch)
        table = CosetTable(group)
        assert len(built) == len(table) - 1 == p_index(group) - 1

    def test_cold_gamma_build_builds_its_base_once(self, monkeypatch):
        monkeypatch.setattr(subgroup, "_TABLE_CACHE", {})
        built = self.count_matrices(monkeypatch)
        gamma, base = GroupDescriptor(GAMMA, 7), GroupDescriptor(GAMMA1, 7)
        table = coset_table(gamma)
        assert len(built) == (p_index(base) - 1) + (p_index(gamma) - 1)
        assert subgroup._TABLE_CACHE == {base: coset_table(base), gamma: table}

    @staticmethod
    def count_matrices(monkeypatch):
        """The entries of every IntegerMatrix built from here on."""
        built = []
        init = IntegerMatrix.__init__

        def counting_init(self, *entries):
            built.append(entries)
            init(self, *entries)

        monkeypatch.setattr(IntegerMatrix, "__init__", counting_init)
        return built

    def test_first_builds_from_threads(self, monkeypatch):
        # a Gamma(N) build fetches Gamma_1(N)'s table under the same lock
        groups = [GroupDescriptor(GAMMA, 12), GroupDescriptor(GAMMA1, 12), GroupDescriptor(GAMMA, 24)]
        monkeypatch.setattr(subgroup, "_TABLE_CACHE", {})
        # a fresh lock of the same kind, so that a deadlock here cannot hang later tests
        rlock = isinstance(subgroup._TABLE_LOCK, type(threading.RLock()))
        monkeypatch.setattr(subgroup, "_TABLE_LOCK", threading.RLock() if rlock else threading.Lock())
        per_group = 4
        start = threading.Barrier(per_group * len(groups))
        got = [[] for _ in groups]

        def build(k):
            start.wait(timeout=30)
            got[k].append(coset_table(groups[k]))

        threads = [threading.Thread(target=build, args=(k,), daemon=True)
                   for _ in range(per_group) for k in range(len(groups))]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 20
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads), "a first build deadlocked"
        threaded = dict(subgroup._TABLE_CACHE)
        monkeypatch.setattr(subgroup, "_TABLE_CACHE", {})
        for group, tables in zip(groups, got):
            assert len(tables) == per_group
            assert all(table is threaded[group] for table in tables)  # one table per group
            serial = coset_table(group)
            assert (tables[0].reps, tables[0].s_image, tables[0].t_image) == (
                serial.reps, serial.s_image, serial.t_image)

    def test_gamma0_2000_matches_closed_formulas(self):
        group = GroupDescriptor(GAMMA0, 2000)
        cusps = cusps_gamma0_formula(2000)
        index = 2000 * 3 // 2 * 6 // 5  # N prod (1 + 1/p) over p = 2, 5
        assert cusp_count(group) == cusps == 60
        assert kappa(group) == index // 6 + 1 - cusps

    @staticmethod
    def build_peak(group):
        tracemalloc.start()
        try:
            table = CosetTable(group)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return len(table), peak

    def test_table_memory_is_proportional_to_index(self):
        size, peak = self.build_peak(GroupDescriptor(GAMMA0, 300))
        assert size == 720
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_table_memory_per_coset(self, monkeypatch):
        # one slotted matrix and one id slot per coset, Gamma_1(24)'s table
        # built inside: 0.93 MB, where keyed residues took 0.88 MB with no
        # base and 4-tuple keys and dataclass matrices took 1.36 MB
        monkeypatch.setattr(subgroup, "_TABLE_CACHE", {})
        size, peak = self.build_peak(GroupDescriptor(GAMMA, 24))
        assert size == 4608
        assert peak < 1.0 * 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_index_cap(self, capsys):
        group = GroupDescriptor(GAMMA, 200)
        assert p_index(group) > MAX_INDEX
        with pytest.raises(UnsupportedGroupError):
            coset_table(group)
        assert run(["kappa", "gamma:200"]) == 2
        assert json.loads(capsys.readouterr().out)["error_kind"] == "unsupported-group"
