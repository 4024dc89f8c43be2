"""The immutable value classes: GroupDescriptor, SubgroupInvariants,
FieldTag, EtaQuotient, CuspFormBasis, PGMF, InconsistencyWitness,
CanonicalDecomposition and Certificate."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import gmfkit
from gmfkit.etaforms import CuspFormBasis, EtaQuotient
from gmfkit.gmfcore import (
    PGMF,
    CanonicalDecomposition,
    Certificate,
    CertificateVerdict,
    InconsistencyWitness,
)
from gmfkit.numberfield import FieldTag, cyclotomic_polynomial
from gmfkit.qseries import QExpansion
from gmfkit.subgroup import GroupDescriptor, invariants

ONE = QExpansion.one(1, 3)
G11 = GroupDescriptor("gamma0", 11)
WITNESS = InconsistencyWitness(3, Fraction(1, 2), "row does not fit")
G11_TEXT = "GroupDescriptor(kind='gamma0', level=11)"
ONE_TEXT = "QExpansion(1 + O(q^3))"
PGMF_TEXT = f"PGMF(expansion={ONE_TEXT}, group={G11_TEXT})"

# class name -> (a builder of a fresh instance, its fields by name in order, its repr)
CASES = {
    "FieldTag": (lambda: FieldTag(5), {"conductor": 5}, "FieldTag(Q(zeta_5))"),
    "GroupDescriptor": (
        lambda: GroupDescriptor("gamma0", 11), {"kind": "gamma0", "level": 11}, G11_TEXT),
    "SubgroupInvariants": (
        lambda: invariants(G11),
        {"p_index": 12, "cusp_count": 2, "kappa": 1, "contains_minus_identity": True, "genus": 1},
        "SubgroupInvariants(p_index=12, cusp_count=2, kappa=1, contains_minus_identity=True, "
        "genus=1)"),
    "EtaQuotient": (
        lambda: EtaQuotient(((11, 2), (1, 2))), {"terms": ((1, 2), (11, 2)), "ambient_level": 11},
        "EtaQuotient(terms=((1, 2), (11, 2)), ambient_level=11)"),
    "CuspFormBasis": (
        lambda: CuspFormBasis(G11, (ONE,)), {"group": G11, "forms": (ONE,)},
        f"CuspFormBasis(group={G11_TEXT}, forms=({ONE_TEXT},))"),
    "PGMF": (lambda: PGMF(ONE, G11), {"expansion": ONE, "group": G11}, PGMF_TEXT),
    "InconsistencyWitness": (
        lambda: InconsistencyWitness(3, Fraction(1, 2), "row does not fit"),
        {"row": 3, "residual": Fraction(1, 2), "reason": "row does not fit"},
        "InconsistencyWitness(row=3, residual=Fraction(1, 2), reason='row does not fit')"),
    "CanonicalDecomposition": (
        lambda: CanonicalDecomposition(PGMF(ONE, G11), PGMF(ONE, G11), ONE, (Fraction(0),)),
        {"f1": PGMF(ONE, G11), "f0": PGMF(ONE, G11), "g0": ONE, "basis_coords": (Fraction(0),)},
        f"CanonicalDecomposition(f1={PGMF_TEXT}, f0={PGMF_TEXT}, g0={ONE_TEXT}, "
        "basis_coords=(Fraction(0, 1),))"),
    "Certificate": (
        lambda: Certificate(CertificateVerdict.PREFIX_INCONSISTENT, None, WITNESS),
        {"verdict": CertificateVerdict.PREFIX_INCONSISTENT, "decomposition": None,
         "witness": WITNESS},
        "Certificate(verdict=<CertificateVerdict.PREFIX_INCONSISTENT: 'prefix-inconsistent'>, "
        "decomposition=None, witness=InconsistencyWitness(row=3, residual=Fraction(1, 2), "
        "reason='row does not fit'))"),
}
CLONES = {
    **{f"pickle{p}": lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
# QExpansion keeps its data in slots with no __getstate__, which pickle
# protocols 0 and 1 refuse, so a value holding a series starts at protocol 2
HOLDS_SERIES = {"CuspFormBasis", "PGMF", "CanonicalDecomposition"}
ROUND_TRIPS = [
    pytest.param(name, clone, id=f"{how}-{name}")
    for name in CASES
    for how, clone in CLONES.items()
    if not (name in HOLDS_SERIES and how in ("pickle0", "pickle1"))
]


def test_cases_cover_every_value_class():
    assert [CASES[name][0]().__class__.__name__ for name in CASES] == list(CASES)


@pytest.mark.parametrize("name", CASES)
class TestValueContract:
    def test_equal_and_hashed_as_its_fields(self, name):
        make, names, _ = CASES[name]
        value, fields = make(), tuple(names.values())
        assert [getattr(value, field) for field in names] == list(fields)
        assert value == make() and not value != make()
        assert hash(value) == hash(make()) == hash(fields)
        assert value != fields and fields != value  # equal to no tuple

    def test_fields_read_only(self, name):
        make, names, _ = CASES[name]
        value = make()
        for field in names:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 0

    def test_no_instance_dict(self, name):
        assert not hasattr(CASES[name][0](), "__dict__")

    def test_repr(self, name):
        make, _, text = CASES[name]
        assert repr(make()) == text


@pytest.mark.parametrize("name, clone", ROUND_TRIPS)
class TestValueRoundTrips:
    def test_round_trips(self, name, clone):
        value = CASES[name][0]()
        twin = clone(value)
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

    def test_round_trips_rebuild_through_init(self, name, clone, monkeypatch):
        value = CASES[name][0]()
        cls, built = type(value), []
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
        assert clone(value) == value
        assert len(built) == 1  # so GroupDescriptor's checks run again


class TestDerivedFields:
    def test_field_tag_derives_degree_and_modulus(self):
        tag = FieldTag(5)
        assert tag == FieldTag.cyclotomic(5) == FieldTag(conductor=5)
        assert (tag.degree, tag.modulus) == (4, cyclotomic_polynomial(5))
        assert (FieldTag().degree, FieldTag().modulus) == (1, (-1, 1))
        # degree and modulus stay out of hash and repr
        assert hash(tag) == hash((5,)) and hash(FieldTag()) == hash((None,))
        assert repr(FieldTag()) == "FieldTag(Q)"
        for derived in ("degree", "modulus"):
            with pytest.raises(AttributeError):
                setattr(tag, derived, None)
            with pytest.raises(AttributeError):
                delattr(tag, derived)
        assert pickle.loads(pickle.dumps(tag)).modulus == tag.modulus

    def test_eta_quotient_equal_as_merged_sorted_terms(self):
        merged = EtaQuotient(((2, 1), (2, 2), (1, 3)), 4)
        assert merged == EtaQuotient(((1, 3), (2, 3)), 4)
        assert hash(merged) == hash(EtaQuotient(((1, 3), (2, 3)), 4))
        assert merged.terms == ((1, 3), (2, 3))
        assert EtaQuotient(((1, 3), (2, 1), (2, -1)), 4) == EtaQuotient(((1, 3),), 4)

    def test_eta_quotient_equal_as_derived_ambient_level(self):
        derived = EtaQuotient(((1, 3), (2, 3)))
        assert derived.ambient_level == 2
        assert derived == EtaQuotient(((1, 3), (2, 3)), 2)
        assert derived != EtaQuotient(((1, 3), (2, 3)), 4)
        assert EtaQuotient(terms=()) == EtaQuotient((), ambient_level=1)


def test_import_loads_no_dataclasses():
    # pytest itself loads these modules, so a child interpreter imports gmfkit
    code = ("import sys, gmfkit, gmfkit.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmfkit.__file__)))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                           timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
