"""The benchmark's workloads: seeded inputs, the timed call and its check.

A workload runs in passes.  Each pass runs in a fresh interpreter, so the
subgroup coset-table cache and the eta-factor cache start cold, and every
pass holds the same mix of operations: the seed and the pass index choose
only the values inside it (random coefficients and the order of the
calls).  Expected outputs come from ``oracle``, which never calls
gmfkit, and are computed while the pass is set up, before any timing.

Call sites reach gmfkit through module attributes at call time
(``gmfcore.decompose_with_prefix``, ``cli.run``), so that the traced run
sees the benchmark's own calls as well as gmfkit's internal ones.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracle

LONG_TERMS = 240
CLI_TERMS = 60
GALOIS_TERMS = 24
LEVELS = (11, 14, 15, 20, 24, 27, 32, 36)
# The weight-2 newform of each genus-one Gamma_0(N) above, as an eta quotient.
NEWFORMS = {
    11: ((1, 2), (11, 2)),
    14: ((1, 1), (2, 1), (7, 1), (14, 1)),
    15: ((1, 1), (3, 1), (5, 1), (15, 1)),
    20: ((2, 2), (10, 2)),
    24: ((2, 1), (4, 1), (6, 1), (12, 1)),
    27: ((3, 2), (9, 2)),
    32: ((4, 2), (8, 2)),
    36: ((6, 4),),
}
KAPPA = 1  # every genus-one level above has kappa = 1, so a prefix is [1, a1(h+1)]
CONDUCTORS = (3, 8, 12)
# The shipped quotients at 800 terms; Delta, whose 24th power costs most; and
# the Gamma_0(2) Hauptmodul (eta(z)/eta(2z))^24, whose negative exponent
# runs the series inverse.
ETA_EXPAND = [(" ".join(f"{d}^{r}" for d, r in NEWFORMS[n]), 800) for n in LEVELS]
ETA_EXPAND += [("1^24", 300), ("1^24 2^-24", 160)]
SUBGROUPS = (
    [("gamma0", n) for n in range(1, 61)]
    + [("gamma1", n) for n in range(1, 51)]
    + [("gamma", n) for n in range(1, 25)]
)


class Op:
    """One timed call and the untimed check of what it returned.

    ``check`` returns None for a correct output and a reason otherwise.
    ``key`` names the op's slot in the mix, the same in every pass of a
    workload, so that a run can compare one slot's times across passes.
    """

    __slots__ = ("kind", "call", "check", "key")

    def __init__(self, kind, call, check, key=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.key = key


# ----------------------------------------------------------------------
# series in a form both the oracle and gmfkit outputs reduce to:
# (level, lead, precision, conductor, [coordinate tuples]) with leading
# zeros stripped the way QExpansion strips them


def _series(level, lead, precision, values, conductor=None):
    values = [tuple(Fraction(x) for x in v) for v in values[: precision - lead]]
    skip = 0
    while skip < len(values) and not any(values[skip]):
        skip += 1
    if skip == len(values):
        return (level, precision, precision, conductor, [])
    return (level, lead + skip, precision, conductor, values[skip:])


def _series_of_obj(obj):
    field = obj["field"]
    conductor = field["conductor"] if field["kind"] == "cyclotomic" else None
    values = [c if isinstance(c, list) else [c] for c in obj["coeffs"]]
    return _series(obj["level"], obj["lead"], obj["precision"], values, conductor)


def _series_of_expansion(s):
    values = [getattr(c, "coords", (c,)) for c in s.coeffs]
    return _series(s.level, s.lead, s.precision, values, s.field.conductor)


def _diff(label, actual, expected):
    if actual == expected:
        return None
    names = ("level", "lead", "precision", "field")
    for name, a, b in zip(names, actual, expected):
        if a != b:
            return f"{label}: {name} {a} != {b}"
    bad = next((i for i, (a, b) in enumerate(zip(actual[4], expected[4])) if a != b), None)
    if bad is None:
        return f"{label}: {len(actual[4])} coefficients, expected {len(expected[4])}"
    return f"{label}: coefficient at exponent {expected[1] + bad} differs"


def _promote(values, conductor):
    if conductor is None:
        return [(x,) for x in values]
    pad = (Fraction(0),) * (oracle.totient(conductor) - 1)
    return [(Fraction(x),) + pad for x in values]


def _series_to_obj(lead, precision, values, conductor):
    if conductor is None:
        field, coeffs = {"kind": "rational"}, [str(v[0]) for v in values]
    else:
        field = {"kind": "cyclotomic", "conductor": conductor}
        coeffs = [[str(x) for x in v] for v in values]
    return {"level": 1, "lead": lead, "precision": precision, "field": field, "coeffs": coeffs}


def _max_bits(values):
    return max(
        (max(Fraction(x).numerator.bit_length(), Fraction(x).denominator.bit_length())
         for v in values for x in v),
        default=0,
    )


# ----------------------------------------------------------------------
# forward instances: f = q^h f1* f0* with f0* = exp of c times the newform


def _ratio(rng):
    """c = +-59/61 or +-61/59, so that every seed gives f0 coefficients of
    the same height and each group costs the same on every seed."""
    p, s = rng.choice(((59, 61), (61, 59)))
    return Fraction(rng.choice((-p, p)), s)


def _unit(rng, terms, conductor):
    """1 + x1 q + ... with random nonzero coefficients: integers in [-9, 9]
    over Q, small fractions in each coordinate over Q(zeta_m).  A dense f1*
    costs the same on every seed, where a random eta quotient may be
    lacunary or even 1."""
    if conductor is None:
        return [(1,)] + [(rng.choice((-1, 1)) * rng.randint(1, 9),) for _ in range(terms - 1)]
    width = oracle.totient(conductor)
    values = [(Fraction(1),) + (Fraction(0),) * (width - 1)]
    values += [tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 4))
                     for _ in range(width))
               for _ in range(terms - 1)]
    return values


def _lead(level):
    """Lead h of f on the level: -1, 0 or 1, fixed so each group costs the
    same on every seed."""
    return LEVELS.index(level) % 3 - 1


def _instance(rng, level, precision, conductor=None):
    """Forward data f = q^h f1* f0* at absolute precision ``precision``.

    f1* is a random unit series; f0* = exp of c times the level's newform.
    """
    c = _ratio(rng)
    h = _lead(level)
    rel = precision - h
    working = precision - min(h, 0)
    f1 = _unit(rng, rel, conductor)
    size = max(rel, working)
    form = [0] + oracle.eta_unit_product(NEWFORMS[level], size - 1)
    f0 = oracle.unit_exponential(form, c, size)
    return {
        "level": level, "h": h, "c": c, "precision": precision, "working": working,
        "conductor": conductor, "f1": f1, "f0": f0, "form": form,
        "f": oracle.times_rational_series(f1, f0, rel), "prefix": f1[: KAPPA + 1],
    }


def _expected_decomposition(inst, own_prefix=False):
    """(f1, f0, g0, coords) of the decomposition the instance must yield.

    With f's own leading coefficients as prefix the cofactor is 1, so the
    result is f1 = f, f0 = 1, g0 = 0 and coordinate 0.
    """
    h, p, m = inst["h"], inst["precision"], inst["conductor"]
    if own_prefix:
        f1, f0, g0, c = inst["f"], [1] + [0] * (p - 1), [], Fraction(0)
    else:
        f1, f0, c = inst["f1"], inst["f0"], inst["c"]
        g0 = [(c * w,) for w in inst["form"]]
    return (
        _series(1, h, p, f1, m),
        _series(1, 0, p, _promote(f0, m), m),
        _series(1, 0, p, g0),
        (c,),
    )


def _check_decomposition(series, coords, expected):
    """Compare (f1, f0, g0), already in ``_series`` form, and the basis
    coordinates with the expected data."""
    for label, got, want in zip(("f1", "f0", "g0"), series, expected):
        problem = _diff(label, got, want)
        if problem:
            return problem
    if tuple(coords) != expected[3]:
        return f"basis coordinates {tuple(coords)} != {expected[3]}"
    return None


def _check_decomposition_obj(obj, expected):
    series = [_series_of_obj(obj[label]) for label in ("f1", "f0", "g0")]
    return _check_decomposition(series, [Fraction(x) for x in obj["basis_coords"]], expected)


# ----------------------------------------------------------------------
# reconstruct-long


def reconstruct_long(rng, workdir):
    from gmfkit import etaforms, gmfcore, qseries, subgroup

    ops, bits, groups = [], 0, []
    levels = list(LEVELS)
    rng.shuffle(levels)
    for level in levels:
        inst = _instance(rng, level, LONG_TERMS)
        group = subgroup.GroupDescriptor("gamma0", level)
        basis = etaforms.load_basis(group, inst["working"])
        series = qseries.QExpansion(1, inst["h"], [v[0] for v in inst["f"]], LONG_TERMS)
        f = gmfcore.PGMF(series, group)
        groups.append(str(group))
        bits = max(bits, _max_bits(inst["f"]))

        def call(f=f, prefix=[v[0] for v in inst["prefix"]], basis=basis):
            dec = gmfcore.decompose_with_prefix(f, prefix, basis, LONG_TERMS)
            return dec, gmfcore.verify_decomposition(f, dec, basis)

        def check(out, expected=_expected_decomposition(inst)):
            dec, checks = out
            if not all(entry["passed"] is True for entry in checks):
                return f"verify_decomposition: {checks}"
            series = [_series_of_expansion(s) for s in (dec.f1.expansion, dec.f0.expansion, dec.g0)]
            return _check_decomposition(series, dec.basis_coords, expected)

        ops.append(Op("decompose+verify", call, check, str(group)))
    shape = {"groups": groups, "terms": LONG_TERMS, "max_input_coeff_bits": bits}
    return ops, shape


# ----------------------------------------------------------------------
# cli-mix


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


def _cli_op(kind, argv, check):
    from gmfkit import cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        return code, out.getvalue()

    def checked(result):
        code, text = result
        if code != 0:
            return f"exit code {code}: {text[:200]}"
        return check(json.loads(text))

    return Op(kind, call, checked)


def _certify_check(verdict, expected=None):
    def check(obj):
        if obj["verdict"] != verdict:
            return f"verdict {obj['verdict']}, expected {verdict}"
        if expected is None:
            witness = obj["detail"]["witness"]
            if witness["row"] != 1 or witness["residual"] is not None:
                return f"witness {witness}"
            return None
        return _check_decomposition_obj(obj["detail"]["decomposition"], expected)

    return check


def _decompose_check(expected):
    def check(obj):
        if not all(entry["passed"] is True for entry in obj["checks"]):
            return f"checks {obj['checks']}"
        return _check_decomposition_obj(obj, expected)

    return check


def _galois_check(m, h, terms, a1):
    phi = oracle.totient(m)

    def check(obj):
        if obj["field"] != {"kind": "rational"}:
            return f"field {obj['field']}"
        if (obj["lead"], obj["precision"]) != (phi * h, phi * h + terms):
            return f"lead {obj['lead']} precision {obj['precision']}"
        if Fraction(obj["coeffs"][0]) != 1 or Fraction(obj["coeffs"][1]) != oracle.cyclotomic_trace(a1, m):
            return "leading coefficients are not 1 and the trace of a1"
        return None

    return check


def _eta_check(expected):
    def check(obj):
        return _diff("eta", _series_of_obj(obj), expected)

    return check


def cli_mix(rng, workdir):
    from gmfkit import etaforms, subgroup

    ops, bits, groups = [], 0, []
    for level in LEVELS:
        inst = _instance(rng, level, CLI_TERMS)
        group = f"gamma0:{level}"
        groups.append(group)
        bits = max(bits, _max_bits(inst["f"]))
        f = _write(workdir, f"f{level}.json",
                   _series_to_obj(inst["h"], CLI_TERMS, inst["f"], None))
        prefix = _write(workdir, f"p{level}.json", [str(v[0]) for v in inst["prefix"]])
        base = ["--f", f, "--group", group, "--prec", str(CLI_TERMS)]
        ops.append(_cli_op("decompose", ["decompose", "--prefix", prefix] + base,
                           _decompose_check(_expected_decomposition(inst))))
        ops.append(_cli_op("certify", ["certify"] + base,
                           _certify_check("finite-order-consistent",
                                          _expected_decomposition(inst, own_prefix=True))))
        ops.append(_cli_op("certify", ["certify", "--prefix", prefix] + base,
                           _certify_check("nontrivial-f0", _expected_decomposition(inst))))
    for m in CONDUCTORS:
        inst = _instance(rng, 11, CLI_TERMS, conductor=m)
        bits = max(bits, _max_bits(inst["f"]))
        f = _write(workdir, f"z{m}.json", _series_to_obj(inst["h"], CLI_TERMS, inst["f"], m))
        true_prefix = [[str(x) for x in v] for v in inst["prefix"]]
        # adding zeta_m to a1 makes b0(1) irrational, which no rational fit absorbs
        bent = [true_prefix[0], [str(x + (i == 1)) for i, x in enumerate(inst["prefix"][1])]]
        base = ["--f", f, "--group", "gamma0:11", "--prec", str(CLI_TERMS)]
        ops.append(_cli_op("certify", ["certify"] + base,
                           _certify_check("finite-order-consistent",
                                          _expected_decomposition(inst, own_prefix=True))))
        ops.append(_cli_op("certify",
                           ["certify", "--prefix", _write(workdir, f"zp{m}.json", true_prefix)] + base,
                           _certify_check("nontrivial-f0", _expected_decomposition(inst))))
        ops.append(_cli_op("certify",
                           ["certify", "--prefix", _write(workdir, f"zb{m}.json", bent)] + base,
                           _certify_check("prefix-inconsistent")))
        for copy in range(2):
            h = rng.randint(0, 2)
            values = _unit(rng, GALOIS_TERMS, m)
            path = _write(workdir, f"g{m}-{copy}.json",
                          _series_to_obj(h, h + GALOIS_TERMS, values, m))
            ops.append(_cli_op("galois-norm", ["galois-norm", "--f", path],
                               _galois_check(m, h, GALOIS_TERMS, values[1])))
    for text, precision in ETA_EXPAND:
        pairs = [tuple(int(x) for x in token.split("^")) for token in text.split()]
        lead = oracle.eta_quotient_lead(pairs)
        values = [(x,) for x in oracle.eta_unit_product(pairs, precision - lead)]
        ops.append(_cli_op("eta-expand", ["eta-expand", text, "--prec", str(precision)],
                           _eta_check(_series(1, lead, precision, values))))
    # Load each basis once before timing, at the working precision the CLI
    # will ask for.  The coset tables and eta factors it fills stay warm, so
    # an op's cost does not depend on whether it is the first on its group.
    for level in LEVELS:
        etaforms.load_basis(subgroup.GroupDescriptor("gamma0", level), CLI_TERMS - min(_lead(level), 0))
    for index, op in enumerate(ops):
        op.key = f"{op.kind}#{index}"
    rng.shuffle(ops)
    shape = {
        "groups": groups + [f"gamma0:11 over Q(zeta_{m})" for m in CONDUCTORS],
        "terms": {"certify": CLI_TERMS, "decompose": CLI_TERMS, "galois-norm": GALOIS_TERMS,
                  "eta-expand": {text: p for text, p in ETA_EXPAND}},
        "max_input_coeff_bits": bits,
    }
    return ops, shape


# ----------------------------------------------------------------------
# subgroup-cold


def _coset_check(kind, n):
    def check(out):
        inv, reps = out
        index, cusps = oracle.psl2_index(kind, n), oracle.cusp_count(kind, n)
        want = (index, cusps, index // 6 + 1 - cusps, oracle.contains_minus_identity(kind, n))
        got = (inv.p_index, inv.cusp_count, inv.kappa, inv.contains_minus_identity)
        if got != want:
            return f"invariants {got}, closed formulas give {want}"
        keys = set()
        for rep in reps:
            (a, b), (c, d) = rep.entries()
            if a * d - b * c != 1:
                return f"representative {rep} has determinant {a * d - b * c}"
            keys.add(oracle.coset_key(kind, n, ((a, b), (c, d))))
        if len(reps) != index or len(keys) != index:
            return f"{len(reps)} representatives in {len(keys)} cosets, index {index}"
        return None

    return check


def subgroup_cold(rng, workdir):
    from gmfkit import subgroup

    order = list(SUBGROUPS)
    rng.shuffle(order)
    ops = []
    for kind, n in order:
        def call(group=subgroup.GroupDescriptor(kind, n)):
            return subgroup.invariants(group), subgroup.coset_reps(group)

        ops.append(Op(kind, call, _coset_check(kind, n), f"{kind}:{n}"))
    shape = {"groups": [f"{k}:{n}" for k, n in order], "terms": None, "max_input_coeff_bits": 0}
    return ops, shape


BUILDERS = {
    "reconstruct-long": reconstruct_long,
    "cli-mix": cli_mix,
    "subgroup-cold": subgroup_cold,
}


def build(workload, seed, pass_index, workdir):
    """Ops and input shape of one pass; the same arguments give the same inputs."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return BUILDERS[workload](rng, workdir)
