"""Batch command line: one verb per library operation, JSON in and out.

Exit codes: 0 success, 1 usage error, 2 domain error (with an error JSON
object carrying ``error_kind`` on stdout).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import jsonio
from .errors import GmfError, MalformedInputError, NoBasisAvailableError
from .etaforms import (
    EtaQuotient,
    _read_basis,
    eta_quotient_expansion,
    load_basis,
    validate_basis,
)
from .gmfcore import (
    PGMF,
    CanonicalDecomposition,
    Certificate,
    CertificateVerdict,
    InconsistencyWitness,
    decompose_with_prefix,
    denominator_prime_report,
    finite_order_certificate,
    galois_norm,
    k_operator,
    verify_decomposition,
    working_precision,
)
from .numberfield import RATIONAL, FieldTag
from .qseries import exp_from_logderiv
from .subgroup import GroupDescriptor, coset_reps, cusp_count, invariants


# what a verb reports as an error JSON (exit 2): the domain errors, and
# the built-in ones that malformed input raises
DOMAIN_ERRORS = (GmfError, ValueError, TypeError, KeyError, OverflowError)


def _error_obj(exc) -> dict:
    """The error JSON of one of DOMAIN_ERRORS."""
    kind = exc.kind if isinstance(exc, GmfError) else "malformed-input"
    return {"error_kind": kind, "message": str(exc)}


def _parse_field(text):
    if text == "rational":
        return RATIONAL
    kind, _, m = text.partition(":")
    if kind == "cyclotomic" and m.isascii() and m.isdigit():  # int() also reads "1_2"
        try:
            return FieldTag.cyclotomic(int(m))
        except ValueError:
            pass
    raise MalformedInputError(f"bad field {text!r}; expected rational or cyclotomic:<m>")


def _integer(text):
    """ASCII digits after at most one "-": int() also reads "１２", "1_2", " 12" or "+12"."""
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise argparse.ArgumentTypeError(f"invalid integer {text!r}: ASCII digits only")


def _load_series(path, field_text=None):
    series = jsonio.series_from_obj(jsonio.load_json_file(path))
    if field_text is None:
        return series
    target = _parse_field(field_text)
    if target.is_rational_field:
        return series.as_rational_series()
    return series.promote(target)


def _load_f(path, group_text):
    """The series in ``path`` on its group; the group is parsed first."""
    group = GroupDescriptor.parse(group_text)
    return PGMF(_load_series(path), group)


def _load_prefix(path, f):
    return jsonio.prefix_from_obj(jsonio.load_json_file(path), f.expansion.field)


def _load_f_and_basis(path, group, prec, basis_path):
    """The series in ``path`` on the parsed ``group``, and the basis sized
    for decomposing it to ``prec``."""
    f = PGMF(_load_series(path), group)
    return f, load_basis(group, working_precision(f, prec), basis_path)


# ----------------------------------------------------------------------
# JSON shapes of the decomposition results


def witness_to_obj(witness: InconsistencyWitness) -> dict:
    return {
        "row": witness.row,
        "residual": None if witness.residual is None else jsonio.format_rational(witness.residual),
        "reason": witness.reason,
    }


def decomposition_to_obj(dec: CanonicalDecomposition, checks=None) -> dict:
    obj = {
        "f1": jsonio.series_to_obj(dec.f1.expansion),
        "f0": jsonio.series_to_obj(dec.f0.expansion),
        "g0": jsonio.series_to_obj(dec.g0),
        "basis_coords": [jsonio.format_rational(c) for c in dec.basis_coords],
    }
    if checks is not None:
        obj["checks"] = checks
    return obj


def decomposition_from_obj(obj, group: GroupDescriptor) -> CanonicalDecomposition:
    jsonio.require_json(obj, dict, "decomposition must be a JSON object")
    missing = {"f1", "f0", "g0", "basis_coords"} - set(obj)
    if missing:
        raise MalformedInputError(f"decomposition object missing keys: {sorted(missing)}")
    coords = jsonio.require_json(obj["basis_coords"], list, "basis_coords must be a JSON array")
    return CanonicalDecomposition(
        f1=PGMF(jsonio.series_from_obj(obj["f1"]), group),
        f0=PGMF(jsonio.series_from_obj(obj["f0"]), group),
        g0=jsonio.series_from_obj(obj["g0"]),
        basis_coords=tuple(jsonio.parse_rational(c) for c in coords),
    )


def certificate_to_obj(cert: Certificate) -> dict:
    if cert.verdict is CertificateVerdict.PREFIX_INCONSISTENT:
        detail = {"witness": witness_to_obj(cert.witness)}
    else:
        detail = {"decomposition": decomposition_to_obj(cert.decomposition)}
    return {"verdict": cert.verdict.value, "detail": detail}


# ----------------------------------------------------------------------
# verb handlers


def cmd_kappa(args):
    group = GroupDescriptor.parse(args.group)
    inv = invariants(group)
    return {
        "group": str(group),
        "p_index": inv.p_index,
        "cusps": inv.cusp_count,
        "kappa": inv.kappa,
        "contains_minus_identity": inv.contains_minus_identity,
    }


def cmd_cosets(args):
    group = GroupDescriptor.parse(args.group)
    reps = coset_reps(group)
    return {
        "group": str(group),
        "count": len(reps),
        "reps": [m.entries() for m in reps],
    }


def cmd_cusps(args):
    group = GroupDescriptor.parse(args.group)
    return {"group": str(group), "cusps": cusp_count(group)}


def cmd_eta_expand(args):
    quotient = EtaQuotient.parse(args.quotient, args.ambient)
    series = eta_quotient_expansion(quotient, args.prec)
    if args.field is not None:
        series = series.promote(_parse_field(args.field))
    return jsonio.series_to_obj(series)


def cmd_logderiv(args):
    return jsonio.series_to_obj(_load_series(args.f, args.field).theta_logderiv())


def cmd_exp_logderiv(args):
    return jsonio.series_to_obj(exp_from_logderiv(_load_series(args.f, args.field), args.prec))


def cmd_mul(args):
    return jsonio.series_to_obj(_load_series(args.f, args.field) * _load_series(args.g, args.field))


def cmd_inv(args):
    return jsonio.series_to_obj(_load_series(args.f, args.field).inverse(args.prec))


def cmd_pow(args):
    return jsonio.series_to_obj(_load_series(args.f, args.field) ** args.m)


def cmd_rescale(args):
    return jsonio.series_to_obj(_load_series(args.f, args.field).rescale_level(args.level))


def cmd_decompose(args):
    group = GroupDescriptor.parse(args.group)
    f, basis = _load_f_and_basis(args.f, group, args.prec, args.basis)
    prefix = _load_prefix(args.prefix, f)
    dec = decompose_with_prefix(f, prefix, basis, args.prec)
    checks = verify_decomposition(f, dec, basis)
    return decomposition_to_obj(dec, checks=checks)


def _certify_one(path, group, prec, basis_path, prefix_path):
    f, basis = _load_f_and_basis(path, group, prec, basis_path)
    prefix = None if prefix_path is None else _load_prefix(prefix_path, f)
    return certificate_to_obj(finite_order_certificate(f, basis, prec, prefix=prefix))


def _certify_entry(path, **options):
    """The batch entry for one file: its certificate, or the error JSON
    of the domain error that refused it (caught here, in the worker)."""
    try:
        return {"input": path, "certificate": _certify_one(path, **options)}
    except DOMAIN_ERRORS as exc:
        return {"input": path, **_error_obj(exc)}


def cmd_certify(args):
    options = dict(group=GroupDescriptor.parse(args.group), prec=args.prec,
                   basis_path=args.basis, prefix_path=args.prefix)
    if len(args.f) == 1:
        return _certify_one(args.f[0], **options)
    certify = functools.partial(_certify_entry, **options)
    # workers beyond the file count or the CPUs this process may use would
    # only sit idle, and a fork pool starts all of them at once
    jobs = min(max(args.jobs, 1), len(args.f), _usable_cpus())
    if jobs == 1:
        return [certify(path) for path in args.f]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(certify, args.f))


def _usable_cpus():
    """The CPUs this process may run on (its affinity mask, where the
    platform has one), at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_verify(args):
    f = _load_f(args.f, args.group)
    dec = decomposition_from_obj(jsonio.load_json_file(args.dec), f.group)
    try:
        basis = load_basis(f.group, max(dec.g0.precision, 2), args.basis)
    except NoBasisAvailableError:  # never raised for a basis file
        if args.with_basis:
            raise
        basis = None  # fit check reports itself as skipped
    checks = verify_decomposition(f, dec, basis)
    return {"checks": checks, "all_passed": jsonio.all_checks_passed(checks)}


def cmd_galois_norm(args):
    return jsonio.series_to_obj(galois_norm(_load_f(args.f, args.group)).expansion)


def cmd_k_op(args):
    return jsonio.series_to_obj(k_operator(_load_f(args.f, args.group)).expansion)


def cmd_denom_primes(args):
    f = _load_f(args.f, args.group)
    return {
        "primes": sorted(denominator_prime_report(f)),
        "from_cyclotomic_coordinates": not f.expansion.field.is_rational_field,
    }


def cmd_validate_basis(args):
    # the basis is read unvalidated, so that a failing report is printed
    # (exit 0, as verify reports its checks) rather than refused
    group = GroupDescriptor.parse(args.group)
    basis = _read_basis(group, args.prec, args.basis)
    checks = validate_basis(basis)
    return {
        "group": str(group),
        "dimension": basis.dimension,
        "checks": checks,
        "all_passed": jsonio.all_checks_passed(checks),
    }


# ----------------------------------------------------------------------


@functools.cache  # one parser per process, built on the first run() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmfkit",
        description="Exact q-expansion arithmetic, congruence subgroup invariants, "
        "and canonical decompositions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help_text, field_flag=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", help="write the JSON result to a file instead of stdout")
        if field_flag:
            p.add_argument("--field", default=None,
                           help="coerce series into this field: rational | cyclotomic:<m>")
        p.set_defaults(handler=handler)
        return p

    p = verb("kappa", cmd_kappa, "index, cusp count and kappa of a group")
    p.add_argument("group")

    p = verb("cosets", cmd_cosets, "coset representatives of the group in PSL2(Z)")
    p.add_argument("group")

    p = verb("cusps", cmd_cusps, "number of cusps")
    p.add_argument("group")

    p = verb("eta-expand", cmd_eta_expand, "expand an eta quotient, e.g. '1^2 11^2'", True)
    p.add_argument("quotient")
    p.add_argument("--prec", type=_integer, required=True)
    p.add_argument("--ambient", type=_integer, default=None, help="ambient level (default: lcm of divisors)")

    p = verb("logderiv", cmd_logderiv, "theta logarithmic derivative of a series", True)
    p.add_argument("--f", required=True)

    p = verb("exp-logderiv", cmd_exp_logderiv, "unit series with the given logarithmic derivative", True)
    p.add_argument("--f", required=True)
    p.add_argument("--prec", type=_integer, required=True)

    p = verb("mul", cmd_mul, "product of two series", True)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = verb("inv", cmd_inv, "multiplicative inverse of a series", True)
    p.add_argument("--f", required=True)
    p.add_argument("--prec", type=_integer, default=None)

    p = verb("pow", cmd_pow, "integer power of a series", True)
    p.add_argument("--f", required=True)
    p.add_argument("--m", type=_integer, required=True)

    p = verb("rescale", cmd_rescale, "re-express a series at a finer level", True)
    p.add_argument("--f", required=True)
    p.add_argument("--level", type=_integer, required=True)

    p = verb("decompose", cmd_decompose, "canonical decomposition from a unitary-part prefix")
    p.add_argument("--f", required=True)
    p.add_argument("--prefix", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--prec", type=_integer, required=True)
    p.add_argument("--basis", default=None, help="basis data file (default: shipped catalogue)")

    p = verb("certify", cmd_certify, "finite-order consistency certificate")
    p.add_argument("--f", required=True, nargs="+", action="extend", help="series file(s)")
    p.add_argument("--group", required=True)
    p.add_argument("--prec", type=_integer, required=True)
    p.add_argument("--basis", default=None)
    p.add_argument("--prefix", default=None, help="explicit unitary-part prefix file")
    p.add_argument("--jobs", type=_integer, default=1)

    p = verb("verify", cmd_verify, "replay the checks of a decomposition")
    p.add_argument("--f", required=True)
    p.add_argument("--dec", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--basis", default=None, help="basis data file (default: shipped catalogue when available)")
    p.add_argument(
        "--with-basis",
        action="store_true",
        help="require a basis: exit 2 with no-basis-available instead of "
        "skipping the fit check when none is shipped or given",
    )

    p = verb("galois-norm", cmd_galois_norm, "product of all Galois conjugates")
    p.add_argument("--f", required=True)
    p.add_argument("--group", default="gamma0:1")

    p = verb("k-op", cmd_k_op, "conjugate the Fourier coefficients (Hecke K)")
    p.add_argument("--f", required=True)
    p.add_argument("--group", required=True)

    p = verb("denom-primes", cmd_denom_primes, "primes dividing coefficient denominators")
    p.add_argument("--f", required=True)
    p.add_argument("--group", default="gamma0:1")

    p = verb("validate-basis", cmd_validate_basis, "diagnostic checks on a cusp form basis")
    p.add_argument("--group", required=True)
    p.add_argument("--basis", default=None)
    p.add_argument("--prec", type=_integer, default=12)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        payload, code = args.handler(args), 0
    except DOMAIN_ERRORS as exc:
        payload, code = _error_obj(exc), 2
    text = jsonio.dumps(payload)
    if code == 0 and args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            return 0
        except OSError as exc:  # worded as jsonio.load_json_file words an unreadable input
            payload = _error_obj(MalformedInputError(f"{args.output}: {exc.strerror or exc}"))
            text, code = jsonio.dumps(payload), 2
    try:
        print(text)
    except BrokenPipeError:  # the reader closed stdout early and wants no more
        return 0
    return code


def main():
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Point fd 1 at devnull so the interpreter's final flush of what is
        # still buffered stays quiet; run() leaves fd 1 alone for in-process callers.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
