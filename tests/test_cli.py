import contextlib
import copy
import errno
import functools
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import textwrap
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gmfkit
import reference_kernels
from gmfkit import jsonio, subgroup
from gmfkit.cli import decomposition_to_obj, run
from gmfkit.etaforms import CuspFormBasis, EtaQuotient, eta_quotient_expansion, validate_basis
from gmfkit.etaforms import euler_product, shipped_levels, shipped_quotient
from gmfkit.gmfcore import PGMF, decompose_with_prefix
from gmfkit.numberfield import MAX_CONDUCTOR, CyclotomicElement, FieldTag, euler_phi
from gmfkit.qseries import QExpansion, exp_from_logderiv
from gmfkit.subgroup import MAX_INDEX, GroupDescriptor


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def f11_path(tmp_path):
    series = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
    path = tmp_path / "f11.json"
    path.write_text(json.dumps(jsonio.series_to_obj(series)))
    return str(path)


class TestKappaVerb:
    def test_gamma0_11(self, capsys):
        obj = invoke_json(capsys, "kappa", "gamma0:11")
        assert obj["p_index"] == 12 and obj["cusps"] == 2 and obj["kappa"] == 1

    def test_bad_group_is_domain_error(self, capsys):
        code, out = invoke(capsys, "kappa", "gamma9:4")
        assert code == 2
        assert json.loads(out)["error_kind"] == "bad-group-descriptor"

    @pytest.mark.parametrize("verb", ["kappa", "cosets", "cusps", "validate-basis"])
    def test_group_echoed_canonically(self, capsys, verb):
        group = ["--group", "gamma0:011"] if verb == "validate-basis" else ["gamma0:011"]
        assert invoke_json(capsys, verb, *group)["group"] == "gamma0:11"


class TestUsageErrors:
    def test_unknown_verb(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["logderiv"]) == 1

    # every integer option, its value as "{}": ASCII digits after at most
    # one "-" are read, as eta exponents are, and each spelling in
    # BAD_INTEGERS is a usage error (int() reads all but "--12" as 12)
    INTEGER_OPTIONS = [
        ["eta-expand", "1^2 11^2", "--prec", "{}"],
        ["eta-expand", "1^2 11^2", "--prec", "12", "--ambient", "{}"],
        ["exp-logderiv", "--f", "F", "--prec", "{}"],
        ["inv", "--f", "F", "--prec", "{}"],
        ["pow", "--f", "F", "--m", "{}"],
        ["rescale", "--f", "F", "--level", "{}"],
        ["decompose", "--f", "F", "--prefix", "F", "--group", "gamma0:11", "--prec", "{}"],
        ["certify", "--f", "F", "--group", "gamma0:11", "--prec", "{}"],
        ["certify", "--f", "F", "F", "--group", "gamma0:11", "--prec", "12", "--jobs", "{}"],
        ["validate-basis", "--group", "gamma0:11", "--prec", "{}"],
    ]
    BAD_INTEGERS = ["１２", "1_2", " 12", "+12", "--12", "١٢"]

    @pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]))
    def test_integer_option_read_as_ascii_digits(self, capsys, f11_path, argv):
        argv = [f11_path if arg == "F" else arg for arg in argv]
        # 22 is a multiple of the level of f11.json and of the quotient's
        assert run([arg.format("22") for arg in argv]) != 1
        assert run([arg.format("-22") for arg in argv]) != 1
        for bad in self.BAD_INTEGERS:
            assert run([arg.format(bad) for arg in argv]) == 1, bad
        assert "invalid integer '１２': ASCII digits only" in capsys.readouterr().err


class TestCosetsAndCusps:
    def test_cosets_count(self, capsys):
        obj = invoke_json(capsys, "cosets", "gamma0:2")
        assert obj["count"] == 3 and len(obj["reps"]) == 3

    def test_cusps(self, capsys):
        assert invoke_json(capsys, "cusps", "gamma0:14")["cusps"] == 4

    HUGE = 10**18 + 3  # a prime, so that finding the index means factoring it

    @pytest.mark.parametrize("verb", ["kappa", "cusps", "cosets"])
    @pytest.mark.parametrize("kind", ["gamma0", "gamma1", "gamma"])
    def test_huge_level_refused_promptly(self, tmp_path, verb, kind):
        proc = run_child(tmp_path, [verb, f"{kind}:{self.HUGE}"])
        assert proc.returncode == 2, proc.stderr.decode()
        obj = json.loads(proc.stdout)
        assert obj["error_kind"] == "unsupported-group"
        assert obj["message"] == (
            f"{kind}:{self.HUGE} has index at least {self.HUGE}, above the coset-table cap 100000"
        )

    def test_huge_level_basis_file_refused_promptly(self, tmp_path):
        group = f"gamma0:{self.HUGE}"
        form = jsonio.series_to_obj(eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 12))
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps({"group": group, "forms": [form]}))
        prefix_path = tmp_path / "prefix.json"
        prefix_path.write_text(json.dumps(["1", "0"]))
        proc = run_child(tmp_path, ["decompose", "--prefix", str(prefix_path), "--group", group,
                                    "--prec", "10", "--basis", str(basis_path)],
                         {"kind": "rational"}, ["1"] * 12)
        assert proc.returncode == 2, proc.stderr.decode()
        assert json.loads(proc.stdout)["error_kind"] == "unsupported-group"


class TestEtaExpand:
    def test_spec_listing(self, capsys):
        obj = invoke_json(capsys, "eta-expand", "1^2 11^2", "--prec", "10")
        assert obj["coeffs"][:7] == ["1", "-2", "-1", "2", "1", "2", "-2"]
        assert obj["lead"] == 1 and obj["level"] == 1

    def test_ambient_override(self, capsys):
        obj = invoke_json(capsys, "eta-expand", "1^2 11^2", "--prec", "10", "--ambient", "22")
        assert obj["level"] == 1  # lattice still reduces to level 1

    def test_bad_quotient(self, capsys):
        for spec, message in [("1^x", "bad eta quotient token '1^x'"),
                              ("", "empty eta quotient expression"),
                              ("0^2", "divisor must be positive, got 0")]:
            code, out = invoke(capsys, "eta-expand", spec, "--prec", "5")
            assert code == 2 and json.loads(out) == {"error_kind": "malformed-input", "message": message}


class TestSeriesVerbs:
    def test_logderiv_then_exp_roundtrip(self, capsys, tmp_path, f11_path):
        ld = invoke_json(capsys, "logderiv", "--f", f11_path)
        ld_path = tmp_path / "ld.json"
        ld_path.write_text(json.dumps(ld))
        # logarithmic derivative of q * unit has constant term 1; strip it
        # by exponentiating the positive part of (logderiv - 1)
        series = jsonio.series_from_obj(ld)
        assert series.coeff(0) == 1

    def test_mul_inv_pow_rescale(self, capsys, tmp_path, f11_path):
        inv = invoke_json(capsys, "inv", "--f", f11_path, "--prec", "30")
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps(inv))
        prod = invoke_json(capsys, "mul", "--f", f11_path, "--g", str(inv_path))
        series = jsonio.series_from_obj(prod)
        assert series.lead == 0 and series.coeff(0) == 1
        powed = invoke_json(capsys, "pow", "--f", f11_path, "--m", "2")
        assert powed["lead"] == 2
        scaled = invoke_json(capsys, "rescale", "--f", f11_path, "--level", "11")
        assert scaled["level"] == 11 and scaled["lead"] == 11

    def test_exp_logderiv(self, capsys, tmp_path):
        g = QExpansion.monomial(1, 1, 6)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(jsonio.series_to_obj(g)))
        obj = invoke_json(capsys, "exp-logderiv", "--f", str(path), "--prec", "6")
        assert jsonio.series_from_obj(obj) == exp_from_logderiv(g, 6)

    def test_malformed_series_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = invoke(capsys, "logderiv", "--f", str(path))
        assert code == 2 and json.loads(out)["error_kind"] == "malformed-input"

    def test_missing_file(self, capsys):
        code, out = invoke(capsys, "logderiv", "--f", "/nonexistent/f.json")
        assert code == 2 and json.loads(out)["error_kind"] == "malformed-input"

    def test_rescale_to_negative_level(self, capsys, f11_path):
        code, out = invoke(capsys, "rescale", "--f", f11_path, "--level", "-2")
        assert code == 2 and json.loads(out)["error_kind"] == "bad-level"

    @pytest.mark.parametrize(
        "obj",
        [
            {"level": True, "lead": 0, "precision": 2,
             "field": {"kind": "rational"}, "coeffs": ["1", "2"]},
            {"level": 1, "lead": 0, "precision": 2,
             "field": {"kind": "cyclotomic", "conductor": True}, "coeffs": [["1"], ["2"]]},
        ],
        ids=["level", "conductor"],
    )
    def test_json_boolean_is_not_an_integer(self, capsys, tmp_path, obj):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(obj))
        code, out = invoke(capsys, "logderiv", "--f", str(path))
        assert code == 2 and json.loads(out)["error_kind"] == "malformed-input"

    def test_json_boolean_is_not_a_coefficient(self, capsys, tmp_path, f11_path):
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps({"level": 1, "lead": 0, "precision": 3,
                                      "field": {"kind": "rational"}, "coeffs": ["1", True, "2"]}))
        code, out = invoke(capsys, "logderiv", "--f", str(f_path))
        assert code == 2 and json.loads(out)["error_kind"] == "malformed-input"
        prefix_path = tmp_path / "p.json"
        prefix_path.write_text(json.dumps(["1", True]))
        code, out = invoke(capsys, "certify", "--f", f11_path, "--group", "gamma0:11",
                           "--prec", "20", "--prefix", str(prefix_path))
        assert code == 2 and json.loads(out)["error_kind"] == "malformed-input"

    def test_eta_precision_cap(self, capsys):
        code, out = invoke(capsys, "eta-expand", "1^1", "--prec", "300000000")
        assert code == 2 and json.loads(out)["error_kind"] == "insufficient-precision"

    @pytest.mark.parametrize(
        "coeffs, argv, kind",
        [
            (["1", "1e2000000000"], ["logderiv"], "malformed-input"),
            (["1"] * 38, ["rescale", "--level", "300000000"], "insufficient-precision"),
            (["1/3", "1", "1"], ["pow", "--m", "3000000"], "insufficient-precision"),
            (["1"] * 60, ["pow", "--m", str(10**100)], "insufficient-precision"),
        ],
        ids=["exponent-notation", "spread-cap", "pow-tall-lead", "pow-huge-exponent"],
    )
    def test_outsized_input_refused_promptly(self, tmp_path, coeffs, argv, kind):
        # In a child under a 1 GiB address-space limit and a time limit, so
        # that building 10**2000000000, a 300-million-entry window or a
        # power with 5-million-bit coefficients fails the test instead of
        # stalling the machine.
        proc = run_child(tmp_path, argv, {"kind": "rational"}, coeffs)
        assert proc.returncode == 2, proc.stderr.decode()
        assert json.loads(proc.stdout)["error_kind"] == kind

    @pytest.mark.parametrize(
        "lead, precision, coeffs, argv",
        [
            (10**6, 10**6, [], ["pow", "--m", "0"]),
            (10**6, 10**6 + 1, ["1"], ["exp-logderiv", "--prec", str(10**7)]),
        ],
        ids=["pow-zero-of-zero", "exp-of-far-lead"],
    )
    def test_declared_precision_window_refused_promptly(self, tmp_path, lead, precision, coeffs, argv):
        # a few bytes of JSON declaring precision 10^6: 1 + O(q^P) and exp g
        # would fill their windows from q^0 up to it, so both are refused
        # before anything is allocated
        proc = run_child(tmp_path, argv, {"kind": "rational"}, coeffs, lead, precision)
        assert proc.returncode == 2, proc.stderr.decode()
        assert json.loads(proc.stdout)["error_kind"] == "insufficient-precision"

    def test_bare_json_integer_past_the_cap_refused_promptly(self, tmp_path):
        # 100,001 digits as a bare JSON integer: refused before any conversion
        path = tmp_path / "f.json"
        path.write_text('{"level": 1, "lead": 0, "precision": 2, "field": {"kind": "rational"}, '
                        f'"coeffs": ["1", {"7" * (jsonio.MAX_RATIONAL_DIGITS + 1)}]}}')
        proc = run_child(tmp_path, ["logderiv", "--f", str(path)])
        assert proc.returncode == 2, proc.stderr.decode()
        assert json.loads(proc.stdout)["error_kind"] == "malformed-input"

    def test_long_eta_power_promptly(self):
        # E^-24 to 16,001 terms, in a child under the limits used above:
        # inverting E and squaring the inverse ran for minutes, and Miller's
        # recurrence over the nonzero terms of E takes seconds
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmfkit.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "gmfkit.cli", "eta-expand", "1^-24", "--prec", "16000"],
            capture_output=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        obj = json.loads(proc.stdout)
        assert (obj["lead"], obj["precision"], len(obj["coeffs"])) == (-1, 16000, 16001)
        expected = reference_kernels.power(euler_product(200), -24)
        assert obj["coeffs"][:200] == [str(c) for c in expected.coeffs]

    # the prime conductor at or below the cap: the largest phi(m) accepted
    WORST_CONDUCTOR = max(m for m in range(2, MAX_CONDUCTOR + 1) if euler_phi(m) == m - 1)

    @pytest.mark.parametrize(
        "field, argv, dense, code",
        [
            ({"kind": "rational"}, ["logderiv", "--field", f"cyclotomic:{MAX_CONDUCTOR}"], False, 0),
            ({"kind": "rational"}, ["logderiv", "--field", f"cyclotomic:{MAX_CONDUCTOR + 1}"], False, 2),
            ({"kind": "rational"}, ["logderiv", "--field", "cyclotomic:20011"], False, 2),
            ({"kind": "cyclotomic", "conductor": MAX_CONDUCTOR}, ["logderiv"], False, 0),
            ({"kind": "cyclotomic", "conductor": MAX_CONDUCTOR + 1}, ["logderiv"], False, 2),
            ({"kind": "cyclotomic", "conductor": 10**30}, ["galois-norm"], False, 2),
            ({"kind": "cyclotomic", "conductor": WORST_CONDUCTOR}, ["inv"], True, 0),
        ],
        ids=["flag-at-cap", "flag-past-cap", "flag-20011", "json-at-cap", "json-past-cap",
             "json-huge", "dense-inverse-below-cap"],
    )
    def test_conductor_cap(self, tmp_path, field, argv, dense, code):
        # 1 + q + q^2, or with a dense non-unit lead over Q(zeta_m) (the
        # costliest inverse), in a child under the limits used above
        coeffs = ["1", "1", "1"]
        if dense:
            coeffs[0] = [str(i % 7 + 1) for i in range(euler_phi(field["conductor"]))]
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"level": 1, "lead": 0, "precision": 3, "field": field,
                                    "coeffs": coeffs}))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmfkit.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "gmfkit.cli", argv[0], "--f", str(path), *argv[1:]],
            capture_output=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == code, proc.stderr.decode()
        if code == 2:
            assert json.loads(proc.stdout)["error_kind"] == "malformed-input"


    def test_tall_dense_inverse_below_cap(self, tmp_path):
        # one coefficient, its 96 coordinates of ~300 bits: the element
        # inverse multiplies 95 conjugates (a Gauss-Jordan solve took minutes)
        coeffs = [[str(3**189 + i * 7**40) for i in range(euler_phi(97))]]
        proc = run_child(tmp_path, ["inv"], {"kind": "cyclotomic", "conductor": 97}, coeffs)
        assert proc.returncode == 0, proc.stderr.decode()


def run_child(tmp_path, argv, field=None, coeffs=("1",), lead=0, precision=None):
    """Run the CLI in a child under a 1 GiB address-space limit and a 60 s
    timeout, on a level-1 series file with ``coeffs`` from ``lead`` on (to
    ``precision``, else to the last of them) when ``field`` is given."""
    if field is not None:
        path = tmp_path / "f.json"
        precision = lead + len(coeffs) if precision is None else precision
        path.write_text(json.dumps({"level": 1, "lead": lead, "precision": precision,
                                    "field": field, "coeffs": list(coeffs)}))
        argv = [argv[0], "--f", str(path), *argv[1:]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmfkit.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "gmfkit.cli", *argv], capture_output=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )


class TestDecomposeVerify:
    def test_decompose_and_verify(self, capsys, tmp_path):
        basis_form_path = tmp_path / "f.json"
        g = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        g0 = g.truncate(66).scale(3)
        f0 = exp_from_logderiv(g0, 66)
        f = g * f0
        basis_form_path.write_text(json.dumps(jsonio.series_to_obj(f)))
        prefix_path = tmp_path / "prefix.json"
        prefix_path.write_text(json.dumps(["1", "-2"]))

        obj = invoke_json(
            capsys,
            "decompose",
            "--f", str(basis_form_path),
            "--prefix", str(prefix_path),
            "--group", "gamma0:11",
            "--prec", "60",
        )
        assert obj["basis_coords"] == ["3"]
        assert all(c["passed"] is not False for c in obj["checks"])
        # a prefix file may wrap its array as {"prefix": [...]}, to the same bytes
        wrapped_path = tmp_path / "wrapped.json"
        wrapped_path.write_text(json.dumps({"prefix": ["1", "-2"]}))
        bare, wrapped = [invoke(capsys, "decompose", "--f", str(basis_form_path), "--prefix", str(path),
                                "--group", "gamma0:11", "--prec", "60")
                         for path in (prefix_path, wrapped_path)]
        assert bare[0] == 0 and wrapped == bare

        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(obj))
        report = invoke_json(
            capsys,
            "verify",
            "--f", str(basis_form_path),
            "--dec", str(dec_path),
            "--group", "gamma0:11",
            "--with-basis",
        )
        assert report["all_passed"] is True

    def test_inconsistent_prefix_exit_code(self, capsys, tmp_path, f11_path):
        prefix_path = tmp_path / "prefix.json"
        prefix_path.write_text(json.dumps(["1", "5"]))
        code, out = invoke(
            capsys,
            "decompose",
            "--f", f11_path,
            "--prefix", str(prefix_path),
            "--group", "gamma0:13",
            "--prec", "30",
        )
        assert code == 2
        assert json.loads(out)["error_kind"] == "prefix-inconsistent"


class TestVerifyWithBasis:
    @pytest.fixture
    def f_and_dec(self, capsys, tmp_path):
        """A Gamma_0(11) series and its decomposition, as JSON files."""
        g = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        f = g * exp_from_logderiv(g.truncate(66).scale(3), 66)
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(jsonio.series_to_obj(f)))
        prefix_path = tmp_path / "prefix.json"
        prefix_path.write_text(json.dumps(["1", "-2"]))
        dec = invoke_json(
            capsys,
            "decompose",
            "--f", str(f_path),
            "--prefix", str(prefix_path),
            "--group", "gamma0:11",
            "--prec", "60",
        )
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(dec))
        return str(f_path), str(dec_path)

    def test_no_shipped_basis_skips_fit_without_flag(self, capsys, f_and_dec):
        # gamma0:23 has kappa 3 and no shipped basis
        f_path, dec_path = f_and_dec
        report = invoke_json(
            capsys, "verify", "--f", f_path, "--dec", dec_path, "--group", "gamma0:23"
        )
        (fit,) = [c for c in report["checks"] if c["check"] == "basis-fit"]
        assert fit["passed"] is None
        assert fit["detail"] == "skipped: no basis supplied"

    def test_no_shipped_basis_fails_with_flag(self, capsys, f_and_dec):
        f_path, dec_path = f_and_dec
        code, out = invoke(
            capsys,
            "verify", "--f", f_path, "--dec", dec_path, "--group", "gamma0:23",
            "--with-basis",
        )
        assert code == 2
        assert json.loads(out)["error_kind"] == "no-basis-available"

    @pytest.mark.parametrize("group", ["gamma:200", "gamma0:1000000000000000003"])
    def test_group_past_the_table_cap_skips_fit(self, capsys, f_and_dec, group):
        # no coset table, so no genus: no shipped basis, as for any group
        f_path, dec_path = f_and_dec
        argv = ["verify", "--f", f_path, "--dec", dec_path, "--group", group]
        report = invoke_json(capsys, *argv)
        (fit,) = [c for c in report["checks"] if c["check"] == "basis-fit"]
        assert fit == {"check": "basis-fit", "passed": None, "detail": "skipped: no basis supplied"}
        code, out = invoke(capsys, *argv, "--with-basis")
        assert code == 2
        assert json.loads(out) == {
            "error_kind": "no-basis-available",
            "message": f"no shipped basis for {group}; supply a basis data file",
        }

    def test_basis_file_not_json(self, capsys, tmp_path, f_and_dec):
        f_path, dec_path = f_and_dec
        basis_path = tmp_path / "basis.json"
        basis_path.write_text("{not json")
        code, out = invoke(
            capsys,
            "verify", "--f", f_path, "--dec", dec_path, "--group", "gamma0:11",
            "--basis", str(basis_path),
        )
        assert code == 2
        obj = json.loads(out)
        assert obj["error_kind"] == "malformed-input"
        assert obj["message"].startswith(f"{basis_path}: not valid JSON (")

    def test_zero_f0_fails_logderiv_check(self, capsys, tmp_path, f_and_dec):
        # f0 = 0 has no logarithmic derivative: a failed check, not an error exit
        f_path, dec_path = f_and_dec
        with open(dec_path, encoding="utf-8") as fh:
            dec = json.load(fh)
        dec["f0"]["coeffs"] = ["0"] * len(dec["f0"]["coeffs"])
        zero_path = tmp_path / "dec-zero-f0.json"
        zero_path.write_text(json.dumps(dec))
        report = invoke_json(
            capsys, "verify", "--f", f_path, "--dec", str(zero_path), "--group", "gamma0:11"
        )
        assert report["all_passed"] is False
        (logderiv,) = [c for c in report["checks"] if c["check"] == "logderiv"]
        assert logderiv["passed"] is False
        assert logderiv["detail"] == "logarithmic derivative of the zero series"

    def test_missing_basis_file(self, capsys, tmp_path, f_and_dec):
        f_path, dec_path = f_and_dec
        code, out = invoke(
            capsys,
            "verify", "--f", f_path, "--dec", dec_path, "--group", "gamma0:11",
            "--with-basis", "--basis", str(tmp_path / "missing.json"),
        )
        assert code == 2
        assert json.loads(out)["error_kind"] == "malformed-input"


class TestCertify:
    def test_single_file(self, capsys, f11_path):
        obj = invoke_json(
            capsys, "certify", "--f", f11_path, "--group", "gamma0:11", "--prec", "60"
        )
        assert obj["verdict"] == "finite-order-consistent"
        assert obj["detail"]["decomposition"]["basis_coords"] == ["0"]

    def test_group_past_level_25_refused_without_its_coset_table(self, capsys, monkeypatch,
                                                                 f11_path):
        # no group of level above 25 has genus 0, so gamma1:447 (88,800
        # cosets) is refused for want of a shipped basis before any table
        monkeypatch.setattr(subgroup, "_TABLE_CACHE", {})
        code, out = invoke(capsys, "certify", "--f", f11_path, "--group", "gamma1:447",
                           "--prec", "60")
        assert code == 2
        assert out == json.dumps({
            "error_kind": "no-basis-available",
            "message": "no shipped basis for gamma1:447; supply a basis data file",
        }, indent=2) + "\n"
        assert subgroup._TABLE_CACHE == {}

    def test_explicit_prefix(self, capsys, tmp_path):
        g = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        f0 = exp_from_logderiv(g.truncate(66).scale(3), 66)
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(jsonio.series_to_obj(g * f0)))
        prefix_path = tmp_path / "p.json"
        prefix_path.write_text(json.dumps(["1", "-2"]))
        obj = invoke_json(
            capsys,
            "certify",
            "--f", str(f_path),
            "--group", "gamma0:11",
            "--prec", "60",
            "--prefix", str(prefix_path),
        )
        assert obj["verdict"] == "nontrivial-f0"

    def test_multiple_files_sequential(self, capsys, tmp_path, f11_path):
        other = tmp_path / "g.json"
        other.write_text(json.dumps(jsonio.series_to_obj(
            eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        )))
        results = invoke_json(
            capsys,
            "certify",
            "--f", f11_path, str(other),
            "--group", "gamma0:11",
            "--prec", "40",
        )
        assert len(results) == 2
        assert all(r["certificate"]["verdict"] == "finite-order-consistent" for r in results)

    def test_repeated_f_keeps_every_file(self, capsys, tmp_path, f11_path):
        # --f a --f b is --f a b, not b alone
        other = tmp_path / "g.json"
        other.write_text(json.dumps(jsonio.series_to_obj(
            eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        )))
        options = ["--group", "gamma0:11", "--prec", "3"]
        listed = invoke_json(capsys, "certify", "--f", f11_path, str(other), *options)
        repeated = invoke_json(capsys, "certify", "--f", f11_path, "--f", str(other), *options)
        assert [r["input"] for r in repeated] == [f11_path, str(other)]
        assert repeated == listed

    def test_jobs_capped_at_file_count(self, capsys, monkeypatch, f11_path):
        import concurrent.futures

        pool_sizes = []

        class InlinePool:
            """Records the requested size and runs the work in-process."""

            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def cpus(n):
            # the CPUs the process may use, by its affinity mask or, on a
            # platform without one, by the CPU count
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: n)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cpus(8)
        results = invoke_json(
            capsys,
            "certify",
            "--f", f11_path, f11_path,
            "--group", "gamma0:11",
            "--prec", "20",
            "--jobs", "64",
        )
        assert pool_sizes == [2]
        assert [r["input"] for r in results] == [f11_path, f11_path]
        # and at the CPUs: 3 files on 2 CPUs take 2 workers, not 64
        cpus(2)
        results = invoke_json(capsys, "certify", "--f", f11_path, f11_path, f11_path,
                              "--group", "gamma0:11", "--prec", "20", "--jobs", "64")
        assert pool_sizes == [2, 2]
        assert [r["input"] for r in results] == [f11_path] * 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        results = invoke_json(capsys, "certify", "--f", f11_path, f11_path, f11_path,
                              "--group", "gamma0:11", "--prec", "20", "--jobs", "64")
        assert pool_sizes == [2, 2, 2] and len(results) == 3

    def test_multiple_files_parallel(self, capsys, tmp_path, f11_path):
        results = invoke_json(
            capsys,
            "certify",
            "--f", f11_path, f11_path,
            "--group", "gamma0:11",
            "--prec", "40",
            "--jobs", "2",
        )
        assert len(results) == 2
        assert all(r["certificate"]["verdict"] == "finite-order-consistent" for r in results)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_file_reported_and_batch_goes_on(self, capsys, tmp_path, f11_path, jobs):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        argv = ["certify", "--f", f11_path, str(bad), f11_path, "--group", "gamma0:11",
                "--prec", "20"]
        results = invoke_json(capsys, *argv, "--jobs", jobs)
        assert [r["input"] for r in results] == [f11_path, str(bad), f11_path]
        good = invoke_json(capsys, "certify", "--f", f11_path, "--group", "gamma0:11",
                           "--prec", "20")
        assert results[0] == results[2] == {"input": f11_path, "certificate": good}
        assert results[1] == {"input": str(bad), "error_kind": "malformed-input",
                              "message": "series object missing keys: "
                                         "['coeffs', 'field', 'lead', 'level', 'precision']"}

    def test_bad_group_refuses_the_batch(self, capsys, f11_path):
        code, out = invoke(capsys, "certify", "--f", f11_path, f11_path, "--group", "gamma0:x",
                           "--prec", "20", "--jobs", "2")
        assert code == 2
        assert json.loads(out)["error_kind"] == "bad-group-descriptor"


class TestAuxiliaryVerbs:
    def test_denom_primes(self, capsys, tmp_path):
        e = exp_from_logderiv(QExpansion.monomial(1, 1, 6), 6)
        path = tmp_path / "e.json"
        path.write_text(json.dumps(jsonio.series_to_obj(e)))
        obj = invoke_json(capsys, "denom-primes", "--f", str(path))
        assert obj["primes"] == [2, 3, 5] and obj["from_cyclotomic_coordinates"] is False

    def test_two_tall_prime_denominators_promptly(self, tmp_path):
        # The stored denominator is their product, a 62-bit semiprime that
        # trial division would not split in any reasonable time, so each
        # coordinate's own denominator is factored.  In a child under a time
        # limit, so that factoring the product fails the test instead of
        # stalling it.
        p, q = 2**31 - 1, 2147483629
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"level": 1, "lead": 0, "precision": 3,
                                    "field": {"kind": "rational"}, "coeffs": ["1", f"1/{p}", f"3/{q}"]}))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmfkit.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "gmfkit.cli", "denom-primes", "--f", str(path)],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert json.loads(proc.stdout) == {"primes": [q, p], "from_cyclotomic_coordinates": False}

    def test_k_op_fixes_rational(self, capsys, f11_path):
        obj = invoke_json(capsys, "k-op", "--f", f11_path, "--group", "gamma0:11")
        assert obj["coeffs"][:3] == ["1", "-2", "-1"]

    def test_galois_norm(self, capsys, tmp_path):
        from gmfkit.numberfield import CyclotomicElement, FieldTag

        tag = FieldTag.cyclotomic(3)
        f = QExpansion(1, 0, [1, CyclotomicElement.zeta(3)], 5, tag)
        path = tmp_path / "z.json"
        path.write_text(json.dumps(jsonio.series_to_obj(f)))
        obj = invoke_json(capsys, "galois-norm", "--f", str(path))
        assert obj["field"] == {"kind": "rational"}
        assert obj["coeffs"][:3] == ["1", "-1", "1"]

    def test_validate_basis(self, capsys):
        obj = invoke_json(capsys, "validate-basis", "--group", "gamma0:11")
        assert obj["dimension"] == 1 and obj["all_passed"] is True

    def test_output_flag(self, capsys, tmp_path, f11_path):
        target = tmp_path / "out.json"
        code, out = invoke(
            capsys, "pow", "--f", f11_path, "--m", "1", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["lead"] == 1

    @pytest.mark.parametrize("where, code", [("missing/out.json", errno.ENOENT), (".", errno.EISDIR)])
    def test_unwritable_output_is_malformed_input(self, capsys, tmp_path, where, code):
        # a missing directory or a directory as the target: error JSON, no traceback
        target = tmp_path / where
        exit_code, out = invoke(capsys, "kappa", "gamma0:11", "--output", str(target))
        assert exit_code == 2
        assert json.loads(out) == {"error_kind": "malformed-input", "message": f"{target}: {os.strerror(code)}"}


class TestCanonicalRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eta-expand", "1^2 11^2", "--prec", "25"],
            ["eta-expand", "1^24", "--prec", "15"],
            ["eta-expand", "1^1", "--prec", "80"],
        ],
    )
    def test_emitted_series_reparse_identically(self, capsys, tmp_path, argv):
        code, out = invoke(capsys, *argv)
        assert code == 0
        obj = json.loads(out)
        series = jsonio.series_from_obj(obj)
        again = jsonio.dumps(jsonio.series_to_obj(series))
        assert again == out.strip()

    def test_coefficient_past_the_int_str_digit_limit(self, capsys, tmp_path):
        # 5,000 digits each side, past CPython's default limit of 4,300
        big = Fraction(-(7**5916), 3**10478)
        f = QExpansion(1, -1, [1, big, 0], 2)
        text = jsonio.dumps(jsonio.series_to_obj(f))
        assert jsonio.series_from_obj(json.loads(text)) == f
        path = tmp_path / "f.json"
        path.write_text(text)
        code, out = invoke(capsys, "pow", "--f", str(path), "--m", "1")
        assert code == 0 and out.strip() == text

    def test_digit_cap(self):
        jsonio.parse_rational("9" * jsonio.MAX_RATIONAL_DIGITS)
        for text in ("9" * (jsonio.MAX_RATIONAL_DIGITS + 1), "1/" + "7" * (jsonio.MAX_RATIONAL_DIGITS + 1)):
            with pytest.raises(gmfkit.errors.MalformedInputError):
                jsonio.parse_rational(text)

    def test_cyclotomic_series_roundtrip(self):
        from gmfkit.numberfield import CyclotomicElement, FieldTag
        from fractions import Fraction as F

        tag = FieldTag.cyclotomic(12)
        z = CyclotomicElement.zeta(12)
        f = QExpansion(3, -2, [1, z ** 5 + F(7, 3), -z], 4, tag)
        obj = jsonio.series_to_obj(f)
        assert jsonio.series_from_obj(obj) == f
        assert jsonio.dumps(jsonio.series_to_obj(jsonio.series_from_obj(obj))) == jsonio.dumps(obj)


class TestInputShapes:
    """A JSON value of the wrong shape is refused with exit 2, never read
    element by element nor left to end in a traceback."""

    @pytest.fixture
    def f_dec_basis(self, capsys, tmp_path):
        """The paths of a Gamma_0(11) series and of a prefix that fits it,
        and its decomposition and basis as objects to spoil."""
        g = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(jsonio.series_to_obj(g * exp_from_logderiv(g.truncate(66).scale(3), 66))))
        prefix_path = tmp_path / "prefix.json"
        prefix_path.write_text(json.dumps(["1", "-2"]))
        dec = invoke_json(capsys, "decompose", "--f", str(f_path), "--prefix", str(prefix_path),
                          "--group", "gamma0:11", "--prec", "60")
        basis = {"group": "gamma0:11", "forms": [jsonio.series_to_obj(g)]}
        return str(f_path), str(prefix_path), dec, basis

    def refused(self, capsys, argv, kind, message=None):
        code, out = invoke(capsys, *argv)
        error = json.loads(out)
        assert (code, error["error_kind"]) == (2, kind), out
        if message is not None:
            assert error["message"] == message

    def basis_argvs(self, f_path, prefix_path, basis_path):
        return [
            ["validate-basis", "--group", "gamma0:11", "--basis", basis_path],
            ["decompose", "--f", f_path, "--prefix", prefix_path, "--group", "gamma0:11",
             "--prec", "60", "--basis", basis_path],
        ]

    @pytest.mark.parametrize("group", [11, None, ["gamma0:11"], {"kind": "gamma0", "level": 11}])
    def test_basis_group_not_a_string(self, capsys, tmp_path, f_dec_basis, group):
        f_path, prefix_path, _, basis = f_dec_basis
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(dict(basis, group=group)))
        for argv in self.basis_argvs(f_path, prefix_path, str(basis_path)):
            self.refused(capsys, argv, "bad-group-descriptor")

    @pytest.mark.parametrize("forms", ["x", "", {}, {"a": 1}])
    def test_basis_forms_not_an_array(self, capsys, tmp_path, f_dec_basis, forms):
        f_path, prefix_path, _, basis = f_dec_basis
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(dict(basis, forms=forms)))
        for argv in self.basis_argvs(f_path, prefix_path, str(basis_path)):
            self.refused(capsys, argv, "malformed-input", "basis forms must be a JSON array")

    def test_basis_without_genus_many_forms(self, capsys, tmp_path, f_dec_basis):
        # an empty basis for Gamma_0(11), of genus 1, would turn this verdict
        # into prefix-inconsistent
        f_path, prefix_path, _, basis = f_dec_basis
        certify = ["certify", "--f", f_path, "--group", "gamma0:11", "--prec", "60",
                   "--prefix", prefix_path]
        assert invoke_json(capsys, *certify)["verdict"] == "nontrivial-f0"
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(dict(basis, forms=[])))
        validate, decompose = self.basis_argvs(f_path, prefix_path, str(basis_path))
        for argv in [decompose, [*certify, "--basis", str(basis_path)]]:
            self.refused(capsys, argv, "corrupt-basis", "basis failed validation: dimension-bound")
        # the diagnostic verb prints the failing report instead
        report = invoke_json(capsys, *validate)
        assert report["all_passed"] is False and report["dimension"] == 0
        failed = [(c["check"], c["detail"]) for c in report["checks"] if c["passed"] is False]
        assert failed == [("dimension-bound", "dimension 0, genus 1")]

    @pytest.mark.parametrize("coeffs", ["123", {"1": 0, "2": 0, "3": 0}])
    def test_series_coeffs_not_an_array(self, capsys, tmp_path, coeffs):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"level": 1, "lead": 0, "precision": 3,
                                    "field": {"kind": "rational"}, "coeffs": coeffs}))
        self.refused(capsys, ["mul", "--f", str(path), "--g", str(path)], "malformed-input",
                     "series coeffs must be a JSON array")

    @pytest.mark.parametrize("spoil, message", [
        ({"precision": 5, "coeffs": ["1", "2"]}, "2 coefficients do not fill the window [0, 5)"),
        ({"field": {"kind": "padic"}}, "unknown field kind 'padic'"),
    ], ids=["short-coeffs", "unknown-field-kind"])
    def test_series_refused(self, capsys, tmp_path, spoil, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(dict({"level": 1, "lead": 0, "precision": 2,
                                         "field": {"kind": "rational"}, "coeffs": ["1", "2"]}, **spoil)))
        self.refused(capsys, ["mul", "--f", str(path), "--g", str(path)], "malformed-input", message)

    def test_basis_coords_not_an_array(self, capsys, tmp_path, f_dec_basis):
        f_path, _, dec, _ = f_dec_basis
        assert dec["basis_coords"] == ["3"]
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(dict(dec, basis_coords="3")))
        self.refused(capsys, ["verify", "--f", f_path, "--dec", str(dec_path), "--group", "gamma0:11"],
                     "malformed-input", "basis_coords must be a JSON array")

    @pytest.mark.parametrize("depth", [1_000, 200_000])
    @pytest.mark.parametrize("opener, core, closer", [("[", "", "]"), ('{"a": ', "1", "}")],
                             ids=["array", "object"])
    @pytest.mark.parametrize("loader", ["f", "prefix", "dec", "basis", "stdin"])
    def test_nested_json(self, capsys, tmp_path, monkeypatch, f11_path, loader, opener, core,
                         closer, depth):
        # the JSON decoder recurses once per level and gives up at the
        # interpreter's recursion limit
        monkeypatch.chdir(tmp_path)
        text = opener * depth + core + closer * depth
        (tmp_path / "nested.json").write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = {
            "f": ["logderiv", "--f", "nested.json"],
            "prefix": ["certify", "--f", f11_path, "--group", "gamma0:11", "--prec", "60",
                       "--prefix", "nested.json"],
            "dec": ["verify", "--f", f11_path, "--dec", "nested.json", "--group", "gamma0:11"],
            "basis": ["validate-basis", "--group", "gamma0:11", "--basis", "nested.json"],
            "stdin": ["logderiv", "--f", "-"],
        }[loader]
        name = "-" if loader == "stdin" else "nested.json"
        self.refused(capsys, argv, "malformed-input", f"{name}: JSON nested too deeply")

    @pytest.mark.parametrize("dec", [["f1", "f0", "g0", "basis_coords"], "f1 f0 g0 basis_coords", 3])
    def test_decomposition_not_an_object(self, capsys, tmp_path, f_dec_basis, dec):
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(dec))
        self.refused(capsys, ["verify", "--f", f_dec_basis[0], "--dec", str(dec_path), "--group", "gamma0:11"],
                     "malformed-input", "decomposition must be a JSON object")

    @pytest.mark.parametrize("m", ["1_2", "１２", "+12"])
    def test_field_conductor_read_as_ascii_digits(self, capsys, f11_path, m):
        # int() reads each of these as 12
        self.refused(capsys, ["logderiv", "--f", f11_path, "--field", f"cyclotomic:{m}"],
                     "malformed-input", f"bad field 'cyclotomic:{m}'; expected rational or cyclotomic:<m>")


class TestPinnedOutput:
    # SHA-256 of the stdout of decompose and certify at 240 terms, recorded
    # before the series kernels ran on integers, so that a faster kernel
    # keeps the emitted JSON byte-identical.  f = f1 * f0 with f1 a dense
    # integer unit series and f0 = exp of 59/61 times the level's newform.
    NEWFORMS = {11: ((1, 2), (11, 2)), 36: ((6, 4),)}
    PINNED = {
        (11, "decompose"): "2ffec8591f72f3067bbacaee9ae1ec59006d21e3329ade5117680aa64f00d15d",
        (11, "certify"): "e22819c22aaca5f401826f09db4274dd9edf0202816694468d59e4c459a0fc9a",
        (36, "decompose"): "cb637ce28d338394e1c6edde88fbb315dc378bb9a323248fbb13fafc47c1bd0c",
        (36, "certify"): "32161bfca4c6872e464f111f990a24244fb2478e751879cec7e687fd4739707d",
    }

    TERMS = 240

    def write_f(self, tmp_path, level):
        """Write f and the prefix of f1 for the newform of ``level``; return
        the two paths."""
        terms = self.TERMS
        newform = eta_quotient_expansion(EtaQuotient(self.NEWFORMS[level], level), terms)
        f0 = exp_from_logderiv(newform.scale(Fraction(59, 61)), terms)
        f1 = QExpansion(1, 0, [1] + [(-1) ** n * (n % 9 + 1) for n in range(1, terms)], terms)
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(jsonio.series_to_obj(f1 * f0)))
        prefix_path = tmp_path / "prefix.json"
        prefix_path.write_text(json.dumps([str(c) for c in f1.coeffs[:2]]))  # kappa = 1
        return f_path, prefix_path

    @pytest.mark.parametrize("level, verb", sorted(PINNED))
    def test_stdout_hash(self, capsys, tmp_path, level, verb):
        f_path, prefix_path = self.write_f(tmp_path, level)
        argv = [verb, "--f", str(f_path), "--group", f"gamma0:{level}", "--prec", str(self.TERMS)]
        if verb == "decompose":
            argv += ["--prefix", str(prefix_path)]
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[level, verb]

    # SHA-256 of the stdout of cosets, kappa and cusps for two Gamma(N) past
    # the level-24 sweep of the subgroup-invariants hash, recorded before
    # Gamma(N) cosets were named by (Gamma_1(N) coset, offset) ids
    PINNED_GAMMA = {
        ("gamma:30", "cosets"): "55fda88fc4d0f676f33c2585d54baa2eb307420d6e4fd101a1498a228f42240d",
        ("gamma:30", "kappa"): "5bf8ced4d45f4be7ce56bf0b6b91295345a41614fc9a06d53b75991ace5e83fb",
        ("gamma:30", "cusps"): "9a1515b72778f7c96d2758fd2d02e77360d901dbb5ba8b64b21e308ba82d8304",
        ("gamma:46", "cosets"): "efffc50905263aa35f6a32788d657c9e2029efd116f1c56f1b6bce0a24bad95f",
        ("gamma:46", "kappa"): "92ed326bc873bc6ed02c4e6783a780af001f9deaed133cd4895016db81cc1d76",
        ("gamma:46", "cusps"): "6eda33adff2b7cd0b7e9d19dad47960ab4e0b41b148e9edb408a112cb26b6953",
    }

    @pytest.mark.parametrize("group, verb", sorted(PINNED_GAMMA))
    def test_gamma_stdout_hash(self, capsys, group, verb):
        code, out = invoke(capsys, verb, group)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_GAMMA[group, verb]

    # SHA-256 of certify's stdout on the level-11 f above for groups of genus
    # zero, where g0 = 0, f0 = 1 and f1 = f, recorded before a monomial
    # divisor and the exponential of zero skipped the recurrence.  The
    # report does not name the group, so the two are the same bytes.
    PINNED_GENUS_ZERO = {
        "gamma0:2": "e713e64b91f206c5f62d8fd47ae2ee3e7956154a7580c9a35c5cc6e0793f2cad",
        "gamma1:5": "e713e64b91f206c5f62d8fd47ae2ee3e7956154a7580c9a35c5cc6e0793f2cad",
    }

    @pytest.mark.parametrize("group", sorted(PINNED_GENUS_ZERO))
    def test_genus_zero_certify_hash(self, capsys, tmp_path, group):
        f_path, _ = self.write_f(tmp_path, 11)
        code, out = invoke(capsys, "certify", "--f", str(f_path), "--group", group, "--prec", str(self.TERMS))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_GENUS_ZERO[group]

    # (exit code, SHA-256 of stdout) of the check reports of verify and
    # validate-basis, recorded before the check entries had one builder;
    # the two failing basis files were recorded when validate-basis began
    # to print a failing report rather than refuse the file.
    # The decomposition is that of f = g * exp(3 g), g the Gamma_0(11)
    # newform, to 60 terms, spoiled as the case's name says.
    PINNED_REPORTS = {
        "verify-pass": (0, "4003e1edfdf8941f08d222ec9c6c8f0b4cf37997d85ae8df7d2085c658601a99"),
        "verify-product-fails": (0, "c1f9fb379c64bbc76bfc949c136c0db1e0925b174e95d27ad96eb2f72248229d"),
        "verify-coords-mismatch": (0, "07ff48389f5e10142f3968c275f665a19a7e2af4c036a022e2ed84adfbf1ec67"),
        "verify-g0-level": (0, "7d9370aec4b8367665633ad797e33d51a1299a4147e99d8c4030f0e20e83097e"),
        "verify-skipped": (0, "862b05c1cd550ba9f7d5d00d25d5d1e7a4a6266b2e720a22f1f855f9cee18e7f"),
        "validate-shipped": (0, "b555fc09ca0d96dfe4b0203cb90c4145f9e13d5947731f9a8a559b2cfe39e8fd"),
        "validate-genus-zero": (0, "7a96ea3f78bcea5a6a9cd88fb26164400a6417f74a4cc54e4578d2c633abaef9"),
        "validate-corrupt-file": (0, "59a63fcf7d15bb1db26cd5eb91fdbae9d4bffde95d394235c4079e6896357364"),
        "validate-too-few-forms": (0, "b17e1a7bcd039a53b9a237a1ad62fc204b814ccee13392e9b356483c3fe01c92"),
        "validate-library": (None, "013155adb871e4bb0eba1ccf3abe7b9386d78ae0d2d481bdda68408c351f6e68"),
    }

    @staticmethod
    def spoil(case, dec):
        if case == "verify-product-fails":
            dec["f1"]["coeffs"][7] = "5"
        elif case == "verify-coords-mismatch":
            dec["basis_coords"] = ["3", "0"]
        elif case == "verify-g0-level":
            dec["g0"]["level"] = 2

    @pytest.mark.parametrize("case", [
        "verify-pass", "verify-product-fails", "verify-coords-mismatch", "verify-g0-level",
        "verify-skipped", "validate-shipped", "validate-genus-zero", "validate-corrupt-file",
        "validate-too-few-forms", "validate-library",
    ])
    def test_check_report_hash(self, capsys, tmp_path, case):
        g = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        f_path = tmp_path / "f.json"
        f_path.write_text(json.dumps(jsonio.series_to_obj(g * exp_from_logderiv(g.truncate(66).scale(3), 66))))
        prefix_path = tmp_path / "prefix.json"
        prefix_path.write_text(json.dumps(["1", "-2"]))
        dec = invoke_json(capsys, "decompose", "--f", str(f_path), "--prefix", str(prefix_path),
                          "--group", "gamma0:11", "--prec", "60")
        self.spoil(case, dec)
        dec_path = tmp_path / "dec.json"
        dec_path.write_text(json.dumps(dec))
        basis_path = tmp_path / "basis.json"  # a form with lead 0
        basis_path.write_text(json.dumps({"group": "gamma0:11", "forms": [dec["f0"]]}))
        empty_path = tmp_path / "empty.json"  # no form, for a group of genus 1
        empty_path.write_text(json.dumps({"group": "gamma0:11", "forms": []}))
        argv = {
            "verify-skipped": ["verify", "--f", str(f_path), "--dec", str(dec_path), "--group", "gamma0:23"],
            "validate-shipped": ["validate-basis", "--group", "gamma0:11"],
            "validate-genus-zero": ["validate-basis", "--group", "gamma0:5"],
            "validate-corrupt-file": ["validate-basis", "--group", "gamma0:11", "--basis", str(basis_path)],
            "validate-too-few-forms": ["validate-basis", "--group", "gamma0:11", "--basis", str(empty_path)],
        }.get(case, ["verify", "--f", str(f_path), "--dec", str(dec_path), "--group", "gamma0:11",
                     "--with-basis"])
        if case == "validate-library":
            # failing reports straight from the library: a lead-0 form, a
            # cyclotomic form, forms too short for kappa
            g = jsonio.series_from_obj(dec["g0"])
            tag = FieldTag.cyclotomic(3)
            code, out = None, jsonio.dumps([
                validate_basis(CuspFormBasis(GroupDescriptor.parse(group), forms))
                for group, forms in (("gamma0:11", (g.shift(-1),)),
                                     ("gamma0:11", (g.promote(tag), g.promote(tag).shift(1))),
                                     ("gamma0:23", (g.truncate(3), g.rescale_level(2))))
            ])
        else:
            code, out = invoke(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.PINNED_REPORTS[case]

    # (exit code, SHA-256 of stdout) of the verbs that load a series on a
    # group, a prefix or a basis through the CLI's shared loaders, recorded
    # before those loaders were shared.  Files are named relative to the
    # working directory, so that error messages do not carry tmp_path.
    PINNED_LOADERS = {
        "galois-norm-q": (2, "5564389d0c0edbfb404a1aa85303c350b7b92072c507bead8df800d09359cdc8"),
        "galois-norm-z12": (0, "5d32b37fcd92a8a3f9707dc708be96c97f03c2ee08af1b9e3e2ab7995bbf2dd3"),
        "k-op-q": (0, "8a880c417e7fe1666706e975ad7607992b561de7b28528729245d5da63d57e6d"),
        "k-op-z12": (0, "ebfe98fb1d0401b4ad2099c53e88ccbb66aae2ceda35a00440b13faa43b271a0"),
        "denom-primes-q": (0, "92ef69facc1b10ed5c5f09b657a4cb9f9858bb76aa907457ed85b66c4cfac2b1"),
        "denom-primes-z12": (0, "36d1d21095b3554cc8f215ca6775da5214981c008886f91e884be99faf39cec4"),
        "verify-with-basis-no-basis": (2, "a1ac755db35a57614c39551a6474e77374176db5d32ef86d6650342aa4b1d644"),
        "verify-missing-basis-file": (2, "f603d75e85e5aeb4ddc4be2b20b4dd5131eaee49bf35f6cb5160b43833e675f7"),
        "certify-missing-prefix": (2, "f603d75e85e5aeb4ddc4be2b20b4dd5131eaee49bf35f6cb5160b43833e675f7"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_LOADERS))
    def test_loader_verb_hash(self, capsys, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        g = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 70)
        f = g * exp_from_logderiv(g.truncate(66).scale(3), 66)
        fq = g.truncate(30) * exp_from_logderiv(g.truncate(30).scale(Fraction(3, 7)), 30)
        tag = FieldTag.cyclotomic(12)
        z = CyclotomicElement.zeta(12)
        fz = fq.promote(tag) * QExpansion(1, 0, [1, z, z**5 + Fraction(7, 3), -z / 5], 30, tag)
        for name, series in (("f.json", f), ("q.json", fq), ("z12.json", fz)):
            (tmp_path / name).write_text(json.dumps(jsonio.series_to_obj(series)))
        (tmp_path / "prefix.json").write_text(json.dumps(["1", "-2"]))
        dec = invoke_json(capsys, "decompose", "--f", "f.json", "--prefix", "prefix.json",
                          "--group", "gamma0:11", "--prec", "60")
        (tmp_path / "dec.json").write_text(json.dumps(dec))
        verify = ["verify", "--f", "f.json", "--dec", "dec.json", "--group"]
        argv = {
            "galois-norm-q": ["galois-norm", "--f", "q.json"],
            "galois-norm-z12": ["galois-norm", "--f", "z12.json"],
            "k-op-q": ["k-op", "--f", "q.json", "--group", "gamma0:11"],
            "k-op-z12": ["k-op", "--f", "z12.json", "--group", "gamma0:11"],
            "denom-primes-q": ["denom-primes", "--f", "q.json"],
            "denom-primes-z12": ["denom-primes", "--f", "z12.json"],
            "verify-with-basis-no-basis": verify + ["gamma0:23", "--with-basis"],
            "verify-missing-basis-file": verify + ["gamma0:11", "--basis", "missing.json"],
            "certify-missing-prefix": ["certify", "--f", "f.json", "--group", "gamma0:11",
                                       "--prec", "60", "--prefix", "missing.json"],
        }[case]
        code, out = invoke(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.PINNED_LOADERS[case]

    # (largest exit code, SHA-256 of the stdout of the calls in turn) of
    # outputs no other test reads, recorded before the coset table counted
    # the cusps and before one balanced product served every product of
    # many: the prefix-inconsistent verdict with a rational and with a null
    # residual, --field conversions, the invariants of the 134 groups of
    # Gamma_0(N <= 60), Gamma_1(N <= 50) and Gamma(N <= 24), eta quotients,
    # and the Galois norm and inverse over Q(zeta_31).
    PINNED_UNREAD = {
        "certify-rational-residual": (0, "b4436bbf6b8261b6b07a3d58200ed77693f129d3dd8471cae6acc51103ed9abd"),
        "certify-null-residual": (0, "72762e60baff226c815fbd7afcd5a5f60f279f383405e659d3b575b1a6ee2d3f"),
        "field-rational": (0, "23ebece9759ec0ff17e6b472a5d29bd77ad524b420fe270fc7ed8dad5b717f56"),
        "field-rational-refused": (2, "01521df2357b61449600f230c90fede9f6cbe5530c5c5c09ba49f49a833a3d2b"),
        "field-cyclotomic-x": (2, "35b8f112d8a18e584a7451a536c86bf6bf1e9c30aad0fa52540b6b5ca7f24ef5"),
        "field-cyclotomic-0": (2, "08579eb6e2ec4a1470c2f88faefadeb7a53562aa16c4ad53b097b1ab6e95e517"),
        "eta-expand-cyclotomic": (0, "4eeab9172ed847cd82d116a7d85b683eeec3cff8a79a4b9cae958e03dfdc36df"),
        "subgroup-invariants": (0, "9c10c70d14c18f4e86bfe6af3373478ebd667cbd29d41ff30a1fc7f28da9d950"),
        "eta-expand-quotients": (0, "37c12303301b53df77f02bcb705ed4117ed513e86d41c76bfd505dfdc121095c"),
        "galois-norm-z31": (0, "4a183624a7759b0d95d59389a257f2dacfaeac66413c3bb333e014ae45727952"),
        "inv-z31": (0, "e3817eb7cca6475f6acd08711c88a49a0ddc29d91aa0d7ae6230d3aeeff66c22"),
    }

    @staticmethod
    def unread_output(case):
        """(largest exit code, SHA-256 of stdout) of the case's calls, run in
        the working directory, which receives the input files."""
        f11 = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 40)
        i = CyclotomicElement.zeta(4)
        z31 = FieldTag.cyclotomic(31)
        dense = [
            CyclotomicElement(31, [Fraction((-1) ** j * ((n * 7 + j * 3) % 5 + 1), 1 + (n + j) % 3)
                                   for j in range(30)])
            for n in range(1, 6)
        ]
        files = {
            "f.json": jsonio.series_to_obj(f11),
            "z3.json": jsonio.series_to_obj(f11.promote(FieldTag.cyclotomic(3))),
            "z4-rational.json": jsonio.series_to_obj(f11.truncate(20).promote(FieldTag.cyclotomic(4))),
            "z4.json": jsonio.series_to_obj(
                f11.truncate(20).promote(FieldTag.cyclotomic(4))
                * QExpansion(1, 0, [1, i, 3 - i], 20, FieldTag.cyclotomic(4))
            ),
            "z31.json": jsonio.series_to_obj(QExpansion(1, 0, [1] + dense, 6, z31)),
            "prefix.json": ["1", "5"],
            "prefix-z3.json": ["1", ["-2", "1"]],
        }
        for name, obj in files.items():
            with open(name, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
        groups = [f"{kind}:{n}" for kind, top in (("gamma0", 60), ("gamma1", 50), ("gamma", 24))
                  for n in range(1, top + 1)]
        quotients = [(str(q), str(q.ambient_level), "800") for q in map(shipped_quotient, shipped_levels())]
        quotients += [("1^24 2^-24", "2", "160"), ("1^0", "1", "5")]
        calls = {
            "certify-rational-residual": [["certify", "--f", "f.json", "--group", "gamma0:13",
                                           "--prec", "30", "--prefix", "prefix.json"]],
            "certify-null-residual": [["certify", "--f", "z3.json", "--group", "gamma0:11",
                                       "--prec", "30", "--prefix", "prefix-z3.json"]],
            "field-rational": [["logderiv", "--f", "z4-rational.json", "--field", "rational"]],
            "field-rational-refused": [["logderiv", "--f", "z4.json", "--field", "rational"]],
            "field-cyclotomic-x": [["logderiv", "--f", "f.json", "--field", "cyclotomic:x"]],
            "field-cyclotomic-0": [["logderiv", "--f", "f.json", "--field", "cyclotomic:0"]],
            "eta-expand-cyclotomic": [["eta-expand", "1^2 11^2", "--prec", "30", "--field", "cyclotomic:3"]],
            "subgroup-invariants": [[verb, group] for group in groups for verb in ("kappa", "cusps", "cosets")],
            "eta-expand-quotients": [["eta-expand", q, "--ambient", level, "--prec", prec]
                                     for q, level, prec in quotients],
            "galois-norm-z31": [["galois-norm", "--f", "z31.json"]],
            "inv-z31": [["inv", "--f", "z31.json"]],
        }[case]
        codes, digest = [], hashlib.sha256()
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                codes.append(run(argv))
            digest.update(out.getvalue().encode())
        return max(codes), digest.hexdigest()

    @pytest.mark.parametrize("case", sorted(PINNED_UNREAD))
    def test_unread_output_hash(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        assert self.unread_output(case) == self.PINNED_UNREAD[case]


class TestSharedParser:
    def test_one_parser_per_process_never_at_import(self, tmp_path):
        # counts top-level parsers (the verbs' subparsers have prog "gmfkit <verb>")
        script = textwrap.dedent("""
            import argparse, contextlib, io
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                built.append(kwargs.get("prog") == "gmfkit")
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            import gmfkit.cli
            at_import = sum(built)
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [gmfkit.cli.run(["kappa", "gamma0:11"]), gmfkit.cli.run(["cusps", "gamma0:14"])]
            print(at_import, sum(built), *codes)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmfkit.__file__)))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                              cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == ["0", "1", "0", "0"]

    def test_output_flag_does_not_stick(self, capsys, tmp_path, f11_path):
        target = tmp_path / "out.json"
        assert invoke(capsys, "pow", "--f", f11_path, "--m", "1", "--output", str(target)) == (0, "")
        written = target.read_text()
        code, out = invoke(capsys, "pow", "--f", f11_path, "--m", "1")
        assert code == 0 and out == written
        assert target.read_text() == written

    def test_field_flag_does_not_stick(self, capsys, f11_path):
        promoted = invoke_json(capsys, "logderiv", "--f", f11_path, "--field", "cyclotomic:5")
        assert promoted["field"] == {"kind": "cyclotomic", "conductor": 5}
        assert invoke_json(capsys, "logderiv", "--f", f11_path)["field"] == {"kind": "rational"}

    def test_usage_error_then_valid_call(self, capsys):
        assert run(["kappa"]) == 1
        capsys.readouterr()
        assert invoke(capsys, "kappa", "gamma0:11")[0] == 0


class TestClosedStdout:
    # The reader goes away, as in `gmfkit cosets gamma0:2000 | head -2`:
    # either before a short output leaves the stdout buffer (it fails at the
    # final flush) or after a few bytes of an output larger than the 64 KiB
    # pipe buffer (it fails inside print).
    @pytest.mark.parametrize(
        "argv, read",
        [(["kappa", "gamma0:11"], 0), (["cosets", "gamma0:2000"], 16)],
        ids=["at-final-flush", "inside-print"],
    )
    def test_reader_closing_early_is_not_an_error(self, argv, read):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gmfkit.__file__)))
        env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as in a shell pipeline
        proc = subprocess.Popen(
            [sys.executable, "-m", "gmfkit.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        if read:
            assert proc.stdout.read(read)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()


# ----------------------------------------------------------------------
# fuzzing: no JSON input file may end in anything but exit 0, 1 or 2

SCALARS = (
    st.none() | st.booleans() | st.integers(-40, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["1", "-2/3", "0", "1/0", "x", "", " 5 "]) | st.text(max_size=4)
)
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
COEFFS = st.sampled_from(["1", "-1", "2", "1/2", "0", "-3/4"]) | st.integers(-5, 5)
CYCLOTOMIC_COEFFS = st.one_of(  # phi(3) = phi(4) = 2 coordinates, or a wrong count
    st.lists(COEFFS, min_size=2, max_size=2), st.lists(COEFFS, min_size=1, max_size=3)
)
FIELDS = st.sampled_from([
    {"kind": "rational"},
    {"kind": "cyclotomic", "conductor": 3},
    {"kind": "cyclotomic", "conductor": 4},
]) | st.integers(1, 10**6).map(lambda m: {"kind": "cyclotomic", "conductor": m})


@st.composite
def near_valid_series(draw):
    """A valid series object, in about half the draws spoiled in one place:
    a field or a coefficient replaced by arbitrary JSON, or a key dropped."""
    lead = draw(st.integers(-3, 3))
    size = draw(st.integers(0, 12))
    field = draw(FIELDS)
    coeff = CYCLOTOMIC_COEFFS if field["kind"] == "cyclotomic" and draw(st.booleans()) else COEFFS
    coeffs = draw(st.lists(coeff, min_size=size, max_size=size))
    if coeffs and draw(st.booleans()):
        coeffs[0] = "1"  # normalized, as certify and decompose require
    obj = {
        "level": draw(st.sampled_from([1, 1, 2, 11])),
        "lead": lead,
        "precision": lead + size,
        "field": field,
        "coeffs": coeffs,
    }
    spoil = draw(st.sampled_from([None, None, None, "replace", "drop", "coeff", "coeffs"]))
    if spoil == "coeff" and coeffs:
        coeffs[draw(st.integers(0, size - 1))] = draw(SCALARS)
    elif spoil == "coeffs":  # a string or an object as long as the window
        digits = draw(st.text("0123456789", min_size=size, max_size=size))
        obj["coeffs"] = draw(st.sampled_from([digits, {str(n): c for n, c in enumerate(coeffs)}]))
    elif spoil is not None:
        key = draw(st.sampled_from(sorted(obj)))
        if spoil == "drop":
            del obj[key]
        else:
            obj[key] = draw(ANY_JSON)
    return obj


# kappa(Gamma_0(11)) = 1, so a usable prefix there has two entries
NEAR_VALID_PREFIX = st.one_of(
    st.tuples(st.just("1"), COEFFS).map(list), st.lists(COEFFS | CYCLOTOMIC_COEFFS | SCALARS, max_size=4)
)
SERIES_FILES = st.one_of(near_valid_series(), near_valid_series(), ANY_JSON)
PREFIX_FILES = st.one_of(
    NEAR_VALID_PREFIX, st.builds(lambda p: {"prefix": p}, NEAR_VALID_PREFIX), ANY_JSON
)
GROUP = ["--group", "gamma0:11", "--prec", "6"]
VERBS = [
    ["logderiv", "--f", "F"],
    ["mul", "--f", "F", "--g", "G"],
    ["inv", "--f", "F"],
    ["pow", "--f", "F", "--m", "2"],
    ["rescale", "--f", "F", "--level", "2"],
    ["certify", "--f", "F", *GROUP],
    ["certify", "--f", "F", "--prefix", "P", *GROUP],
    ["decompose", "--f", "F", "--prefix", "P", *GROUP],
]


GROUPS = st.builds(
    "{}:{}".format,
    st.sampled_from(["gamma0", "gamma1", "gamma"]),
    # small levels, or levels past the index cap up to 10^30; levels between
    # would only build tables of up to MAX_INDEX cosets
    st.integers(-2, 30) | st.integers(MAX_INDEX + 1, 10**30),
)


@functools.cache
def gamma0_11_objects():
    """A Gamma_0(11) series f, its basis file and its decomposition at 6
    terms, as JSON objects; the prefix ["1", "-2"] fits f."""
    g = eta_quotient_expansion(EtaQuotient(((1, 2), (11, 2)), 11), 14)
    f = g * exp_from_logderiv(g.truncate(10).scale(3), 10)
    group = GroupDescriptor.parse("gamma0:11")
    basis = CuspFormBasis(group, (g,))
    dec = decompose_with_prefix(PGMF(f, group), [1, -2], basis, 6)
    return {
        "f": jsonio.series_to_obj(f),
        "basis": {"group": "gamma0:11", "forms": [jsonio.series_to_obj(g)]},
        "dec": decomposition_to_obj(dec),
    }


def spoil_key(draw, obj, values):
    """Drop one key of obj, or replace its value by a draw from values."""
    key = draw(st.sampled_from(sorted(obj)))
    if draw(st.booleans()):
        del obj[key]
    else:
        obj[key] = draw(values)


@st.composite
def near_valid_basis(draw):
    """The Gamma_0(11) basis file, in most draws spoiled in one place: a
    key dropped or replaced by arbitrary JSON, another group, or the forms
    near-valid."""
    obj = copy.deepcopy(gamma0_11_objects()["basis"])
    spoil = draw(st.sampled_from([None, "key", "group", "forms"]))
    if spoil == "key":
        spoil_key(draw, obj, ANY_JSON)
    elif spoil == "group":
        obj["group"] = draw(ANY_JSON | st.sampled_from(["gamma0:12", "gamma:11", " gamma0:11 "]))
    elif spoil == "forms":
        obj["forms"] = draw(st.lists(near_valid_series() | st.just(obj["forms"][0]), max_size=3))
    return obj


@st.composite
def near_valid_decomposition(draw):
    """The Gamma_0(11) decomposition, in most draws spoiled in one place: a
    key dropped or replaced by arbitrary JSON, a near-valid series in place
    of f1, f0 or g0, or other basis coordinates."""
    obj = copy.deepcopy(gamma0_11_objects()["dec"])
    spoil = draw(st.sampled_from([None, "key", "key", "series", "coords"]))
    if spoil == "key":
        spoil_key(draw, obj, ANY_JSON)
    elif spoil == "series":
        obj[draw(st.sampled_from(["f1", "f0", "g0"]))] = draw(near_valid_series())
    elif spoil == "coords":
        obj["basis_coords"] = draw(st.lists(COEFFS | SCALARS, max_size=3) | st.sampled_from(["3", "", {}]))
    return obj


def run_on_files(verb, objects):
    """(exit code, stdout) of the verb with each placeholder argument that
    names an object replaced by the path of a JSON file holding it."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, obj in objects.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run([paths.get(arg, arg) for arg in verb])
    return code, out.getvalue()


def assert_clean_exit(code, out):
    assert code in (0, 1, 2)
    if code == 2:
        assert "error_kind" in json.loads(out)


F11_FILES = st.one_of(st.deferred(lambda: st.just(gamma0_11_objects()["f"])), near_valid_series())
BASIS_FILES = st.one_of(near_valid_basis(), near_valid_basis(), ANY_JSON)
DEC_FILES = st.one_of(near_valid_decomposition(), near_valid_decomposition(), ANY_JSON)
BASIS_VERBS = [
    ["validate-basis", "--group", "gamma0:11", "--prec", "6", "--basis", "B"],
    ["decompose", "--f", "F", "--prefix", "P", *GROUP, "--basis", "B"],
    ["certify", "--f", "F", *GROUP, "--basis", "B"],
]


class TestFuzz:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["kappa", "cusps", "cosets"]), GROUPS)
    def test_arbitrary_group_levels(self, verb, group):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = run([verb, group])
        assert code in (0, 2)
        if code == 2:
            assert json.loads(out.getvalue())["error_kind"] in ("bad-group-descriptor",
                                                                "unsupported-group")

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(VERBS), SERIES_FILES, SERIES_FILES, PREFIX_FILES)
    def test_arbitrary_json_inputs(self, verb, f_obj, g_obj, prefix_obj):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, obj in (("F", f_obj), ("G", g_obj), ("P", prefix_obj)):
                paths[name] = os.path.join(tmp, name + ".json")
                with open(paths[name], "w", encoding="utf-8") as handle:
                    json.dump(obj, handle)
            argv = [paths.get(arg, arg) for arg in verb]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = run(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert "error_kind" in json.loads(out.getvalue())

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(BASIS_VERBS), F11_FILES, BASIS_FILES)
    def test_arbitrary_basis_files(self, verb, f_obj, basis_obj):
        assert_clean_exit(*run_on_files(verb, {"F": f_obj, "P": ["1", "-2"], "B": basis_obj}))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.booleans(), F11_FILES, DEC_FILES)
    def test_arbitrary_decomposition_files(self, with_basis, f_obj, dec_obj):
        verb = ["verify", "--f", "F", "--dec", "D", "--group", "gamma0:11"]
        verb += ["--with-basis"] if with_basis else []
        assert_clean_exit(*run_on_files(verb, {"F": f_obj, "D": dec_obj}))
