"""Series JSON read and written from the stored integer form, against a
reference built from the field elements with ``format_rational``, the
error a bad coordinate gives, and how a file's bytes and bare integers are
read."""

import json
import re
import sys
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit import jsonio
from gmfkit.cli import run
from gmfkit.errors import MalformedInputError
from gmfkit.etaforms import load_basis
from gmfkit.numberfield import CyclotomicElement, FieldTag
from gmfkit.qseries import QExpansion
from gmfkit.subgroup import GAMMA0, GroupDescriptor

# past CPython's default int/str digit limit of 4,300 on both sides
HUGE = F(-(7**5916), 3**10478)

COORDINATE = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-40, max_value=40, max_denominator=30),
    st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
    st.sampled_from([HUGE, -HUGE, 1 / HUGE]),
)
# Q, the degree-1 cyclotomic fields Q(zeta_1) and Q(zeta_2), and Q(zeta_m), m <= 12
FIELD = st.sampled_from([None, 1, 2, *range(3, 13)]).map(FieldTag)


@st.composite
def series(draw):
    tag = draw(FIELD)

    def element():
        coords = draw(st.lists(COORDINATE, min_size=tag.degree, max_size=tag.degree))
        return coords[0] if tag.is_rational_field else CyclotomicElement(tag.conductor, coords)

    lead = draw(st.integers(-3, 3))
    coeffs = [element() for _ in range(draw(st.integers(0, 6)))]
    precision = lead + len(coeffs) + draw(st.integers(0, 2))
    return QExpansion(draw(st.integers(1, 12)), lead, coeffs, precision, tag)


def reference_obj(s):
    """The series object written from the field elements."""
    def text(c):
        if s.field.is_rational_field:
            return jsonio.format_rational(c)
        return [jsonio.format_rational(x) for x in c.coords]

    return {"level": s.level, "lead": s.lead, "precision": s.precision,
            "field": jsonio.field_to_obj(s.field), "coeffs": [text(c) for c in s.coeffs]}


def assert_read_back(obj, expected):
    """``obj`` reads as ``expected``, hash included, in canonical form."""
    s = jsonio.series_from_obj(obj)
    assert s == expected and hash(s) == hash(expected)
    assert s.den > 0 and gcd(s.den, *s.nums) == 1


@settings(max_examples=80, deadline=None)
@given(series())
def test_integer_form_text_is_the_element_text(s):
    obj = jsonio.series_to_obj(s)
    assert obj == reference_obj(s)
    assert_read_back(obj, s)


@pytest.mark.parametrize("conductor", [None, 1, 2, 7, 12])
def test_zero_series(conductor):
    s = QExpansion.zero(5, 3, FieldTag(conductor))
    obj = jsonio.series_to_obj(s)
    assert obj == reference_obj(s) and obj["coeffs"] == []
    assert_read_back(obj, s)


def test_coordinate_past_the_digit_limit():
    s = QExpansion(1, -1, [HUGE, 0, -1 / HUGE], 3)
    obj = jsonio.series_to_obj(s)
    assert obj == reference_obj(s)
    assert_read_back(obj, s)


# spellings the reader accepts though the writer never makes them, and
# their values; the JSON integers 0 and 7 are read as rationals too, and the
# last two decimals are past the interpreter's int/str digit limit
ODD = ["2/4", "+3", " 5 ", "-0", "0.25", "−1/2", 7, "-.5", "1" * 5000 + ".5", "0." + "3" * 5000]
VALUES = [F(1, 2), F(3), F(5), F(0), F(1, 4), F(-1, 2), F(7), F(-1, 2),
          F(int(Decimal("1" * 5000 + "5")), 10), F(int(Decimal("3" * 5000)), 10**5000)]


@pytest.mark.parametrize("conductor", [None, 1, 2, 5, 12])
def test_odd_spellings(conductor):
    tag = FieldTag(conductor)
    # leading zeros, each spelling as a lone rational, and over Q(zeta_m)
    # each spelling at every coordinate of a coefficient in turn
    coeffs, elements = ["-0", 0] + ODD, [F(0), F(0)] + VALUES
    if not tag.is_rational_field:
        for i in range(len(ODD)):
            turn = [(i + j) % len(ODD) for j in range(tag.degree)]
            coeffs.append([ODD[k] for k in turn])
            elements.append(CyclotomicElement(tag.conductor, [VALUES[k] for k in turn]))
    obj = {"level": 2, "lead": -1, "precision": len(coeffs),
           "field": jsonio.field_to_obj(tag), "coeffs": coeffs + ["0"]}
    assert_read_back(obj, QExpansion(2, -1, elements + [0], len(coeffs), tag))


@pytest.mark.parametrize("conductor", [None, 5])
def test_unreduced_coordinates(conductor):
    # every coordinate shares the factor 2 with its denominator 6, so that
    # only the reduction of each coordinate read brings the lcm down to 3
    tag = FieldTag(conductor)
    coeffs = ["2/6", "4/6"]
    if not tag.is_rational_field:
        coeffs = [["2/6", "4/6", "-4/6", "0/6"], ["4/6", "2/6", "2/6", "-2/6"]]
    elements = [F(c) if isinstance(c, str) else CyclotomicElement(5, [F(x) for x in c])
                for c in coeffs]
    obj = {"level": 1, "lead": 0, "precision": 2, "field": jsonio.field_to_obj(tag),
           "coeffs": coeffs}
    assert jsonio.series_from_obj(obj).den == 3
    assert_read_back(obj, QExpansion(1, 0, elements, 2, tag))


def fraction_error(num_text):
    """What Fraction says of the numerator ``num_text`` over 0."""
    try:
        F(int(Decimal(num_text)), 0)
    except (ValueError, ZeroDivisionError) as exc:
        return str(exc)


Z3 = {"kind": "cyclotomic", "conductor": 3}
TALL_NUMERATOR = "7" * 5000
# (coefficients, field, level) of a series file and the message of the
# error JSON (exit 2, malformed-input) that `logderiv` answers, as recorded
# before series text was read straight into the integer form
COORDINATE_ERRORS = {
    "zero-denominator": (["1", "1/0"], None, 1, "bad rational '1/0': Fraction(1, 0)"),
    "exponent": (["1", "1e5"], None, 1, "bad rational '1e5': exponent notation"),
    "not-a-number": (["1", "abc"], None, 1, "bad rational 'abc': Invalid literal for Fraction: 'abc'"),
    "json-true": (["1", True], None, 1, "expected a rational string, got True"),
    "json-float": (["1", 1.5], None, 1, "expected a rational string, got 1.5"),
    "digit-cap": (["1", "9" * (jsonio.MAX_RATIONAL_DIGITS + 1)], None, 1,
                  f"bad rational '{'9' * 40}'...: more than {jsonio.MAX_RATIONAL_DIGITS} digits"),
    "coordinate-count": ([["1", "0"], ["1"]], Z3, 1, "expected 2 coordinates, got 1"),
    "dict-coefficient": ([["1", "0"], {"1": "0"}], Z3, 1, "bad cyclotomic coefficient {'1': '0'}"),
    "level-0": (["1", "abc"], None, 0, "bad rational 'abc': Invalid literal for Fraction: 'abc'"),
    "zero-denominator-tall": (["1", TALL_NUMERATOR + "/0"], None, 1,
                              f"bad rational '{TALL_NUMERATOR}/0': {fraction_error(TALL_NUMERATOR)}"),
    # ASCII digits only: Fraction reads these as 1/2, 3, 10 and 21/2
    "fullwidth-digits": (["1", "１/２"], None, 1,
                         "bad rational '１/２': Invalid literal for Fraction: '１/２'"),
    "arabic-indic-digit": (["1", "٣"], None, 1, "bad rational '٣': Invalid literal for Fraction: '٣'"),
    "underscore": (["1", "1_0"], None, 1, "bad rational '1_0': Invalid literal for Fraction: '1_0'"),
    "underscore-decimal": (["1", "1_0.5"], None, 1,
                           "bad rational '1_0.5': Invalid literal for Fraction: '1_0.5'"),
    "point-alone": (["1", "-."], None, 1, "bad rational '-.': Invalid literal for Fraction: '-.'"),
    # a decimal's digits, on both sides of its point, are one integer
    "decimal-digit-cap": (["1", "1" * jsonio.MAX_RATIONAL_DIGITS + ".5"], None, 1,
                          f"bad rational '{'1' * 40}'...: more than {jsonio.MAX_RATIONAL_DIGITS} digits"),
}


@pytest.mark.parametrize("case", sorted(COORDINATE_ERRORS))
def test_coordinate_error_pinned(capsys, tmp_path, case):
    coeffs, field, level, message = COORDINATE_ERRORS[case]
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"level": level, "lead": 0, "precision": len(coeffs),
                                "field": field or {"kind": "rational"}, "coeffs": coeffs}))
    code = run(["logderiv", "--f", str(path)])
    error = json.loads(capsys.readouterr().out)
    assert (code, error) == (2, {"error_kind": "malformed-input", "message": message})


def series_text(coefficient):
    """A level-1 rational series file whose second coefficient is the JSON
    text ``coefficient`` (written by hand: json.dumps refuses an int past
    the interpreter's int/str digit limit)."""
    return ('{"level": 1, "lead": 0, "precision": 3, "field": {"kind": "rational"}, '
            f'"coeffs": ["1", {coefficient}, "0"]}}')


@pytest.mark.parametrize("digits", ["7" * 5000, "-" + "7" * 5000, "1" + "0" * 4300],
                         ids=["tall", "tall-negative", "one-past-limit"])
def test_bare_integer_reads_as_its_string(capsys, tmp_path, digits):
    # past the interpreter's 4,300-digit int/str limit a bare JSON integer
    # gives the series its string gives, and the limit is left as it was
    limit = sys.get_int_max_str_digits()
    outs = []
    for name, text in (("bare", digits), ("string", f'"{digits}"')):
        path = tmp_path / f"{name}.json"
        path.write_text(series_text(text))
        assert jsonio.series_from_obj(jsonio.load_json_file(str(path))).coeff(1) == int(Decimal(digits))
        assert run(["logderiv", "--f", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert sys.get_int_max_str_digits() == limit


def test_bare_integer_digit_cap(capsys, tmp_path):
    # the cap counts digits, not the sign
    cap = jsonio.MAX_RATIONAL_DIGITS
    path = tmp_path / "at-cap.json"
    path.write_text(f"[-{'9' * cap}]")
    assert jsonio.load_json_file(str(path)) == [-int(Decimal("9" * cap))]
    path = tmp_path / "past-cap.json"
    path.write_text(series_text("9" * (cap + 1)))
    assert run(["logderiv", "--f", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error_kind": "malformed-input",
        "message": f"{path}: JSON integer past {cap} digits",
    }


def test_file_not_utf8_names_itself(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"group": "gamma0:11"}'.encode("utf-16-le"))
    assert run(["logderiv", "--f", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error_kind"] == "malformed-input"
    assert error["message"].startswith(f"{path}: not valid JSON ('utf-8' codec can't decode")
    # library callers get the same error, not the raw UnicodeDecodeError
    with pytest.raises(MalformedInputError, match=f"^{re.escape(str(path))}: not valid JSON"):
        load_basis(GroupDescriptor(GAMMA0, 11), 10, str(path))
