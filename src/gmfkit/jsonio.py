"""JSON interchange for series and related values.

Integers inside rationals are carried as decimal strings so round trips
are bit-exact; emission is canonical (sorted keys, fixed indentation), so
re-emitting a re-parsed document reproduces it byte for byte.  A series'
text is read and written straight from its stored integer form (the
coordinates ``nums`` over one denominator ``den``): each coordinate is
written reduced by one gcd with ``den``, and the coordinates read are put,
as written, over the lcm of their denominators, whose common factor with
the numerators one running gcd divides out, so no field element is built
on either side.
Integers past the interpreter's int/str digit limit are written and read
through ``decimal`` rather than by raising that process-wide limit;
reading takes at most ``MAX_RATIONAL_DIGITS`` digits per integer.
"""

from __future__ import annotations

import json
import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import MalformedInputError
from .numberfield import RATIONAL, CyclotomicElement, FieldTag, _over_lcm
from .qseries import QExpansion, _lowest

# Digits of one integer read from JSON, bare or in a rational, where a
# decimal's digits are one integer (a cap, so that an input cannot make the
# reader run for minutes).
MAX_RATIONAL_DIGITS = 100_000

# gmfkit's own form: an integer or a ratio of integers, in ASCII digits
_RATIONAL = re.compile(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*")
# the one other form: a decimal, with a digit on at least one side of its point
_DECIMAL = re.compile(r"\s*([+-]?)(?=\.?[0-9])([0-9]*)\.([0-9]*)\s*")


def load_json_file(path):
    """Parse a JSON file (``-`` reads stdin); an unreadable file, text not in
    UTF-8 or not JSON, an integer past ``MAX_RATIONAL_DIGITS`` digits or JSON
    nested past the decoder's recursion limit raises MalformedInputError."""

    def parse_int(digits):
        if len(digits.lstrip("-")) > MAX_RATIONAL_DIGITS:
            raise MalformedInputError(f"{path}: JSON integer past {MAX_RATIONAL_DIGITS} digits")
        return _text_int(digits)

    try:
        if path == "-":
            return json.load(sys.stdin, parse_int=parse_int)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=parse_int)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise MalformedInputError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise MalformedInputError(f"{path}: {exc.strerror or exc}") from None


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        return str(Decimal(n))


def _text_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits()
        return int(Decimal(digits))


def _ratio_text(num: int, den: int) -> str:
    """``num / den`` (den > 0) in lowest terms, as ``"p"`` or ``"p/q"``."""
    g = gcd(num, den)
    if g == den:
        return _int_text(num // den)
    return f"{_int_text(num // g)}/{_int_text(den // g)}"


def format_rational(x) -> str:
    x = Fraction(x)
    return _ratio_text(x.numerator, x.denominator)


def _read_ratio(text):
    """(numerator, denominator > 0) of a rational as JSON carries it: a
    JSON integer or a string ``"p"``, ``"p/q"`` or a decimal, in ASCII
    digits, not reduced.  A decimal's digits, on both sides of its point,
    are one integer, over a power of ten."""
    if type(text) is int:  # JSON true is not a coefficient
        return text, 1
    if not isinstance(text, str):
        raise MalformedInputError(f"expected a rational string, got {text!r}")
    plain = text.replace("−", "-")
    match = _RATIONAL.fullmatch(plain) or _DECIMAL.fullmatch(plain)
    if match is None:
        if "e" in plain.lower():
            # Fraction would expand an exponent such as "1e2000000000" into all its digits
            raise MalformedInputError(f"bad rational {text[:40]!r}: exponent notation")
        # in Fraction's words, though Fraction also reads "1_0" and "１/２"
        raise MalformedInputError(f"bad rational {text!r}: Invalid literal for Fraction: {plain.strip()!r}")
    sign, num, den = match.groups("")
    power = 0
    if match.re is _DECIMAL:  # "0.25" is 25 / 10 ** 2
        num, power, den = num + den, len(den), ""
    if max(len(num), len(den)) > MAX_RATIONAL_DIGITS:
        raise MalformedInputError(
            f"bad rational {text[:40]!r}...: more than {MAX_RATIONAL_DIGITS} digits"
        )
    try:
        num = _text_int(sign + num)
        if not den:
            return num, 10**power
        den = _text_int(den)
        if not den:
            raise ZeroDivisionError(f"Fraction({num}, 0)")  # as Fraction words it
        return num, den
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad rational {text!r}: {exc}") from None


def parse_rational(text) -> Fraction:
    return Fraction(*_read_ratio(text))


def field_to_obj(tag: FieldTag) -> dict:
    if tag.is_rational_field:
        return {"kind": "rational"}
    return {"kind": "cyclotomic", "conductor": tag.conductor}


def field_from_obj(obj) -> FieldTag:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInputError(f"bad field object {obj!r}")
    if obj["kind"] == "rational":
        return RATIONAL
    if obj["kind"] == "cyclotomic":
        m = obj.get("conductor")
        if type(m) is not int or m < 1:  # JSON true is not a conductor
            raise MalformedInputError(f"bad conductor {m!r}")
        return FieldTag.cyclotomic(m)
    raise MalformedInputError(f"unknown field kind {obj['kind']!r}")


def _coordinates(obj, tag: FieldTag):
    """(numerator, denominator) of each power-basis coordinate of one
    coefficient read from JSON; over Q(zeta_m) a lone rational is the first
    coordinate."""
    if tag.is_rational_field:
        return [_read_ratio(obj)]
    if isinstance(obj, (str, int)):
        return [_read_ratio(obj)] + [(0, 1)] * (tag.degree - 1)
    if not isinstance(obj, list):
        raise MalformedInputError(f"bad cyclotomic coefficient {obj!r}")
    if len(obj) != tag.degree:
        raise MalformedInputError(f"expected {tag.degree} coordinates, got {len(obj)}")
    return [_read_ratio(c) for c in obj]


def element_from_obj(obj, tag: FieldTag):
    coords = [Fraction(*c) for c in _coordinates(obj, tag)]
    return coords[0] if tag.is_rational_field else CyclotomicElement(tag.conductor, coords)


def series_to_obj(f: QExpansion) -> dict:
    den = f.den
    texts = [_ratio_text(x, den) for x in f.nums]
    if not f.field.is_rational_field:
        deg = f.field.degree
        texts = [texts[i : i + deg] for i in range(0, len(texts), deg)]
    return {
        "level": f.level,
        "lead": f.lead,
        "precision": f.precision,
        "field": field_to_obj(f.field),
        "coeffs": texts,
    }


def require_json(obj, kind, message):
    """``obj`` if it is a JSON array (``kind`` list) or object (``kind``
    dict), so that no string or object is read where an array belongs."""
    if not isinstance(obj, kind):
        raise MalformedInputError(message)
    return obj


def series_from_obj(obj) -> QExpansion:
    require_json(obj, dict, "series object must be a JSON object")
    missing = {"level", "lead", "precision", "field", "coeffs"} - set(obj)
    if missing:
        raise MalformedInputError(f"series object missing keys: {sorted(missing)}")
    level, lead, precision = obj["level"], obj["lead"], obj["precision"]
    if not all(type(v) is int for v in (level, lead, precision)):  # JSON true is not an integer
        raise MalformedInputError("level, lead and precision must be integers")
    tag = field_from_obj(obj["field"])
    coeffs = require_json(obj["coeffs"], list, "series coeffs must be a JSON array")
    ratios = [r for c in coeffs for r in _coordinates(c, tag)]
    if len(coeffs) != precision - lead:
        raise MalformedInputError(
            f"{len(coeffs)} coefficients do not fill the window [{lead}, {precision})"
        )
    return QExpansion._from_integers(level, lead, *_lowest(*_over_lcm(ratios)), precision, tag)


def check_entry(name: str, passed, failure: str, success: str | None = None) -> dict:
    """One entry of a check report: ``passed`` is True, False or None
    (skipped), and the detail is ``failure`` unless the check passed."""
    return {"check": name, "passed": passed, "detail": success if passed else failure}


def all_checks_passed(report) -> bool:
    return all(entry["passed"] is not False for entry in report)


def prefix_from_obj(obj, tag: FieldTag):
    if isinstance(obj, dict) and "prefix" in obj:
        obj = obj["prefix"]
    require_json(obj, list, "prefix file must hold a JSON array of coefficients")
    return [element_from_obj(c, tag) for c in obj]
