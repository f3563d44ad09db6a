"""Exact rational parsing and formatting helpers, and the JSON reader and writer.

Everything in the core is a fractions.Fraction.  Decimal input strings are
converted exactly ("0.5" becomes 1/2), so a box loaded from JSON written by
a float-producing pipeline still analyses exactly.  A string with an
underscore ("1_0") or with any character that is not ASCII is refused.
"""

from fractions import Fraction
from json import JSONDecodeError, JSONDecoder, dumps
from json.encoder import encode_basestring_ascii
from math import isfinite, lcm

from .errors import ParseError

# a literal with a decimal exponent beyond +-MAX_DIGITS, or with a numerator
# or denominator of more digits, is refused: a larger Fraction can hang the
# parse or exceed Python's int-to-str limit (4,300 digits) when printed
MAX_DIGITS = 4000
_TOO_LONG = 10**MAX_DIGITS
# decimal places written by rat_dec when the expansion does not terminate
DEC_PLACES = 12


def rat(value) -> Fraction:
    """Coerce a number or string ("1/2", "0.25", "3") to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    # bool is an int subclass, but JSON true is no probability: refused below
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):  # JSON NaN and Infinity parse to floats
            raise ParseError(f"not a rational: {value!r}")
        # treat a float as the decimal literal it prints as, not its binary value
        return Fraction(repr(value))
    if isinstance(value, str):
        text = value.strip()
        num, slash, den = text.partition("/")
        scientific = "e" in text or "E" in text
        try:
            if not value.isascii() or "_" in text:
                # Fraction and int read "1_0" as 10 (Fraction only from Python
                # 3.11 on), and digits and spaces of any script: all refused
                raise ParseError(f"not a rational: {value!r}")
            if num.isdigit() and (not slash or den.isdigit()):
                # "n" or "n/d" in ASCII digits, as rat_str writes it: the value
                # Fraction(text) parses, without its regular expression
                q = Fraction(int(num), int(den) if slash else 1)
            elif scientific and abs(int(text.replace("E", "e").rpartition("e")[2])) > MAX_DIGITS:
                raise ParseError(f"exponent beyond {MAX_DIGITS} in {value!r}")
            else:
                q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
        # with no exponent, neither part of q has more digits than the text
        may_be_long = scientific or len(text) > MAX_DIGITS
        if may_be_long and max(abs(q.numerator), q.denominator) >= _TOO_LONG:
            raise ParseError(f"rational with more than {MAX_DIGITS} digits: {value:.40}")
        return q
    raise ParseError(f"not a rational: {value!r}")


def over_common_den(qs):
    """(D, nums) for a sequence of rationals (Fractions or ints): D is the
    lcm of their denominators, and nums[i] = qs[i] * D, an int."""
    D = lcm(*(q.denominator for q in qs))
    return D, [q.numerator * (D // q.denominator) for q in qs]


def rat_str(q: Fraction) -> str:
    """Canonical string form, "num/den" or bare integer."""
    if not isinstance(q, (Fraction, int)):
        q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_dec(q: Fraction) -> str:
    """Decimal approximation for plotting pipelines; exact when it terminates.

    The expansion is cut, not rounded, after DEC_PLACES places; a
    terminating one loses its trailing zeros.
    """
    if not isinstance(q, (Fraction, int)):
        q = rat(q)
    n, d = q.numerator, q.denominator
    whole, rem = divmod(abs(n), d)
    sign = "-" if n < 0 else ""
    if rem == 0:
        return f"{sign}{whole}"
    places, rem = divmod(rem * 10**DEC_PLACES, d)
    digits = f"{places:0{DEC_PLACES}d}"
    return f"{sign}{whole}." + (digits if rem else digits.rstrip("0"))


# json.loads(text, parse_float=str) builds a decoder on every call
_DECODER = JSONDecoder(parse_float=str)


def json_doc(text: str):
    """json.loads(text, parse_float=str), a float kept as its text, on one
    shared decoder; bad JSON is a ParseError."""
    try:
        if text.startswith("\ufeff"):  # json.loads refuses a BOM; decode does not check
            raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from exc


def json_text(value) -> str:
    """json.dumps(value, indent=2), byte for byte, for an acyclic value
    whose dicts have str keys.

    With an indent the stdlib writes JSON through its pure-Python encoder;
    this joins dicts, lists and tuples directly, quotes strings with json's
    C escaper and writes exact ints with int.__repr__.  Every other scalar
    goes to json.dumps, which also raises on what JSON cannot hold.
    """
    return _json_text(value, "\n")


def _json_text(value, pad):
    # pad is a newline and the current indent; a container's items sit one level deeper
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [encode_basestring_ascii(item) if type(item) is str else _json_text(item, inner)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return dumps(value)
