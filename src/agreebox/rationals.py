"""Exact rational parsing and formatting helpers.

Everything in the core is a fractions.Fraction.  Decimal input strings are
converted exactly ("0.5" becomes 1/2), so a box loaded from JSON written by
a float-producing pipeline still analyses exactly.
"""

from fractions import Fraction
from math import isfinite

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
        scientific = "e" in text or "E" in text
        try:
            if scientific and abs(int(text.replace("E", "e").rpartition("e")[2])) > MAX_DIGITS:
                raise ParseError(f"exponent beyond {MAX_DIGITS} in {value!r}")
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
        # with no exponent, neither part of q has more digits than the text
        may_be_long = scientific or len(text) > MAX_DIGITS
        if may_be_long and max(abs(q.numerator), q.denominator) >= _TOO_LONG:
            raise ParseError(f"rational with more than {MAX_DIGITS} digits: {value:.40}")
        return q
    raise ParseError(f"not a rational: {value!r}")


def rat_str(q: Fraction) -> str:
    """Canonical string form, "num/den" or bare integer."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_dec(q: Fraction) -> str:
    """Decimal approximation for plotting pipelines; exact when it terminates."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    if rem == 0:
        return f"{sign}{whole}"
    digits = []
    for _ in range(DEC_PLACES):
        rem *= 10
        d, rem = divmod(rem, q.denominator)
        digits.append(str(d))
        if rem == 0:
            break
    return f"{sign}{whole}." + "".join(digits)
