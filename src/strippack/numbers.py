"""Exact rational scalars: parsing, formatting, shared constants.

Sides, coordinates, areas and charges enter and leave as Fractions; inside,
the geometry runs on integers of one lattice, each value converted once, in
``packing._Lattice``.  Floats never enter: contact and tie-breaking
decisions are equality-sensitive, so one rounding error would corrupt them.
A ``p/q`` token of ASCII digits, as the program writes, is read on integers.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class ScalarParseError(ValueError):
    """A token could not be read as an exact rational."""


# the decimal exponent that ends a token such as ``1.5e-300``
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)$")


def _check_exponent(text: str) -> None:
    """Reject a decimal exponent whose magnitude reaches the interpreter's
    int-string digit limit: ``Fraction`` would compute ``10**exp`` before
    any range check (seconds for 1e-10000000), and a result with
    that many digits could not be printed."""
    m = _EXPONENT.search(text)
    if m is None:
        return
    digits = m.group(1).replace("_", "").lstrip("0") or "0"
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if len(digits) > len(str(limit)) or int(digits) >= limit:
        raise ScalarParseError(
            f"bad scalar token {text!r}: decimal exponent out of range "
            f"(magnitude must be below {limit})")


def scalar(text: str) -> Fraction:
    """Read a ``p/q`` or finite decimal token of the command line or of an
    instance or CSV file as a Fraction.

    A decimal is read exactly, never through a float: a float carries
    binary rounding that an exact pipeline must never absorb.
    """
    text = text.strip()
    if not text:
        raise ScalarParseError("empty scalar token")
    p, _, q = text.partition("/")
    ints = text.isascii() and p.isdigit() and q.isdigit()
    if not ints:
        _check_exponent(text)
    try:
        return Fraction(int(p), int(q)) if ints else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"bad scalar token {text!r}: {exc}") from exc


def format_scalar(x: Fraction) -> str:
    """Serialize as ``p/q`` with the denominator always present."""
    return f"{x.numerator}/{x.denominator}"


def format_units(v: int, scale: int) -> str:
    """``format_scalar(Fraction(v, scale))``, without the Fraction."""
    g = gcd(v, scale)
    return f"{v // g}/{scale // g}"
