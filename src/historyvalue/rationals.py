"""Helpers for exact rationals and their serialized form.

All probabilities and payoffs in this library are ``fractions.Fraction``
values.  On the wire they travel as ``"num/den"`` strings so that files
round-trip bit-exactly; decimals are rendered alongside for humans.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def parse_rational(text) -> Fraction:
    """Parse ``"num/den"``, integer, or exact decimal strings to a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    """Canonical ``num/den`` rendering (denominator always explicit)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def format_decimal(x) -> str:
    """Fixed-width decimal rendering at 12 significant digits."""
    return f"{float(x):.12g}"
