"""Helpers for exact rationals, their serialized form, and parameter checks.

All probabilities and payoffs in this library are ``fractions.Fraction``
values.  On the wire they travel as ``"num/den"`` strings so that files
round-trip bit-exactly; decimals are rendered alongside for humans.

Each parameter range is checked by one function here: the open unit
interval (discount factor, welfare weight), the closed one (uninformative
mass, beliefs), positive rationals (tolerance), any rational (likelihoods)
and integers with a floor (horizon, stickiness, agent index, counts).
:func:`best_approximation` is ``Fraction.limit_denominator`` on integers.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import CapExceeded, DegenerateParameter, ParseError, ValidationError

QUARTER = Fraction(1, 4)

#: Parameter names as errors give them.
DISCOUNT = "discount factor delta"
WEIGHT = "welfare weight alpha"

# What Fraction() raises for NaN, infinity or a non-number.
_NOT_RATIONAL = (TypeError, ValueError, OverflowError, ZeroDivisionError)


def parse_rational(text) -> Fraction:
    """Parse ``"num/den"``, integer, or exact decimal strings to a Fraction.

    A bool is not a number here, so ``true`` in a config is a parse error."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def rational(value, name: str) -> Fraction:
    """``value`` as a Fraction, else :class:`ValidationError`; a bool is not one."""
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except _NOT_RATIONAL:
            pass
    raise ValidationError(f"{name} is not a rational: {value!r}")


def open_unit(value, name: str) -> Fraction:
    """``value`` as a Fraction strictly inside (0, 1), else
    :class:`DegenerateParameter`; NaN and infinity are out of range too."""
    try:
        x = Fraction(value)
        if 0 < x.numerator < x.denominator:
            return x
    except _NOT_RATIONAL:
        pass
    raise DegenerateParameter(f"{name} must lie in (0, 1): {value}")


def closed_unit(value, name: str) -> Fraction:
    """``value`` as a Fraction in [0, 1], else :class:`ValidationError`."""
    try:
        x = Fraction(value)
        if 0 <= x.numerator <= x.denominator:
            return x
    except _NOT_RATIONAL:
        pass
    raise ValidationError(f"{name} outside [0, 1]: {value}")


def positive(value, name: str) -> Fraction:
    """``value`` as a Fraction greater than 0, else :class:`ValidationError`."""
    try:
        x = Fraction(value)
        if x.numerator > 0:
            return x
    except _NOT_RATIONAL:
        pass
    raise ValidationError(f"{name} must be positive: {value}")


def int_at_least(value, least: int, name: str) -> int:
    """``value`` if it is an ``int`` (not a bool) of at least ``least``, else
    :class:`ValidationError`: a float would carry floats into exact code."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}: {value}")
    return value


def best_approximation(n: int, d: int, cap: int) -> tuple:
    """``(p, q)``, the integers of ``Fraction(n, d).limit_denominator(cap)``.

    ``d > 0``; ``n`` may be negative and ``n/d`` unreduced.  Runs the
    stdlib's continued-fraction expansion with one ``divmod`` per step and
    picks between its two candidates with the stdlib's integer test
    ``2*r*(q0 + k*q1) <= den`` (``r`` the last remainder), which decides
    ties as the ``Fraction`` comparison does.  A common factor of ``n`` and
    ``d`` changes neither the partial quotients nor that test, so only the
    early return for ``d <= cap`` takes a gcd.  The loop tracks only the
    denominators ``q``: after ``j`` steps the remainders are ``(-1)**j *
    (q0*n - p0*d)`` and ``(-1)**j * (p1*d - q1*n)``, so each numerator is
    recovered from them with one exact division.  A zero remainder means
    the value itself fits the cap.  Builds no ``Fraction``.
    """
    if cap < 1:
        raise ValueError("cap should be at least 1")
    if d <= cap:
        g = math.gcd(n, d)
        return n // g, d // g
    n0, den = n, d
    q0, q1, s = 1, 0, 1  # s = (-1)**j after j accepted steps
    try:
        while True:
            a, r = divmod(n, d)
            q2 = q0 + a * q1
            if q2 > cap:
                break
            q0, q1, s = q1, q2, -s
            n, d = d, r
    except ZeroDivisionError:  # d == 0: p1/q1 is n0/den in lowest terms
        return q1 * n0 // den, q1
    k = (cap - q0) // q1
    q = q0 + k * q1
    if 2 * d * q <= den:
        return (q1 * n0 + s * d) // den, q1
    return (q * n0 - s * (n - k * d)) // den, q


def format_rational(q: Fraction) -> str:
    """Canonical ``num/den`` rendering (denominator always explicit).

    Past the interpreter's limit on the digits of an integer converted to
    a string (4300 by default), raises :class:`CapExceeded` naming it."""
    q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits() allows
        raise CapExceeded(f"exact result exceeds {sys.get_int_max_str_digits()} digits") from exc


def format_decimal(x) -> str:
    """Fixed-width decimal rendering at 12 significant digits."""
    return f"{float(x):.12g}"
