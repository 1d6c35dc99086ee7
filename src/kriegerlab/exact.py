"""Scalar helpers shared across the package.

Two arithmetic modes exist: ``rational`` (every scalar is a
:class:`fractions.Fraction`, all comparisons exact) and ``float``
(IEEE-754 doubles, used for templates that involve transcendental
functions).  The mode travels with each spec and is recorded in every
certificate derived from it.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import Union

Num = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

MODES = (RATIONAL, FLOAT)


class ScalarError(ValueError):
    pass


def parse_scalar(value, mode: str) -> Num:
    """Parse a scalar from spec-file data.

    Rationals are written bit-exactly as ``"p/q"`` strings (plain
    integers and decimal strings are also accepted and converted
    exactly).  Float mode converts the result to a double.
    """
    if isinstance(value, bool):
        raise ScalarError(f"not a scalar: {value!r}")
    if isinstance(value, Fraction):
        x = value
    elif isinstance(value, int):
        x = Fraction(value)
    elif isinstance(value, float):
        if mode == RATIONAL:
            raise ScalarError(
                f"float literal {value!r} not allowed in rational mode; write 'p/q'")
        return value
    elif isinstance(value, str):
        try:
            x = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"cannot parse scalar {value!r}: {exc}") from None
    else:
        raise ScalarError(f"cannot parse scalar of type {type(value).__name__}")
    return as_mode(x, mode)


def format_scalar(x: Num):
    """JSON-ready form: Fractions as 'p/q' strings, floats as floats.

    Through ``Decimal``: ``str(int)`` has a digit limit that specs can pass.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(Decimal(x.numerator))
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    return x


def as_mode(x: Num, mode: str) -> Num:
    if mode == FLOAT:
        try:
            return float(x)
        except OverflowError:
            raise ScalarError(f"{_approx(x)} lies beyond the range of a float; "
                              "use rational mode") from None
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ScalarError(f"{x!r} is not exact; rational mode requires Fraction data")


def _approx(x) -> str:
    """An exact scalar to six significant digits, at any magnitude."""
    f = Fraction(x)
    return str((Decimal(f.numerator) / f.denominator).normalize(Context(prec=6)))


def is_exact(x: Num) -> bool:
    return isinstance(x, (Fraction, int))


def _numerators(weights) -> tuple:
    """(L, N) for exact weights: L the lcm of the denominators, N[i] = L * weights[i]."""
    lcm = math.lcm(*(w.denominator for w in weights))
    return lcm, tuple(w.numerator * (lcm // w.denominator) for w in weights)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ScalarError(f"unknown arithmetic mode {mode!r}; expected one of {MODES}")
    return mode
