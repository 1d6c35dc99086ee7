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


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_scalar(value, mode: str) -> Num:
    """Parse a scalar from spec-file data.

    Rationals are written bit-exactly as ``"p/q"`` strings (plain
    integers and decimal strings are also accepted and converted
    exactly).  Float mode converts the result to a double.
    """
    # str first: a test against Fraction, an ABC, costs a call on a str
    if isinstance(value, str):
        p, slash, q = value.partition("/")
        try:
            if _is_digits(p) and (not slash or _is_digits(q)):
                x = Fraction(int(p), int(q) if slash else 1)   # the regex path's value and errors
            else:
                x = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"cannot parse scalar {value!r}: {exc}") from None
    elif isinstance(value, bool):
        raise ScalarError(f"not a scalar: {value!r}")
    elif isinstance(value, Fraction):
        x = value
    elif isinstance(value, int):
        x = Fraction(value)
    elif isinstance(value, float):
        if mode == RATIONAL:
            raise ScalarError(
                f"float literal {value!r} not allowed in rational mode; write 'p/q'")
        return value
    else:
        raise ScalarError(f"cannot parse scalar of type {type(value).__name__}")
    return as_mode(x, mode)


# str(int) refuses ints past a digit limit, 4300 by default and never below
# 640 (2126 bits) where it is set; at or below this bit length str is allowed
_STR_BITS = 2048


def format_scalar(x: Num):
    """JSON-ready form: Fractions as 'p/q' strings, floats as floats.

    Beyond :data:`_STR_BITS` through ``Decimal``: ``str(int)`` has a digit
    limit that specs can pass.
    """
    if isinstance(x, Fraction):
        if max(x.numerator.bit_length(), x.denominator.bit_length()) <= _STR_BITS:
            return str(x)
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
    ratios = [w.as_integer_ratio() for w in weights]
    lcm = math.lcm(*[d for _, d in ratios])
    return lcm, tuple([n * (lcm // d) for n, d in ratios])


def _exact_sum(values) -> Num:
    """sum(values), as one Fraction over the common denominator when every
    value is exact (0 when there are none)."""
    if all(map(is_exact, values)):
        lcm, nums = _numerators(values)
        return Fraction(sum(nums), lcm)
    return sum(values)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ScalarError(f"unknown arithmetic mode {mode!r}; expected one of {MODES}")
    return mode
