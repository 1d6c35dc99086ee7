import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kriegerlab.exact import FLOAT, RATIONAL, ScalarError, format_scalar, parse_scalar


def _outcome(text, mode=RATIONAL):
    try:
        return parse_scalar(text, mode)
    except ScalarError as exc:
        return str(exc)


def _regex_path(text, mode=RATIONAL):
    """parse_scalar through Fraction's string parser alone."""
    try:
        x = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return f"cannot parse scalar {text!r}: {exc}"
    return float(x) if mode == FLOAT else x


@pytest.mark.parametrize("text", [
    "007/0012", "0/7", "00/1", "3/0", "3/000", "0/0", " 1/2", "1/2\n", "\t3/4 ", "+1/2", "-1/2",
    "1_000/3", "3/1_000", "١/٢", "1/٢", "1/²", "²/3", "1/2/3", "12", "-12", "0012", "1/", "/2", "/", "",
    "1.5/2", "1 /2", "1/ 2", "1/+2", "1/-2", "1e3/2", "2" * 5000 + "/3", "3/" + "2" * 5000,
    "1" * 4300 + "/7"], ids=lambda text: text if len(text) < 20 else f"{len(text)}-chars")
def test_parse_scalar_agrees_with_the_regex_path(text):
    got = _outcome(text)
    assert got == _regex_path(text)
    assert type(got) is type(_regex_path(text))


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("0123456789/+-_. ١²"), max_size=12))
def test_parse_scalar_agrees_with_the_regex_path_on_any_text(text):
    for mode in (RATIONAL, FLOAT):
        got = _outcome(text, mode)
        assert got == _regex_path(text, mode)
        assert type(got) is type(_regex_path(text, mode))


def _decimal_path(x: Fraction) -> str:
    if x.denominator == 1:
        return str(Decimal(x.numerator))
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


# on both sides of the 2048-bit fast path, and past str's 4300 digits (14,284 bits)
@pytest.mark.parametrize("bits", [1, 64, 2047, 2048, 8192, 14284, 20000])
@pytest.mark.parametrize("d", [-1, 0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_format_scalar_agrees_with_the_decimal_path(bits, d, sign):
    n = sign * (2 ** bits + d)
    for x in (Fraction(n), Fraction(n, 3), Fraction(1, n), Fraction(n, abs(n) + 2)):
        assert format_scalar(x) == _decimal_path(x)


def test_format_scalar_fast_path_holds_under_the_least_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for n in (2 ** 2048 - 1, -(2 ** 2048), 2 ** 2049, 10 ** 700):
            assert format_scalar(Fraction(n, 7)) == _decimal_path(Fraction(n, 7))
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_scalar_passes_floats_through():
    assert format_scalar(0.5) == 0.5
