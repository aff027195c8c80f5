"""The spec number reader accepts exactly what Fraction(str) accepts."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbg.specfile import MAX_EXPONENT, SpecError, _parse_number

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the reader implements the grammar of Python 3.11's Fraction(str)")

# Digits (one of them non-ASCII: ARABIC-INDIC DIGIT THREE), separators,
# signs, spaces, and "d", which Python 3.11's Fraction pattern matches after
# a point but then refuses.
ALPHABET = "0123456789٣_./eEd+- \t"
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def fraction_outcome(text):
    """The value, or the SpecError text, decided by Fraction(str) itself."""
    exponent = _EXPONENT.search(text)
    try:
        too_large = exponent is not None and int(exponent[1]) > MAX_EXPONENT
    except ValueError:            # more digits than int() converts
        too_large = True
    try:   # Fraction(text) would build 10**exponent: check the rest with e0
        value = Fraction(text[:exponent.start()] + "e0" if too_large else text)
    except (ValueError, ZeroDivisionError):
        return f"line 1, column 1: not a number: {text!r}"
    if too_large:
        return f"line 1, column 1: exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude"
    try:
        str(value)
    except ValueError:
        return (f"line 1, column 1: {text!r} has more than {sys.get_int_max_str_digits()} "
                "digits in its numerator or denominator")
    return value


def reader_outcome(text):
    try:
        value = _parse_number(text, 1, 1)
    except SpecError as err:
        return str(err)
    assert type(value) is Fraction
    return value


def digits(max_runs=3):
    run = st.text(alphabet="0123456789٣", min_size=1, max_size=4)
    return st.lists(run, min_size=1, max_size=max_runs).map("_".join)


@st.composite
def well_formed(draw):
    """A number in the grammar, its exponent (if any) near +-MAX_EXPONENT."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    if draw(st.booleans()):
        return f"{sign}{draw(digits())}/{draw(digits())}"
    mantissa = draw(st.sampled_from(["{n}", "{n}.", "{n}.{d}", ".{d}"]))
    mantissa = mantissa.format(n=draw(digits()), d=draw(digits()))
    if not draw(st.booleans()):
        return sign + mantissa
    shift = draw(st.integers(MAX_EXPONENT - 6, MAX_EXPONENT + 6))
    marker = draw(st.sampled_from(["e", "E", "e+", "e-", "E-"]))
    written = draw(st.sampled_from([str(shift), f"0{shift}", f"{shift // 10}_{shift % 10}"]))
    return f"{sign}{mantissa}{marker}{written}"


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=12))
def test_texts_from_the_alphabet(text):
    assert reader_outcome(text) == fraction_outcome(text)


@settings(max_examples=300, deadline=None)
@given(well_formed(), st.sampled_from(["", " ", "\t "]), st.sampled_from(["", " "]))
def test_well_formed_numbers_near_the_exponent_limit(number, before, after):
    text = before + number + after
    assert reader_outcome(text) == fraction_outcome(text)


@pytest.mark.parametrize("text", [
    "0.25", "25e-2", "+1/2", "1_000", ".5", "5.", "1.e3", "٣/4", "1e10000",
    "0e10001", "1e10001", "1e" + "9" * 5000, "1" * 4301, "1." + "1" * 4301,
    "1" * 4300 + "e1", "1/0", "0/0", "1/2e3", "1.5/2", "1 000", "1__0", "_1",
    "1_", "1.d", "/2", ".", "e5", "--1"])
def test_spellings(text):
    assert reader_outcome(text) == fraction_outcome(text)
