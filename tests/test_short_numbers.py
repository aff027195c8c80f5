"""The spec reader's short shapes, ``[-]digits`` and ``[-]digits/digits``,
agree with ``Fraction(str)`` on every supported Python.

Over the alphabet below, which holds no space, ``+``, ``_``, ``.`` or ``e``,
``Fraction(str)`` reads alike on Python 3.10 to 3.13, so unlike
``test_number_reader.py`` these tests run on each.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbg.specfile import SpecError, _parse_number

# ASCII digits, ARABIC-INDIC DIGIT THREE, the sign the short reading takes
# and the fraction bar.
ALPHABET = "0123456789٣-/"


def fraction_outcome(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"line 1, column 1: not a number: {text!r}"


def reader_outcome(text):
    try:
        value = _parse_number(text, 1, 1)
    except SpecError as err:
        return str(err)
    assert type(value) is Fraction
    return value


@settings(max_examples=600, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=12))
def test_texts_from_the_alphabet(text):
    assert reader_outcome(text) == fraction_outcome(text)


@pytest.mark.parametrize("text", ["-0", "007", "-0/05", "٣/٤", "1/0", "-1/0", "1/-2", "--1",
                                  "/2", "2/", "-"])
def test_edges_of_the_short_reading(text):
    assert reader_outcome(text) == fraction_outcome(text)
