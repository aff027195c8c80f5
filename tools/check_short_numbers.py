"""Check the spec reader's short numbers against ``Fraction(str)``.

    python3 tools/check_short_numbers.py [MAX_LENGTH]

Reads every text of length 1 to MAX_LENGTH (default 5) over the alphabet
``019٣-/`` (``٣`` is ARABIC-INDIC DIGIT THREE) with
``qbg.specfile._parse_number``, from whichever qbg the interpreter imports:
the installed package, or ``src/`` on ``PYTHONPATH``.  Each text must give
the ``Fraction`` that ``Fraction(text)`` gives, or the "not a number" error
where ``Fraction(text)`` refuses it.  These texts hold every shape the
reader takes without its pattern, ``[-]digits`` and ``[-]digits/digits``,
and their near misses; with no space, ``+``, ``_``, ``.`` or ``e`` in the
alphabet, ``Fraction(str)`` reads them alike on Python 3.10 to 3.13, so the
check holds on each.  Needs only the standard library and qbg's spec path.
Prints one summary line and each differing text; exits 1 if any differs.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction

from qbg.specfile import SpecError, _parse_number

ALPHABET = "019٣-/"


def expected(text: str):
    """The Fraction ``Fraction(text)`` builds, or the reader's message for a refusal."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"line 1, column 1: not a number: {text!r}"


def read(text: str):
    """The Fraction the reader returns (exactly that type), or its message."""
    try:
        value = _parse_number(text, 1, 1)
    except SpecError as err:
        return str(err)
    return value if type(value) is Fraction else f"not a Fraction: {value!r}"


def main() -> int:
    max_length = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    checked = differing = 0
    for length in range(1, max_length + 1):
        for chars in itertools.product(ALPHABET, repeat=length):
            text = "".join(chars)
            checked += 1
            if read(text) != expected(text):
                differing += 1
                print(f"{text!r}: Fraction gives {expected(text)!r}, the reader {read(text)!r}")
    print(f"Python {sys.version.split()[0]}: {checked} texts of length 1-{max_length} "
          f"from {ALPHABET!r}, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
