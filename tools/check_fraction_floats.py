"""Check that a ``Fraction`` becomes a float as one int division.

    python3 tools/check_fraction_floats.py [COUNT]

``qbg.specfile._to_float`` turns a ``Fraction`` into a float as
``numerator / denominator``, which is what ``float(Fraction)`` computes on
Python 3.10 to 3.13.  This checks, on this interpreter, that ``n / d`` and
``_to_float(Fraction(n, d))``, from whichever qbg the interpreter imports
(the installed package, or ``src/`` on ``PYTHONPATH``), give the bits of
``float(Fraction(n, d))``, or raise its ``OverflowError`` with its message.
The values are a fixed list of edges (beyond the float range, subnormal,
rounding ties, negative) and COUNT (default 20000) seeded random fractions
of 1 to 400 digits.  Needs only the standard library and qbg's spec path.
Prints one summary line and each differing value; exits 1 if any differs.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from qbg.specfile import _to_float

# the least value an int division rounds up to infinity: 2**1024 less half an ulp
FLOAT_OVERFLOW = 2 ** 1024 - 2 ** 970
EDGES = [(10 ** 400, 7), (-10 ** 400, 7), (1, 10 ** 320), (-1, 10 ** 320), (1, 10 ** 400),
         (FLOAT_OVERFLOW, 1), (FLOAT_OVERFLOW - 1, 1), (-FLOAT_OVERFLOW, 1), (0, 1),
         (-1, 3), (2 ** 53 + 1, 1), (3, 2 ** 1075), (1, 2 ** 1075), (2 ** 1100, 2 ** 77 - 1)]


def outcome(convert, *args):
    """The float's bits, or the OverflowError's message."""
    try:
        return convert(*args).hex()
    except OverflowError as exc:
        return f"OverflowError: {exc}"


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    rng = random.Random(2024)
    pairs = EDGES + [(rng.randrange(-10 ** rng.randrange(1, 400), 10 ** rng.randrange(1, 400)),
                      rng.randrange(1, 10 ** rng.randrange(1, 400))) for _ in range(count)]
    differing = 0
    for n, d in pairs:
        value = Fraction(n, d)
        want = outcome(float, value)
        got = (outcome(lambda: n / d), outcome(_to_float, value))
        if got != (want, want):
            differing += 1
            print(f"Fraction({n}, {d}): float() gives {want}, n / d and _to_float {got}")
    print(f"Python {sys.version.split()[0]}: {len(pairs)} fractions, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
