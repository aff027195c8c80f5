"""Base of qbg's validated records, and the rules that modules loaded apart share.

qbg's records are named tuples with ``__slots__ = ()``: immutable, compared
and hashed by value, cheap to define and to build.  A record whose values
need checking does so in ``__new__`` and also inherits from
``ValidatedRecord``, so that ``_make``, and through it ``_replace``, goes
through that check too instead of building the tuple directly.

A command runs only the qbg modules it needs, so a rule that two of them
apply lives here, in the one module they all load: the tolerance on a
state's weights (``qbg.engine``, ``qbg.specfile``, ``qbg.sweep``) and the
policy maker's fields (``qbg.game.PolicyParams`` and a builtin-bg spec).
"""

import math

NORMALIZATION_TOL = 1e-9   # how far decimal state weights may sum from 1


class ValidatedRecord:
    """Mixin for a named tuple that validates in ``__new__``: ``_make`` calls it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def is_finite(x) -> bool:
    """False only for a float infinity or NaN; ints and Fractions are finite."""
    return not (isinstance(x, float) and not math.isfinite(x))


def check_policy_fields(theta, a, b) -> None:
    """Raise ValueError unless theta is 0 or 1 and a and b are positive and finite."""
    if theta not in (0, 1):
        raise ValueError(f"theta must be 0 or 1, got {theta!r}")
    if not (is_finite(a) and a > 0):
        raise ValueError(f"a must be positive and finite, got {a!r}")
    if not (is_finite(b) and b > 0):
        raise ValueError(f"b must be positive and finite, got {b!r}")
