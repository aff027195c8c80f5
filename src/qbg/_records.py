"""Base of qbg's validated records.

qbg's records are named tuples with ``__slots__ = ()``: immutable, compared
and hashed by value, cheap to define and to build.  A record whose values
need checking does so in ``__new__`` and also inherits from
``ValidatedRecord``, so that ``_make``, and through it ``_replace``, goes
through that check too instead of building the tuple directly.
"""


class ValidatedRecord:
    """Mixin for a named tuple that validates in ``__new__``: ``_make`` calls it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
