"""Classical 2x2 inflation game between a policy maker and the public.

The policy maker (row player) chooses actual inflation, the public (column
player) chooses expected inflation.  Utilities follow the standard
time-inconsistency setup: surprise inflation benefits an opportunistic
("weak") policy maker, any forecast error hurts the public, and inflation
itself carries a quadratic cost.

Payoffs are kept exact (``fractions.Fraction``) whenever the inputs are
exact, so the canonical normalized tables reproduce with zero tolerance.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Union

from ._records import ValidatedRecord

Scalar = Union[int, float, Fraction]


def _exact(x: Scalar) -> Scalar:
    """Promote ints to Fraction so division stays exact; floats pass through."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    return float(x)


def _is_finite(x: Scalar) -> bool:
    return not (isinstance(x, float) and not math.isfinite(x))


class PolicyParams(ValidatedRecord, namedtuple("PolicyParams", "theta a b")):
    """Policy-maker type and utility coefficients.

    theta: 1 for the opportunistic ("weak") type that gains from surprise
    inflation, 0 for the committed ("strong") type.  a scales the quadratic
    inflation cost, b the surprise-inflation benefit; both must be positive.
    """

    __slots__ = ()

    def __new__(cls, theta: int, a: Scalar, b: Scalar):
        if theta not in (0, 1):
            raise ValueError(f"theta must be 0 or 1, got {theta!r}")
        if not (_is_finite(a) and a > 0):
            raise ValueError(f"a must be positive and finite, got {a!r}")
        if not (_is_finite(b) and b > 0):
            raise ValueError(f"b must be positive and finite, got {b!r}")
        return tuple.__new__(cls, (theta, a, b))


class InflationProfile(ValidatedRecord,
                       namedtuple("InflationProfile", "actual expected")):
    """A pair (actual inflation, expected inflation)."""

    __slots__ = ()

    def __new__(cls, actual: Scalar, expected: Scalar):
        if not (_is_finite(actual) and _is_finite(expected)):
            raise ValueError("inflation rates must be finite")
        return tuple.__new__(cls, (actual, expected))


class PureProfile(ValidatedRecord, namedtuple("PureProfile", "row_index col_index")):
    """Pure strategy pair by table index (0 = first label, 1 = second)."""

    __slots__ = ()

    def __new__(cls, row_index: int, col_index: int):
        if row_index not in (0, 1) or col_index not in (0, 1):
            raise ValueError("indices must be 0 or 1")
        return tuple.__new__(cls, (row_index, col_index))


class DominatedRow(namedtuple("DominatedRow", "index strict")):
    """A dominated row: its index (int) and whether the dominance is strict (bool)."""

    __slots__ = ()


class BimatrixGame(ValidatedRecord,
                   namedtuple("BimatrixGame", "row_labels col_labels payoffs")):
    """A 2x2 bimatrix game; ``payoffs[r][c]`` is ``(row payoff, col payoff)``."""

    __slots__ = ()

    def __new__(cls, row_labels: tuple[str, str], col_labels: tuple[str, str],
                payoffs: tuple[tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]],
                               tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]]):
        if len(row_labels) != 2 or len(col_labels) != 2:
            raise ValueError("need exactly two strategy labels per player")
        if len(payoffs) != 2 or any(len(row) != 2 for row in payoffs):
            raise ValueError("payoff table must be 2x2")
        for row in payoffs:
            for cell in row:
                if len(cell) != 2 or not all(_is_finite(v) for v in cell):
                    raise ValueError("each cell needs two finite payoffs")
        return tuple.__new__(cls, (row_labels, col_labels, payoffs))

    def row_payoff(self, r: int, c: int) -> Scalar:
        return self.payoffs[r][c][0]

    def col_payoff(self, r: int, c: int) -> Scalar:
        return self.payoffs[r][c][1]


def policy_utility(profile: InflationProfile, params: PolicyParams) -> Scalar:
    """theta * b * (actual - expected) - a * actual**2 / 2."""
    actual = _exact(profile.actual)
    expected = _exact(profile.expected)
    a = _exact(params.a)
    b = _exact(params.b)
    return params.theta * b * (actual - expected) - a * actual * actual / 2


def public_utility(profile: InflationProfile) -> Scalar:
    """-(actual - expected)**2; zero exactly when the forecast is correct."""
    diff = _exact(profile.actual) - _exact(profile.expected)
    return -(diff * diff)


def optimal_discretionary_inflation(params: PolicyParams) -> Scalar:
    """Unconstrained maximizer of the policy utility: theta * b / a."""
    if params.theta == 0:
        return _exact(params.a) * 0
    return _exact(params.b) / _exact(params.a)


def build_bg_game(params: PolicyParams) -> BimatrixGame:
    """Payoff table over the two-point strategy grid {0, b/a} for both players.

    Label L is inflation 0 and H is inflation h = b/a, for actual (rows) and
    expected (columns) alike.  Cell (x, y) holds ``policy_utility`` and
    ``public_utility`` at (x, y): ``theta*b*(x - y) - a*x*x/2`` and
    ``-((x - y)*(x - y))``.  Their three nonzero terms are computed once each,
    in those functions' order of operations: the gain ``theta*b*h``, the cost
    ``a*h*h/2`` and the loss ``-(h*h)``, which both mismatched cells share.
    Every other term is a zero (L - L, H - H, the cost at L) whose sign and
    type alone reach a cell, so for an int theta and int, Fraction or float
    coefficients each cell keeps the value, the type and, for floats, the
    bits and signed zero that the utility functions give; the tests check
    every cell against them.
    """
    a = _exact(params.a)
    b = _exact(params.b)
    low = a * 0                   # inflation 0, a zero typed like a
    high = b / a
    InflationProfile(low, high)   # refuses an infinite b/a
    weight = params.theta * b
    gain = weight * high
    cost = a * high * high / 2
    loss = -(high * high)         # the public's utility at a forecast error of +-h
    flat = high - high            # a zero typed like h
    payoffs = (((flat, -low), (weight * (low - high), loss)),
               ((gain - cost, loss), (flat - cost, -flat)))
    return BimatrixGame(row_labels=("L", "H"), col_labels=("L", "H"), payoffs=payoffs)


def find_pure_nash(game: BimatrixGame) -> frozenset[PureProfile]:
    """All cells where neither player gains by a unilateral switch (weak)."""
    cells = game.payoffs
    found = set()
    for r in (0, 1):
        for c in (0, 1):
            row, col = cells[r][c]
            if row >= cells[1 - r][c][0] and col >= cells[r][1 - c][1]:
                found.add(PureProfile(r, c))
    return frozenset(found)


def find_dominated_rows(game: BimatrixGame) -> frozenset[DominatedRow]:
    """Rows dominated by the other row: strict if better against both
    columns, weak if never worse and better against at least one."""
    rows = [(cells[0][0], cells[1][0]) for cells in game.payoffs]
    found = set()
    for r in (0, 1):
        (own_l, own_h), (other_l, other_h) = rows[r], rows[1 - r]
        if other_l > own_l and other_h > own_h:
            found.add(DominatedRow(r, strict=True))
        elif other_l >= own_l and other_h >= own_h and (other_l > own_l or other_h > own_h):
            found.add(DominatedRow(r, strict=False))
    return frozenset(found)
