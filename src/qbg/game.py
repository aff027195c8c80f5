"""Classical 2x2 inflation game between a policy maker and the public.

The policy maker (row player) chooses actual inflation, the public (column
player) chooses expected inflation.  Utilities follow the standard
time-inconsistency setup: surprise inflation benefits an opportunistic
("weak") policy maker, any forecast error hurts the public, and inflation
itself carries a quadratic cost.  The 2x2 table, ``build_bg_game``, is
these utility functions evaluated at inflation 0 and b/a.

Payoffs are kept exact (``fractions.Fraction``) whenever the inputs are
exact, so the canonical normalized tables reproduce with zero tolerance.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Union

from ._records import ValidatedRecord, check_policy_fields, is_finite

Scalar = Union[int, float, Fraction]


def _exact(x: Scalar) -> Scalar:
    """Promote ints to Fraction so division stays exact; floats pass through."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    return float(x)


class PolicyParams(ValidatedRecord, namedtuple("PolicyParams", "theta a b")):
    """Policy-maker type and utility coefficients.

    theta: 1 for the opportunistic ("weak") type that gains from surprise
    inflation, 0 for the committed ("strong") type.  a scales the quadratic
    inflation cost, b the surprise-inflation benefit; both must be positive.
    """

    __slots__ = ()

    def __new__(cls, theta: int, a: Scalar, b: Scalar):
        check_policy_fields(theta, a, b)
        return tuple.__new__(cls, (theta, a, b))


class InflationProfile(ValidatedRecord,
                       namedtuple("InflationProfile", "actual expected")):
    """A pair (actual inflation, expected inflation)."""

    __slots__ = ()

    def __new__(cls, actual: Scalar, expected: Scalar):
        if not (is_finite(actual) and is_finite(expected)):
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
                if len(cell) != 2 or not all(is_finite(v) for v in cell):
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
    """Payoff table over the two-point strategy grid for both players.

    Label L is inflation 0 and H is inflation b/a, the optimal discretionary
    inflation of the strong and of the weak type, for actual (rows) and
    expected (columns) alike.  Cell (x, y) holds ``policy_utility`` and
    ``public_utility`` at the profile (x, y); ``InflationProfile`` refuses
    an infinite b/a.
    """
    levels = (optimal_discretionary_inflation(params._replace(theta=0)),
              optimal_discretionary_inflation(params._replace(theta=1)))
    payoffs = tuple(tuple((policy_utility(profile, params), public_utility(profile))
                          for profile in (InflationProfile(x, y) for y in levels))
                    for x in levels)
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
