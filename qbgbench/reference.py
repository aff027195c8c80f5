"""Exact reference for every quantity qbg prints, in ``Fraction`` arithmetic.

This module never imports qbg.  It follows the Marinatto-Weber
identity/flip mixing scheme (quant-ph/0004081) as qbg documents it: the row
player keeps the identity with probability p, the column player with
probability q, and the four branches (keep, keep), (flip row, keep),
(keep, flip column), (flip, flip) carry the weights
(pq, p(1-q), (1-p)q, (1-p)(1-q)).  A branch only permutes the basis
(LL, LH, HL, HH), so with ``r = M @ vec`` (row k of M is the state's squared
magnitudes permuted by branch k) every payoff is the bilinear form

    r3 + (r1 - r3) p + (r2 - r3) q + (r0 - r1 - r2 + r3) p q.

Equilibrium regions are found by a different route from qbg's enumerator:
the (p, q) square is cut at the best-response breakpoints, every grid
element is tested for the Nash property, and the maximal closed boxes inside
the Nash set are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Basis index after each branch acts: flipping the row qubit swaps L/H in the
# first letter (index bit 1), flipping the column qubit the second (bit 0).
BRANCH_PERM = ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))


@dataclass(frozen=True)
class Game:
    """A 2x2 game; payoff tuples are cells in basis order LL, LH, HL, HH."""

    row_labels: tuple[str, str]
    col_labels: tuple[str, str]
    row: tuple[Fraction, Fraction, Fraction, Fraction]
    col: tuple[Fraction, Fraction, Fraction, Fraction]


def bg_game(theta: int, a: Fraction, b: Fraction) -> Game:
    """Barro-Gordon table over inflation levels {0, b/a} for both players.

    Policy utility theta*b*(x - xe) - a*x^2/2, public utility -(x - xe)^2.
    """
    levels = (ZERO, Fraction(b) / Fraction(a))
    row, col = [], []
    for x in levels:
        for xe in levels:
            row.append(theta * b * (x - xe) - a * x * x / 2)
            col.append(-(x - xe) ** 2)
    return Game(("L", "H"), ("L", "H"), tuple(row), tuple(col))


def pure_nash(game: Game) -> list[tuple[int, int]]:
    """Cells (r, c) where no unilateral switch gains, sorted."""
    found = []
    for r in (0, 1):
        for c in (0, 1):
            if (game.row[2 * r + c] >= game.row[2 * (1 - r) + c]
                    and game.col[2 * r + c] >= game.col[2 * r + 1 - c]):
                found.append((r, c))
    return found


def dominated_rows(game: Game) -> list[tuple[int, bool]]:
    """Rows (index, strict) dominated by the other row, sorted."""
    found = []
    for r in (0, 1):
        diffs = [game.row[2 * (1 - r) + c] - game.row[2 * r + c] for c in (0, 1)]
        if all(d > 0 for d in diffs):
            found.append((r, True))
        elif all(d >= 0 for d in diffs) and any(d > 0 for d in diffs):
            found.append((r, False))
    return found


@dataclass(frozen=True)
class Bilinear:
    constant: Fraction
    coeff_p: Fraction
    coeff_q: Fraction
    coeff_pq: Fraction

    def at(self, p, q) -> Fraction:
        return self.constant + self.coeff_p * p + self.coeff_q * q + self.coeff_pq * p * q


def closed_form(probs, vec) -> Bilinear:
    r = [sum(probs[perm[j]] * vec[j] for j in range(4)) for perm in BRANCH_PERM]
    return Bilinear(r[3], r[1] - r[3], r[2] - r[3], r[0] - r[1] - r[2] + r[3])


@dataclass(frozen=True)
class Verdict:
    row_payoff: Fraction
    col_payoff: Fraction
    weak: bool
    strict: bool
    gaps: tuple[Fraction, Fraction, Fraction, Fraction]   # row p=0, p=1, col q=0, q=1


def verdict(f_row: Bilinear, f_col: Bilinear, p, q) -> Verdict:
    """Nash test of (p, q) against the extreme deviations, decided exactly."""
    row_pay, col_pay = f_row.at(p, q), f_col.at(p, q)
    gaps = (row_pay - f_row.at(0, q), row_pay - f_row.at(1, q),
            col_pay - f_col.at(p, 0), col_pay - f_col.at(p, 1))
    weak = all(g >= 0 for g in gaps)
    strict = all(g > 0 for g, edge, own in zip(gaps, (0, 1, 0, 1), (p, p, q, q))
                 if edge != own)
    return Verdict(row_pay, col_pay, weak, strict, gaps)


def best_response(slope: Fraction, own) -> bool:
    """Whether ``own`` maximizes a payoff with this slope in the player's own probability."""
    return slope == 0 or own == (1 if slope > 0 else 0)


@dataclass(frozen=True, order=True)
class Region:
    p_min: Fraction
    p_max: Fraction
    q_min: Fraction
    q_max: Fraction

    @property
    def kind(self) -> str:
        flat = (self.p_min == self.p_max) + (self.q_min == self.q_max)
        return ("rectangle", "segment", "point")[flat]


def _breakpoints(lin: Fraction, bil: Fraction) -> list[Fraction]:
    points = {ZERO, ONE}
    if bil != 0 and 0 < -lin / bil < 1:
        points.add(-lin / bil)
    return sorted(points)


def _elements(points: list[Fraction]) -> list[Fraction]:
    """Breakpoints and the midpoints of the open intervals between them."""
    out = [points[0]]
    for lo, hi in zip(points, points[1:]):
        out += [(lo + hi) / 2, hi]
    return out


def equilibrium_regions(f_row: Bilinear, f_col: Bilinear) -> list[Region]:
    """Maximal closed axis-aligned boxes whose union is the Nash set.

    The row player's slope in p is coeff_p + coeff_pq*q and depends only on q,
    the column player's slope in q only on p, so each best response is
    constant between the breakpoints.  Grid elements (breakpoints and open
    intervals) are tested through one representative each.
    """
    p_axis = _elements(_breakpoints(f_col.coeff_q, f_col.coeff_pq))
    q_axis = _elements(_breakpoints(f_row.coeff_p, f_row.coeff_pq))

    def is_nash(p, q) -> bool:
        return (best_response(f_row.coeff_p + f_row.coeff_pq * q, p)
                and best_response(f_col.coeff_q + f_col.coeff_pq * p, q))

    member = {(i, j): is_nash(p, q)
              for i, p in enumerate(p_axis) for j, q in enumerate(q_axis)}
    # Breakpoints sit at even element indices; a closed box spans from one
    # breakpoint to another and holds every element in between.
    p_spans = list(combinations_with_replacement(range(0, len(p_axis), 2), 2))
    q_spans = list(combinations_with_replacement(range(0, len(q_axis), 2), 2))
    inside = [(pi, qj) for pi in p_spans for qj in q_spans
              if all(member[i, j] for i in range(pi[0], pi[1] + 1)
                     for j in range(qj[0], qj[1] + 1))]

    def within(a, b) -> bool:
        return (b[0][0] <= a[0][0] and a[0][1] <= b[0][1]
                and b[1][0] <= a[1][0] and a[1][1] <= b[1][1])

    maximal = [box for box in inside
               if not any(other != box and within(box, other) for other in inside)]
    return sorted(Region(p_axis[pi[0]], p_axis[pi[1]], q_axis[qj[0]], q_axis[qj[1]])
                  for pi, qj in maximal)


def exact_crossings(f_row: Bilinear, f_col: Bilinear) -> list[str]:
    """Best-response crossings that fall exactly on an edge of the square.

    At these games a float residue in qbg's crossing decides whether a
    best-response piece survives; they are the known cause of wrong regions.
    """
    found = []
    for name, lin, bil in (("q", f_row.coeff_p, f_row.coeff_pq),
                           ("p", f_col.coeff_q, f_col.coeff_pq)):
        if bil != 0 and -lin / bil in (0, 1):
            found.append(f"{name}={-lin / bil}")
    return found


# --- the paper's identities, as `qbg reproduce` restates them ---------------

REFERENCE_PROBS = (HALF, Fraction(1, 5), Fraction(1, 5), Fraction(1, 10))
WEAK_GAME = bg_game(1, Fraction(2), Fraction(2))
STRONG_GAME = bg_game(0, Fraction(2), Fraction(2))


def strategy_ii(w: Fraction) -> Verdict:
    """Matched-outcome state (1-w, 0, 0, w) at the both-keep profile."""
    probs = (1 - w, ZERO, ZERO, w)
    return verdict(closed_form(probs, WEAK_GAME.row),
                   closed_form(probs, WEAK_GAME.col), ONE, ONE)


def strategy_i(w: Fraction) -> Verdict:
    """Mismatch-only state (0, w, 1-w, 0) at the both-keep profile."""
    probs = (ZERO, w, 1 - w, ZERO)
    return verdict(closed_form(probs, WEAK_GAME.row),
                   closed_form(probs, WEAK_GAME.col), ONE, ONE)


def case_payoffs(probs, p, q) -> tuple[Fraction, Fraction]:
    return (closed_form(probs, WEAK_GAME.row).at(p, q),
            closed_form(probs, WEAK_GAME.col).at(p, q))


def reproduce_expectations() -> dict[str, Fraction]:
    """Check id -> exact value for every `reproduce` check the reference models."""
    out: dict[str, Fraction] = {}
    cells = ("ll", "lh", "hl", "hh")
    for label, game in (("weak", WEAK_GAME), ("strong", STRONG_GAME)):
        for k, cell in enumerate(cells):
            out[f"classical.{label}-table.{cell}.policy"] = game.row[k]
            out[f"classical.{label}-table.{cell}.public"] = game.col[k]
        out[f"classical.{label}-nash"] = ONE
        out[f"classical.{label}-dominated"] = ONE
    for player, vec in (("policy", WEAK_GAME.row), ("public", WEAK_GAME.col)):
        form = closed_form(REFERENCE_PROBS, vec)
        out[f"closed-form.{player}.constant"] = form.constant
        out[f"closed-form.{player}.coeff-p"] = form.coeff_p
        out[f"closed-form.{player}.coeff-q"] = form.coeff_q
        out[f"closed-form.{player}.coeff-pq"] = form.coeff_pq
    for case, (p, q) in (("case-a", (1, 1)), ("case-b", (0, 0)), ("case-c", (HALF, HALF))):
        policy, public = case_payoffs(REFERENCE_PROBS, p, q)
        out[f"{case}.policy-payoff"] = policy
        out[f"{case}.public-payoff"] = public
    grid = [Fraction(k, 100) for k in range(101)]
    out["strategy-i.public-payoff"] = -ONE
    out["strategy-i.never-nash"] = Fraction(sum(strategy_i(w).weak for w in grid))
    out["strategy-ii.public-payoff"] = ZERO
    out["strategy-ii.nash-threshold"] = Fraction(
        sum(strategy_ii(w).weak != (w <= HALF) for w in grid))
    return out
