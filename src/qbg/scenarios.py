"""Named quantum analyses of the weak policy maker's game.

Each function runs one candidate profile or one family of initial states
through the engine and packages the result as a ``ScenarioReport``.  Every
number in a report is recomputed through the engine; the module stores no
payoff constants of its own (the payoff vectors are derived from the
classical table builder).  Both forms of a run come from one
``engine._closed_forms`` call on the state's weights: a strategy family's
own weights, with no square-root round trip, or a given state's squared
magnitudes.  The report's ``state`` record, built with
``from_probabilities``, is the only place a square root is taken.  Every
Nash verdict is ``verify_nash``'s, and a report's conditions are that
verdict's own four deviation checks.

The headline story lives in ``run_strategy_ii``: on states mixing only the
matched outcomes LL and HH, the both-keep profile is a Nash equilibrium
whenever the LL weight dominates, and in the limit of a pure LL state it
reproduces the classical commitment payoffs (0, 0) while *remaining* an
equilibrium, which the classical game cannot offer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import engine, game

VERDICT_NASH = "nash"
VERDICT_NO_NASH = "no-nash"
VERDICT_DOMINATED = "dominated"

NOTE_OPPOSITE_PREFERENCE = "requires-opposite-of-weak-type-preference"
NOTE_NEGATIVE_PAYOFFS = "both-payoffs-negative"
NOTE_PUBLIC_ALWAYS_LOSES = "public-always-loses"
NOTE_TIME_CONSISTENT = "time-consistent-commitment-equilibrium"
NOTE_CLASSICAL_LIMIT = "classical-commitment-recovered"


class ScenarioReport(namedtuple("ScenarioReport", (
        "scenario",         # str
        "state",            # QuantumInitialState
        "candidate",        # MixingProfile
        "policy_payoff",    # float
        "public_payoff",    # float
        "is_nash",          # bool
        "is_strict_nash",   # bool
        "conditions",       # tuple[ConditionCheck, ...]
        "verdict",          # str
        "notes"),           # tuple[str, ...]
        defaults=((),))):
    """One scenario's candidate, payoffs and verdicts.

    ``conditions`` are ``verify_nash``'s four checks, in its order: the
    policy maker's deviations to p=0 and p=1, then the public's to q=0 and
    q=1.  Each value is what that deviation loses: p*sigma_r, (p-1)*sigma_r,
    q*sigma_c and (q-1)*sigma_c, from the two payoff slopes.  A check holds
    unless the slope, outside ``ALGEBRA_TOL``, favours that edge and the
    player is off it; each player's two checks are its best-response test,
    so ``is_nash`` is exactly that all four hold.
    """

    __slots__ = ()


class WeakAssumption(namedtuple("WeakAssumption", "holds gap")):
    """Whether the state weighs the row player's keep-favoring outcomes more."""

    __slots__ = ()


@lru_cache(maxsize=1)
def bg_payoff_vectors() -> tuple[engine.PayoffVector, engine.PayoffVector]:
    """Diagonal payoff vectors of the normalized weak-type game (a = b = 2)."""
    table = game.build_bg_game(game.PolicyParams(theta=1, a=2, b=2))
    return engine.payoff_vectors_from_game(table)


def weak_assumption_holds(state: engine.QuantumInitialState) -> WeakAssumption:
    """Strict test of P(LL) + P(HL) > P(HH) + P(LH), with the gap attached."""
    p_ll, p_lh, p_hl, p_hh = state.squared_magnitudes()
    gap = float((p_ll + p_hl) - (p_hh + p_lh))
    return WeakAssumption(holds=gap > 0.0, gap=gap)


def _run_candidate(scenario: str, state: engine.QuantumInitialState, weights,
                   candidate: engine.MixingProfile, verdict: str | None = None,
                   notes: tuple[str, ...] = ()) -> ScenarioReport:
    """Decide ``candidate`` with ``verify_nash`` on the forms of ``weights``,
    the weights (LL, LH, HL, HH) of ``state``, both built in one call."""
    report = engine.verify_nash(*engine._closed_forms(weights, bg_payoff_vectors()), candidate)
    if verdict is None:
        verdict = VERDICT_NASH if report.is_nash else VERDICT_NO_NASH
    return ScenarioReport(
        scenario=scenario,
        state=state,
        candidate=candidate,
        policy_payoff=report.row_payoff,
        public_payoff=report.col_payoff,
        is_nash=report.is_nash,
        is_strict_nash=report.is_strict_nash,
        conditions=report.conditions,
        verdict=verdict,
        notes=notes,
    )


def run_case_a(state: engine.QuantumInitialState) -> ScenarioReport:
    """Both players keep the identity with certainty: candidate (1, 1)."""
    return _run_candidate("case-a", state, state.squared_magnitudes(),
                          engine.MixingProfile(1.0, 1.0))


def run_case_b(state: engine.QuantumInitialState) -> ScenarioReport:
    """Both players flip with certainty: candidate (0, 0).

    Stability needs the keep-slope reversed (the HH/LH outcomes weighted
    more), the opposite of what a weak policy maker's state is assumed to
    satisfy, so the report carries a note flagging that tension.
    """
    return _run_candidate("case-b", state, state.squared_magnitudes(),
                          engine.MixingProfile(0.0, 0.0),
                          notes=(NOTE_OPPOSITE_PREFERENCE,))


def run_case_c(state: engine.QuantumInitialState) -> ScenarioReport:
    """Both players mix evenly: candidate (1/2, 1/2).

    Payoffs are -1/2 for both players on every normalized state, so the
    scenario is dominated regardless of the equilibrium verdict; the public's
    deviations lose nothing on any state, while the policy maker's two gaps
    are plus and minus half the keep-slope, so it is stable only when the
    keep-slope vanishes.
    """
    return _run_candidate("case-c", state, state.squared_magnitudes(),
                          engine.MixingProfile(0.5, 0.5),
                          verdict=VERDICT_DOMINATED,
                          notes=(NOTE_NEGATIVE_PAYOFFS,))


def run_strategy_i(lh_prob: float) -> ScenarioReport:
    """Mismatch-only state: weight ``lh_prob`` on LH, the rest on HL.

    The public's payoff is -1 whatever the split, and the both-keep candidate
    is never an equilibrium: the mismatch weight P_LH + P_HL is pinned at 1,
    so the public's deviation to q=0 gains 2 * 1 - 1 = 1.
    """
    if not 0.0 <= lh_prob <= 1.0:
        raise ValueError(f"LH weight must lie in [0, 1], got {lh_prob!r}")
    w = float(lh_prob)
    weights = (0.0, w, 1.0 - w, 0.0)
    state = engine.QuantumInitialState.from_probabilities(*weights)
    return _run_candidate("strategy-i", state, weights, engine.MixingProfile(1.0, 1.0),
                          notes=(NOTE_PUBLIC_ALWAYS_LOSES,))


def run_strategy_ii(hh_prob: float) -> ScenarioReport:
    """Matched-outcome state: weight ``hh_prob`` on HH, the rest on LL.

    The public never loses (payoff 0) and the policy maker loses only the HH
    weight; the both-keep candidate is a (weak) equilibrium exactly when the
    LL weight is at least as large, strictly when it is larger.  As the HH
    weight goes to zero the classical commitment payoffs (0, 0) reappear,
    now backed by an equilibrium.
    """
    if not 0.0 <= hh_prob <= 1.0:
        raise ValueError(f"HH weight must lie in [0, 1], got {hh_prob!r}")
    w = float(hh_prob)
    weights = (1.0 - w, 0.0, 0.0, w)
    state = engine.QuantumInitialState.from_probabilities(*weights)
    report = _run_candidate("strategy-ii", state, weights, engine.MixingProfile(1.0, 1.0))
    notes = []
    if report.is_nash:
        notes.append(NOTE_TIME_CONSISTENT)
    if hh_prob == 0.0:
        notes.append(NOTE_CLASSICAL_LIMIT)
    return report._replace(notes=tuple(notes))
