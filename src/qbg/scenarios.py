"""Named quantum analyses of the weak policy maker's game.

Each function runs one candidate profile or one family of initial states
through the engine and packages the result as a ``ScenarioReport``.  Every
number in a report is recomputed through the engine; the module stores no
payoff constants of its own (the payoff vectors are derived from the
classical table builder).

The headline story lives in ``run_strategy_ii``: on states mixing only the
matched outcomes LL and HH, the both-keep profile is a Nash equilibrium
whenever the LL weight dominates, and in the limit of a pure LL state it
reproduces the classical commitment payoffs (0, 0) while *remaining* an
equilibrium, which the classical game cannot offer.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .engine import (
    ALGEBRA_TOL,
    ConditionCheck,
    MixingProfile,
    PayoffVector,
    QuantumInitialState,
    closed_form_payoff,
    payoff_vectors_from_game,
    verify_nash,
)
from .game import PolicyParams, build_bg_game

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
    """One scenario's candidate, payoffs, verdicts and the conditions behind them."""

    __slots__ = ()


class WeakAssumption(namedtuple("WeakAssumption", "holds gap")):
    """Whether the state weighs the row player's keep-favoring outcomes more."""

    __slots__ = ()


@lru_cache(maxsize=1)
def bg_payoff_vectors() -> tuple[PayoffVector, PayoffVector]:
    """Diagonal payoff vectors of the normalized weak-type game (a = b = 2)."""
    game = build_bg_game(PolicyParams(theta=1, a=2, b=2))
    return payoff_vectors_from_game(game)


def weak_assumption_holds(state: QuantumInitialState) -> WeakAssumption:
    """Strict test of P(LL) + P(HL) > P(HH) + P(LH), with the gap attached."""
    p_ll, p_lh, p_hl, p_hh = state.squared_magnitudes()
    gap = float((p_ll + p_hl) - (p_hh + p_lh))
    return WeakAssumption(holds=gap > 0.0, gap=gap)


def _scenario_conditions(state: QuantumInitialState) -> tuple[float, float]:
    """The two quantities every candidate check reduces to for this game.

    Returns (keep_slope, mismatch_weight): the policy payoff's slope in p
    (independent of q here because the bilinear term cancels), and the total
    weight on the mismatched outcomes LH and HL.
    """
    policy_vec, _ = bg_payoff_vectors()
    f_policy = closed_form_payoff(state, policy_vec)
    probs = state.squared_magnitudes()
    return f_policy.coeff_p, float(probs[1] + probs[2])


def _run_candidate(scenario: str, state: QuantumInitialState,
                   candidate: MixingProfile,
                   conditions: tuple[ConditionCheck, ...],
                   verdict: str | None = None,
                   notes: tuple[str, ...] = ()) -> ScenarioReport:
    policy_vec, public_vec = bg_payoff_vectors()
    report = verify_nash(state, policy_vec, public_vec, candidate)
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
        conditions=conditions,
        verdict=verdict,
        notes=notes,
    )


def run_case_a(state: QuantumInitialState) -> ScenarioReport:
    """Both players keep the identity with certainty: candidate (1, 1)."""
    keep_slope, mismatch = _scenario_conditions(state)
    conditions = (
        ConditionCheck("policy keep-slope 2*(P_LL - P_HH + P_HL - P_LH) >= 0",
                       keep_slope, keep_slope >= -ALGEBRA_TOL),
        ConditionCheck("mismatch weight P_LH + P_HL <= 1/2",
                       mismatch, mismatch <= 0.5 + ALGEBRA_TOL),
    )
    return _run_candidate("case-a", state, MixingProfile(1.0, 1.0), conditions)


def run_case_b(state: QuantumInitialState) -> ScenarioReport:
    """Both players flip with certainty: candidate (0, 0).

    Stability needs the keep-slope reversed (the HH/LH outcomes weighted
    more), the opposite of what a weak policy maker's state is assumed to
    satisfy, so the report carries a note flagging that tension.
    """
    keep_slope, mismatch = _scenario_conditions(state)
    conditions = (
        ConditionCheck("policy keep-slope 2*(P_LL - P_HH + P_HL - P_LH) <= 0",
                       keep_slope, keep_slope <= ALGEBRA_TOL),
        ConditionCheck("mismatch weight P_LH + P_HL <= 1/2",
                       mismatch, mismatch <= 0.5 + ALGEBRA_TOL),
    )
    return _run_candidate("case-b", state, MixingProfile(0.0, 0.0), conditions,
                          notes=(NOTE_OPPOSITE_PREFERENCE,))


def run_case_c(state: QuantumInitialState) -> ScenarioReport:
    """Both players mix evenly: candidate (1/2, 1/2).

    Payoffs are -1/2 for both players on every normalized state, so the
    scenario is dominated regardless of the equilibrium verdict; the public's
    deviation effect vanishes identically, while the policy maker is stable
    only at an exactly zero keep-slope.
    """
    keep_slope, _ = _scenario_conditions(state)
    _, public_vec = bg_payoff_vectors()
    f_public = closed_form_payoff(state, public_vec)
    public_slope = f_public.coeff_q + f_public.coeff_pq * 0.5
    conditions = (
        ConditionCheck("policy indifference: keep-slope == 0",
                       keep_slope, abs(keep_slope) <= ALGEBRA_TOL),
        ConditionCheck("public deviation effect vanishes at p = 1/2",
                       public_slope, abs(public_slope) <= ALGEBRA_TOL),
    )
    return _run_candidate("case-c", state, MixingProfile(0.5, 0.5), conditions,
                          verdict=VERDICT_DOMINATED,
                          notes=(NOTE_NEGATIVE_PAYOFFS,))


def run_strategy_i(lh_prob: float) -> ScenarioReport:
    """Mismatch-only state: weight ``lh_prob`` on LH, the rest on HL.

    The public's payoff is -1 whatever the split, and the both-keep candidate
    is never an equilibrium because the mismatch weight is pinned at 1, far
    above the 1/2 the column condition tolerates.
    """
    if not 0.0 <= lh_prob <= 1.0:
        raise ValueError(f"LH weight must lie in [0, 1], got {lh_prob!r}")
    state = QuantumInitialState.from_probabilities(0.0, lh_prob, 1.0 - lh_prob, 0.0)
    keep_slope, mismatch = _scenario_conditions(state)
    conditions = (
        ConditionCheck("policy keep-slope 2*(P_HL - P_LH) >= 0",
                       keep_slope, keep_slope >= -ALGEBRA_TOL),
        ConditionCheck("mismatch weight P_LH + P_HL <= 1/2",
                       mismatch, mismatch <= 0.5 + ALGEBRA_TOL),
    )
    return _run_candidate("strategy-i", state, MixingProfile(1.0, 1.0),
                          conditions, notes=(NOTE_PUBLIC_ALWAYS_LOSES,))


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
    state = QuantumInitialState.from_probabilities(1.0 - hh_prob, 0.0, 0.0, hh_prob)
    keep_slope, mismatch = _scenario_conditions(state)
    conditions = (
        ConditionCheck("policy keep-slope 2*(P_LL - P_HH) >= 0",
                       keep_slope, keep_slope >= -ALGEBRA_TOL),
        ConditionCheck("mismatch weight P_LH + P_HL <= 1/2",
                       mismatch, mismatch <= 0.5 + ALGEBRA_TOL),
    )
    report = _run_candidate("strategy-ii", state, MixingProfile(1.0, 1.0),
                            conditions)
    notes = []
    if report.is_nash:
        notes.append(NOTE_TIME_CONSISTENT)
    if hh_prob == 0.0:
        notes.append(NOTE_CLASSICAL_LIMIT)
    return report._replace(notes=tuple(notes))
