"""Named scenario analyses of the quantized policy game."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import fresh_rng, random_state

from qbg import (
    MixingProfile,
    QuantumInitialState,
    bg_payoff_vectors,
    expected_payoff_trace,
    final_density,
    parse_spec,
    run_case_a,
    run_case_b,
    run_case_c,
    run_strategy_i,
    run_strategy_ii,
    verify_nash,
    weak_assumption_holds,
)
from qbg import verification
from qbg.engine import _closed_forms
from qbg.scenarios import (
    NOTE_CLASSICAL_LIMIT,
    NOTE_NEGATIVE_PAYOFFS,
    NOTE_PUBLIC_ALWAYS_LOSES,
    NOTE_TIME_CONSISTENT,
    VERDICT_DOMINATED,
)

REFERENCE = QuantumInitialState.from_probabilities(0.5, 0.2, 0.2, 0.1)

MATCHED_SPEC = """\
[game]
mode = builtin-bg
theta = 1
a = 2
b = 2

[quantum]
prob_ll = {ll!r}
prob_lh = 0
prob_hl = 0
prob_hh = {hh!r}
"""


def trace_payoffs(state, candidate):
    policy_vec, public_vec = bg_payoff_vectors()
    rho = final_density(state, candidate)
    return (expected_payoff_trace(policy_vec, rho),
            expected_payoff_trace(public_vec, rho))


class TestCaseA:
    def test_reference_state(self):
        report = run_case_a(REFERENCE)
        assert report.candidate == MixingProfile(1.0, 1.0)
        assert report.policy_payoff == pytest.approx(-0.3, abs=1e-12)
        assert report.public_payoff == pytest.approx(-0.4, abs=1e-12)
        assert all(check.satisfied for check in report.conditions)
        assert report.is_nash

    def test_pure_ll_state(self):
        report = run_case_a(QuantumInitialState(1, 0, 0, 0))
        assert report.policy_payoff == pytest.approx(0.0, abs=1e-15)
        assert report.public_payoff == pytest.approx(0.0, abs=1e-15)
        assert report.is_nash

    def test_mismatch_only_state_fails_column_condition(self):
        state = QuantumInitialState.from_probabilities(0.0, 0.5, 0.5, 0.0)
        report = run_case_a(state)
        # the public's deviation to q=0 loses 1 - 2 * (mismatch weight 1) = -1
        column_check = report.conditions[2]
        assert column_check.value == pytest.approx(-1.0, abs=1e-12)
        assert not column_check.satisfied
        assert not report.is_nash

    def test_payoffs_match_trace_oracle(self):
        rng = fresh_rng(40)
        for _ in range(100):
            state = random_state(rng)
            report = run_case_a(state)
            policy, public = trace_payoffs(state, report.candidate)
            assert report.policy_payoff == pytest.approx(policy, abs=1e-12)
            assert report.public_payoff == pytest.approx(public, abs=1e-12)


class TestCaseB:
    def test_reversed_preference_state_is_nash(self):
        state = QuantumInitialState.from_probabilities(0.1, 0.2, 0.2, 0.5)
        report = run_case_b(state)
        assert report.candidate == MixingProfile(0.0, 0.0)
        assert report.is_nash

    def test_pure_ll_state_payoffs(self):
        report = run_case_b(QuantumInitialState(1, 0, 0, 0))
        assert report.policy_payoff == pytest.approx(-1.0, abs=1e-15)
        assert report.public_payoff == pytest.approx(0.0, abs=1e-15)

    def test_weak_preference_state_is_not_nash(self):
        report = run_case_b(REFERENCE)
        assert weak_assumption_holds(REFERENCE).holds
        assert not report.is_nash

    def test_flags_the_preference_tension(self):
        report = run_case_b(REFERENCE)
        assert any("opposite" in note for note in report.notes)


class TestCaseC:
    def test_payoffs_constant_on_random_states(self):
        rng = fresh_rng(41)
        for _ in range(1000):
            report = run_case_c(random_state(rng))
            assert abs(report.policy_payoff + 0.5) < 1e-12
            assert abs(report.public_payoff + 0.5) < 1e-12

    def test_pure_ll_state(self):
        report = run_case_c(QuantumInitialState(1, 0, 0, 0))
        assert report.policy_payoff == pytest.approx(-0.5, abs=1e-15)
        assert report.public_payoff == pytest.approx(-0.5, abs=1e-15)

    def test_marked_dominated(self):
        report = run_case_c(REFERENCE)
        assert report.verdict == VERDICT_DOMINATED
        assert NOTE_NEGATIVE_PAYOFFS in report.notes

    def test_public_condition_vanishes(self):
        rng = fresh_rng(42)
        for _ in range(50):
            report = run_case_c(random_state(rng))
            for check in report.conditions[2:]:
                assert check.satisfied
                assert abs(check.value) <= 1e-15


class TestStrategyI:
    def test_all_weight_on_hl(self):
        report = run_strategy_i(0.0)
        assert report.policy_payoff == pytest.approx(1.0, abs=1e-12)
        assert report.public_payoff == pytest.approx(-1.0, abs=1e-12)
        assert not report.is_nash

    def test_threshold_weight(self):
        report = run_strategy_i(1 / 3)
        assert report.policy_payoff == pytest.approx(0.0, abs=1e-12)

    def test_never_nash_on_grid(self):
        for k in range(101):
            report = run_strategy_i(k / 100)
            assert not report.is_nash

    def test_public_always_loses(self):
        for w in (0.0, 0.25, 0.5, 0.75, 1.0):
            report = run_strategy_i(w)
            assert report.public_payoff == pytest.approx(-1.0, abs=1e-12)
            assert NOTE_PUBLIC_ALWAYS_LOSES in report.notes

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            run_strategy_i(-0.1)
        with pytest.raises(ValueError):
            run_strategy_i(1.1)


class TestStrategyII:
    def test_small_hh_weight(self):
        report = run_strategy_ii(0.2)
        assert report.policy_payoff == pytest.approx(-0.2, abs=1e-12)
        assert report.public_payoff == pytest.approx(0.0, abs=1e-12)
        assert report.is_nash
        assert NOTE_TIME_CONSISTENT in report.notes

    def test_zero_hh_weight_recovers_commitment(self):
        report = run_strategy_ii(0.0)
        assert report.policy_payoff == pytest.approx(0.0, abs=1e-15)
        assert report.public_payoff == pytest.approx(0.0, abs=1e-15)
        assert report.is_nash
        assert NOTE_CLASSICAL_LIMIT in report.notes

    def test_large_hh_weight_not_nash(self):
        report = run_strategy_ii(0.7)
        assert not report.is_nash

    def test_weak_and_strict_thresholds(self):
        for k in range(101):
            w = k / 100
            report = run_strategy_ii(w)
            assert report.is_nash == (w <= 0.5)
            assert report.is_strict_nash == (w < 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            run_strategy_ii(-0.01)
        with pytest.raises(ValueError):
            run_strategy_ii(1.01)


class TestWeakAssumption:
    def test_pure_ll(self):
        result = weak_assumption_holds(QuantumInitialState(1, 0, 0, 0))
        assert result.holds
        assert result.gap == pytest.approx(1.0)

    def test_uniform_state_is_equality(self):
        state = QuantumInitialState(0.5, 0.5, 0.5, 0.5)
        result = weak_assumption_holds(state)
        assert not result.holds
        assert result.gap == pytest.approx(0.0, abs=1e-15)

    def test_matched_outcome_state(self):
        state = QuantumInitialState.from_probabilities(0.8, 0.0, 0.0, 0.2)
        result = weak_assumption_holds(state)
        assert result.holds
        assert result.gap == pytest.approx(0.6, abs=1e-12)


class TestReportsRecomputed:
    def test_every_scenario_payoff_matches_trace_oracle(self):
        rng = fresh_rng(43)
        scenarios = []
        for _ in range(30):
            state = random_state(rng)
            scenarios += [run_case_a(state), run_case_b(state), run_case_c(state)]
        for w in np.linspace(0, 1, 11):
            scenarios += [run_strategy_i(float(w)), run_strategy_ii(float(w))]
        for report in scenarios:
            policy, public = trace_payoffs(report.state, report.candidate)
            assert report.policy_payoff == pytest.approx(policy, abs=1e-12)
            assert report.public_payoff == pytest.approx(public, abs=1e-12)


SCENARIOS_ON_STATES = (run_case_a, run_case_b, run_case_c)
SCENARIOS_ON_WEIGHTS = (run_strategy_i, run_strategy_ii)


def near_boundary_states():
    """States whose mismatch weight P_LH + P_HL is 1/2 +- k*1e-13, or whose
    keep-slope 2*(P_LL - P_HH + P_HL - P_LH) is +-k*1e-13, for k = 1..20."""
    for k in range(1, 21):
        for d in (k * 1e-13, -k * 1e-13):
            yield (0.5 - d, 0.0, 0.5 + d, 0.0)                        # mismatch 1/2 + d
            yield (0.0, 0.5 + d, 0.0, 0.5 - d)                        # mismatch 1/2 + d
            yield (0.25 - d / 2, 0.25 + d / 2, 0.25 + d / 2, 0.25 - d / 2)
            yield (0.25 + d / 4, 0.25, 0.25, 0.25 - d / 4)            # keep-slope d
            yield (0.5 + d / 4, 0.0, 0.0, 0.5 - d / 4)                # keep-slope d
            yield (0.1 + d / 4, 0.4, 0.4, 0.1 - d / 4)                # keep-slope d


def restates_verdict(report):
    return report.is_nash == all(check.satisfied for check in report.conditions)


class TestConditionsRestateTheVerdict:
    def test_mismatch_just_above_half_fails_both_ways(self):
        # the engine's public gap 1 - 2s allows s <= 1/2 + 5e-13 only
        report = run_case_a(QuantumInitialState.from_probabilities(
            0.5 - 8e-13, 0.0, 0.5 + 8e-13, 0.0))
        assert not report.is_nash
        assert [check.satisfied for check in report.conditions] == [True, True, False, True]
        assert report.conditions[2].value == pytest.approx(-1.6e-12, abs=1e-14)

    def test_even_mix_gaps_are_half_the_keep_slope(self):
        report = run_case_c(QuantumInitialState.from_probabilities(
            0.25 + 4e-13, 0.25, 0.25, 0.25 - 4e-13))
        # the keep-slope is 1.6e-12, beyond the tolerance, so p = 1/2 is no best
        # response: the move to p=1 gains, and both gaps are half the slope
        assert not report.is_nash
        assert [check.satisfied for check in report.conditions] == [True, False, True, True]
        assert report.conditions[0].value == pytest.approx(8e-13, abs=1e-14)
        assert report.conditions[1].value == pytest.approx(-8e-13, abs=1e-14)

    def test_near_boundary_states(self):
        for weights in near_boundary_states():
            state = QuantumInitialState.from_probabilities(*weights)
            for run in SCENARIOS_ON_STATES:
                assert restates_verdict(run(state)), (run.__name__, weights)
        for k in range(1, 21):
            for w in (0.5 + k * 1e-13, 0.5 - k * 1e-13):
                for run in SCENARIOS_ON_WEIGHTS:
                    assert restates_verdict(run(w)), (run.__name__, w)

    def test_random_states(self):
        rng = fresh_rng(44)
        for _ in range(300):
            state = random_state(rng)
            for run in SCENARIOS_ON_STATES:
                assert restates_verdict(run(state))
        for w in rng.uniform(size=100):
            for run in SCENARIOS_ON_WEIGHTS:
                assert restates_verdict(run(float(w)))


class TestEachFormBuiltOnce:
    # one _closed_forms call builds the policy and the public form, each once
    @pytest.mark.parametrize("run", SCENARIOS_ON_STATES)
    def test_runs_on_a_state(self, run, closed_form_calls, form_calls):
        run(REFERENCE)
        assert closed_form_calls == [(REFERENCE.squared_magnitudes(), bg_payoff_vectors())]
        assert len(form_calls) == 2

    @pytest.mark.parametrize("run", SCENARIOS_ON_WEIGHTS)
    def test_runs_on_a_weight(self, run, closed_form_calls, form_calls):
        # the family's own weights, with no square-root round trip
        weights = {run_strategy_i: (0.0, 0.3, 0.7, 0.0),
                   run_strategy_ii: (0.7, 0.0, 0.0, 0.3)}[run]
        run(0.3)
        assert closed_form_calls == [(weights, bg_payoff_vectors())]
        assert len(form_calls) == 2


class TestFormsFromTheFamilyWeights:
    """The strategy families' forms come from their own weights, normalized
    once, so the public q=0 margin comes out exact on every grid point."""

    @pytest.mark.parametrize("w", verification.GRID + (Fraction(1, 2),))
    def test_public_margins_are_exact(self, w):
        assert run_strategy_ii(w).conditions[2].value == 1.0
        assert run_strategy_i(w).conditions[2].value == -1.0

    @pytest.mark.parametrize("w", [0.0, 0.01, 0.1, 0.3, 0.49, 0.5, 0.51, 0.77, 1.0])
    def test_spec_path_agrees_bit_for_bit(self, w):
        spec = parse_spec(MATCHED_SPEC.format(ll=1.0 - w, hh=w))
        from_spec = verify_nash(*_closed_forms(spec._weights(), spec.payoff_vectors()),
                                MixingProfile(1, 1))
        report = run_strategy_ii(w)
        # compared as reprs, so that 0.0 and -0.0 differ
        assert repr((from_spec.row_payoff, from_spec.col_payoff, from_spec.conditions)) \
            == repr((report.policy_payoff, report.public_payoff, report.conditions))
