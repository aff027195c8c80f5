"""Noise on the initial state, and what it does to payoffs and Nash gaps.

Every payoff is linear in the state's squared magnitudes.  At the uniform
state each branch sees the mean payoff, so no deviation changes anything;
depolarizing, w -> (1-e) w + e/4, therefore scales every deviation gap by
1-e; and dephasing, which damps the off-diagonal entries of a density
matrix, leaves every diagonal payoff operator's trace alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbg import (
    MixingProfile,
    PayoffVector,
    QuantumInitialState,
    closed_form_payoff,
    expected_payoff_trace,
    final_density,
    verify_nash,
)
from qbg.engine import DensityMatrix4

# Derandomized: every run of the suite tries the same examples.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

UNIT = st.floats(0.0, 1.0)
PAYOFFS = st.builds(PayoffVector, *[st.floats(-10.0, 10.0)] * 4)
PROFILES = st.builds(MixingProfile, UNIT, UNIT)
WEIGHTS = (st.lists(UNIT, min_size=4, max_size=4)
           .filter(lambda w: sum(w) >= 1e-3)
           .map(lambda w: [x / sum(w) for x in w]))
AMPLITUDES = (st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                                          allow_infinity=False),
                       min_size=4, max_size=4)
              .filter(lambda a: sum(abs(z) ** 2 for z in a) >= 1e-6))


def nash_gaps(state, vec_row, vec_col, candidate):
    report = verify_nash(closed_form_payoff(state, vec_row),
                         closed_form_payoff(state, vec_col), candidate)
    return [check.value for check in report.conditions]


@PROPERTY
@given(PAYOFFS, PAYOFFS, PROFILES)
def test_uniform_state_has_no_gap(vec_row, vec_col, candidate):
    state = QuantumInitialState(0.5, 0.5, 0.5, 0.5)
    assert nash_gaps(state, vec_row, vec_col, candidate) == [0.0] * 4


@PROPERTY
@given(WEIGHTS, UNIT, PAYOFFS, PAYOFFS, PROFILES)
def test_depolarizing_scales_every_gap(weights, e, vec_row, vec_col, candidate):
    state = QuantumInitialState.from_probabilities(*weights)
    noisy = QuantumInitialState.from_probabilities(*((1 - e) * w + e / 4 for w in weights))
    for clean, scaled in zip(nash_gaps(state, vec_row, vec_col, candidate),
                             nash_gaps(noisy, vec_row, vec_col, candidate)):
        assert scaled == pytest.approx((1 - e) * clean, abs=1e-12)


@PROPERTY
@given(AMPLITUDES, UNIT, PAYOFFS, PAYOFFS, PROFILES)
def test_dephasing_changes_no_payoff(amplitudes, damping, vec_row, vec_col, candidate):
    rho = final_density(QuantumInitialState.normalized(*amplitudes), candidate)
    diagonal = np.diag(np.diag(np.array(rho.rows)))
    # a convex mix of rho and its diagonal: Hermitian, unit trace, PSD
    dephased = DensityMatrix4((1 - damping) * np.array(rho.rows) + damping * diagonal)
    for vec in (vec_row, vec_col):
        assert expected_payoff_trace(vec, dephased) == pytest.approx(
            expected_payoff_trace(vec, rho), abs=1e-12)
