"""Quantized Barro-Gordon monetary policy game.

Classical 2x2 payoff tables for the policy maker / public game, an
operator-mixing quantization over an entangled initial state, exact Nash
equilibrium analysis, and the named scenarios that resolve the game's time
inconsistency in the quantum setting.

The package exports the records a user constructs and the functions a user
calls.  Records that qbg only returns (``ClosedFormPayoff``,
``EquilibriumReport``, ``ScenarioReport``, ``CheckResult``, ...) and the
density-matrix oracle's building blocks are imported from their modules.
"""

from .engine import (
    MixingProfile,
    PayoffVector,
    QuantumInitialState,
    branch_outcome_matrix,
    closed_form_payoff,
    enumerate_equilibria,
    expected_payoff_trace,
    final_density,
    verify_nash,
)
from .game import (
    BimatrixGame,
    InflationProfile,
    PolicyParams,
    build_bg_game,
    find_dominated_rows,
    find_pure_nash,
    optimal_discretionary_inflation,
    policy_utility,
    public_utility,
)
from .scenarios import (
    bg_payoff_vectors,
    run_case_a,
    run_case_b,
    run_case_c,
    run_strategy_i,
    run_strategy_ii,
    weak_assumption_holds,
)
from .specfile import GameSpec, SpecError, parse_spec, render_spec
from .verification import run_verification

__version__ = "0.1.0"

__all__ = [
    "BimatrixGame",
    "GameSpec",
    "InflationProfile",
    "MixingProfile",
    "PayoffVector",
    "PolicyParams",
    "QuantumInitialState",
    "SpecError",
    "bg_payoff_vectors",
    "branch_outcome_matrix",
    "build_bg_game",
    "closed_form_payoff",
    "enumerate_equilibria",
    "expected_payoff_trace",
    "final_density",
    "find_dominated_rows",
    "find_pure_nash",
    "optimal_discretionary_inflation",
    "parse_spec",
    "policy_utility",
    "public_utility",
    "render_spec",
    "run_case_a",
    "run_case_b",
    "run_case_c",
    "run_strategy_i",
    "run_strategy_ii",
    "run_verification",
    "verify_nash",
    "weak_assumption_holds",
]
