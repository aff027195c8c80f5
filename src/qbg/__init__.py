"""Quantized Barro-Gordon monetary policy game.

Classical 2x2 payoff tables for the policy maker / public game, an
operator-mixing quantization over an entangled initial state, exact Nash
equilibrium analysis, and the named scenarios that resolve the game's time
inconsistency in the quantum setting.

The package exports the records a user constructs and the functions a user
calls.  Records that qbg only returns (``ClosedFormPayoff``,
``EquilibriumReport``, ``ScenarioReport``, ``CheckResult``, ...) and the
density-matrix oracle's building blocks are imported from their modules.

``qbg.scenarios`` and ``qbg.verification`` run on first use: only
``reproduce`` needs them, so ``import qbg`` registers both with
``importlib.util.LazyLoader`` and their code runs at the first attribute
access.  Their module objects sit in ``sys.modules`` from ``import qbg`` on,
so code that walks the loaded qbg modules (a tracer or a monkeypatch) finds
them as if they had been imported eagerly.  Their exported names resolve
through the package's ``__getattr__``.
"""

import importlib.util
import sys

from .engine import (
    MixingProfile,
    PayoffVector,
    QuantumInitialState,
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
from .specfile import GameSpec, SpecError, parse_spec, render_spec


def _lazy_submodule(name):
    """Register ``qbg.<name>`` in ``sys.modules``; its code runs on first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


scenarios = _lazy_submodule("scenarios")
verification = _lazy_submodule("verification")

# exported name -> the lazily run module that defines it
_LAZY_EXPORTS = {
    "bg_payoff_vectors": scenarios,
    "run_case_a": scenarios,
    "run_case_b": scenarios,
    "run_case_c": scenarios,
    "run_strategy_i": scenarios,
    "run_strategy_ii": scenarios,
    "weak_assumption_holds": scenarios,
    "run_verification": verification,
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY_EXPORTS})


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
