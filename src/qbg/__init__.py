"""Quantized Barro-Gordon monetary policy game.

Classical 2x2 payoff tables for the policy maker / public game, an
operator-mixing quantization over an entangled initial state, Nash
equilibrium analysis of its closed form in floating point, and the named
scenarios that resolve the game's time inconsistency in the quantum setting.

The package exports the records a user constructs and the functions a user
calls.  Records that qbg only returns (``ClosedFormPayoff``,
``EquilibriumReport``, ``ScenarioReport``, ``CheckResult``, ...) and the
density-matrix oracle's building blocks are imported from their modules.

A command runs only the modules it needs, so ``import qbg`` runs none of
them: it registers ``qbg.engine``, ``qbg.game``, ``qbg.scenarios``,
``qbg.specfile`` and ``qbg.verification`` with
``importlib.util.LazyLoader``, and a module's code runs at its first
attribute access.  Their module objects sit in ``sys.modules`` from
``import qbg`` on, so code that walks the loaded qbg modules (a tracer or a
monkeypatch) finds them as if they had been imported eagerly.  The modules
bind each other as modules (``from . import engine``), never names from
them, so each function is bound once, in its own module, and a wrapper set
there sees every call.  Every exported name resolves through the package's
``__getattr__``.
"""

import importlib.util
import sys


def _lazy_submodule(name):
    """Register ``qbg.<name>`` in ``sys.modules``; its code runs on first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


engine = _lazy_submodule("engine")
game = _lazy_submodule("game")
scenarios = _lazy_submodule("scenarios")
specfile = _lazy_submodule("specfile")
verification = _lazy_submodule("verification")

# exported name -> the lazily run module that defines it
_EXPORTS = {name: module for module, names in (
    (engine, ("MixingProfile", "PayoffVector", "QuantumInitialState", "closed_form_payoff",
              "enumerate_equilibria", "expected_payoff_trace", "final_density",
              "verify_nash")),
    (game, ("BimatrixGame", "InflationProfile", "PolicyParams", "build_bg_game",
            "find_dominated_rows", "find_pure_nash", "optimal_discretionary_inflation",
            "policy_utility", "public_utility")),
    (specfile, ("GameSpec", "SpecError", "parse_spec")),
    (scenarios, ("bg_payoff_vectors", "run_case_a", "run_case_b", "run_case_c",
                 "run_strategy_i", "run_strategy_ii", "weak_assumption_holds")),
    (verification, ("run_verification",)),
) for name in names}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
