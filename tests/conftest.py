import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qbg import PayoffVector, QuantumInitialState


# The test suite's own reference for the four mixing branches, independent of
# qbg: in canonical order, keep both qubits, flip the row (first) qubit, flip
# the column (second) qubit, flip both.  Read-only, so no test can alter them.
IDENTITY_2 = np.eye(2)
FLIP_2 = np.array([[0.0, 1.0], [1.0, 0.0]])
BRANCH_OPERATORS = (np.kron(IDENTITY_2, IDENTITY_2), np.kron(FLIP_2, IDENTITY_2),
                    np.kron(IDENTITY_2, FLIP_2), np.kron(FLIP_2, FLIP_2))
for _op in (IDENTITY_2, FLIP_2, *BRANCH_OPERATORS):
    _op.setflags(write=False)


def branch_weights(p: float, q: float) -> tuple[float, float, float, float]:
    """Weights (pq, p(1-q), (1-p)q, (1-p)(1-q)) of the branches, in canonical order."""
    return (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))


def random_state(rng) -> QuantumInitialState:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return QuantumInitialState.normalized(*amps)


def random_vector(rng, scale: float = 2.0) -> PayoffVector:
    return PayoffVector(*rng.uniform(-scale, scale, size=4))


def load_by_path(name):
    """A module of the benchmark in qbgbench/, loaded from its file once."""
    module = sys.modules.get(f"qbgbench_{name}")
    if module is None:
        path = Path(__file__).resolve().parents[1] / "qbgbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"qbgbench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module   # dataclasses reads a class's module from there
        spec.loader.exec_module(module)
    return module


def fresh_rng(seed: int = 20240809) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture
def closed_form_calls(monkeypatch):
    """The argument tuples (weights, vecs) of every ``_closed_forms`` call
    made in the test, each vecs made a tuple.

    qbg's modules call the function through ``qbg.engine``, so patching it
    there sees every call.
    """
    import qbg.engine
    original = qbg.engine._closed_forms
    calls = []

    def counted(weights, vecs):
        vecs = tuple(vecs)
        calls.append((tuple(weights), vecs))
        return original(weights, vecs)

    monkeypatch.setattr(qbg.engine, "_closed_forms", counted)
    return calls


@pytest.fixture
def form_calls(monkeypatch):
    """The argument tuples of every ``bilinear_coefficients`` call made in the
    test: one per closed form built, from a state or from a spec's weights."""
    import qbg.engine
    original = qbg.engine.bilinear_coefficients
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qbg.engine, "bilinear_coefficients", counted)
    return calls
