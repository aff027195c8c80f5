"""Records: immutable values with a fixed repr, validated however they are built."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qbg import (
    BimatrixGame,
    GameSpec,
    InflationProfile,
    MixingProfile,
    PayoffVector,
    PolicyParams,
    QuantumInitialState,
    final_density,
)
from qbg.engine import (
    ClosedFormPayoff,
    ConditionCheck,
    EquilibriumRegion,
    EquilibriumReport,
)
from qbg.game import DominatedRow, PureProfile
from qbg.scenarios import ScenarioReport, WeakAssumption
from qbg.verification import CheckResult

WEAK_TABLE = (((0, 0), (-2, -1)), ((1, -1), (-1, 0)))

# (builder, a field, the repr); the builder makes a fresh, equal record per call
RECORDS = [
    (lambda: QuantumInitialState(1.0, 0.0, 0.0, 0.0), "amp_ll",
     "QuantumInitialState(amp_ll=1.0, amp_lh=0.0, amp_hl=0.0, amp_hh=0.0)"),
    (lambda: MixingProfile(0.75, 0.25), "p", "MixingProfile(p=0.75, q=0.25)"),
    (lambda: PayoffVector(0.0, -2.0, 1.0, -1.0), "hh",
     "PayoffVector(ll=0.0, lh=-2.0, hl=1.0, hh=-1.0)"),
    (lambda: ClosedFormPayoff(-1.0, 0.5, 0.25, 0.0), "coeff_pq",
     "ClosedFormPayoff(constant=-1.0, coeff_p=0.5, coeff_q=0.25, coeff_pq=0.0)"),
    (lambda: ConditionCheck("gap", 0.5, True), "satisfied",
     "ConditionCheck(description='gap', value=0.5, satisfied=True)"),
    (lambda: EquilibriumReport(MixingProfile(1.0, 1.0), -0.5, 0.0, True, False,
                               (ConditionCheck("gap", 0.0, True),)), "is_nash",
     "EquilibriumReport(candidate=MixingProfile(p=1.0, q=1.0), row_payoff=-0.5, "
     "col_payoff=0.0, is_nash=True, is_strict_nash=False, "
     "conditions=(ConditionCheck(description='gap', value=0.0, satisfied=True),))"),
    (lambda: EquilibriumRegion(0.0, 1.0, 0.5, 0.5), "q_min",
     "EquilibriumRegion(p_min=0.0, p_max=1.0, q_min=0.5, q_max=0.5)"),
    (lambda: PolicyParams(1, 2, Fraction(3, 2)), "theta",
     "PolicyParams(theta=1, a=2, b=Fraction(3, 2))"),
    (lambda: InflationProfile(1, Fraction(1, 2)), "actual",
     "InflationProfile(actual=1, expected=Fraction(1, 2))"),
    (lambda: PureProfile(1, 0), "row_index", "PureProfile(row_index=1, col_index=0)"),
    (lambda: DominatedRow(0, strict=True), "strict", "DominatedRow(index=0, strict=True)"),
    (lambda: BimatrixGame(("L", "H"), ("L", "H"), WEAK_TABLE), "payoffs",
     "BimatrixGame(row_labels=('L', 'H'), col_labels=('L', 'H'), "
     "payoffs=(((0, 0), (-2, -1)), ((1, -1), (-1, 0))))"),
    (lambda: GameSpec("builtin-bg", theta=1, a=Fraction(2), b=Fraction(2)), "a",
     "GameSpec(mode='builtin-bg', theta=1, a=Fraction(2, 1), b=Fraction(2, 1), "
     "row_labels=('L', 'H'), col_labels=('L', 'H'), row_payoffs=None, "
     "col_payoffs=None, probabilities=None, amplitudes=None, candidate=None)"),
    (lambda: WeakAssumption(holds=True, gap=0.5), "gap",
     "WeakAssumption(holds=True, gap=0.5)"),
    (lambda: ScenarioReport("case-a", QuantumInitialState(1.0, 0.0, 0.0, 0.0),
                            MixingProfile(1.0, 1.0), 0.0, 0.0, True, True, (), "nash"),
     "verdict",
     "ScenarioReport(scenario='case-a', state=QuantumInitialState(amp_ll=1.0, "
     "amp_lh=0.0, amp_hl=0.0, amp_hh=0.0), candidate=MixingProfile(p=1.0, q=1.0), "
     "policy_payoff=0.0, public_payoff=0.0, is_nash=True, is_strict_nash=True, "
     "conditions=(), verdict='nash', notes=())"),
    (lambda: CheckResult("case-a.policy-payoff", "policy payoff", -0.5, -0.5), "computed",
     "CheckResult(check_id='case-a.policy-payoff', description='policy payoff', "
     "expected=-0.5, computed=-0.5, tolerance=1e-10, detail='')"),
]
IDS = [text.split("(")[0] for _, _, text in RECORDS]

# (record, a field, an invalid value for it): every way of building checks it
INVALID = [
    (QuantumInitialState(1.0, 0.0, 0.0, 0.0), "amp_lh", 1.0),
    (MixingProfile(0.5, 0.5), "p", 2.0),
    (PayoffVector(0.0, -2.0, 1.0, -1.0), "hl", math.inf),
    (PolicyParams(1, 2, 2), "theta", 2),
    (InflationProfile(0, 1), "expected", math.nan),
    (PureProfile(0, 1), "col_index", 2),
    (BimatrixGame(("L", "H"), ("L", "H"), WEAK_TABLE), "row_labels", ("L",)),
]


@pytest.mark.parametrize("build, field, text", RECORDS, ids=IDS)
class TestValueSemantics:
    def test_repr(self, build, field, text):
        assert repr(build()) == text

    def test_fields_cannot_be_assigned(self, build, field, text):
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.unknown_attribute = 1
        assert repr(record) == text

    def test_equal_records_hash_equal(self, build, field, text):
        first, second = build(), build()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)


def test_duplicate_regions_collapse_in_a_set():
    regions = {EquilibriumRegion(0.0, 1.0, 0.5, 0.5), EquilibriumRegion(0, 1, 0.5, 0.5),
               EquilibriumRegion(0.0, 0.0, 0.0, 0.0), EquilibriumRegion(0.0, 0.0, 0.0, 0.0)}
    assert regions == {EquilibriumRegion(0.0, 0.0, 0.0, 0.0),
                       EquilibriumRegion(0.0, 1.0, 0.5, 0.5)}


@pytest.mark.parametrize("record, field, bad", INVALID,
                         ids=[type(record).__name__ for record, _, _ in INVALID])
def test_replace_and_make_validate_like_the_constructor(record, field, bad):
    values = [bad if name == field else value
              for name, value in zip(record._fields, record)]
    with pytest.raises(ValueError) as direct:
        type(record)(*values)
    with pytest.raises(ValueError) as replaced:
        record._replace(**{field: bad})
    with pytest.raises(ValueError) as made:
        type(record)._make(values)
    assert str(replaced.value) == str(made.value) == str(direct.value)


def test_records_are_tuples():
    profile = MixingProfile(0.75, 0.25)
    assert profile == (0.75, 0.25)
    p, q = profile
    assert (p, q) == (profile.p, profile.q)
    assert profile._replace(q=0.5) == MixingProfile(0.75, 0.5)


def test_density_matrix_is_immutable_and_compares_by_identity():
    state = QuantumInitialState(1.0, 0.0, 0.0, 0.0)
    rho = final_density(state, MixingProfile(1.0, 1.0))
    with pytest.raises(AttributeError):
        rho.matrix = np.eye(4)
    with pytest.raises(AttributeError):
        del rho.matrix
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0
    assert rho == rho
    assert rho != final_density(state, MixingProfile(1.0, 1.0))
    assert repr(rho) == f"DensityMatrix4(matrix={rho.matrix!r})"
    assert repr(rho).startswith("DensityMatrix4(matrix=array([[1.+0.j, 0.+0.j")
