"""End-to-end consistency checks of the whole analysis pipeline.

Every closed-form payoff, equilibrium-condition, and scenario value that the
library reports is re-derived here from reference formulas written directly
in terms of the state's squared magnitudes, then compared against the engine
and scenario outputs.  The classical payoff tables are checked against their
normalized reference values, and the trace payoffs are cross-checked against
the bilinear closed form on random inputs.

``run_verification`` returns the full check list; the CLI ``reproduce``
subcommand prints it and exits 0 only if every check passes at 1e-10.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import engine, game, scenarios

TOLERANCE = 1e-10

# Reference state: squared magnitudes on (LL, LH, HL, HH).  Chosen so every
# component is nonzero and no condition sits on a boundary.
REFERENCE_PROBS = (0.5, 0.2, 0.2, 0.1)

# Generic interior profiles for the deviation-gap identities.
GENERIC_CANDIDATE = (0.75, 0.4)
GENERIC_DEVIATION = (0.25, 0.9)

GRID = tuple(k / 100 for k in range(101))

_WEAK_TABLE = (((0, 0), (-2, -1)), ((1, -1), (-1, 0)))
_STRONG_TABLE = (((0, 0), (0, -1)), ((-1, -1), (-1, 0)))
_CELL_NAMES = {(0, 0): "ll", (0, 1): "lh", (1, 0): "hl", (1, 1): "hh"}


class CheckResult(namedtuple("CheckResult", "check_id description expected computed "
                                            "tolerance detail",
                             defaults=(TOLERANCE, ""))):
    """One check: its id and description (str), the expected and computed values
    and the tolerance between them (float), and a detail note (str)."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        if math.isnan(self.expected) or math.isnan(self.computed):
            return False
        return abs(self.expected - self.computed) <= self.tolerance


class _ReferenceForms:
    """Analytic reference formulas in the squared magnitudes (pll..phh).

    keep_slope is the policy payoff's total derivative in p (constant in q),
    mismatch is the combined weight on the LH and HL outcomes.  They are
    written by hand under qbg's pairing (p keeps the column qubit, q the row
    one), without reading ``engine._BRANCHES``, so they check the pairing.
    """

    def __init__(self, probs):
        self.pll, self.plh, self.phl, self.phh = (float(p) for p in probs)
        self.keep_slope = 2.0 * (self.pll - self.phh + self.phl - self.plh)
        self.mismatch = self.plh + self.phl

    def policy_payoff(self, p: float, q: float) -> float:
        return (self.keep_slope * p
                + (self.phl - self.pll - self.plh + self.phh) * q
                - self.pll + self.plh - 2.0 * self.phl)

    def public_payoff(self, p: float, q: float) -> float:
        return (1.0 - 2.0 * self.mismatch) * (q * (2.0 * p - 1.0) - p) - self.mismatch

    def policy_gap(self, p_star: float, p_dev: float) -> float:
        return (p_star - p_dev) * self.keep_slope

    def public_gap(self, p_star: float, q_star: float, q_dev: float) -> float:
        return (1.0 - 2.0 * self.mismatch) * (q_star - q_dev) * (2.0 * p_star - 1.0)


def _classical_checks() -> list[CheckResult]:
    checks = []
    for label, theta, table, nash_cell, dominated_row in (
            ("weak", 1, _WEAK_TABLE, (1, 1), 0),
            ("strong", 0, _STRONG_TABLE, (0, 0), 1)):
        built = game.build_bg_game(game.PolicyParams(theta=theta, a=2, b=2))
        for r in (0, 1):
            for c in (0, 1):
                cell = _CELL_NAMES[(r, c)]
                checks.append(CheckResult(
                    f"classical.{label}-table.{cell}.policy",
                    f"{label} table, cell {cell.upper()}, policy payoff",
                    float(table[r][c][0]), float(built.row_payoff(r, c))))
                checks.append(CheckResult(
                    f"classical.{label}-table.{cell}.public",
                    f"{label} table, cell {cell.upper()}, public payoff",
                    float(table[r][c][1]), float(built.col_payoff(r, c))))
        nash_ok = game.find_pure_nash(built) == frozenset({game.PureProfile(*nash_cell)})
        checks.append(CheckResult(
            f"classical.{label}-nash",
            f"{label} game has exactly the expected pure equilibrium",
            1.0, 1.0 if nash_ok else 0.0))
        dom_ok = game.find_dominated_rows(built) == frozenset(
            {game.DominatedRow(dominated_row, strict=True)})
        checks.append(CheckResult(
            f"classical.{label}-dominated",
            f"{label} game strictly dominates the expected row",
            1.0, 1.0 if dom_ok else 0.0))
    return checks


def _closed_form_checks(f_policy, f_public) -> list[CheckResult]:
    ref = _ReferenceForms(REFERENCE_PROBS)
    s = ref.mismatch
    expected_policy = {
        "constant": -ref.pll + ref.plh - 2.0 * ref.phl,
        "coeff-p": ref.keep_slope,
        "coeff-q": ref.phl - ref.pll - ref.plh + ref.phh,
        "coeff-pq": 0.0,
    }
    expected_public = {
        "constant": -s,
        "coeff-p": -(1.0 - 2.0 * s),
        "coeff-q": -(1.0 - 2.0 * s),
        "coeff-pq": 2.0 * (1.0 - 2.0 * s),
    }
    checks = []
    for player, form, expected in (("policy", f_policy, expected_policy),
                                   ("public", f_public, expected_public)):
        computed = {"constant": form.constant, "coeff-p": form.coeff_p,
                    "coeff-q": form.coeff_q, "coeff-pq": form.coeff_pq}
        for part, value in expected.items():
            checks.append(CheckResult(
                f"closed-form.{player}.{part}",
                f"bilinear {part} of the {player} payoff on the reference state",
                value, computed[part]))
    return checks


# One row per deviation-gap check on the generic profiles: the player, the
# form the gap is checked against, the description, and the reference gap in
# the reference forms, the candidate c and the deviation d.
_GAP_CHECKS = (
    ("policy", "definition", "policy deviation gap equals the payoff difference",
     lambda ref, c, d: ref.policy_payoff(c.p, c.q) - ref.policy_payoff(d.p, c.q)),
    ("public", "definition", "public deviation gap equals the payoff difference",
     lambda ref, c, d: ref.public_payoff(c.p, c.q) - ref.public_payoff(c.p, d.q)),
    ("policy", "closed-form", "policy deviation gap collapses to (p*-p) times the keep-slope",
     lambda ref, c, d: ref.policy_gap(c.p, d.p)),
    ("public", "closed-form", "public deviation gap collapses to its product form",
     lambda ref, c, d: ref.public_gap(c.p, c.q, d.q)),
)


def _gap_checks(f_row, f_col) -> list[CheckResult]:
    ref = _ReferenceForms(REFERENCE_PROBS)
    c = engine.MixingProfile(*GENERIC_CANDIDATE)
    d = engine.MixingProfile(*GENERIC_DEVIATION)
    gaps = {"policy": f_row.evaluate(c.p, c.q) - f_row.evaluate(d.p, c.q),
            "public": f_col.evaluate(c.p, c.q) - f_col.evaluate(c.p, d.q)}
    return [CheckResult(f"nash-gap.{player}.{form}", text, expected(ref, c, d), gaps[player])
            for player, form, text, expected in _GAP_CHECKS]


# One row per case of the paper, checked on the reference state: its runner
# in qbg.scenarios (called through the module, so that a patch of the
# module's function sees it), the indices of its policy and public margins
# among the report's conditions, which are what the deviations to p=0, p=1,
# q=0 and q=1 lose, in that order, and its four checks in the reference
# forms, as (id, description, expected value): the policy payoff, the public
# payoff and the two margins.
_CASES = (
    (lambda state: scenarios.run_case_a(state), (0, 2), lambda ref: (
        ("case-a.policy-payoff", "policy payoff when both players keep",
         -ref.phh - 2.0 * ref.plh + ref.phl),
        ("case-a.public-payoff", "public payoff when both players keep",
         -ref.plh - ref.phl),
        ("case-a.policy-condition", "policy stability margin of the both-keep profile",
         ref.keep_slope),
        ("case-a.public-condition", "public stability margin of the both-keep profile",
         1.0 - 2.0 * ref.mismatch))),
    (lambda state: scenarios.run_case_b(state), (1, 3), lambda ref: (
        ("case-b.policy-payoff", "policy payoff when both players flip",
         -ref.pll + ref.plh - 2.0 * ref.phl),
        ("case-b.public-payoff", "public payoff when both players flip",
         -ref.plh - ref.phl),
        ("case-b.policy-condition", "policy stability margin of the both-flip profile",
         -ref.keep_slope),
        ("case-b.public-condition", "public stability margin of the both-flip profile",
         1.0 - 2.0 * ref.mismatch))),
    (lambda state: scenarios.run_case_c(state), (0, 2), lambda ref: (
        ("case-c.policy-payoff", "policy payoff under even mixing is -1/2 on any state",
         -0.5),
        ("case-c.public-payoff", "public payoff under even mixing is -1/2 on any state",
         -0.5),
        ("case-c.policy-condition", "policy stability margin under even mixing",
         0.5 * ref.keep_slope),
        ("case-c.public-condition", "public deviation effect vanishes under even mixing",
         0.0))),
)


def _case_checks(state: engine.QuantumInitialState) -> list[CheckResult]:
    ref = _ReferenceForms(REFERENCE_PROBS)
    checks = []
    for run, (policy_margin, public_margin), rows in _CASES:
        report = run(state)
        computed = (report.policy_payoff, report.public_payoff,
                    report.conditions[policy_margin].value,
                    report.conditions[public_margin].value)
        checks += [CheckResult(check_id, text, expected, got)
                   for (check_id, text, expected), got in zip(rows(ref), computed)]
    return checks


def _worst(entries):
    """Pick the (expected, computed, detail) with the largest deviation."""
    return max(entries, key=lambda e: abs(e[0] - e[1]))


# One row per strategy family, checked on GRID at the both-keep candidate:
# the name of the runner in qbg.scenarios (looked up when the checks run, so
# that a patch of the module's function sees every grid run), the swept
# weight, the indices of the two weights that must vanish and of the two that
# carry the state, the reference policy payoff, public payoff and public
# margin in the weight w, where both-keep is an equilibrium, and (id suffix,
# description) of the six checks.
_STRATEGY_FAMILIES = (
    ("strategy-i", "run_strategy_i", "lh_prob", (0, 3, 1, 2),
     lambda w: (1.0 - w) - 2.0 * w, -1.0, -1.0, lambda w: False,
     (("state", "mismatch-only states carry no LL or HH weight"),
      ("policy-payoff", "policy payoff on mismatch-only states"),
      ("public-payoff", "public payoff is -1 on every mismatch-only state"),
      ("policy-condition", "policy stability margin on mismatch-only states"),
      ("public-condition",
       "public stability margin is -1: both-keep can never hold"),
      ("never-nash", "no mismatch-only state admits the both-keep equilibrium"))),
    ("strategy-ii", "run_strategy_ii", "hh_prob", (1, 2, 0, 3),
     lambda w: -w, 0.0, 1.0, lambda w: w <= 0.5,
     (("state", "matched-outcome states carry no LH or HL weight"),
      ("policy-payoff", "policy payoff equals minus the HH weight"),
      ("public-payoff", "public payoff is 0 on every matched-outcome state"),
      ("policy-condition", "policy stability margin on matched-outcome states"),
      ("public-condition",
       "public stability margin is +1: the column side always holds"),
      ("nash-threshold", "both-keep is an equilibrium exactly up to HH weight 1/2"))),
)


def _strategy_checks() -> list[CheckResult]:
    checks = []
    for (family, runner, weight, (z0, z1, s0, s1), policy, public, col_margin,
         nash, texts) in _STRATEGY_FAMILIES:
        run = getattr(scenarios, runner)
        entries = ([], [], [], [])   # policy payoff, public payoff, both margins
        state_error = 0.0
        nash_misses = 0
        for w in GRID:
            report = run(w)
            probs = report.state.squared_magnitudes()
            state_error = max(state_error,
                              float(probs[z0] + probs[z1] + abs(probs[s0] + probs[s1] - 1.0)))
            detail = f"grid point {weight}={w:.2f}"
            for bucket, (expected, computed) in zip(entries, (
                    (policy(w), report.policy_payoff),
                    (public, report.public_payoff),
                    (2.0 * (1.0 - 2.0 * w), report.conditions[0].value),
                    (col_margin, report.conditions[2].value))):
                bucket.append((expected, computed, detail))
            nash_misses += int(report.is_nash != nash(w))
        values = ([(0.0, state_error, "")] + [_worst(bucket) for bucket in entries]
                  + [(0.0, float(nash_misses), "")])
        checks += [CheckResult(f"{family}.{suffix}", text, expected, computed,
                               detail=detail)
                   for (suffix, text), (expected, computed, detail) in zip(texts, values)]
    return checks


def _oracle_checks() -> list[CheckResult]:
    # complex samples drawn with stdlib random; their squared magnitudes and
    # densities are Python arithmetic too, so reproduce never imports numpy
    rng = random.Random(20240809)
    policy_vec, public_vec = scenarios.bg_payoff_vectors()
    worst = 0.0
    for _ in range(50):
        state = engine.QuantumInitialState.normalized(
            *(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)))
        mix = engine.MixingProfile(rng.random(), rng.random())
        rho = engine.final_density(state, mix)
        vectors = [policy_vec, public_vec,
                   engine.PayoffVector(*(rng.uniform(-2.0, 2.0) for _ in range(4)))]
        forms = engine._closed_forms(state.squared_magnitudes(), vectors)
        for vec, form in zip(vectors, forms):
            traced = engine.expected_payoff_trace(vec, rho)
            worst = max(worst, abs(traced - form.evaluate(mix.p, mix.q)))
    return [CheckResult("oracle.trace-vs-closed-form",
                        "trace payoffs agree with the bilinear closed form",
                        0.0, worst)]


def run_verification() -> list[CheckResult]:
    """Run the full check list."""
    state = engine.QuantumInitialState.from_probabilities(*REFERENCE_PROBS)
    forms = engine._closed_forms(REFERENCE_PROBS, scenarios.bg_payoff_vectors())
    return (_classical_checks() + _closed_form_checks(*forms) + _gap_checks(*forms)
            + _case_checks(state) + _strategy_checks() + _oracle_checks())
