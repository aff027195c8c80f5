"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import csv
import io
import time

import numpy as np

from conftest import fresh_rng, random_state, random_vector

from qbg import (
    MixingProfile,
    PolicyParams,
    bg_payoff_vectors,
    build_bg_game,
    closed_form_payoff,
    enumerate_equilibria,
    expected_payoff_trace,
    final_density,
    find_dominated_rows,
    find_pure_nash,
    run_strategy_i,
    run_strategy_ii,
    verify_nash,
)
from qbg.cli import main
from qbg.game import DominatedRow, PureProfile

WEAK_TABLE = (((0, 0), (-2, -1)), ((1, -1), (-1, 0)))
STRONG_TABLE = (((0, 0), (0, -1)), ((-1, -1), (-1, 0)))

# check ids the reproduce command must cover: the two bilinear forms
# (4 coefficients each), the two deviation-gap identities in both their
# definitional and collapsed versions, four values per named case, and five
# per strategy family
REPRODUCE_COVERAGE = tuple(
    [f"closed-form.{player}.{part}"
     for player in ("policy", "public")
     for part in ("constant", "coeff-p", "coeff-q", "coeff-pq")]
    + [f"nash-gap.{player}.{kind}"
       for player in ("policy", "public")
       for kind in ("definition", "closed-form")]
    + [f"case-{case}.{item}"
       for case in ("a", "b", "c")
       for item in ("policy-payoff", "public-payoff",
                    "policy-condition", "public-condition")]
    + [f"strategy-{strategy}.{item}"
       for strategy in ("i", "ii")
       for item in ("state", "policy-payoff", "public-payoff",
                    "policy-condition", "public-condition")]
)


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_table_reproduction():
    weak = build_bg_game(PolicyParams(theta=1, a=2, b=2))
    strong = build_bg_game(PolicyParams(theta=0, a=2, b=2))
    for game, table in ((weak, WEAK_TABLE), (strong, STRONG_TABLE)):
        for r in (0, 1):
            for c in (0, 1):
                assert game.row_payoff(r, c) == table[r][c][0]
                assert game.col_payoff(r, c) == table[r][c][1]
    report(1, "both normalized payoff tables reproduce exactly (16 numbers)")


def test_criterion_2_classical_equilibria_and_dominance():
    weak = build_bg_game(PolicyParams(theta=1, a=2, b=2))
    strong = build_bg_game(PolicyParams(theta=0, a=2, b=2))
    assert find_pure_nash(weak) == {PureProfile(1, 1)}
    assert find_pure_nash(strong) == {PureProfile(0, 0)}
    assert find_dominated_rows(weak) == {DominatedRow(0, strict=True)}
    assert find_dominated_rows(strong) == {DominatedRow(1, strict=True)}
    report(2, "classical Nash sets {(H,H)}/{(L,L)} and strict dominance of L/H")


def test_criterion_3_closed_form_fidelity():
    policy_vec, public_vec = bg_payoff_vectors()
    rng = fresh_rng(101)
    for _ in range(1000):
        state = random_state(rng)
        pll, plh, phl, phh = state.squared_magnitudes()
        form = closed_form_payoff(state, policy_vec)
        assert abs(form.coeff_p - 2 * (pll - phh + phl - plh)) < 1e-12
        assert abs(form.coeff_q - (phl - pll - plh + phh)) < 1e-12
        assert abs(form.constant - (-pll + plh - 2 * phl)) < 1e-12
        assert abs(form.coeff_pq) < 1e-12
        s = plh + phl
        pub = closed_form_payoff(state, public_vec)
        assert abs(pub.constant - (-s)) < 1e-12
        assert abs(pub.coeff_p - (-(1 - 2 * s))) < 1e-12
        assert abs(pub.coeff_q - (-(1 - 2 * s))) < 1e-12
        assert abs(pub.coeff_pq - 2 * (1 - 2 * s)) < 1e-12
    report(3, "closed-form coefficients match the analytic forms on 1000 "
              "random states at 1e-12 (bilinear policy term vanishes)")


def test_criterion_4_oracle_equivalence_under_one_second():
    rng = fresh_rng(102)
    triples = [(random_state(rng), float(rng.uniform()), float(rng.uniform()))
               for _ in range(1000)]
    vectors = [random_vector(rng) for _ in range(1000)]
    start = time.perf_counter()
    worst = 0.0
    for (state, p, q), vec in zip(triples, vectors):
        rho = final_density(state, MixingProfile(p, q))
        traced = expected_payoff_trace(vec, rho)
        closed = closed_form_payoff(state, vec).evaluate(p, q)
        worst = max(worst, abs(traced - closed))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    report(4, f"trace and closed-form payoffs agree on 1000 random triples "
              f"(worst {worst:.2e}) in {elapsed:.3f}s")


def test_criterion_5_case_values():
    policy_vec, public_vec = bg_payoff_vectors()
    rng = fresh_rng(103)
    for _ in range(100):
        state = random_state(rng)
        pll, plh, phl, phh = state.squared_magnitudes()
        f_policy = closed_form_payoff(state, policy_vec)
        f_public = closed_form_payoff(state, public_vec)
        assert abs(f_policy.evaluate(0.5, 0.5) + 0.5) < 1e-12
        assert abs(f_public.evaluate(0.5, 0.5) + 0.5) < 1e-12
        assert abs(f_policy.evaluate(1.0, 1.0) - (-phh - 2 * plh + phl)) < 1e-12
        assert abs(f_public.evaluate(1.0, 1.0) - (-plh - phl)) < 1e-12
    report(5, "even-mixing payoffs are (-1/2, -1/2) and both-keep payoffs "
              "match their closed forms on 100 random states at 1e-12")


def test_criterion_6_strategy_i_grid():
    false_positives = 0
    for k in range(101):
        scenario = run_strategy_i(k / 100)
        assert abs(scenario.public_payoff + 1.0) < 1e-12
        if scenario.is_nash:
            false_positives += 1
    assert false_positives == 0
    report(6, "mismatch-only states: public payoff -1 and no both-keep "
              "equilibrium anywhere on the 101-point grid")


def test_criterion_7_strategy_ii_grid():
    for k in range(101):
        w = k / 100
        scenario = run_strategy_ii(w)
        assert abs(scenario.policy_payoff + w) < 1e-12
        assert abs(scenario.public_payoff) < 1e-12
        assert scenario.is_nash == (w <= 0.5)
        assert scenario.is_strict_nash == (w < 0.5)
    endpoint = run_strategy_ii(0.0)
    assert endpoint.policy_payoff == 0.0
    assert endpoint.public_payoff == 0.0
    assert endpoint.is_nash
    report(7, "matched-outcome states: payoffs (-w, 0), equilibrium exactly "
              "for w <= 1/2 (strictly below 1/2), commitment point (0,0) stable")


def test_criterion_8_enumerator_soundness_and_completeness():
    rng = fresh_rng(104)
    grid = np.linspace(0, 1, 101)
    P, Q = np.meshgrid(grid, grid, indexing="ij")
    checked_regions = 0
    for _ in range(200):
        state = random_state(rng)
        vec_row = random_vector(rng)
        vec_col = random_vector(rng)
        f_row = closed_form_payoff(state, vec_row)
        f_col = closed_form_payoff(state, vec_col)
        regions = enumerate_equilibria(f_row, f_col)
        for region in regions:
            checked_regions += 1
            for p, q in region.sample_points():
                assert verify_nash(f_row, f_col, MixingProfile(p, q)).is_nash
        payoff_row = (f_row.constant + f_row.coeff_p * P + f_row.coeff_q * Q
                      + f_row.coeff_pq * P * Q)
        payoff_col = (f_col.constant + f_col.coeff_p * P + f_col.coeff_q * Q
                      + f_col.coeff_pq * P * Q)
        row_at0 = f_row.constant + f_row.coeff_q * Q
        row_at1 = row_at0 + f_row.coeff_p + f_row.coeff_pq * Q
        col_at0 = f_col.constant + f_col.coeff_p * P
        col_at1 = col_at0 + f_col.coeff_q + f_col.coeff_pq * P
        mask = ((payoff_row >= row_at0 - 1e-9) & (payoff_row >= row_at1 - 1e-9)
                & (payoff_col >= col_at0 - 1e-9) & (payoff_col >= col_at1 - 1e-9))
        for i, j in zip(*np.nonzero(mask)):
            p, q = float(P[i, j]), float(Q[i, j])
            assert any(r.p_min - 1e-6 <= p <= r.p_max + 1e-6
                       and r.q_min - 1e-6 <= q <= r.q_max + 1e-6 for r in regions)
    report(8, f"all {checked_regions} regions over 200 random instances pass "
              "verification; 101x101 grid brute force finds nothing outside them")


def test_criterion_9_density_matrix_validity():
    rng = fresh_rng(105)
    for _ in range(1000):
        state = random_state(rng)
        mix = MixingProfile(float(rng.uniform()), float(rng.uniform()))
        m = np.array(final_density(state, mix).rows)
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(complex(np.trace(m)).real - 1.0) < 1e-12
        assert abs(complex(np.trace(m)).imag) < 1e-12
        assert np.min(np.linalg.eigvalsh(m)) > -1e-10
    report(9, "1000 random final densities are Hermitian, unit-trace, and PSD "
              "at the stated tolerances")


def test_criterion_10_reproduce_subcommand(capsys):
    code = main(["reproduce", "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "check_id"
    ids = {row[0] for row in rows[1:]}
    missing = [check_id for check_id in REPRODUCE_COVERAGE if check_id not in ids]
    assert not missing, f"reproduce is missing checks: {missing}"
    assert all(row[4] == "true" for row in rows[1:])
    report(10, f"reproduce exits 0 with {len(rows) - 1} checks covering all "
               f"{len(REPRODUCE_COVERAGE)} required anchors")
