"""Quantization engine: operators, densities, payoffs, equilibria."""

import numpy as np
import pytest

from conftest import fresh_rng, random_state, random_vector

from qbg import (
    MixingProfile,
    PayoffVector,
    QuantumInitialState,
    bg_payoff_vectors,
    branch_outcome_matrix,
    closed_form_payoff,
    enumerate_equilibria,
    expected_payoff_trace,
    final_density,
    verify_nash,
)
from qbg.engine import (
    DensityMatrix4,
    branch_operators,
    deviation_gaps,
    flip_operator,
    initial_density,
    mixing_weights,
    payoff_operator,
)

KET = {label: np.eye(4)[i] for i, label in enumerate(("LL", "LH", "HL", "HH"))}


def reference_coefficients(state, vec):
    """Bilinear coefficients recomputed by brute force from corner payoffs.

    Evaluates the branch-weighted payoff at the four (p, q) corners and
    solves for the polynomial; independent of the engine's expansion.
    """
    omega = branch_outcome_matrix(state)
    r = omega @ vec.as_array()

    def value(p, q):
        weights = np.array([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)])
        return float(weights @ r)

    constant = value(0, 0)
    coeff_p = value(1, 0) - constant
    coeff_q = value(0, 1) - constant
    coeff_pq = value(1, 1) - constant - coeff_p - coeff_q
    return constant, coeff_p, coeff_q, coeff_pq


class TestFlipOperator:
    def test_swaps_basis_states(self):
        flip = flip_operator()
        low, high = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.array_equal(flip @ low, high)
        assert np.array_equal(flip @ high, low)

    def test_involution_and_hermitian(self):
        flip = flip_operator()
        assert np.array_equal(flip @ flip, np.eye(2))
        assert np.array_equal(flip, flip.conj().T)

    def test_second_qubit_flip_on_ll(self):
        op = np.kron(np.eye(2), flip_operator())
        assert np.array_equal(op @ KET["LL"], KET["LH"])

    def test_first_qubit_flip_on_ll(self):
        op = np.kron(flip_operator(), np.eye(2))
        assert np.array_equal(op @ KET["LL"], KET["HL"])


class TestQuantumInitialState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QuantumInitialState(1.0, 1.0, 0.0, 0.0)

    def test_normalized_rescales(self):
        state = QuantumInitialState.normalized(3.0, 0.0, 0.0, 4.0)
        assert state.amp_ll == pytest.approx(0.6)
        assert state.amp_hh == pytest.approx(0.8)

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            QuantumInitialState.normalized(0, 0, 0, 0)

    def test_from_probabilities(self):
        state = QuantumInitialState.from_probabilities(0.5, 0.0, 0.0, 0.5)
        assert np.allclose(state.squared_magnitudes(), [0.5, 0.0, 0.0, 0.5])

    def test_from_probabilities_rejects_bad_total(self):
        with pytest.raises(ValueError):
            QuantumInitialState.from_probabilities(0.5, 0.0, 0.0, 0.4)

    def test_from_probabilities_rejects_negative(self):
        with pytest.raises(ValueError):
            QuantumInitialState.from_probabilities(1.2, 0.0, 0.0, -0.2)

    def test_construction_is_bitwise_the_numpy_formulas(self):
        # the constructors and squared_magnitudes work on Python floats; they
        # must give the bits of the numpy formulas, signed zeros included
        def bits(values):
            return np.array(values, dtype=complex).view(np.uint64).tolist()

        def fields(state):
            return [state.amp_ll, state.amp_lh, state.amp_hl, state.amp_hh]

        rng = fresh_rng(29)
        specials = [0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e-300, 3.0]
        checked = 0
        for k in range(10_500):
            kind = k % 4
            if kind == 0:
                amps = rng.normal(size=4)
            elif kind == 1:
                amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            elif kind == 2:
                amps = rng.choice(specials, size=4)
            else:
                amps = rng.choice(specials, size=4) + 1j * rng.choice(specials, size=4)
            amps = np.where(rng.uniform(size=4) < 0.25, 0.0, amps).astype(complex)
            norm = np.linalg.norm(amps)
            if norm >= 1e-15:
                state = QuantumInitialState.normalized(*amps)
                expected = amps / norm
                assert bits(fields(state)) == bits(expected)
                assert bits(state.squared_magnitudes()) == bits(np.abs(expected) ** 2)
                checked += 1

            weights = rng.uniform(size=4) * (rng.uniform(size=4) < 0.7)
            if kind:
                weights[k % 4] = 0.0
            weights[(k + 1) % 4] += weights.sum() == 0
            weights = list(weights / weights.sum())
            if kind:   # a zero weight written as -0.0, a tiny negative or 0.0
                weights[k % 4] = (-0.0, -5e-13, 0.0)[kind - 1]
            if k % 3 == 0:   # decimal rounding fuzz on the positive weights
                weights = [w + rng.normal() * 1e-10 if w > 0.01 else w for w in weights]
            probs = [np.maximum(w, 0.0) for w in weights]
            total = probs[0] + probs[1] + probs[2] + probs[3]
            if abs(total - 1.0) <= 1e-9:
                state = QuantumInitialState.from_probabilities(*weights)
                assert bits(fields(state)) == bits([np.sqrt(p / total) for p in probs])
                assert bits(state.squared_magnitudes()) == bits(
                    np.abs(state.amplitudes()) ** 2)
                checked += 1
        assert checked >= 20_000


class TestDensities:
    def test_initial_density_basis_projector(self):
        rho = initial_density(QuantumInitialState(1, 0, 0, 0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_initial_density_bell_like_state(self):
        state = QuantumInitialState(1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2))
        rho = initial_density(state)
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_initial_density_is_rank_one(self):
        rng = fresh_rng(11)
        for _ in range(50):
            rho = initial_density(random_state(rng))
            eigs = np.sort(np.linalg.eigvalsh(rho.matrix))
            assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-12)

    def test_final_density_identity_corner(self):
        rng = fresh_rng(12)
        for _ in range(20):
            state = random_state(rng)
            rho_f = final_density(state, MixingProfile(1.0, 1.0))
            assert np.allclose(rho_f.matrix, initial_density(state).matrix,
                               atol=1e-14)

    def test_final_density_double_flip_corner(self):
        # explicit oracle: conjugating |LL> by the double flip gives |HH>
        both = np.kron(flip_operator(), flip_operator())
        psi = both @ KET["LL"]
        expected = np.outer(psi, psi.conj())
        rho_f = final_density(QuantumInitialState(1, 0, 0, 0),
                              MixingProfile(0.0, 0.0))
        assert np.allclose(rho_f.matrix, expected, atol=1e-15)
        assert rho_f.matrix[3, 3] == pytest.approx(1.0)

    def test_final_density_valid_on_random_inputs(self):
        rng = fresh_rng(13)
        for _ in range(200):
            state = random_state(rng)
            mix = MixingProfile(float(rng.uniform()), float(rng.uniform()))
            m = final_density(state, mix).matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(m)) > -1e-10

    def test_final_density_is_bitwise_the_operator_formula(self):
        # the conjugation pairs are built once; the sums must not move a bit
        rng = fresh_rng(15)
        profiles = [MixingProfile(float(p), float(q)) for p, q in rng.uniform(size=(40, 2))]
        profiles += [MixingProfile(p, q) for p in (0.0, 1.0) for q in (0.0, 0.5, 1.0)]
        for mix in profiles:
            state = random_state(rng)
            amps = state.amplitudes()
            rho = np.outer(amps, amps.conj())
            expected = np.zeros((4, 4), dtype=complex)
            for w, op in zip(mixing_weights(mix), branch_operators()):
                if w != 0.0:
                    expected += w * (op @ rho @ op.conj().T)
            assert final_density(state, mix).matrix.tobytes() == expected.tobytes()

    def test_branch_operators_are_fresh_arrays(self):
        ident, flip = np.eye(2), flip_operator()
        expected = (np.kron(ident, ident), np.kron(flip, ident),
                    np.kron(ident, flip), np.kron(flip, flip))
        for op in branch_operators():
            op[:] = 0.0          # writable, and nobody else's
        assert all(np.array_equal(op, want)
                   for op, want in zip(branch_operators(), expected))
        rho = final_density(QuantumInitialState(1, 0, 0, 0), MixingProfile(0.0, 0.0))
        assert rho.matrix[3, 3] == 1.0

    def test_density_validation_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            DensityMatrix4(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            DensityMatrix4(np.diag([1.0, 0.5, -0.5, 0.0]))  # not PSD
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 0] = 1.0
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix4(bad)  # not Hermitian

    def test_mixing_weights_sum_to_one(self):
        rng = fresh_rng(14)
        for _ in range(50):
            mix = MixingProfile(float(rng.uniform()), float(rng.uniform()))
            weights = mixing_weights(mix)
            assert np.all(weights >= 0)
            assert np.sum(weights) == pytest.approx(1.0, abs=1e-15)


class TestPayoffOperators:
    def test_policy_diagonal(self):
        vec = PayoffVector(0, -2, 1, -1)
        assert np.array_equal(payoff_operator(vec), np.diag([0, -2, 1, -1]).astype(complex))

    def test_public_diagonal(self):
        vec = PayoffVector(0, -1, -1, 0)
        assert np.array_equal(payoff_operator(vec), np.diag([0, -1, -1, 0]).astype(complex))

    def test_zero_vector(self):
        assert np.array_equal(payoff_operator(PayoffVector(0, 0, 0, 0)),
                              np.zeros((4, 4), dtype=complex))

    def test_trace_payoff_on_basis_projector(self):
        policy_vec, _ = bg_payoff_vectors()
        rho = DensityMatrix4(np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex))
        assert expected_payoff_trace(policy_vec, rho) == pytest.approx(1.0)

    def test_trace_payoff_on_maximally_mixed(self):
        rng = fresh_rng(15)
        rho = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        for _ in range(20):
            vec = random_vector(rng)
            expected = float(np.mean(vec.as_array()))
            assert expected_payoff_trace(vec, rho) == pytest.approx(expected,
                                                                    abs=1e-12)


class TestBranchOutcomeMatrix:
    def test_pure_ll_state(self):
        omega = branch_outcome_matrix(QuantumInitialState(1, 0, 0, 0))
        expected = np.array([[1, 0, 0, 0],
                             [0, 0, 1, 0],
                             [0, 1, 0, 0],
                             [0, 0, 0, 1]], dtype=float)
        assert np.array_equal(omega, expected)

    def test_uniform_state(self):
        state = QuantumInitialState(0.5, 0.5, 0.5, 0.5)
        assert np.allclose(branch_outcome_matrix(state), np.full((4, 4), 0.25))

    def test_rows_are_the_canonical_permutations(self):
        # row k must be the fixed permutation pattern of the outcome weights
        rng = fresh_rng(16)
        for _ in range(100):
            state = random_state(rng)
            pll, plh, phl, phh = state.squared_magnitudes()
            expected = np.array([
                [pll, plh, phl, phh],
                [phl, phh, pll, plh],
                [plh, pll, phh, phl],
                [phh, phl, plh, pll],
            ])
            assert np.allclose(branch_outcome_matrix(state), expected,
                               atol=1e-14)

    def test_rows_and_columns_sum_to_one(self):
        rng = fresh_rng(17)
        for _ in range(100):
            omega = branch_outcome_matrix(random_state(rng))
            assert np.allclose(omega.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(omega.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_match_operator_action(self):
        rng = fresh_rng(18)
        for _ in range(50):
            state = random_state(rng)
            amps = state.amplitudes()
            expected = [np.abs(op @ amps) ** 2 for op in branch_operators()]
            assert np.allclose(branch_outcome_matrix(state),
                               np.array(expected), atol=1e-14)

    def test_bitwise_equal_to_kronecker_operator_action(self):
        # the permutation table must reproduce |U_k @ amps|^2 exactly, not
        # merely within rounding, on random, rephased and degenerate states
        rng = fresh_rng(21)
        states = [QuantumInitialState(*row) for row in np.eye(4)]
        states.append(QuantumInitialState(0.5, -0.5, 0.7, -0.1))
        for _ in range(200):
            state = random_state(rng)
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=4))
            states += [state, QuantumInitialState(*(state.amplitudes() * phases))]
        for state in states:
            amps = state.amplitudes()
            expected = np.array([np.abs(op @ amps) ** 2 for op in branch_operators()])
            assert np.array_equal(branch_outcome_matrix(state), expected)


class TestClosedForm:
    def test_policy_coefficients_formula(self):
        policy_vec, _ = bg_payoff_vectors()
        rng = fresh_rng(19)
        for _ in range(300):
            state = random_state(rng)
            pll, plh, phl, phh = state.squared_magnitudes()
            form = closed_form_payoff(state, policy_vec)
            assert form.coeff_p == pytest.approx(
                2 * (pll - phh + phl - plh), abs=1e-12)
            assert form.coeff_q == pytest.approx(
                phl - pll - plh + phh, abs=1e-12)
            assert form.constant == pytest.approx(
                -pll + plh - 2 * phl, abs=1e-12)
            assert abs(form.coeff_pq) <= 1e-12

    def test_public_form_matches_product_expression(self):
        _, public_vec = bg_payoff_vectors()
        rng = fresh_rng(20)
        for _ in range(100):
            state = random_state(rng)
            pll, plh, phl, phh = state.squared_magnitudes()
            s = plh + phl
            form = closed_form_payoff(state, public_vec)
            for p in (0.0, 0.3, 0.5, 1.0):
                for q in (0.0, 0.6, 1.0):
                    expected = (1 - 2 * s) * (q * (2 * p - 1) - p) - s
                    assert form.evaluate(p, q) == pytest.approx(expected,
                                                                abs=1e-12)

    def test_coefficients_against_corner_solve(self):
        rng = fresh_rng(21)
        for _ in range(200):
            state = random_state(rng)
            vec = random_vector(rng)
            form = closed_form_payoff(state, vec)
            constant, coeff_p, coeff_q, coeff_pq = reference_coefficients(state, vec)
            assert form.constant == pytest.approx(constant, abs=1e-12)
            assert form.coeff_p == pytest.approx(coeff_p, abs=1e-12)
            assert form.coeff_q == pytest.approx(coeff_q, abs=1e-12)
            assert form.coeff_pq == pytest.approx(coeff_pq, abs=1e-12)

    def test_pure_ll_policy_payoff_at_identity_corner(self):
        policy_vec, _ = bg_payoff_vectors()
        state = QuantumInitialState(1, 0, 0, 0)
        form = closed_form_payoff(state, policy_vec)
        rho = final_density(state, MixingProfile(1.0, 1.0))
        assert form.evaluate(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert expected_payoff_trace(policy_vec, rho) == pytest.approx(0.0,
                                                                       abs=1e-15)

    def test_trace_oracle_matches_closed_form(self):
        rng = fresh_rng(22)
        for _ in range(1000):
            state = random_state(rng)
            vec = random_vector(rng)
            p, q = float(rng.uniform()), float(rng.uniform())
            rho = final_density(state, MixingProfile(p, q))
            traced = expected_payoff_trace(vec, rho)
            closed = closed_form_payoff(state, vec).evaluate(p, q)
            assert abs(traced - closed) < 1e-10

    def test_payoffs_bounded_by_vector_range(self):
        rng = fresh_rng(23)
        for _ in range(200):
            state = random_state(rng)
            vec = random_vector(rng)
            form = closed_form_payoff(state, vec)
            entries = vec.as_array()
            for p in np.linspace(0, 1, 6):
                for q in np.linspace(0, 1, 6):
                    value = form.evaluate(float(p), float(q))
                    assert entries.min() - 1e-12 <= value <= entries.max() + 1e-12

    def test_phase_invariance(self):
        rng = fresh_rng(24)
        policy_vec, public_vec = bg_payoff_vectors()
        for _ in range(100):
            state = random_state(rng)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
            rephased = QuantumInitialState(
                *(complex(a * ph) for a, ph in zip(state.amplitudes(), phases)))
            candidate = MixingProfile(float(rng.uniform()), float(rng.uniform()))
            for vec in (policy_vec, public_vec):
                f1 = closed_form_payoff(state, vec)
                f2 = closed_form_payoff(rephased, vec)
                assert f1.evaluate(candidate.p, candidate.q) == pytest.approx(
                    f2.evaluate(candidate.p, candidate.q), abs=1e-12)
            r1 = verify_nash(state, policy_vec, public_vec, candidate)
            r2 = verify_nash(rephased, policy_vec, public_vec, candidate)
            assert r1.is_nash == r2.is_nash
            assert r1.is_strict_nash == r2.is_strict_nash

    def test_classical_corner_embedding(self):
        # on the pure LL state the four (p, q) corners reproduce the payoff
        # table; the row player's cell index follows q, the column's follows p
        rng = fresh_rng(25)
        state = QuantumInitialState(1, 0, 0, 0)
        for _ in range(50):
            vec_row = random_vector(rng)
            vec_col = random_vector(rng)
            f_row = closed_form_payoff(state, vec_row)
            f_col = closed_form_payoff(state, vec_col)
            for p in (0.0, 1.0):
                for q in (0.0, 1.0):
                    r, c = int(1 - q), int(1 - p)
                    idx = 2 * r + c
                    assert f_row.evaluate(p, q) == pytest.approx(
                        vec_row.as_array()[idx], abs=1e-12)
                    assert f_col.evaluate(p, q) == pytest.approx(
                        vec_col.as_array()[idx], abs=1e-12)
        corner = MixingProfile(1.0, 1.0)
        assert closed_form_payoff(state, vec_row).evaluate(corner.p, corner.q) \
            == pytest.approx(vec_row.ll, abs=1e-12)


class TestNashMachinery:
    def test_gap_zero_for_deviation_to_the_candidate_itself(self):
        # at a corner candidate, the deviation to its own edge changes nothing
        rng = fresh_rng(26)
        policy_vec, public_vec = bg_payoff_vectors()
        state = random_state(rng)
        f_row = closed_form_payoff(state, policy_vec)
        f_col = closed_form_payoff(state, public_vec)
        for p in (0.0, 1.0):
            for q in (0.0, 1.0):
                gaps = deviation_gaps(f_row, f_col, p, q)[2]
                assert (gaps[int(p)], gaps[2 + int(q)]) == (0.0, 0.0)

    def test_row_gap_from_identity_corner(self):
        # deviating from (1, 1) to p costs (1 - p) times the keep-slope
        rng = fresh_rng(27)
        policy_vec, public_vec = bg_payoff_vectors()
        for _ in range(100):
            state = random_state(rng)
            pll, plh, phl, phh = state.squared_magnitudes()
            f_row = closed_form_payoff(state, policy_vec)
            f_col = closed_form_payoff(state, public_vec)
            p_dev = float(rng.uniform())
            keep_slope = 2 * (pll - phh + phl - plh)
            row_gap = f_row.evaluate(1.0, 1.0) - f_row.evaluate(p_dev, 1.0)
            assert row_gap == pytest.approx((1 - p_dev) * keep_slope, abs=1e-12)
            edge_gap = deviation_gaps(f_row, f_col, 1.0, 1.0)[2][0]
            assert edge_gap == pytest.approx(keep_slope, abs=1e-12)

    def test_gaps_match_closed_form_differences(self):
        # each edge gap is the candidate's payoff minus the deviation's, bit for bit
        rng = fresh_rng(28)
        for _ in range(200):
            state = random_state(rng)
            f_row = closed_form_payoff(state, random_vector(rng))
            f_col = closed_form_payoff(state, random_vector(rng))
            p, q = float(rng.uniform()), float(rng.uniform())
            row_payoff, col_payoff, gaps, _ = deviation_gaps(f_row, f_col, p, q)
            assert (row_payoff, col_payoff) == (f_row.evaluate(p, q), f_col.evaluate(p, q))
            assert gaps == (
                f_row.evaluate(p, q) - f_row.evaluate(0.0, q),
                f_row.evaluate(p, q) - f_row.evaluate(1.0, q),
                f_col.evaluate(p, q) - f_col.evaluate(p, 0.0),
                f_col.evaluate(p, q) - f_col.evaluate(p, 1.0))

    def test_verify_nash_matched_outcome_state(self):
        policy_vec, public_vec = bg_payoff_vectors()
        state = QuantumInitialState.from_probabilities(0.8, 0.0, 0.0, 0.2)
        report = verify_nash(state, policy_vec, public_vec,
                             MixingProfile(1.0, 1.0))
        assert report.is_nash
        assert report.row_payoff == pytest.approx(-0.2, abs=1e-12)
        assert report.col_payoff == pytest.approx(0.0, abs=1e-12)

    def test_verify_nash_mismatch_state_fails(self):
        policy_vec, public_vec = bg_payoff_vectors()
        state = QuantumInitialState.from_probabilities(0.0, 0.5, 0.5, 0.0)
        report = verify_nash(state, policy_vec, public_vec,
                             MixingProfile(1.0, 1.0))
        assert not report.is_nash

    def test_verify_nash_constant_payoffs(self):
        state = QuantumInitialState(1, 0, 0, 0)
        zero = PayoffVector(0, 0, 0, 0)
        report = verify_nash(state, zero, zero, MixingProfile(0.4, 0.9))
        assert report.is_nash
        assert not report.is_strict_nash

    def test_verify_nash_brute_force_agreement(self):
        # oracle: dense grid of unilateral deviations
        rng = fresh_rng(29)
        grid = np.linspace(0, 1, 101)
        for _ in range(50):
            state = random_state(rng)
            vec_row = random_vector(rng)
            vec_col = random_vector(rng)
            cand = MixingProfile(float(rng.choice([0.0, 0.5, 1.0])),
                                 float(rng.uniform()))
            report = verify_nash(state, vec_row, vec_col, cand)
            f_row = closed_form_payoff(state, vec_row)
            f_col = closed_form_payoff(state, vec_col)
            base_row = f_row.evaluate(cand.p, cand.q)
            base_col = f_col.evaluate(cand.p, cand.q)
            brute = all(base_row >= f_row.evaluate(float(p), cand.q) - 1e-9
                        for p in grid) \
                and all(base_col >= f_col.evaluate(cand.p, float(q)) - 1e-9
                        for q in grid)
            assert report.is_nash == brute


class TestEnumerateEquilibria:
    def test_matched_outcome_state_has_identity_corner(self):
        policy_vec, public_vec = bg_payoff_vectors()
        state = QuantumInitialState.from_probabilities(0.7, 0.0, 0.0, 0.3)
        regions = enumerate_equilibria(state, policy_vec, public_vec)
        assert any(r.p_min <= 1.0 <= r.p_max and r.q_min <= 1.0 <= r.q_max
                   for r in regions)

    def test_zero_game_full_square(self):
        state = QuantumInitialState(1, 0, 0, 0)
        zero = PayoffVector(0, 0, 0, 0)
        regions = enumerate_equilibria(state, zero, zero)
        assert len(regions) == 1
        assert regions[0].kind == "rectangle"
        region = regions[0]
        assert region.p_min <= 0.37 <= region.p_max and region.q_min <= 0.91 <= region.q_max

    def test_indifference_fiber_reported_as_segment(self):
        # public slope in q crosses zero at p = 1/2 on matched-outcome states
        policy_vec, public_vec = bg_payoff_vectors()
        state = QuantumInitialState.from_probabilities(0.5, 0.0, 0.0, 0.5)
        regions = enumerate_equilibria(state, policy_vec, public_vec)
        kinds = {r.kind for r in regions}
        assert "segment" in kinds or "rectangle" in kinds

    def test_soundness_on_random_instances(self):
        rng = fresh_rng(30)
        for _ in range(50):
            state = random_state(rng)
            vec_row = random_vector(rng)
            vec_col = random_vector(rng)
            regions = enumerate_equilibria(state, vec_row, vec_col)
            for region in regions:
                for p, q in region.sample_points():
                    report = verify_nash(state, vec_row, vec_col,
                                         MixingProfile(p, q))
                    assert report.is_nash

    def test_completeness_against_grid_brute_force(self):
        rng = fresh_rng(31)
        grid = np.linspace(0, 1, 101)
        P, Q = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(50):
            state = random_state(rng)
            vec_row = random_vector(rng)
            vec_col = random_vector(rng)
            regions = enumerate_equilibria(state, vec_row, vec_col)
            f_row = closed_form_payoff(state, vec_row)
            f_col = closed_form_payoff(state, vec_col)
            payoff_row = (f_row.constant + f_row.coeff_p * P
                          + f_row.coeff_q * Q + f_row.coeff_pq * P * Q)
            payoff_col = (f_col.constant + f_col.coeff_p * P
                          + f_col.coeff_q * Q + f_col.coeff_pq * P * Q)
            row_at0 = f_row.constant + f_row.coeff_q * Q
            row_at1 = row_at0 + f_row.coeff_p + f_row.coeff_pq * Q
            col_at0 = f_col.constant + f_col.coeff_p * P
            col_at1 = col_at0 + f_col.coeff_q + f_col.coeff_pq * P
            mask = ((payoff_row >= row_at0 - 1e-9)
                    & (payoff_row >= row_at1 - 1e-9)
                    & (payoff_col >= col_at0 - 1e-9)
                    & (payoff_col >= col_at1 - 1e-9))
            for i, j in zip(*np.nonzero(mask)):
                p, q = float(P[i, j]), float(Q[i, j])
                assert any(r.p_min - 1e-6 <= p <= r.p_max + 1e-6
                           and r.q_min - 1e-6 <= q <= r.q_max + 1e-6
                           for r in regions), f"grid equilibrium ({p}, {q}) not covered"
