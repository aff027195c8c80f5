"""Quantization engine: operators, densities, payoffs, equilibria."""

import math

import numpy as np
import pytest

from conftest import (BRANCH_OPERATORS, FLIP_2, branch_weights, fresh_rng, random_state,
                      random_vector)

from qbg import (
    MixingProfile,
    PayoffVector,
    QuantumInitialState,
    bg_payoff_vectors,
    closed_form_payoff,
    enumerate_equilibria,
    expected_payoff_trace,
    final_density,
    parse_spec,
    run_case_a,
    run_case_b,
    run_case_c,
    run_verification,
    verify_nash,
)
from qbg import engine, oracle
from qbg.engine import deviation_gaps
from qbg.oracle import PSD_TOL, DensityMatrix4, initial_density

KET = {label: np.eye(4)[i] for i, label in enumerate(("LL", "LH", "HL", "HH"))}


def reference_coefficients(state, vec):
    """Bilinear coefficients recomputed by brute force from corner payoffs.

    Evaluates the branch-weighted payoff at the four (p, q) corners, each
    branch's outcome distribution taken as |U_k a|^2 for the test's own
    branch operators, and solves for the polynomial; independent of the
    engine's expansion.
    """
    amps = np.array(state, dtype=complex)
    r = np.array([np.abs(op @ amps) ** 2 for op in BRANCH_OPERATORS]) @ np.array(vec, dtype=float)

    def value(p, q):
        return float(np.array(branch_weights(p, q)) @ r)

    constant = value(0, 0)
    coeff_p = value(1, 0) - constant
    coeff_q = value(0, 1) - constant
    coeff_pq = value(1, 1) - constant - coeff_p - coeff_q
    return constant, coeff_p, coeff_q, coeff_pq


# The corners of the profile square, in canonical branch order: each puts all
# weight on one branch (keep both, flip the row qubit, flip the column qubit,
# flip both).
CORNERS = (MixingProfile(1.0, 1.0), MixingProfile(1.0, 0.0),
           MixingProfile(0.0, 1.0), MixingProfile(0.0, 0.0))


def corner_outcomes(state):
    """Branch-outcome matrix read off the oracle: row k is the diagonal of
    the final density at the corner that puts all weight on branch k."""
    return np.array([np.diag(np.array(final_density(state, mix).rows)).real for mix in CORNERS])


class TestOracleNames:
    @pytest.mark.parametrize("name", ["DensityMatrix4", "initial_density", "final_density",
                                      "expected_payoff_trace"])
    def test_engine_forwards_the_oracle_names(self, name):
        assert getattr(engine, name) is getattr(oracle, name)

    def test_engine_forwards_nothing_else(self):
        with pytest.raises(AttributeError, match="module 'qbg.engine' has no attribute 'PSD_TOL'"):
            engine.PSD_TOL


class TestFlipOperator:
    # the oracle's flip, seen through the corners that apply it to one qubit
    def test_swaps_basis_states(self):
        row_flip, col_flip = CORNERS[1], CORNERS[2]
        for label in KET:
            row, col = label
            other = {"L": "H", "H": "L"}
            state = QuantumInitialState(*KET[label])
            for mix, want in ((row_flip, other[row] + col), (col_flip, row + other[col])):
                expected = np.outer(KET[want], KET[want]).astype(complex)
                assert np.array(final_density(state, mix).rows).tobytes() == expected.tobytes()

    def test_involution_and_hermitian(self):
        # row k of the pairing table is the permutation of the suite's own
        # operator k, and each row undoes itself, so each operator is Hermitian
        for s, op in zip(engine._BRANCHES, BRANCH_OPERATORS, strict=True):
            assert np.array_equal(op, np.eye(4)[list(s)])
            assert [s[i] for i in s] == [0, 1, 2, 3]
            assert np.array_equal(op, op.conj().T)
        # each branch conjugation undoes itself: applying a corner twice to a
        # real state returns its initial density
        rng = fresh_rng(19)
        for _ in range(20):
            state = QuantumInitialState.normalized(*rng.normal(size=4))
            for k, mix in enumerate(CORNERS):
                flipped = QuantumInitialState(
                    *(BRANCH_OPERATORS[k] @ np.array(state, dtype=complex)).tolist())
                assert np.array_equal(np.array(final_density(flipped, mix).rows),
                                      np.array(initial_density(state).rows))

    def test_second_qubit_flip_on_ll(self):
        op = np.kron(np.eye(2), FLIP_2)
        psi = op @ KET["LL"]
        assert np.array_equal(psi, KET["LH"])
        rho = final_density(QuantumInitialState(1, 0, 0, 0), CORNERS[2])
        assert np.array_equal(np.array(rho.rows), np.outer(psi, psi))

    def test_first_qubit_flip_on_ll(self):
        op = np.kron(FLIP_2, np.eye(2))
        psi = op @ KET["LL"]
        assert np.array_equal(psi, KET["HL"])
        rho = final_density(QuantumInitialState(1, 0, 0, 0), CORNERS[1])
        assert np.array_equal(np.array(rho.rows), np.outer(psi, psi))


class TestQuantumInitialState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QuantumInitialState(1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("amp_ll", [1e200, -1e200, 1e160j, complex(1e160, 1e160)])
    def test_finite_amplitude_whose_square_overflows_is_unnormalized(self, amp_ll):
        with pytest.raises(ValueError, match="squared magnitudes sum to inf"):
            QuantumInitialState(amp_ll, 0, 0, 0)

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
                # complex kinds: re**2 + im**2, the one squared magnitude qbg computes
                magnitudes = (expected.real ** 2 + expected.imag ** 2 if kind % 2
                              else np.abs(expected) ** 2)
                assert bits(state.squared_magnitudes()) == bits(magnitudes)
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
                    np.abs(np.array(state, dtype=complex)) ** 2)
                checked += 1
        assert checked >= 20_000


class TestDensities:
    def test_initial_density_basis_projector(self):
        rho = initial_density(QuantumInitialState(1, 0, 0, 0))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(np.array(rho.rows), expected, atol=1e-15)

    def test_initial_density_bell_like_state(self):
        state = QuantumInitialState(1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2))
        rho = initial_density(state)
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        assert np.allclose(np.array(rho.rows), expected, atol=1e-15)

    def test_initial_density_is_rank_one(self):
        rng = fresh_rng(11)
        for _ in range(50):
            rho = initial_density(random_state(rng))
            eigs = np.sort(np.linalg.eigvalsh(np.array(rho.rows)))
            assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-12)

    def test_final_density_identity_corner(self):
        rng = fresh_rng(12)
        for _ in range(20):
            state = random_state(rng)
            rho_f = final_density(state, MixingProfile(1.0, 1.0))
            assert np.allclose(np.array(rho_f.rows), np.array(initial_density(state).rows),
                               atol=1e-14)

    def test_final_density_double_flip_corner(self):
        # explicit oracle: conjugating |LL> by the double flip gives |HH>
        both = np.kron(FLIP_2, FLIP_2)
        psi = both @ KET["LL"]
        expected = np.outer(psi, psi.conj())
        rho_f = final_density(QuantumInitialState(1, 0, 0, 0),
                              MixingProfile(0.0, 0.0))
        assert np.allclose(np.array(rho_f.rows), expected, atol=1e-15)
        assert rho_f.rows[3][3] == pytest.approx(1.0)

    def test_corner_outcomes_on_ll_follow_the_pairing(self):
        # the row player chooses p, yet p keeps the column qubit and q the row one
        state = QuantumInitialState(1, 0, 0, 0)
        for (p, q), label in (((1.0, 1.0), "LL"), ((1.0, 0.0), "HL"),
                              ((0.0, 1.0), "LH"), ((0.0, 0.0), "HH")):
            diagonal = np.diag(np.array(final_density(state, MixingProfile(p, q)).rows)).real
            assert np.array_equal(diagonal, KET[label]), (p, q)

    def test_final_density_valid_on_random_inputs(self):
        rng = fresh_rng(13)
        for _ in range(200):
            state = random_state(rng)
            mix = MixingProfile(float(rng.uniform()), float(rng.uniform()))
            m = np.array(final_density(state, mix).rows)
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
            # a a^dagger in real arithmetic, the parts of Python's complex product
            amps = np.array(state, dtype=complex)
            ar, ai = amps.real, amps.imag
            rho = np.empty((4, 4), dtype=complex)
            rho.real = np.outer(ar, ar) - np.outer(ai, -ai)
            rho.imag = np.outer(ar, -ai) + np.outer(ai, ar)
            expected = np.zeros((4, 4), dtype=complex)
            for w, op in zip(branch_weights(mix.p, mix.q), BRANCH_OPERATORS):
                if w != 0.0:
                    expected += w * (op @ rho @ op.conj().T)
            assert np.array(final_density(state, mix).rows).tobytes() == expected.tobytes()

    def test_real_states_are_bitwise_the_operator_formula(self):
        # real amplitudes never reach numpy in the oracle: zeros, -0.0 and
        # signs included, each density and each trace keeps numpy's bits
        n = 20_000
        rng = fresh_rng(16)
        amps = rng.normal(size=(n, 4))
        amps = np.where(rng.uniform(size=(n, 4)) < 0.3,
                        rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -0.5], size=(n, 4)), amps)
        hot = np.arange(0, n, 50)   # one-hot states, either sign
        amps[hot] = np.where(np.arange(4) == (hot % 4)[:, None],
                             rng.choice([1.0, -1.0], size=(len(hot), 1)), 0.0)
        amps[~amps.any(axis=1), 0] = -1.0
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        extremes = [MixingProfile(p, q) for p in (0.0, 0.5, 1.0) for q in (0.0, 0.5, 1.0)]
        randoms = rng.uniform(size=(n, 2)).tolist()
        vectors = np.where(rng.uniform(size=(n, 4)) < 0.5,
                           rng.choice([0.0, -1.0, 1.0], size=(n, 4)),
                           rng.uniform(-2, 2, size=(n, 4))).tolist()
        conjugations = [(op.astype(complex), op.conj().T.astype(complex))
                        for op in BRANCH_OPERATORS]
        for k in range(n):
            state = QuantumInitialState(*amps[k].tolist())
            mix = extremes[k % 9] if k % 2 else MixingProfile(*randoms[k])
            a = np.array(state, dtype=complex)
            rho = np.outer(a, a.conj())
            expected = np.zeros((4, 4), dtype=complex)
            for w, (op, op_dagger) in zip(branch_weights(mix.p, mix.q), conjugations):
                if w != 0.0:
                    expected += w * (op @ rho @ op_dagger)
            density = final_density(state, mix)
            assert np.array(density.rows).tobytes() == expected.tobytes()
            vec = PayoffVector(*vectors[k])
            traced = np.trace(np.diag(np.array(vec, dtype=complex)) @ expected).real
            assert np.float64(expected_payoff_trace(vec, density)).tobytes() == traced.tobytes()

    def test_oracle_does_not_read_the_closed_form_collection(self, monkeypatch):
        # the oracle shares the pairing table with the closed form, but not
        # how bilinear_coefficients collects the four coefficients from it: a
        # wrong collection leaves the oracle untouched
        state = QuantumInitialState.from_probabilities(0.4, 0.1, 0.2, 0.3)
        mix = MixingProfile(0.3, 0.6)
        vec = PayoffVector(0.0, -2.0, 1.0, -1.0)
        density = final_density(state, mix)
        matrix, trace = np.array(density.rows).tobytes(), expected_payoff_trace(vec, density).hex()
        form = closed_form_payoff(state, vec)
        original = engine.bilinear_coefficients

        def reversed_weights(w_ll, w_lh, w_hl, w_hh, vec):
            return original(w_hh, w_hl, w_lh, w_ll, vec)

        monkeypatch.setattr(engine, "bilinear_coefficients", reversed_weights)
        oracle._branch_gathers.cache_clear()
        assert closed_form_payoff(state, vec) != pytest.approx(form)
        density = final_density(state, mix)
        assert np.array(density.rows).tobytes() == matrix
        assert expected_payoff_trace(vec, density).hex() == trace

    def test_branch_operators_are_fresh_arrays(self):
        # the oracle's branch tables and its densities' rows are tuples, so
        # no caller can alter what a later call computes
        assert all(isinstance(gather, tuple)
                   for gather in oracle._branch_gathers(engine._BRANCHES))
        state, corner = QuantumInitialState(1, 0, 0, 0), MixingProfile(0.0, 0.0)
        rho = final_density(state, corner)
        with pytest.raises(TypeError):
            rho.rows[3][3] = 0.0
        scratch = np.array(rho.rows)
        scratch[:] = 0.0          # writable, and nobody else's
        assert rho.rows[3][3] == final_density(state, corner).rows[3][3] == 1.0

    def test_mixing_weights_sum_to_one(self):
        # on |LL> each branch lands on its own basis state, so the final
        # diagonal is the branch weights, which are nonnegative and sum to 1
        rng = fresh_rng(14)
        for _ in range(50):
            p, q = float(rng.uniform()), float(rng.uniform())
            weights = np.diag(np.array(final_density(QuantumInitialState(1, 0, 0, 0),
                                                     MixingProfile(p, q)).rows)).real
            assert np.array_equal(weights[[0, 2, 1, 3]], branch_weights(p, q))
            assert np.all(weights >= 0)
            assert np.sum(weights) == pytest.approx(1.0, abs=1e-15)

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
        for wrong in (np.eye(3), np.ones(4), np.zeros((4, 4, 1)), [[1, 0, 0, 0]] * 3,
                      [[1, 0, 0, 0], [0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], [None] * 4):
            with pytest.raises(ValueError, match="4x4"):
                DensityMatrix4(wrong)  # wrong shape

    def test_psd_verdict_matches_eigvalsh(self):
        # the factorization test agrees with the eigenvalue floor wherever the
        # smallest eigenvalue sits 10x or more from -PSD_TOL, and accepts
        # rank-deficient densities
        rng = fresh_rng(17)
        verdicts = {True: 0, False: 0}
        for k in range(3000):
            unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            if k % 3 == 0:    # rank 1 to 3
                eigs = np.zeros(4)
                eigs[:1 + k % 9 // 3] = rng.dirichlet(np.ones(1 + k % 9 // 3))
            else:             # smallest eigenvalue 10x to 1e6x off -PSD_TOL
                factor = 10.0 ** rng.uniform(1, 6)
                low = -PSD_TOL * (factor if k % 3 == 1 else 1 / factor)
                eigs = np.append(low, rng.dirichlet(np.ones(3)) * (1 - low))
            m = unitary @ np.diag(eigs) @ unitary.conj().T
            m = (m + m.conj().T) / 2
            smallest = np.min(np.linalg.eigvalsh(m))
            assert not -10 * PSD_TOL < smallest < -PSD_TOL / 10
            try:
                DensityMatrix4(m)
                accepted = True
            except ValueError as exc:
                assert "positive semidefinite" in str(exc)
                accepted = False
            assert accepted == (smallest >= -PSD_TOL), (k, smallest)
            verdicts[accepted] += 1
        assert verdicts[False] >= 900 and verdicts[True] >= 1900


class TestPayoffOperators:
    # the payoff operator is diagonal: traced against each basis projector it
    # gives that entry of the vector, and a zero vector gives zero everywhere
    def test_policy_diagonal(self):
        vec = PayoffVector(0, -2, 1, -1)
        for i, label in enumerate(KET):
            rho = DensityMatrix4(np.outer(KET[label], KET[label]).astype(complex))
            assert expected_payoff_trace(vec, rho) == (0.0, -2.0, 1.0, -1.0)[i]

    def test_public_diagonal(self):
        vec = PayoffVector(0, -1, -1, 0)
        for i, label in enumerate(KET):
            rho = DensityMatrix4(np.outer(KET[label], KET[label]).astype(complex))
            assert expected_payoff_trace(vec, rho) == (0.0, -1.0, -1.0, 0.0)[i]

    def test_zero_vector(self):
        rng = fresh_rng(20)
        zero = PayoffVector(0, 0, 0, 0)
        for _ in range(20):
            mix = MixingProfile(float(rng.uniform()), float(rng.uniform()))
            assert expected_payoff_trace(zero, final_density(random_state(rng), mix)) == 0.0

    def test_trace_payoff_on_basis_projector(self):
        policy_vec, _ = bg_payoff_vectors()
        rho = DensityMatrix4(np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex))
        assert expected_payoff_trace(policy_vec, rho) == pytest.approx(1.0)

    def test_trace_payoff_on_maximally_mixed(self):
        rng = fresh_rng(15)
        rho = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        for _ in range(20):
            vec = random_vector(rng)
            expected = float(np.mean(np.array(vec, dtype=float)))
            assert expected_payoff_trace(vec, rho) == pytest.approx(expected,
                                                                    abs=1e-12)


class TestBranchOutcomeMatrix:
    # the matrix is read off the corner densities (see corner_outcomes)
    def test_pure_ll_state(self):
        omega = corner_outcomes(QuantumInitialState(1, 0, 0, 0))
        expected = np.array([[1, 0, 0, 0],
                             [0, 0, 1, 0],
                             [0, 1, 0, 0],
                             [0, 0, 0, 1]], dtype=float)
        assert np.array_equal(omega, expected)

    def test_uniform_state(self):
        state = QuantumInitialState(0.5, 0.5, 0.5, 0.5)
        assert np.allclose(corner_outcomes(state), np.full((4, 4), 0.25))

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
            assert np.allclose(corner_outcomes(state), expected, atol=1e-14)

    def test_rows_and_columns_sum_to_one(self):
        rng = fresh_rng(17)
        for _ in range(100):
            omega = corner_outcomes(random_state(rng))
            assert np.allclose(omega.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(omega.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_match_operator_action(self):
        rng = fresh_rng(18)
        for _ in range(50):
            state = random_state(rng)
            amps = np.array(state, dtype=complex)
            expected = [np.abs(op @ amps) ** 2 for op in BRANCH_OPERATORS]
            assert np.allclose(corner_outcomes(state), np.array(expected), atol=1e-14)

    def test_bitwise_equal_to_kronecker_operator_action(self):
        # the canonical permutations and |U_k a|^2 for the test's own
        # operators, bit for bit on real states (one-hot, signed-zero, uniform,
        # random) and on complex ones, rephased or not: the oracle's diagonal
        # and squared_magnitudes both sum re^2 + im^2, so complex |U_k a|^2 is
        # taken the same way here
        rng = fresh_rng(21)
        real = [QuantumInitialState(*row) for row in np.eye(4)]
        real += [QuantumInitialState(*(sign * row)) for sign in (-1.0, 1.0)
                 for row in (np.array([-0.0, 0.0, 1.0, -0.0]), np.array([0.6, -0.0, 0.0, -0.8]))]
        real += [QuantumInitialState.normalized(0.5, -0.5, 0.7, -0.1),
                 QuantumInitialState(0.5, 0.5, 0.5, 0.5)]
        real += [QuantumInitialState.normalized(*rng.normal(size=4)) for _ in range(200)]
        rephased = []
        for _ in range(200):
            state = random_state(rng)
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=4))
            rephased += [state, QuantumInitialState(*(np.array(state, dtype=complex) * phases))]
        for state, is_complex in [(state, False) for state in real] + [
                (state, True) for state in rephased]:
            pll, plh, phl, phh = state.squared_magnitudes()
            canonical = np.array([[pll, plh, phl, phh], [phl, phh, pll, plh],
                                  [plh, pll, phh, phl], [phh, phl, plh, pll]])
            amps = np.array(state, dtype=complex)
            moved = [op @ amps for op in BRANCH_OPERATORS]
            if is_complex:
                operator_action = np.array([m.real ** 2 + m.imag ** 2 for m in moved])
            else:
                operator_action = np.array([np.abs(m) ** 2 for m in moved])
            omega = corner_outcomes(state)
            assert omega.tobytes() == canonical.tobytes() == operator_action.tobytes()


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
            entries = np.array(vec, dtype=float)
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
                *(complex(a * ph) for a, ph in zip(np.array(state, dtype=complex), phases)))
            candidate = MixingProfile(float(rng.uniform()), float(rng.uniform()))
            for vec in (policy_vec, public_vec):
                f1 = closed_form_payoff(state, vec)
                f2 = closed_form_payoff(rephased, vec)
                assert f1.evaluate(candidate.p, candidate.q) == pytest.approx(
                    f2.evaluate(candidate.p, candidate.q), abs=1e-12)
            r1 = verify_nash(closed_form_payoff(state, policy_vec),
                             closed_form_payoff(state, public_vec), candidate)
            r2 = verify_nash(closed_form_payoff(rephased, policy_vec),
                             closed_form_payoff(rephased, public_vec), candidate)
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
                        np.array(vec_row, dtype=float)[idx], abs=1e-12)
                    assert f_col.evaluate(p, q) == pytest.approx(
                        np.array(vec_col, dtype=float)[idx], abs=1e-12)
        corner = MixingProfile(1.0, 1.0)
        assert closed_form_payoff(state, vec_row).evaluate(corner.p, corner.q) \
            == pytest.approx(vec_row.ll, abs=1e-12)

    def test_strong_type_is_a_dummy(self):
        # the builtin-bg strong row vector is (0, 0, -c, -c), so the sums that
        # give r1 and r3 add the same two terms in swapped order, as do r0's
        # and r2's: coeff_p = r1 - r3 is exactly 0 and coeff_pq a residue
        rng = fresh_rng(26)
        for a, b in ((2, 2), (3, 5), (1, 7)):
            vec, _ = parse_spec(
                f"[game]\nmode = builtin-bg\ntheta = 0\na = {a}\nb = {b}\n").payoff_vectors()
            assert vec.ll == vec.lh == 0.0 and vec.hl == vec.hh < 0.0
            tol = 4 * math.ulp(max(abs(v) for v in vec))
            for _ in range(2000):
                form = closed_form_payoff(random_state(rng), vec)
                assert form.coeff_p == 0.0
                assert abs(form.coeff_pq) <= tol


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
        report = verify_nash(closed_form_payoff(state, policy_vec),
                             closed_form_payoff(state, public_vec),
                             MixingProfile(1.0, 1.0))
        assert report.is_nash
        assert report.row_payoff == pytest.approx(-0.2, abs=1e-12)
        assert report.col_payoff == pytest.approx(0.0, abs=1e-12)

    def test_verify_nash_mismatch_state_fails(self):
        policy_vec, public_vec = bg_payoff_vectors()
        state = QuantumInitialState.from_probabilities(0.0, 0.5, 0.5, 0.0)
        report = verify_nash(closed_form_payoff(state, policy_vec),
                             closed_form_payoff(state, public_vec),
                             MixingProfile(1.0, 1.0))
        assert not report.is_nash

    def test_verify_nash_constant_payoffs(self):
        state = QuantumInitialState(1, 0, 0, 0)
        zero = PayoffVector(0, 0, 0, 0)
        f_zero = closed_form_payoff(state, zero)
        report = verify_nash(f_zero, f_zero, MixingProfile(0.4, 0.9))
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
            f_row = closed_form_payoff(state, vec_row)
            f_col = closed_form_payoff(state, vec_col)
            report = verify_nash(f_row, f_col, cand)
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
        regions = enumerate_equilibria(closed_form_payoff(state, policy_vec),
                                       closed_form_payoff(state, public_vec))
        assert any(r.p_min <= 1.0 <= r.p_max and r.q_min <= 1.0 <= r.q_max
                   for r in regions)

    def test_zero_game_full_square(self):
        state = QuantumInitialState(1, 0, 0, 0)
        zero = PayoffVector(0, 0, 0, 0)
        f_zero = closed_form_payoff(state, zero)
        regions = enumerate_equilibria(f_zero, f_zero)
        assert len(regions) == 1
        assert regions[0].kind == "rectangle"
        region = regions[0]
        assert region.p_min <= 0.37 <= region.p_max and region.q_min <= 0.91 <= region.q_max

    def test_indifference_fiber_reported_as_segment(self):
        # public slope in q crosses zero at p = 1/2 on matched-outcome states
        policy_vec, public_vec = bg_payoff_vectors()
        state = QuantumInitialState.from_probabilities(0.5, 0.0, 0.0, 0.5)
        regions = enumerate_equilibria(closed_form_payoff(state, policy_vec),
                                       closed_form_payoff(state, public_vec))
        kinds = {r.kind for r in regions}
        assert "segment" in kinds or "rectangle" in kinds

    def test_soundness_on_random_instances(self):
        rng = fresh_rng(30)
        for _ in range(50):
            state = random_state(rng)
            vec_row = random_vector(rng)
            vec_col = random_vector(rng)
            f_row = closed_form_payoff(state, vec_row)
            f_col = closed_form_payoff(state, vec_col)
            regions = enumerate_equilibria(f_row, f_col)
            for region in regions:
                for p, q in region.sample_points():
                    report = verify_nash(f_row, f_col, MixingProfile(p, q))
                    assert report.is_nash

    def test_completeness_against_grid_brute_force(self):
        rng = fresh_rng(31)
        grid = np.linspace(0, 1, 101)
        P, Q = np.meshgrid(grid, grid, indexing="ij")
        for _ in range(50):
            state = random_state(rng)
            vec_row = random_vector(rng)
            vec_col = random_vector(rng)
            f_row = closed_form_payoff(state, vec_row)
            f_col = closed_form_payoff(state, vec_col)
            regions = enumerate_equilibria(f_row, f_col)
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

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: float residues of ~1e-16 in the forms shrink the exact segment "
        "p=0, q in [7/20, 1] to one point; ROADMAP item 1 (exact rational core) mends it"))
    def test_every_verified_profile_lies_in_an_enumerated_region(self):
        state = QuantumInitialState.from_probabilities(0, 4 / 7, 2 / 7, 1 / 7)
        f_row = closed_form_payoff(state, PayoffVector(1 / 2, -1, 0, 1 / 2))
        f_col = closed_form_payoff(state, PayoffVector(0, 3, -2, 0))
        regions = enumerate_equilibria(f_row, f_col)
        accepted = [q for q in (0.35, 0.7, 1.0)
                    if verify_nash(f_row, f_col, MixingProfile(0.0, q)).is_nash]
        assert accepted
        for q in accepted:
            assert any(r.p_min <= 0.0 <= r.p_max and r.q_min <= q <= r.q_max
                       for r in regions), (q, regions)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect 2: the absolute ALGEBRA_TOL on the forms makes the regions depend "
        "on the payoffs' scale; ROADMAP items 1 (exact core) and 3 (filtered sweep) mend it"))
    @pytest.mark.parametrize("probs, scale", [
        ((1 / 2, 1 / 5, 1 / 5, 1 / 10), 1e-13),   # one point (1, 1), read as three segments
        ((0.3, 0.1, 0.2, 0.4), 1e5),              # three segments, read as the point (0, 0)
    ], ids=["weak-table-over-1e13", "zero-keep-slope-times-1e5"])
    def test_scaling_one_players_payoffs_keeps_the_regions(self, probs, scale):
        # a positive multiple of one player's payoffs changes no preference
        policy_vec, public_vec = bg_payoff_vectors()
        state = QuantumInitialState.from_probabilities(*probs)
        f_col = closed_form_payoff(state, public_vec)
        scaled = PayoffVector(*(scale * v for v in policy_vec))
        assert (enumerate_equilibria(closed_form_payoff(state, scaled), f_col)
                == enumerate_equilibria(closed_form_payoff(state, policy_vec), f_col))


# qbg's table with branches 1 and 2 exchanged: the standard Marinatto-Weber
# pairing, in which each player's own choice keeps or flips its own qubit
STANDARD_BRANCHES = (engine._BRANCHES[0], engine._BRANCHES[2], engine._BRANCHES[1],
                     engine._BRANCHES[3])
# (0,0)-(1/2,0)-(1/2,1)-(1,1) and (0,1)-(1/2,1)-(1/2,0)-(1,0), as regions
# (p_min, p_max, q_min, q_max)
ZIGZAG = [(0, 0.5, 0, 0), (0.5, 0.5, 0, 1), (0.5, 1, 1, 1)]
MISMATCH_ZIGZAG = [(0, 0.5, 1, 1), (0.5, 0.5, 0, 1), (0.5, 1, 0, 0)]
# ROADMAP item 10's table on the paper's game: the state's weights (LL, LH,
# HL, HH), then the Nash regions under qbg's pairing and under the standard one
PAIRING_REGIONS = {
    "LL": ((1, 0, 0, 0), [(1, 1, 1, 1)], [(0, 0, 0, 0)]),
    "LL-HH-quarter": ((3 / 4, 0, 0, 1 / 4), [(1, 1, 1, 1)], [(0, 0, 0, 0)]),
    "LL-HH-half": ((1 / 2, 0, 0, 1 / 2), ZIGZAG, ZIGZAG),
    "LL-HH-three-quarters": ((1 / 4, 0, 0, 3 / 4), [(0, 0, 0, 0)], [(1, 1, 1, 1)]),
    "reference": ((1 / 2, 1 / 5, 1 / 5, 1 / 10), [(1, 1, 1, 1)], [(0, 0, 0, 0)]),
    "LH-HL-0": ((0, 0, 1, 0), [(1, 1, 0, 0)], [(1, 1, 0, 0)]),
    "LH-HL-quarter": ((0, 1 / 4, 3 / 4, 0), [(1, 1, 0, 0)], [(1, 1, 0, 0)]),
    "LH-HL-half": ((0, 1 / 2, 1 / 2, 0), MISMATCH_ZIGZAG, MISMATCH_ZIGZAG),
    "LH-HL-1": ((0, 1, 0, 0), [(0, 0, 1, 1)], [(0, 0, 1, 1)]),
}


class TestPairing:
    """The branch pairing is data: ``engine._BRANCHES`` alone decides it.

    Each test runs under qbg's table and under the standard one, which both
    the closed form and the oracle then read.
    """

    @pytest.fixture(params=["qbg", "standard"])
    def pairing(self, request, monkeypatch):
        if request.param == "standard":
            monkeypatch.setattr(engine, "_BRANCHES", STANDARD_BRANCHES)
        return request.param

    @pytest.mark.parametrize("name", PAIRING_REGIONS)
    def test_regions_of_the_papers_game(self, pairing, name):
        weights, qbg_regions, standard_regions = PAIRING_REGIONS[name]
        expected = qbg_regions if pairing == "qbg" else standard_regions
        state = QuantumInitialState.from_probabilities(*weights)
        policy_vec, public_vec = bg_payoff_vectors()
        regions = enumerate_equilibria(closed_form_payoff(state, policy_vec),
                                       closed_form_payoff(state, public_vec))
        assert len(regions) == len(expected)
        assert [x for r in regions for x in r] == pytest.approx(
            [float(x) for r in expected for x in r], abs=1e-12)

    def test_cases_on_the_reference_state(self, pairing):
        state = QuantumInitialState.from_probabilities(1 / 2, 1 / 5, 1 / 5, 1 / 10)
        verdicts = tuple(run(state).is_nash for run in (run_case_a, run_case_b, run_case_c))
        assert verdicts == {"qbg": (True, False, False),
                            "standard": (False, True, False)}[pairing]

    def test_oracle_agrees_with_the_closed_form(self, pairing):
        rng = fresh_rng(27)
        for _ in range(200):
            state, vec = random_state(rng), random_vector(rng)
            mix = MixingProfile(float(rng.uniform()), float(rng.uniform()))
            traced = expected_payoff_trace(vec, final_density(state, mix))
            assert abs(closed_form_payoff(state, vec).evaluate(mix.p, mix.q) - traced) <= 1e-12

    def test_reproduce_checks_the_pairing(self, monkeypatch):
        # reproduce's reference forms are written under qbg's pairing without
        # reading the table, so the standard table fails some of its checks
        monkeypatch.setattr(engine, "_BRANCHES", STANDARD_BRANCHES)
        assert not all(check.passed for check in run_verification())
