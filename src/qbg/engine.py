"""Operator-mixing quantization of 2x2 games on a shared entangled state.

The joint strategy space is the 4-dimensional Hilbert space with ordered
basis (LL, LH, HL, HH); the first letter is the row player's strategy, the
second the column player's.  Starting from a fixed normalized initial state,
the row player keeps the identity with probability p and the column player
with probability q, the alternative being the strategy-flip operator C with
C|L> = |H> and C|H> = |L>.

Mixing produces a convex combination of four conjugated densities.  The
canonical branch order is

    (keep, keep), (flip row qubit, keep), (keep, flip column qubit), (flip, flip)

with weights (p*q, p*(1-q), (1-p)*q, (1-p)*(1-q)).  Under this pairing the
trace payoffs agree exactly with the bilinear closed form
``constant + coeff_p*p + coeff_q*q + coeff_pq*p*q`` expanded from the
branch-outcome matrix, which is what all equilibrium conditions are read
from.  ``bilinear_coefficients`` computes that form for one state or, on
numpy arrays, for a whole grid of states, summing in one fixed order so
that both give the same bits.

Expected payoffs are traces of diagonal payoff operators against the final
density matrix; because the operators are diagonal, payoffs depend only on
squared amplitude magnitudes, so all results are invariant under rephasing
any amplitude.

The state constructors, the closed form and the Nash tests work on Python
floats.  numpy is imported on first use: by the density-matrix oracle, by
the accessors that return arrays, by ``normalized_amplitudes`` when it is
given arrays, and for the squared magnitudes of complex amplitudes.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from ._records import ValidatedRecord

ALGEBRA_TOL = 1e-12        # tolerance for algebraic identities (norms, traces, slopes)
NORMALIZATION_TOL = 1e-9   # how far decimal state weights may sum from 1
PSD_TOL = 1e-10            # eigenvalue floor for positive semidefiniteness

BASIS_LABELS = ("LL", "LH", "HL", "HH")

# Row k lists, for each basis outcome j, the index of the initial-state
# component that branch operator k moves onto j; the operators are 0/1
# permutation matrices, so indexing reproduces |U_k @ amps|^2 bit for bit.
_PERM = ((0, 1, 2, 3),
         (2, 3, 0, 1),
         (1, 0, 3, 2),
         (3, 2, 1, 0))


def _clip_float(p):
    """np.maximum(p, 0.0) on one float, NaN and signed zeros included."""
    return 0.0 if p <= 0.0 else p


def _extract_float(off, total):
    """np.extract(off, total) on one float."""
    return (total,) if off else ()


def normalized_amplitudes(p_ll, p_lh, p_hl, p_hh):
    """Real amplitudes sqrt(w / total) of the weights (LL, LH, HL, HH).

    Each weight is clipped at 0 and divided by the clipped weights' total,
    which must be 1 within ``NORMALIZATION_TOL``.  The weights may be floats
    or numpy arrays of one shape; the arithmetic is elementwise, so an array
    entry gets the same bits as the same weights passed as floats.  Floats
    are handled with ``math``, so numpy is imported only when an array is given.
    """
    weights = (p_ll, p_lh, p_hl, p_hh)
    if all(isinstance(p, (int, float)) for p in weights):
        clip, sqrt, extract = _clip_float, math.sqrt, _extract_float
    else:
        import numpy as np
        clip, sqrt, extract = (lambda p: np.maximum(p, 0.0)), np.sqrt, np.extract
    probs = [clip(p) for p in weights]
    total = probs[0] + probs[1] + probs[2] + probs[3]
    off = extract(abs(total - 1.0) > NORMALIZATION_TOL, total)
    if len(off):
        raise ValueError(f"squared magnitudes sum to {float(off[0])!r}, expected 1")
    return tuple(sqrt(p / total) for p in probs)


class QuantumInitialState(ValidatedRecord,
                          namedtuple("QuantumInitialState", "amp_ll amp_lh amp_hl amp_hh")):
    """Normalized amplitudes over the ordered basis (LL, LH, HL, HH)."""

    __slots__ = ()

    def __new__(cls, amp_ll: complex, amp_lh: complex, amp_hl: complex,
                amp_hh: complex):
        amps = (amp_ll, amp_lh, amp_hl, amp_hh)
        for a in amps:
            z = complex(a)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("amplitudes must be finite")
        norm_sq = sum(abs(complex(a)) ** 2 for a in amps)
        if abs(norm_sq - 1.0) > ALGEBRA_TOL:
            raise ValueError(
                f"state not normalized: squared magnitudes sum to {norm_sq!r}")
        return tuple.__new__(cls, amps)

    @classmethod
    def normalized(cls, amp_ll, amp_lh, amp_hl, amp_hh) -> "QuantumInitialState":
        """Rescale arbitrary amplitudes to unit norm (rejects the zero vector).

        The arithmetic is that of ``amps / np.linalg.norm(amps)``, bit for
        bit: the norm sums the squared real parts and the squared imaginary
        parts each as (x0 + x2) + (x1 + x3), and dividing a complex number by
        a real one multiplies both parts by its reciprocal after adding a
        zero cross term, which fixes the signs of zero parts.
        """
        amps = [complex(a) for a in (amp_ll, amp_lh, amp_hl, amp_hh)]
        re = [a.real * a.real for a in amps]
        im = [a.imag * a.imag for a in amps]
        norm = math.sqrt(((re[0] + re[2]) + (re[1] + re[3]))
                         + ((im[0] + im[2]) + (im[1] + im[3])))
        if norm < 1e-15:
            raise ValueError("cannot normalize the zero vector")
        scale = 1.0 / norm
        return cls(*(complex((a.real + a.imag * 0.0) * scale,
                             (a.imag - a.real * 0.0) * scale) for a in amps))

    @classmethod
    def from_probabilities(cls, p_ll, p_lh, p_hl, p_hh) -> "QuantumInitialState":
        """State with nonnegative real amplitudes from squared magnitudes.

        The four weights must sum to 1 within ``NORMALIZATION_TOL`` (decimal
        input is expected to carry rounding fuzz); they are rescaled exactly
        before taking square roots (see ``normalized_amplitudes``).
        """
        probs = [float(p) for p in (p_ll, p_lh, p_hl, p_hh)]
        for p in probs:
            if not math.isfinite(p) or p < -ALGEBRA_TOL:
                raise ValueError(f"squared magnitudes must be nonnegative, got {p!r}")
        return cls(*(complex(a) for a in normalized_amplitudes(*probs)))

    def squared_magnitudes(self) -> tuple[float, float, float, float]:
        """Squared magnitudes in basis order; these drive every payoff.

        numpy computes a complex absolute value as larger * sqrt(1 + ratio**2),
        with a fused multiply-add where the CPU has one; that is not
        ``math.hypot``, and the two differ in the last bit for about a third
        of random complex amplitudes.  States with an imaginary part therefore
        keep numpy's bits.  Real ones, the only kind a spec file can write,
        need no numpy: both give |a| there.
        """
        amps = [complex(a) for a in (self.amp_ll, self.amp_lh, self.amp_hl, self.amp_hh)]
        if any(a.imag for a in amps):
            import numpy as np
            return tuple((np.abs(np.array(amps)) ** 2).tolist())
        return tuple([a.real * a.real for a in amps])

    def amplitudes(self) -> np.ndarray:
        import numpy as np
        return np.array([self.amp_ll, self.amp_lh, self.amp_hl, self.amp_hh],
                        dtype=complex)


class MixingProfile(ValidatedRecord, namedtuple("MixingProfile", "p q")):
    """Identity-operator probabilities (p for the row player, q for the column)."""

    __slots__ = ()

    def __new__(cls, p: float, q: float):
        for name, value in (("p", p), ("q", q)):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        return tuple.__new__(cls, (p, q))


class DensityMatrix4:
    """4x4 density matrix over the game basis.

    Validated on construction: Hermitian and unit trace within 1e-12,
    eigenvalues above -1e-10.
    """

    __slots__ = ("matrix",)   # read-only, never reassigned; compares by identity

    def __init__(self, matrix: np.ndarray):
        import numpy as np
        m = np.array(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > ALGEBRA_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > ALGEBRA_TOL or abs(np.trace(m).imag) > ALGEBRA_TOL:
            raise ValueError("density matrix trace is not 1")
        if np.min(np.linalg.eigvalsh(m)) < -PSD_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"DensityMatrix4(matrix={self.matrix!r})"


class PayoffVector(ValidatedRecord, namedtuple("PayoffVector", "ll lh hl hh")):
    """Diagonal of one player's payoff operator, in basis order."""

    __slots__ = ()

    def __new__(cls, ll: float, lh: float, hl: float, hh: float):
        values = (ll, lh, hl, hh)
        for v in values:
            if not math.isfinite(v):
                raise ValueError("payoffs must be finite")
        return tuple.__new__(cls, values)

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([self.ll, self.lh, self.hl, self.hh], dtype=float)


class ClosedFormPayoff(namedtuple("ClosedFormPayoff", "constant coeff_p coeff_q coeff_pq")):
    """Expected payoff as a bilinear polynomial in the identity probabilities.

    evaluate(p, q) = constant + coeff_p*p + coeff_q*q + coeff_pq*p*q

    The coefficients may also be numpy arrays of one shape, holding many
    forms; evaluate then works elementwise with the same operation order.
    """

    __slots__ = ()

    def evaluate(self, p: float, q: float) -> float:
        return self.constant + self.coeff_p * p + self.coeff_q * q + self.coeff_pq * p * q


class ConditionCheck(namedtuple("ConditionCheck", "description value satisfied")):
    """One condition: its description (str), value (float), and whether it holds (bool)."""

    __slots__ = ()


class EquilibriumReport(namedtuple("EquilibriumReport", (
        "candidate",        # MixingProfile
        "row_payoff",       # float
        "col_payoff",       # float
        "is_nash",          # no extreme deviation gains (weak inequalities)
        "is_strict_nash",   # every actual deviation strictly loses
        "conditions"))):    # tuple[ConditionCheck, ...]
    """Outcome of testing one candidate profile for Nash stability."""

    __slots__ = ()


class EquilibriumRegion(namedtuple("EquilibriumRegion", "p_min p_max q_min q_max")):
    """Axis-aligned set of equilibrium profiles: point, segment, or rectangle."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        p_flat = self.p_min == self.p_max
        q_flat = self.q_min == self.q_max
        if p_flat and q_flat:
            return "point"
        if p_flat or q_flat:
            return "segment"
        return "rectangle"

    def sample_points(self) -> list[tuple[float, float]]:
        """Corners plus center; enough to probe a bilinear payoff on the region."""
        ps = {self.p_min, self.p_max, 0.5 * (self.p_min + self.p_max)}
        qs = {self.q_min, self.q_max, 0.5 * (self.q_min + self.q_max)}
        return [(p, q) for p in sorted(ps) for q in sorted(qs)]


def flip_operator() -> np.ndarray:
    """Single-qubit strategy swap: unitary, Hermitian, its own inverse."""
    import numpy as np
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def branch_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four conjugation operators in canonical branch order."""
    import numpy as np
    ident = np.eye(2)
    flip = flip_operator()
    return (np.kron(ident, ident), np.kron(flip, ident),
            np.kron(ident, flip), np.kron(flip, flip))


@functools.cache
def _branch_conjugations() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(U_k, U_k^dagger) for the branch operators, built on first use.

    The arrays are shared by every call, so they are made read-only;
    ``branch_operators`` keeps handing out fresh ones.
    """
    pairs = tuple((op, op.conj().T) for op in branch_operators())
    for pair in pairs:
        for array in pair:
            array.setflags(write=False)
    return pairs


def mixing_weights(mix: MixingProfile) -> np.ndarray:
    """Branch weights (pq, p(1-q), (1-p)q, (1-p)(1-q)); a probability vector."""
    import numpy as np
    p, q = mix.p, mix.q
    return np.array([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)])


def initial_density(state: QuantumInitialState) -> DensityMatrix4:
    """Rank-1 projector onto the initial state."""
    import numpy as np
    amps = state.amplitudes()
    return DensityMatrix4(np.outer(amps, amps.conj()))


def final_density(state: QuantumInitialState, mix: MixingProfile) -> DensityMatrix4:
    """Convex combination of the four conjugated initial densities."""
    import numpy as np
    amps = state.amplitudes()
    rho = np.outer(amps, amps.conj())
    weights = mixing_weights(mix)
    out = np.zeros((4, 4), dtype=complex)
    for w, (op, op_dagger) in zip(weights, _branch_conjugations()):
        if w != 0.0:
            out += w * (op @ rho @ op_dagger)
    return DensityMatrix4(out)


def payoff_operator(vec: PayoffVector) -> np.ndarray:
    """Diagonal payoff operator in basis order."""
    import numpy as np
    return np.diag(vec.as_array()).astype(complex)


def expected_payoff_trace(vec: PayoffVector, rho: DensityMatrix4) -> float:
    """Tr(P rho) for the diagonal payoff operator P built from ``vec``.

    Raises if the trace carries an imaginary residue above tolerance, which
    would indicate a corrupted density matrix.
    """
    import numpy as np
    value = complex(np.trace(payoff_operator(vec) @ rho.matrix))
    if abs(value.imag) > ALGEBRA_TOL:
        raise ValueError(f"payoff trace has imaginary residue {value.imag!r}")
    return float(value.real)


def branch_outcome_matrix(state: QuantumInitialState) -> np.ndarray:
    """4x4 matrix whose row k is the basis-outcome distribution of branch k.

    Row k lists |<basis_j| U_k |state>|^2 for the canonical branch operators
    U_k; every row and every column sums to 1 (each row is a permutation of
    the state's squared magnitudes).  The operators only permute basis
    components, so the rows are read off the squared magnitudes through a
    fixed index table; ``branch_operators`` stays as the independent check.
    """
    import numpy as np
    return np.array(state.squared_magnitudes())[np.array(_PERM)]


def bilinear_coefficients(w_ll, w_lh, w_hl, w_hh, vec: PayoffVector):
    """(constant, coeff_p, coeff_q, coeff_pq) of the payoff on weights (LL, LH, HL, HH).

    With r = branch_outcome_matrix(state) @ vec and branch weights
    (pq, p(1-q), (1-p)q, (1-p)(1-q)), the payoff collects to
    r3 + (r1-r3) p + (r2-r3) q + (r0-r1-r2+r3) pq.

    The weights may be floats or numpy arrays of one shape.  Each r_k is the
    dot product of row k of ``_PERM`` applied to the weights with ``vec``,
    written out as terms x0..x3 summed in the fixed order
    (x0 + x2) + (x1 + x3).  Floating-point addition is not associative, so a
    fixed order is what makes a grid of states evaluated as arrays agree bit
    for bit with each state evaluated alone; this pairing also reproduces
    the 4x4 BLAS product the form was first computed with.
    """
    v0, v1, v2, v3 = float(vec.ll), float(vec.lh), float(vec.hl), float(vec.hh)
    r0 = (w_ll * v0 + w_hl * v2) + (w_lh * v1 + w_hh * v3)
    r1 = (w_hl * v0 + w_ll * v2) + (w_hh * v1 + w_lh * v3)
    r2 = (w_lh * v0 + w_hh * v2) + (w_ll * v1 + w_hl * v3)
    r3 = (w_hh * v0 + w_lh * v2) + (w_hl * v1 + w_ll * v3)
    return r3, r1 - r3, r2 - r3, r0 - r1 - r2 + r3


def closed_form_payoff(state: QuantumInitialState, vec: PayoffVector) -> ClosedFormPayoff:
    """Expand the branch-weighted expected payoff into its bilinear form."""
    return ClosedFormPayoff(*bilinear_coefficients(*state.squared_magnitudes(), vec))


def payoff_vectors_from_game(game) -> tuple[PayoffVector, PayoffVector]:
    """Diagonal payoff vectors (row player, column player) from a 2x2 game.

    Basis order maps to table cells as LL=(0,0), LH=(0,1), HL=(1,0), HH=(1,1).
    """
    cells = ((0, 0), (0, 1), (1, 0), (1, 1))
    row = PayoffVector(*(float(game.row_payoff(r, c)) for r, c in cells))
    col = PayoffVector(*(float(game.col_payoff(r, c)) for r, c in cells))
    return row, col


def deviation_gaps(f_row: ClosedFormPayoff, f_col: ClosedFormPayoff, p, q):
    """Payoffs at (p, q) and what each extreme unilateral deviation loses.

    Returns (row payoff, column payoff, gaps, holds).  ``gaps`` are the
    payoff losses of the row player moving to p=0 and to p=1 and of the
    column player moving to q=0 and to q=1, in that order; ``holds`` says,
    for each, that the deviation gains at most ``ALGEBRA_TOL``.  The weak Nash
    verdict is that every entry of ``holds`` is true.  The forms and the
    profile may hold numpy arrays; everything then works elementwise with
    the operation order of the scalar case.
    """
    row_payoff = f_row.evaluate(p, q)
    col_payoff = f_col.evaluate(p, q)
    gaps = (row_payoff - f_row.evaluate(0.0, q), row_payoff - f_row.evaluate(1.0, q),
            col_payoff - f_col.evaluate(p, 0.0), col_payoff - f_col.evaluate(p, 1.0))
    return row_payoff, col_payoff, gaps, tuple(gap >= -ALGEBRA_TOL for gap in gaps)


def verify_nash(state: QuantumInitialState, vec_row: PayoffVector,
                vec_col: PayoffVector, candidate: MixingProfile) -> EquilibriumReport:
    """Test a candidate profile against every unilateral deviation.

    Each payoff is affine in the player's own probability at a fixed opponent
    probability, so checking the two extreme deviations (0 and 1) decides the
    condition for the whole interval.  The weak verdict allows ties; the
    strict verdict requires every actual deviation to lose.
    """
    p, q = candidate.p, candidate.q
    row_payoff, col_payoff, gaps, holds = deviation_gaps(
        closed_form_payoff(state, vec_row), closed_form_payoff(state, vec_col), p, q)

    deviations = (("row", "p", p, 0.0), ("row", "p", p, 1.0),
                  ("column", "q", q, 0.0), ("column", "q", q, 1.0))
    checks = []
    strict = True
    for (player, var, own, edge), gap, ok in zip(deviations, gaps, holds):
        if abs(edge - own) > ALGEBRA_TOL:
            strict = strict and gap > ALGEBRA_TOL
        checks.append(ConditionCheck(
            f"{player} deviation to {var}={edge:g} does not gain", gap, ok))

    return EquilibriumReport(candidate=candidate, row_payoff=row_payoff,
                             col_payoff=col_payoff, is_nash=all(holds),
                             is_strict_nash=strict, conditions=tuple(checks))


def _best_response_pieces(lin: float, bil: float):
    """Pieces ((own_lo, own_hi), (other_lo, other_hi)) of a best-response set.

    The player's payoff slope in its own probability is ``lin + bil * other``;
    the best response is 1 where the slope is positive, 0 where negative, and
    the whole interval at an exact zero.
    """
    if abs(bil) <= ALGEBRA_TOL:
        if abs(lin) <= ALGEBRA_TOL:
            return [((0.0, 1.0), (0.0, 1.0))]
        own = 1.0 if lin > 0 else 0.0
        return [((own, own), (0.0, 1.0))]
    crossing = -lin / bil
    upper_own = 1.0 if bil > 0 else 0.0   # best response where other > crossing
    lower_own = 1.0 - upper_own
    if crossing < 0.0:
        return [((upper_own, upper_own), (0.0, 1.0))]
    if crossing > 1.0:
        return [((lower_own, lower_own), (0.0, 1.0))]
    return [
        ((lower_own, lower_own), (0.0, crossing)),
        ((0.0, 1.0), (crossing, crossing)),
        ((upper_own, upper_own), (crossing, 1.0)),
    ]


def _intersect(a: tuple[float, float], b: tuple[float, float]):
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def enumerate_equilibria(state: QuantumInitialState, vec_row: PayoffVector,
                         vec_col: PayoffVector) -> tuple[EquilibriumRegion, ...]:
    """All Nash profiles, described exactly as points, segments, and rectangles.

    Both best-response correspondences are piecewise constant with at most one
    indifference crossing, so each player's graph is a union of at most three
    axis-aligned pieces; the equilibrium set is the pairwise intersection.
    """
    f_row = closed_form_payoff(state, vec_row)
    f_col = closed_form_payoff(state, vec_col)
    row_pieces = _best_response_pieces(f_row.coeff_p, f_row.coeff_pq)   # own = p
    col_pieces = _best_response_pieces(f_col.coeff_q, f_col.coeff_pq)   # own = q
    regions = set()
    for p_own, q_other in row_pieces:
        for q_own, p_other in col_pieces:
            p_int = _intersect(p_own, p_other)
            q_int = _intersect(q_other, q_own)
            if p_int is not None and q_int is not None:
                regions.add(EquilibriumRegion(p_int[0], p_int[1],
                                              q_int[0], q_int[1]))

    def covered(r: EquilibriumRegion) -> bool:
        return any(o != r
                   and o.p_min <= r.p_min and r.p_max <= o.p_max
                   and o.q_min <= r.q_min and r.q_max <= o.q_max
                   for o in regions)

    kept = [r for r in regions if not covered(r)]
    kept.sort(key=lambda r: (r.p_min, r.p_max, r.q_min, r.q_max))
    return tuple(kept)
