"""Operator-mixing quantization of 2x2 games on a shared entangled state.

The joint strategy space is the 4-dimensional Hilbert space with ordered
basis (LL, LH, HL, HH); the first letter is the row player's strategy, the
second the column player's.  Starting from a fixed normalized initial state,
the row player chooses p and the column player chooses q.  Under the branch
pairing below, p is the probability that the column (second) qubit keeps the
identity and q the probability that the row (first) qubit does; the
alternative is the strategy-flip operator C with C|L> = |H> and C|H> = |L>.

Mixing produces a convex combination of four conjugated densities.  The
canonical branch order is

    (keep, keep), (flip row qubit, keep), (keep, flip column qubit), (flip, flip)

with weights (p*q, p*(1-q), (1-p)*q, (1-p)*(1-q)).  ``_BRANCHES`` holds each
branch's permutation of the basis in that order; it is qbg's one statement
of the pairing, and both the closed form and the density-matrix oracle read
it, so their agreeing checks how the closed form collects and evaluates its
four coefficients, not the pairing itself.  The trace payoffs agree exactly
with the bilinear closed form ``constant + coeff_p*p + coeff_q*q +
coeff_pq*p*q``, collected from the payoff on each branch alone, which is
what all equilibrium conditions are read from.  ``bilinear_coefficients``
computes that form for one state or, on numpy arrays, for a whole grid of
states, summing in one fixed order so that both give the same bits.

A state enters the closed form only through its four weights, which
``_unit_weights`` alone normalizes, and ``_closed_forms`` is the one place
where weights become forms: the spec commands, the sweep, the scenarios and
the verification checks all pass weights to it, never amplitudes, and
``closed_form_payoff`` hands it a state's squared magnitudes.  The square
root survives only in the state records the oracle and the reports hold.

Expected payoffs are traces of diagonal payoff operators against the final
density matrix; because the operators are diagonal, payoffs depend only on
squared amplitude magnitudes, so all results are invariant under rephasing
any amplitude.  That oracle closes this module; only ``quantize`` with a
candidate and ``reproduce`` call it.

Every squared magnitude |z|**2, real or complex, is computed one way,
``z.real * z.real + z.imag * z.imag``: the closed form's weights, the norm
check and the oracle's diagonal ``z * z.conjugate()`` get the same bits.

The state constructors, the closed form and the Nash tests work on Python
numbers, and this module never imports numpy.  ``qbg.sweep``, behind the
command line's ``sweep`` and loaded only by it, is qbg's one numpy user: it
passes arrays to ``_closed_forms``, ``ClosedFormPayoff.evaluate`` and the
Nash test's ``slopes``, ``_sign`` and ``_edge_checks``, which then work
elementwise.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from ._records import NORMALIZATION_TOL, ValidatedRecord

ALGEBRA_TOL = 1e-12        # tolerance for algebraic identities (norms, traces, slopes)
PSD_TOL = 1e-10            # eigenvalue floor for positive semidefiniteness

# The branch pairing: row k is branch k's permutation s of the basis (LL, LH,
# HL, HH), in the order of the branch weights (pq, p(1-q), (1-p)q,
# (1-p)(1-q)); the branch moves the weight of basis state s[i] onto i.  Keep
# both qubits, flip the row qubit (LL<->HL, LH<->HH), flip the column qubit
# (LL<->LH, HL<->HH), flip both.  Every permutation is its own inverse.
_BRANCHES = ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))


def _squared_magnitude(z: complex) -> float:
    """|z|**2, summed from the squares of the two parts."""
    return z.real * z.real + z.imag * z.imag


class QuantumInitialState(ValidatedRecord,
                          namedtuple("QuantumInitialState", "amp_ll amp_lh amp_hl amp_hh")):
    """Normalized amplitudes over the ordered basis (LL, LH, HL, HH)."""

    __slots__ = ()

    def __new__(cls, amp_ll: complex, amp_lh: complex, amp_hl: complex,
                amp_hh: complex):
        amps = (amp_ll, amp_lh, amp_hl, amp_hh)
        zs = [complex(a) for a in amps]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
            raise ValueError("amplitudes must be finite")
        norm_sq = sum(_squared_magnitude(z) for z in zs)
        if abs(norm_sq - 1.0) > ALGEBRA_TOL:
            raise ValueError(
                f"state not normalized: squared magnitudes sum to {norm_sq!r}")
        return tuple.__new__(cls, amps)

    @classmethod
    def normalized(cls, amp_ll, amp_lh, amp_hl, amp_hh) -> "QuantumInitialState":
        """Rescale arbitrary amplitudes to unit norm (rejects the zero vector):
        each part is divided by the square root of the squared magnitudes,
        summed in basis order."""
        amps = [complex(a) for a in (amp_ll, amp_lh, amp_hl, amp_hh)]
        norm = math.sqrt(sum(_squared_magnitude(a) for a in amps))
        if norm < 1e-15:
            raise ValueError("cannot normalize the zero vector")
        return cls(*(complex(a.real / norm, a.imag / norm) for a in amps))

    @classmethod
    def from_probabilities(cls, p_ll, p_lh, p_hl, p_hh) -> "QuantumInitialState":
        """State with nonnegative real amplitudes from squared magnitudes.

        Each weight is clipped at 0, and the clipped weights must sum to 1
        within ``NORMALIZATION_TOL`` (decimal input is expected to carry
        rounding fuzz); each amplitude is then the square root of
        ``_unit_weights``' w / total, so the state is rescaled exactly.
        """
        probs = [float(p) for p in (p_ll, p_lh, p_hl, p_hh)]
        for p in probs:
            if not math.isfinite(p) or p < -ALGEBRA_TOL:
                raise ValueError(f"squared magnitudes must be nonnegative, got {p!r}")
        probs = [p if p > 0.0 else 0.0 for p in probs]   # -0.0 becomes 0.0
        total = probs[0] + probs[1] + probs[2] + probs[3]
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"squared magnitudes sum to {total!r}, expected 1")
        return cls(*(complex(math.sqrt(w)) for w in _unit_weights(*probs)))

    def squared_magnitudes(self) -> tuple[float, float, float, float]:
        """Squared magnitudes in basis order; these drive every payoff.

        Each is re**2 + im**2 of the amplitude, the real part of the oracle's
        ``a * a.conjugate()``.  For a real amplitude the imaginary term adds
        +0.0 to a square, which is never -0.0, so it changes no bit.
        """
        return tuple([_squared_magnitude(complex(a)) for a in self])


class MixingProfile(ValidatedRecord, namedtuple("MixingProfile", "p q")):
    """The row player's choice p and the column player's choice q, both in [0, 1].

    p is the probability that the column (second) qubit keeps the identity,
    q the probability that the row (first) qubit does (see the module
    docstring for the branch pairing).
    """

    __slots__ = ()

    def __new__(cls, p: float, q: float):
        for name, value in (("p", p), ("q", q)):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        return tuple.__new__(cls, (p, q))


class PayoffVector(ValidatedRecord, namedtuple("PayoffVector", "ll lh hl hh")):
    """Diagonal of one player's payoff operator, in basis order.

    ``int`` and ``Fraction`` payoffs are kept exact; others become floats.
    Each payoff is finite and at most M = 2**1019 in magnitude.  A branch
    payoff is then at most M, a coefficient at most 4M and ``evaluate``'s
    running sum at most 9M < 2**1023, so every form and gap stays finite.
    """

    __slots__ = ()

    def __new__(cls, ll: float, lh: float, hl: float, hh: float):
        values = tuple([v if type(v) in (int, Fraction) else float(v)
                        for v in (ll, lh, hl, hh)])
        for v in values:
            # compared unconverted: an int or Fraction beyond the float range
            # has no float; nan fails the comparison too
            if not abs(v) <= 2.0 ** 1019:
                if v != v or abs(v) == math.inf:
                    raise ValueError("payoffs must be finite")
                raise ValueError(f"payoffs must be at most 2**1019 in magnitude, got {v!r}")
        return tuple.__new__(cls, values)


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


def bilinear_coefficients(w_ll, w_lh, w_hl, w_hh, vec: PayoffVector):
    """(constant, coeff_p, coeff_q, coeff_pq) of the payoff on weights (LL, LH, HL, HH).

    r_k is the payoff on branch k alone: ``vec`` dotted with the weights
    after row k of ``_BRANCHES`` has moved them.  With the branch weights
    (pq, p(1-q), (1-p)q, (1-p)(1-q)), the payoff collects to
    r3 + (r1-r3) p + (r2-r3) q + (r0-r1-r2+r3) pq.

    The weights may be floats or numpy arrays of one shape.  The payoffs are
    used as given, so integer weights and payoffs give exact integer
    coefficients.  Each r_k is the terms x_i = w[s[i]] * v_i summed in the
    fixed order (x0 + x2) + (x1 + x3).  Floating-point addition is not
    associative, so a fixed order is what makes a grid of states evaluated as
    arrays agree bit for bit with each state evaluated alone.
    """
    w = (w_ll, w_lh, w_hl, w_hh)
    v0, v1, v2, v3 = vec
    r0, r1, r2, r3 = [(w[s0] * v0 + w[s2] * v2) + (w[s1] * v1 + w[s3] * v3)
                      for s0, s1, s2, s3 in _BRANCHES]
    return r3, r1 - r3, r2 - r3, r0 - r1 - r2 + r3


def _unit_weights(w_ll, w_lh, w_hl, w_hh):
    """The four weights divided by their sum, added in basis order: qbg's one
    normalization of state weights, on floats or numpy arrays alike."""
    total = w_ll + w_lh + w_hl + w_hh
    return w_ll / total, w_lh / total, w_hl / total, w_hh / total


def _closed_forms(weights, vecs) -> list[ClosedFormPayoff]:
    """Each payoff vector's closed form on the state of the weights (LL, LH,
    HL, HH), normalized: floats, or numpy arrays of many states at once."""
    unit = _unit_weights(*weights)
    return [ClosedFormPayoff(*bilinear_coefficients(*unit, vec)) for vec in vecs]


def closed_form_payoff(state: QuantumInitialState, vec: PayoffVector) -> ClosedFormPayoff:
    """The bilinear form of ``vec``'s payoff on ``state``: ``_closed_forms``
    on the state's squared magnitudes, normalized as any weights are."""
    return _closed_forms(state.squared_magnitudes(), (vec,))[0]


def payoff_vectors_from_game(game) -> tuple[PayoffVector, PayoffVector]:
    """Diagonal payoff vectors (row player, column player) from a 2x2 game.

    Basis order maps to table cells as LL=(0,0), LH=(0,1), HL=(1,0), HH=(1,1).
    """
    cells = [cell for row in game.payoffs for cell in row]
    return (PayoffVector(*[float(cell[0]) for cell in cells]),
            PayoffVector(*[float(cell[1]) for cell in cells]))


def slopes(f_row: ClosedFormPayoff, f_col: ClosedFormPayoff, p, q):
    """(sigma_r, sigma_c): the row player's payoff slope in p, coeff_p +
    coeff_pq*q, and the column player's in q, coeff_q + coeff_pq*p, elementwise
    on arrays.  A move from p to p' changes the row payoff by (p' - p)*sigma_r."""
    return f_row.coeff_p + f_row.coeff_pq * q, f_col.coeff_q + f_col.coeff_pq * p


def _sign(slope):
    """-1, 0 or 1, elementwise, a slope within ``ALGEBRA_TOL`` of 0 being 0:
    the one tolerance test behind every Nash verdict and region."""
    return (slope > ALGEBRA_TOL) * 1 - (slope < -ALGEBRA_TOL)


def _edge_checks(sign_r, sign_c, p, q):
    """Whether the moves to p=0, p=1, q=0 and q=1 each gain nothing, elementwise:
    a player's two checks together say it plays a best response to its slope."""
    return ((sign_r >= 0) | (p == 0), (sign_r <= 0) | (p == 1),
            (sign_c >= 0) | (q == 0), (sign_c <= 0) | (q == 1))


# The conditions' descriptions, in the order of ``_edge_checks``.
_EDGE_DEVIATIONS = ("row deviation to p=0 does not gain", "row deviation to p=1 does not gain",
                    "column deviation to q=0 does not gain",
                    "column deviation to q=1 does not gain")


def verify_nash(f_row: ClosedFormPayoff, f_col: ClosedFormPayoff,
                candidate: MixingProfile) -> EquilibriumReport:
    """Test a candidate profile against every unilateral deviation.

    Each payoff is affine in the player's own probability, so the sign of
    its slope decides for the whole interval: weak Nash holds when p is a
    best response to sigma_r and q to sigma_c, and strict Nash when, besides,
    neither slope is 0.  A condition's value is what its deviation loses:
    p*sigma_r, (p-1)*sigma_r, q*sigma_c and (q-1)*sigma_c.
    """
    p, q = candidate.p, candidate.q
    slope_r, slope_c = slopes(f_row, f_col, p, q)
    sign_r, sign_c = _sign(slope_r), _sign(slope_c)
    holds = _edge_checks(sign_r, sign_c, p, q)
    # + 0 turns the -0.0 of a move to one's own edge into 0.0
    gaps = (p * slope_r + 0, (p - 1) * slope_r + 0, q * slope_c + 0, (q - 1) * slope_c + 0)
    is_nash = all(holds)
    return EquilibriumReport(
        candidate=candidate, row_payoff=f_row.evaluate(p, q), col_payoff=f_col.evaluate(p, q),
        is_nash=is_nash, is_strict_nash=is_nash and sign_r != 0 and sign_c != 0,
        conditions=tuple(map(ConditionCheck, _EDGE_DEVIATIONS, gaps, holds)))


def _best_response_pieces(lin, bil):
    """Pieces ((own_lo, own_hi), (other_lo, other_hi)) of a best-response set.

    The slope ``lin + bil * other`` makes the best response 1 where positive,
    0 where negative and anything at 0.  Its signs at other = 0 and 1 decide:
    equal signs give one piece, and a 0 at one end puts the crossing on that
    edge.  Else the crossing -lin/bil is exactly in [0, 1], and so, rounding
    being monotone, is its float.
    """
    lo, hi = _sign(lin), _sign(lin + bil)
    if lo == hi == 0:
        return [((0.0, 1.0), (0.0, 1.0))]
    lower, upper = (1.0 if lo > 0 else 0.0), (1.0 if hi > 0 else 0.0)
    if lo == hi:
        return [((lower, lower), (0.0, 1.0))]
    if lo == 0:
        return [((0.0, 1.0), (0.0, 0.0)), ((upper, upper), (0.0, 1.0))]
    if hi == 0:
        return [((lower, lower), (0.0, 1.0)), ((0.0, 1.0), (1.0, 1.0))]
    crossing = -lin / bil
    return [((lower, lower), (0.0, crossing)), ((0.0, 1.0), (crossing, crossing)),
            ((upper, upper), (crossing, 1.0))]


def enumerate_equilibria(f_row: ClosedFormPayoff,
                         f_col: ClosedFormPayoff) -> tuple[EquilibriumRegion, ...]:
    """All Nash profiles of the two closed forms, as points, segments, and rectangles.

    Both best-response correspondences are piecewise constant with at most one
    indifference crossing, so each player's graph is a union of at most three
    axis-aligned pieces; the equilibrium set is the pairwise intersection.
    """
    row_pieces = _best_response_pieces(f_row.coeff_p, f_row.coeff_pq)   # own = p
    col_pieces = _best_response_pieces(f_col.coeff_q, f_col.coeff_pq)   # own = q
    regions = set()
    for (p_lo, p_hi), (q_lo, q_hi) in row_pieces:
        for (q_from, q_to), (p_from, p_to) in col_pieces:
            p_min, p_max = max(p_lo, p_from), min(p_hi, p_to)
            q_min, q_max = max(q_lo, q_from), min(q_hi, q_to)
            if p_min <= p_max and q_min <= q_max:
                regions.add(EquilibriumRegion(p_min, p_max, q_min, q_max))

    def covered(r: EquilibriumRegion) -> bool:
        return any(o != r
                   and o.p_min <= r.p_min and r.p_max <= o.p_max
                   and o.q_min <= r.q_min and r.q_max <= o.q_max
                   for o in regions)

    return tuple(sorted(r for r in regions if not covered(r)))


# The density-matrix oracle: the final density is the branch-weighted sum of
# the initial density conjugated by each row of ``_BRANCHES``, and a payoff is
# a trace against it.  Nothing below reads the closed form above.


class DensityMatrix4(ValidatedRecord, namedtuple("DensityMatrix4", "rows")):
    """4x4 density matrix over the game basis, held as rows of Python complex numbers.

    ``rows`` may be any 4x4 nested sequence of numbers, an ndarray included;
    it is stored as a tuple of four tuples of complex.  Validated without
    numpy: Hermitian and unit trace within ``ALGEBRA_TOL``, and positive
    semidefinite to ``PSD_TOL``.  The last rule is that M + PSD_TOL*I
    factors as L D L^H with every pivot in D positive (Cholesky without
    square roots), which holds exactly when every eigenvalue of M exceeds
    -PSD_TOL.

    The constructor, ``_make``, ``_replace`` and ``initial_density`` check
    all three.  ``final_density`` builds its result valid by construction:
    it checks the trace as the constructor does, while its matrix is
    Hermitian and positive semidefinite by construction.
    """

    __slots__ = ()

    def __new__(cls, rows):
        try:
            rows = tuple(tuple(complex(x) for x in row) for row in rows)
        except TypeError:
            rows = ()
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("expected a 4x4 matrix of numbers")
        if any(abs(rows[i][j] - rows[j][i].conjugate()) > ALGEBRA_TOL
               for i in range(4) for j in range(i, 4)):
            raise ValueError("density matrix is not Hermitian")
        _check_trace(rows)
        if not _shifted_cholesky_exists(rows):
            raise ValueError("density matrix is not positive semidefinite")
        return tuple.__new__(cls, (rows,))


def _check_trace(rows) -> None:
    """Raise ValueError unless the trace of ``rows`` is 1 within ``ALGEBRA_TOL``."""
    trace = (rows[0][0] + rows[1][1]) + (rows[2][2] + rows[3][3])
    if abs(trace.real - 1.0) > ALGEBRA_TOL or abs(trace.imag) > ALGEBRA_TOL:
        raise ValueError("density matrix trace is not 1")


def _shifted_cholesky_exists(rows) -> bool:
    """Whether the Hermitian ``rows`` + PSD_TOL*I factors as L D L^H with D > 0.

    L is unit lower triangular; the pivots D are positive exactly when the
    shifted matrix is positive definite.  Only the lower triangle is read.
    """
    lower, pivots = [], []
    for i in range(4):
        row = []
        for j in range(i):
            s = rows[i][j]
            for k in range(j):
                s -= row[k] * pivots[k] * lower[j][k].conjugate()
            row.append(s / pivots[j])
        pivot = rows[i][i].real + PSD_TOL
        for k in range(i):
            pivot -= pivots[k] * _squared_magnitude(row[k])
        if not pivot > 0.0:    # NaN fails too
            return False
        lower.append(row)
        pivots.append(pivot)
    return True


@functools.cache
def _branch_gathers(branches) -> tuple[tuple[int, ...], ...]:
    """For each branch permutation s, where each entry of U rho U^dagger comes from.

    U is the permutation matrix whose row i has its single 1 in column s[i],
    so (U rho U^dagger)[i][j] = rho[s[i]][s[j]].  Entries are numbered
    row-major, 0 to 15.  Cached per table.
    """
    return tuple(tuple(4 * i + j for i in s for j in s) for s in branches)


def _branch_weights(mix: MixingProfile):
    p, q = mix.p, mix.q
    return (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))


def _outer(state: QuantumInitialState) -> list[complex]:
    """The 16 entries of a a^dagger, row-major, for the state's amplitudes a.

    Python's complex product gives each diagonal entry the real part
    re*re - im*(-im), the bits of ``squared_magnitudes``.
    """
    amps = [complex(a) for a in state]
    return [a * b.conjugate() for a in amps for b in amps]


def _density(entries: list[complex]) -> DensityMatrix4:
    return DensityMatrix4([entries[0:4], entries[4:8], entries[8:12], entries[12:16]])


def initial_density(state: QuantumInitialState) -> DensityMatrix4:
    """Rank-1 projector onto the initial state."""
    return _density(_outer(state))


def _mixed_entries(state: QuantumInitialState, mix: MixingProfile) -> list[complex]:
    """The 16 entries of the final density, row-major.

    The branches are added in canonical order onto zeros, skipping zero
    weights, as ``sum(w * U @ rho @ U^dagger)`` over numpy arrays would;
    starting from +0 also gives every zero entry numpy's sign.  Each weight
    is used as a float, which is how Python multiplies an int or a
    ``Fraction`` by a complex number, so every entry is a Python complex.
    """
    rho = _outer(state)
    out = [0j] * 16
    for w, gather in zip(_branch_weights(mix), _branch_gathers(_BRANCHES)):
        if w != 0.0:
            w = float(w)
            out = [o + w * rho[k] for o, k in zip(out, gather)]
    return out


def final_density(state: QuantumInitialState, mix: MixingProfile) -> DensityMatrix4:
    """Convex combination of the four conjugated initial densities.

    Only the trace is checked.  Each term w * U a (U a)^dagger is Hermitian
    to the bit (entry (j, i) is the conjugate of entry (i, j), rounded
    alike), and so is their sum; a convex mix of rank-1 projectors is
    positive semidefinite, and rounding moves its eigenvalues by about
    1e-16, far inside ``PSD_TOL``.  A state whose squared norm sits at the
    edge of ``ALGEBRA_TOL`` can round the mix's trace past it, so that check
    stays, and this raises exactly where ``DensityMatrix4`` would.
    """
    out = _mixed_entries(state, mix)
    rows = (tuple(out[0:4]), tuple(out[4:8]), tuple(out[8:12]), tuple(out[12:16]))
    _check_trace(rows)
    return tuple.__new__(DensityMatrix4, (rows,))


def expected_payoff_trace(vec: PayoffVector, rho: DensityMatrix4) -> float:
    """Tr(P rho) for the diagonal payoff operator P built from ``vec``.

    The terms v_i * rho_ii are summed as (t0 + t1) + (t2 + t3), the order
    in which ``np.trace`` sums four complex numbers.  Raises if the trace
    carries an imaginary residue above tolerance, which would indicate a
    corrupted density matrix.
    """
    rows = rho.rows
    t0, t1, t2, t3 = (float(v) * rows[i][i] for i, v in enumerate(vec))
    value = (t0 + t1) + (t2 + t3)
    if abs(value.imag) > ALGEBRA_TOL:
        raise ValueError(f"payoff trace has imaginary residue {value.imag!r}")
    return value.real
