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
of the pairing, and both the closed form and the oracle read it.  The trace
payoffs agree exactly with the bilinear closed form
``constant + coeff_p*p + coeff_q*q + coeff_pq*p*q``, collected from the
payoff on each branch alone, which is what all equilibrium conditions are
read from.  ``bilinear_coefficients`` computes that form for one state or,
on numpy arrays, for a whole grid of states, summing in one fixed order so
that both give the same bits.

Expected payoffs are traces of diagonal payoff operators against the final
density matrix; because the operators are diagonal, payoffs depend only on
squared amplitude magnitudes, so all results are invariant under rephasing
any amplitude.  That density-matrix oracle lives in ``qbg.oracle``, which
only ``quantize`` with a candidate and ``reproduce`` run; this module
forwards its four public names (``DensityMatrix4``, ``initial_density``,
``final_density``, ``expected_payoff_trace``) there, loading it at the
first such lookup.

Every squared magnitude |z|**2, real or complex, is computed one way,
``z.real * z.real + z.imag * z.imag``: the closed form's weights, the norm
check and the oracle's diagonal ``z * z.conjugate()`` get the same bits.

The state constructors, the closed form and the Nash tests work on Python
numbers, and this module never imports numpy.  ``qbg.sweep``, behind the
command line's ``sweep`` and loaded only by it, is qbg's one numpy user: it
passes arrays to ``bilinear_coefficients``, ``ClosedFormPayoff.evaluate``
and ``deviation_gaps``, which then work elementwise.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._records import NORMALIZATION_TOL, ValidatedRecord

ALGEBRA_TOL = 1e-12        # tolerance for algebraic identities (norms, traces, slopes)

# The branch pairing: row k is branch k's permutation s of the basis (LL, LH,
# HL, HH), in the order of the branch weights (pq, p(1-q), (1-p)q,
# (1-p)(1-q)); the branch moves the weight of basis state s[i] onto i.  Keep
# both qubits, flip the row qubit (LL<->HL, LH<->HH), flip the column qubit
# (LL<->LH, HL<->HH), flip both.  Every permutation is its own inverse.
_BRANCHES = ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))

# names of the density-matrix oracle that this module resolves from qbg.oracle
_ORACLE_NAMES = frozenset({"DensityMatrix4", "initial_density", "final_density",
                           "expected_payoff_trace"})


def __getattr__(name):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    return getattr(oracle, name)


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

        Each weight is clipped at 0, and the clipped weights must sum to 1
        within ``NORMALIZATION_TOL`` (decimal input is expected to carry
        rounding fuzz); each amplitude is then sqrt(w / total), so the state
        is rescaled exactly.  The command line's ``sweep`` does the same
        arithmetic on arrays, with numpy.
        """
        probs = [float(p) for p in (p_ll, p_lh, p_hl, p_hh)]
        for p in probs:
            if not math.isfinite(p) or p < -ALGEBRA_TOL:
                raise ValueError(f"squared magnitudes must be nonnegative, got {p!r}")
        probs = [p if p > 0.0 else 0.0 for p in probs]   # -0.0 becomes 0.0
        total = probs[0] + probs[1] + probs[2] + probs[3]
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"squared magnitudes sum to {total!r}, expected 1")
        return cls(*(complex(math.sqrt(p / total)) for p in probs))

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

    Each payoff is finite and at most M = 2**1019 in magnitude.  A branch
    payoff is then at most M, a coefficient at most 4M and ``evaluate``'s
    running sum at most 9M < 2**1023, so every form and gap stays finite.
    """

    __slots__ = ()

    def __new__(cls, ll: float, lh: float, hl: float, hh: float):
        values = (ll, lh, hl, hh)
        for v in values:
            if not math.isfinite(v):
                raise ValueError("payoffs must be finite")
            if abs(v) > 2.0 ** 1019:
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

    The weights may be floats or numpy arrays of one shape.  Each r_k is
    the terms x_i = w[s[i]] * v_i summed in the fixed order
    (x0 + x2) + (x1 + x3).  Floating-point addition is not associative, so a
    fixed order is what makes a grid of states evaluated as arrays agree bit
    for bit with each state evaluated alone.
    """
    w = (w_ll, w_lh, w_hl, w_hh)
    v0, v1, v2, v3 = float(vec.ll), float(vec.lh), float(vec.hl), float(vec.hh)
    r0, r1, r2, r3 = [(w[s0] * v0 + w[s2] * v2) + (w[s1] * v1 + w[s3] * v3)
                      for s0, s1, s2, s3 in _BRANCHES]
    return r3, r1 - r3, r2 - r3, r0 - r1 - r2 + r3


def closed_form_payoff(state: QuantumInitialState, vec: PayoffVector) -> ClosedFormPayoff:
    """Expand the branch-weighted expected payoff into its bilinear form."""
    return ClosedFormPayoff(*bilinear_coefficients(*state.squared_magnitudes(), vec))


def payoff_vectors_from_game(game) -> tuple[PayoffVector, PayoffVector]:
    """Diagonal payoff vectors (row player, column player) from a 2x2 game.

    Basis order maps to table cells as LL=(0,0), LH=(0,1), HL=(1,0), HH=(1,1).
    """
    cells = [cell for row in game.payoffs for cell in row]
    return (PayoffVector(*[float(cell[0]) for cell in cells]),
            PayoffVector(*[float(cell[1]) for cell in cells]))


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


# The extreme deviations in the order of ``deviation_gaps``: (description, edge).
_EDGE_DEVIATIONS = (("row deviation to p=0 does not gain", 0.0),
                    ("row deviation to p=1 does not gain", 1.0),
                    ("column deviation to q=0 does not gain", 0.0),
                    ("column deviation to q=1 does not gain", 1.0))


def verify_nash(f_row: ClosedFormPayoff, f_col: ClosedFormPayoff,
                candidate: MixingProfile) -> EquilibriumReport:
    """Test a candidate profile against every unilateral deviation.

    ``f_row`` and ``f_col`` are the two players' closed forms, as
    ``closed_form_payoff(state, vec)`` builds them.  Each payoff is affine in
    the player's own probability at a fixed opponent probability, so checking
    the two extreme deviations (0 and 1) decides the condition for the whole
    interval.  The weak verdict allows ties; the strict verdict requires every
    actual deviation to lose.
    """
    p, q = candidate.p, candidate.q
    row_payoff, col_payoff, gaps, holds = deviation_gaps(f_row, f_col, p, q)

    checks = []
    strict = True
    for (description, edge), own, gap, ok in zip(_EDGE_DEVIATIONS, (p, p, q, q), gaps, holds):
        if abs(edge - own) > ALGEBRA_TOL:
            strict = strict and gap > ALGEBRA_TOL
        checks.append(ConditionCheck(description, gap, ok))

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
