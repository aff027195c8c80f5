"""The density-matrix oracle: expected payoffs as traces, independent of the closed form.

The initial state becomes a 4x4 density matrix; mixing conjugates it by the
four branch operators, the permutation matrices of the rows of the pairing
table ``engine._BRANCHES``, and adds the results with the branch weights; a
payoff is the trace of the diagonal payoff operator against that final
density.  The table is the one thing this module shares with the closed form:
the two agreeing checks how ``engine.bilinear_coefficients`` collects and
evaluates its four coefficients, not the pairing itself.

Only ``quantize`` with a ``[candidate]`` and ``reproduce`` run this module.
``qbg.engine`` still resolves ``DensityMatrix4``, ``initial_density``,
``final_density`` and ``expected_payoff_trace`` for callers that look them
up there, by forwarding to this module at first use.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from . import engine
from ._records import ValidatedRecord

PSD_TOL = 1e-10            # eigenvalue floor for positive semidefiniteness


class DensityMatrix4(ValidatedRecord, namedtuple("DensityMatrix4", "rows")):
    """4x4 density matrix over the game basis, held as rows of Python complex numbers.

    ``rows`` may be any 4x4 nested sequence of numbers, an ndarray included;
    it is stored as a tuple of four tuples of complex.  Validated without
    numpy: Hermitian and unit trace within ``ALGEBRA_TOL``, and positive
    semidefinite to ``PSD_TOL``.  The last rule is that M + PSD_TOL*I
    factors as L D L^H with every pivot in D positive (Cholesky without
    square roots), which holds exactly when every eigenvalue of M exceeds
    -PSD_TOL.
    """

    __slots__ = ()

    def __new__(cls, rows):
        try:
            rows = tuple(tuple(complex(x) for x in row) for row in rows)
        except TypeError:
            rows = ()
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("expected a 4x4 matrix of numbers")
        if any(abs(rows[i][j] - rows[j][i].conjugate()) > engine.ALGEBRA_TOL
               for i in range(4) for j in range(i, 4)):
            raise ValueError("density matrix is not Hermitian")
        trace = (rows[0][0] + rows[1][1]) + (rows[2][2] + rows[3][3])
        if abs(trace.real - 1.0) > engine.ALGEBRA_TOL or abs(trace.imag) > engine.ALGEBRA_TOL:
            raise ValueError("density matrix trace is not 1")
        if not _shifted_cholesky_exists(rows):
            raise ValueError("density matrix is not positive semidefinite")
        return tuple.__new__(cls, (rows,))


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
            pivot -= pivots[k] * engine._squared_magnitude(row[k])
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


def _branch_weights(mix: engine.MixingProfile):
    p, q = mix.p, mix.q
    return (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))


def _outer(state: engine.QuantumInitialState) -> list[complex]:
    """The 16 entries of a a^dagger, row-major, for the state's amplitudes a.

    Python's complex product gives each diagonal entry the real part
    re*re - im*(-im), the bits of ``squared_magnitudes``.
    """
    amps = [complex(a) for a in state]
    return [a * b.conjugate() for a in amps for b in amps]


def _density(entries: list[complex]) -> DensityMatrix4:
    return DensityMatrix4([entries[0:4], entries[4:8], entries[8:12], entries[12:16]])


def initial_density(state: engine.QuantumInitialState) -> DensityMatrix4:
    """Rank-1 projector onto the initial state."""
    return _density(_outer(state))


def final_density(state: engine.QuantumInitialState, mix: engine.MixingProfile) -> DensityMatrix4:
    """Convex combination of the four conjugated initial densities.

    The branches are added in canonical order onto zeros, skipping zero
    weights, as ``sum(w * U @ rho @ U^dagger)`` over numpy arrays would;
    starting from +0 also gives every zero entry numpy's sign.
    """
    rho = _outer(state)
    out = [0j] * 16
    for w, gather in zip(_branch_weights(mix), _branch_gathers(engine._BRANCHES)):
        if w != 0.0:
            out = [o + w * rho[k] for o, k in zip(out, gather)]
    return _density(out)


def expected_payoff_trace(vec: engine.PayoffVector, rho: DensityMatrix4) -> float:
    """Tr(P rho) for the diagonal payoff operator P built from ``vec``.

    The terms v_i * rho_ii are summed as (t0 + t1) + (t2 + t3), the order
    in which ``np.trace`` sums four complex numbers.  Raises if the trace
    carries an imaginary residue above tolerance, which would indicate a
    corrupted density matrix.
    """
    rows = rho.rows
    t0, t1, t2, t3 = (float(v) * rows[i][i] for i, v in enumerate(vec))
    value = (t0 + t1) + (t2 + t3)
    if abs(value.imag) > engine.ALGEBRA_TOL:
        raise ValueError(f"payoff trace has imaginary residue {value.imag!r}")
    return value.real
