"""Equilibrium regions across a range of initial states.

The enumerator exploits bilinearity: each player's best response is a
threshold rule in the opponent's probability, so the equilibrium set is
always a finite union of points, axis-aligned segments, and rectangles.
This script maps those regions for several initial states and cross-checks
a few samples with the verifier.  The enumerator and the verifier read the
same two payoff slopes through one sign test, which counts a slope within
the absolute tolerance ``ALGEBRA_TOL`` (1e-12) of 0 as 0.  So regions are
decided in floats, not exactly: with one player's payoffs rescaled they can
come out wrong (known defect 2 in ROADMAP.md, which items 1 and 3 mend).

Run: python3 demos/equilibrium_atlas.py
"""

import numpy as np

from qbg import (
    MixingProfile,
    PayoffVector,
    QuantumInitialState,
    bg_payoff_vectors,
    closed_form_payoff,
    enumerate_equilibria,
    verify_nash,
)


def describe(region):
    if region.kind == "point":
        return f"point ({region.p_min:g}, {region.q_min:g})"
    if region.kind == "segment":
        if region.p_min == region.p_max:
            return f"segment p={region.p_min:g}, q in [{region.q_min:g}, {region.q_max:g}]"
        return f"segment q={region.q_min:g}, p in [{region.p_min:g}, {region.p_max:g}]"
    return (f"rectangle p in [{region.p_min:g}, {region.p_max:g}], "
            f"q in [{region.q_min:g}, {region.q_max:g}]")


def atlas_entry(label, state, vec_row, vec_col):
    f_row = closed_form_payoff(state, vec_row)
    f_col = closed_form_payoff(state, vec_col)
    regions = enumerate_equilibria(f_row, f_col)
    print(f"{label}")
    print("  state weights:", np.array(state.squared_magnitudes()).round(3))
    if not regions:
        print("  no equilibria")
    for region in regions:
        sample = region.sample_points()[0]
        report = verify_nash(f_row, f_col, MixingProfile(*sample))
        confirmed = "confirmed" if report.is_nash else "REJECTED"
        print(f"  {describe(region)}  [{confirmed}, payoffs "
              f"({report.row_payoff:+.3f}, {report.col_payoff:+.3f})]")
    print()


def main():
    policy_vec, public_vec = bg_payoff_vectors()

    atlas_entry("Pure LL state (classical corner):",
                QuantumInitialState(1, 0, 0, 0), policy_vec, public_vec)
    atlas_entry("Matched outcomes, LL-dominant (HH weight 0.2):",
                QuantumInitialState.from_probabilities(0.8, 0, 0, 0.2),
                policy_vec, public_vec)
    atlas_entry("Matched outcomes, balanced (HH weight 0.5):",
                QuantumInitialState.from_probabilities(0.5, 0, 0, 0.5),
                policy_vec, public_vec)
    atlas_entry("Matched outcomes, HH-dominant (HH weight 0.8):",
                QuantumInitialState.from_probabilities(0.2, 0, 0, 0.8),
                policy_vec, public_vec)
    atlas_entry("Mismatch-only state (LH weight 0.5):",
                QuantumInitialState.from_probabilities(0, 0.5, 0.5, 0),
                policy_vec, public_vec)
    atlas_entry("Reference mixed state:",
                QuantumInitialState.from_probabilities(0.5, 0.2, 0.2, 0.1),
                policy_vec, public_vec)

    zero = PayoffVector(0, 0, 0, 0)
    atlas_entry("Degenerate game (all payoffs zero):",
                QuantumInitialState(1, 0, 0, 0), zero, zero)


if __name__ == "__main__":
    main()
