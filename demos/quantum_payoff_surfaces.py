"""Quantized payoffs: density mixing versus the bilinear closed form.

Quantization replaces the two pure strategies with identity probabilities
(p for the policy maker, q for the public) applied to a shared entangled
initial state.  This script builds the final density matrix for a few
profiles, reads payoffs off by the trace rule, and shows they coincide with
the bilinear closed form that the equilibrium analysis is based on.

Run: python3 demos/quantum_payoff_surfaces.py
"""

import numpy as np

from qbg import (
    MixingProfile,
    QuantumInitialState,
    bg_payoff_vectors,
    closed_form_payoff,
    expected_payoff_trace,
    final_density,
)


def main():
    policy_vec, public_vec = bg_payoff_vectors()
    print("Payoff vectors over the basis (LL, LH, HL, HH):")
    print("  policy maker:", np.array(policy_vec, dtype=float))
    print("  public:      ", np.array(public_vec, dtype=float))
    print()

    state = QuantumInitialState.from_probabilities(0.5, 0.2, 0.2, 0.1)
    print("Initial state weights (LL, LH, HL, HH):", np.array(state.squared_magnitudes()))
    print("Branch-outcome matrix (rows: the four mixing branches):")
    # each of these corners puts all weight on one branch, in branch order
    corners = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    print(np.array([np.diag(np.array(final_density(state, MixingProfile(p, q)).rows)).real
                    for p, q in corners]))
    print()

    f_policy = closed_form_payoff(state, policy_vec)
    f_public = closed_form_payoff(state, public_vec)
    print("Closed forms  payoff(p, q) = constant + coeff_p*p + coeff_q*q + coeff_pq*p*q")
    for name, form in (("policy", f_policy), ("public", f_public)):
        print(f"  {name}: constant={form.constant:+.4f} coeff_p={form.coeff_p:+.4f}"
              f" coeff_q={form.coeff_q:+.4f} coeff_pq={form.coeff_pq:+.4f}")
    print("Note the policy maker's bilinear term is exactly zero: its payoff")
    print("is affine in p at any fixed q, which is what makes equilibrium")
    print("checks reduce to the two extreme deviations.\n")

    print("Trace rule vs closed form at a few profiles:")
    print(f"  {'p':>5} {'q':>5} {'policy(trace)':>14} {'policy(form)':>13}"
          f" {'public(trace)':>14} {'public(form)':>13}")
    for p, q in ((1.0, 1.0), (0.0, 0.0), (0.5, 0.5), (0.9, 0.3)):
        rho = final_density(state, MixingProfile(p, q))
        t_pol = expected_payoff_trace(policy_vec, rho)
        t_pub = expected_payoff_trace(public_vec, rho)
        print(f"  {p:5.2f} {q:5.2f} {t_pol:14.6f} {f_policy.evaluate(p, q):13.6f}"
              f" {t_pub:14.6f} {f_public.evaluate(p, q):13.6f}")
    print()

    print("Public payoff surface on a coarse grid (rows p, columns q):")
    grid = np.linspace(0, 1, 6)
    header = "        " + "".join(f"q={q:4.1f}  " for q in grid)
    print(header)
    for p in grid:
        row = "".join(f"{f_public.evaluate(p, q):+7.3f} " for q in grid)
        print(f"  p={p:4.1f} {row}")


if __name__ == "__main__":
    main()
