"""The scenario walk-through: how quantization resolves time inconsistency.

Checks the three candidate profiles (both keep, both flip, even mixing) on a
reference state, then sweeps the two one-parameter families of initial
states: mismatch-only superpositions (the public guesses wrong) and
matched-outcome superpositions (the public guesses right).  The second
family is where the commitment problem dissolves.

Run: python3 demos/equilibrium_scenarios.py
"""

import numpy as np

from qbg import (
    QuantumInitialState,
    run_case_a,
    run_case_b,
    run_case_c,
    run_strategy_i,
    run_strategy_ii,
    weak_assumption_holds,
)


def show(report):
    print(f"  [{report.scenario}] candidate (p={report.candidate.p:g}, "
          f"q={report.candidate.q:g})")
    print(f"    payoffs: policy {report.policy_payoff:+.4f}, "
          f"public {report.public_payoff:+.4f}")
    for check in report.conditions:
        mark = "ok" if check.satisfied else "FAILS"
        value = round(check.value, 4) + 0.0   # a residue that rounds to -0 prints +0.0000
        print(f"    [{mark}] {check.description} (value {value:+.4f})")
    verdict = "equilibrium" if report.is_nash else "not an equilibrium"
    print(f"    verdict: {verdict} ({report.verdict})")
    if report.notes:
        print(f"    notes: {', '.join(report.notes)}")
    print()


def main():
    state = QuantumInitialState.from_probabilities(0.5, 0.2, 0.2, 0.1)
    print("Reference state weights (LL, LH, HL, HH):", np.array(state.squared_magnitudes()))
    weak = weak_assumption_holds(state)
    print(f"Keep-favoring weight gap (LL+HL vs HH+LH): {weak.gap:+.2f} -> "
          f"{'weak-type preference holds' if weak.holds else 'does not hold'}\n")

    print("Three candidate profiles on the reference state:")
    show(run_case_a(state))
    show(run_case_b(state))
    show(run_case_c(state))

    print("Family 1 - mismatch-only states (public always wrong):")
    print(f"  {'LH weight':>9} {'policy':>8} {'public':>8} {'equilibrium':>12}")
    for k in range(0, 11, 2):
        r = run_strategy_i(k / 10)
        print(f"  {k / 10:9.1f} {r.policy_payoff:8.2f} {r.public_payoff:8.2f}"
              f" {str(r.is_nash):>12}")
    print("  The policy maker can profit here (cheating), but the profile is")
    print("  never stable: the mismatch weight is 1, and stability needs <= 1/2.\n")

    print("Family 2 - matched-outcome states (public always right):")
    print(f"  {'HH weight':>9} {'policy':>8} {'public':>8} {'equilibrium':>12}")
    for k in range(0, 11, 2):
        r = run_strategy_ii(k / 10)
        print(f"  {k / 10:9.1f} {r.policy_payoff:8.2f} {r.public_payoff:8.2f}"
              f" {str(r.is_nash):>12}")
    final = run_strategy_ii(0.0)
    print("  The public never loses, the policy maker's loss shrinks with the")
    print("  HH weight, and the profile stays an equilibrium up to weight 1/2.")
    print(f"  At weight 0 the payoffs are ({final.policy_payoff:g}, "
          f"{final.public_payoff:g}) - the classical commitment outcome -")
    print("  and unlike the classical game it IS an equilibrium: low inflation")
    print("  with correct expectations becomes credible.  Notes:",
          ", ".join(final.notes))


if __name__ == "__main__":
    main()
