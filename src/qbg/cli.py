"""Command-line front end.

Subcommands::

    classical    payoff table, pure equilibria, dominated strategies
    quantize     closed-form payoffs and candidate-profile analysis
    equilibria   exact equilibrium regions of the quantized game
    sweep        CSV parameter sweep over p, q, or state weights
    reproduce    run the built-in verification check list

All numeric output uses 6 significant digits for human tables and 12 for
CSV; CSV is comma-separated with a header row, LF line endings, and a fixed
row order, so repeated runs are byte-identical.

Exit codes: 0 success, 1 verification mismatch, 2 usage or spec error,
141 standard output closed before all output was written (the status a shell
reports for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from collections import namedtuple

from .engine import (
    NORMALIZATION_TOL,
    ClosedFormPayoff,
    MixingProfile,
    bilinear_coefficients,
    closed_form_payoff,
    deviation_gaps,
    enumerate_equilibria,
    expected_payoff_trace,
    final_density,
    normalized_amplitudes,
    verify_nash,
)
from .game import find_dominated_rows, find_pure_nash
from .specfile import GameSpec, SpecError, parse_spec
from .verification import run_verification

EXIT_BROKEN_PIPE = 141

_STATE_VARS = ("prob_lh", "prob_hl", "prob_hh")
_SWEEP_VARS = ("p", "q") + _STATE_VARS
_BLOCK_POINTS = 4096   # grid points a sweep evaluates at once (at least one row)
_MAX_AXIS_STEPS = 100_000   # values per axis; a larger STEPS exits 2 before any is made


def _fmt(value, precision: int = 6) -> str:
    return f"{float(value):.{precision}g}"


def _load_spec(path: str | None) -> GameSpec:
    if path is None:
        raise SpecError("this command needs --spec <path>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path!r}: {exc}") from None
    return parse_spec(text)


def _csv_writer(stream):
    return csv.writer(stream, lineterminator="\n")


def cmd_classical(args) -> int:
    spec = _load_spec(args.spec)
    game = spec.to_game()
    nash = sorted((profile.row_index, profile.col_index)
                  for profile in find_pure_nash(game))
    dominated = sorted((d.index, d.strict) for d in find_dominated_rows(game))

    if args.csv:
        writer = _csv_writer(sys.stdout)
        writer.writerow(["row_label", "col_label", "row_payoff", "col_payoff"])
        for r in (0, 1):
            for c in (0, 1):
                writer.writerow([game.row_labels[r], game.col_labels[c],
                                 _fmt(game.row_payoff(r, c), 12),
                                 _fmt(game.col_payoff(r, c), 12)])
        return 0

    print("Payoff table (rows: policy maker, columns: public)")
    cells = [[f"({_fmt(game.row_payoff(r, c))}, {_fmt(game.col_payoff(r, c))})"
              for c in (0, 1)] for r in (0, 1)]
    width = max(len(text) for row in cells for text in row) + 2
    header = "      " + "".join(label.ljust(width) for label in game.col_labels)
    print(header)
    for r in (0, 1):
        print(f"  {game.row_labels[r]:<4}"
              + "".join(cells[r][c].ljust(width) for c in (0, 1)))
    if nash:
        pretty = ", ".join(f"({game.row_labels[r]}, {game.col_labels[c]})"
                           for r, c in nash)
    else:
        pretty = "none"
    print(f"Pure Nash equilibria: {pretty}")
    if dominated:
        pretty = ", ".join(
            f"{game.row_labels[i]} ({'strict' if strict else 'weak'})"
            for i, strict in dominated)
    else:
        pretty = "none"
    print(f"Dominated rows: {pretty}")
    return 0


def cmd_quantize(args) -> int:
    spec = _load_spec(args.spec)
    if not spec.has_quantum:
        raise SpecError("quantize needs a [quantum] section in the spec")
    state = spec.to_state()
    vec_row, vec_col = spec.payoff_vectors()
    f_row = closed_form_payoff(state, vec_row)
    f_col = closed_form_payoff(state, vec_col)
    candidate = spec.to_candidate()

    rows: list[tuple[str, object]] = []
    for name, form in (("policy", f_row), ("public", f_col)):
        rows += [(f"{name}.constant", form.constant),
                 (f"{name}.coeff_p", form.coeff_p),
                 (f"{name}.coeff_q", form.coeff_q),
                 (f"{name}.coeff_pq", form.coeff_pq)]
    report = None
    if candidate is not None:
        rho = final_density(state, candidate)
        trace_row = expected_payoff_trace(vec_row, rho)
        trace_col = expected_payoff_trace(vec_col, rho)
        report = verify_nash(state, vec_row, vec_col, candidate)
        rows += [
            ("candidate.p", candidate.p),
            ("candidate.q", candidate.q),
            ("policy_payoff.trace", trace_row),
            ("policy_payoff.closed_form", f_row.evaluate(candidate.p, candidate.q)),
            ("public_payoff.trace", trace_col),
            ("public_payoff.closed_form", f_col.evaluate(candidate.p, candidate.q)),
            ("nash.weak", report.is_nash),
            ("nash.strict", report.is_strict_nash),
        ]

    if args.csv:
        writer = _csv_writer(sys.stdout)
        writer.writerow(["item", "value"])
        for key, value in rows:
            if isinstance(value, bool):
                writer.writerow([key, "true" if value else "false"])
            else:
                writer.writerow([key, _fmt(value, 12)])
        return 0

    print("Closed form: payoff(p, q) = constant + coeff_p*p + coeff_q*q + coeff_pq*p*q")
    for name, form in (("policy", f_row), ("public", f_col)):
        print(f"  {name}: constant={_fmt(form.constant)} coeff_p={_fmt(form.coeff_p)}"
              f" coeff_q={_fmt(form.coeff_q)} coeff_pq={_fmt(form.coeff_pq)}")
    if report is not None:
        print(f"Candidate profile: p={_fmt(report.candidate.p)}, "
              f"q={_fmt(report.candidate.q)}")
        print(f"  policy payoff: trace={_fmt(trace_row)}, "
              f"closed-form={_fmt(report.row_payoff)}")
        print(f"  public payoff: trace={_fmt(trace_col)}, "
              f"closed-form={_fmt(report.col_payoff)}")
        print(f"  Nash (weak): {'yes' if report.is_nash else 'no'}")
        print(f"  Nash (strict): {'yes' if report.is_strict_nash else 'no'}")
        print("  conditions:")
        for check in report.conditions:
            mark = "ok" if check.satisfied else "VIOLATED"
            print(f"    [{mark}] {check.description}: gap={_fmt(check.value)}")
    return 0


def cmd_equilibria(args) -> int:
    spec = _load_spec(args.spec)
    if not spec.has_quantum:
        raise SpecError("equilibria needs a [quantum] section in the spec")
    state = spec.to_state()
    vec_row, vec_col = spec.payoff_vectors()
    regions = enumerate_equilibria(state, vec_row, vec_col)

    if args.csv:
        writer = _csv_writer(sys.stdout)
        writer.writerow(["kind", "p_min", "p_max", "q_min", "q_max"])
        for region in regions:
            writer.writerow([region.kind, _fmt(region.p_min, 12),
                             _fmt(region.p_max, 12), _fmt(region.q_min, 12),
                             _fmt(region.q_max, 12)])
        return 0

    if not regions:
        print("No Nash equilibria.")
        return 0
    print("Nash equilibrium regions (p, q = identity probabilities):")
    for region in regions:
        if region.p_min == region.p_max:
            p_text = f"p={_fmt(region.p_min)}"
        else:
            p_text = f"p in [{_fmt(region.p_min)}, {_fmt(region.p_max)}]"
        if region.q_min == region.q_max:
            q_text = f"q={_fmt(region.q_min)}"
        else:
            q_text = f"q in [{_fmt(region.q_min)}, {_fmt(region.q_max)}]"
        print(f"  {region.kind}: {p_text}, {q_text}")
    return 0


class _Axis(namedtuple("_Axis", "var values")):
    """A swept variable (str) and its grid values (tuple of floats)."""

    __slots__ = ()


def _parse_axis(text: str) -> _Axis:
    var, sep, rest = text.partition("=")
    var = var.strip()
    if not sep or var not in _SWEEP_VARS:
        raise SpecError(f"bad axis {text!r}; expected VAR=LO:HI:STEPS with VAR "
                        f"one of {', '.join(_SWEEP_VARS)}")
    parts = rest.split(":")
    if len(parts) != 3:
        raise SpecError(f"bad axis range {rest!r}; expected LO:HI:STEPS")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise SpecError(f"bad axis range {rest!r}") from None
    if steps < 1:
        raise SpecError("axis needs at least 1 step")
    if steps > _MAX_AXIS_STEPS:
        raise SpecError(f"axis {text!r} has more than {_MAX_AXIS_STEPS} steps")
    if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
        raise SpecError("axis range must stay within [0, 1]")
    if steps == 1:
        if lo != hi:
            raise SpecError(f"axis {text!r} has 1 step, so LO and HI must be equal")
        values = (lo,)
    else:
        # the last value is HI itself: the formula can miss it by an ulp
        values = tuple(lo + (hi - lo) * k / (steps - 1) for k in range(steps - 1)) + (hi,)
    return _Axis(var, values)


def cmd_sweep(args) -> int:
    import numpy as np
    spec = _load_spec(args.spec)
    if not args.axis:
        raise SpecError("sweep needs at least one --axis VAR=LO:HI:STEPS")
    axes = [_parse_axis(text) for text in args.axis]
    if len(axes) > 2:
        raise SpecError("sweep supports at most two axes")
    names = [axis.var for axis in axes]
    if len(set(names)) != len(names):
        raise SpecError("sweep axes must name distinct variables")
    if not spec.has_quantum:
        raise SpecError("sweep needs a [quantum] section in the spec")

    base_probs = spec.to_state().squared_magnitudes()
    candidate = spec.to_candidate()
    if "p" not in names and candidate is None:
        raise SpecError("p is unresolved: sweep it or provide a [candidate]")
    if "q" not in names and candidate is None:
        raise SpecError("q is unresolved: sweep it or provide a [candidate]")

    vec_row, vec_col = spec.payoff_vectors()

    # Unswept variables are scalars.  The grid is evaluated in blocks of
    # outer rows (a 1-axis sweep is one row): the outer axis is a (rows, 1)
    # array and the inner one a (1, inner) array, and the scalars broadcast
    # into them, so each distinct state's weights and closed forms are
    # computed once per block and memory is bounded by the block size.
    fixed = dict(zip(_STATE_VARS, base_probs[1:]))
    fixed.update(p=candidate and candidate.p, q=candidate and candidate.q)
    outer, inner = axes if len(axes) == 2 else (None, axes[0])
    leads = [(v,) for v in outer.values] if outer else [()]
    block_rows = max(1, _BLOCK_POINTS // len(inner.values))

    def blocks():
        """(outer values, value of every variable) per block of outer rows;
        the LL weight absorbs the remainder of the other three."""
        for start in range(0, len(leads), block_rows):
            rows = leads[start:start + block_rows]
            values = dict(fixed)
            values[inner.var] = np.array([inner.values])
            if outer:
                values[outer.var] = np.array(rows)
            values["prob_ll"] = 1.0 - (values["prob_lh"] + values["prob_hl"]
                                       + values["prob_hh"])
            yield rows, values

    # Check every block before writing, so a bad grid fails on its first bad
    # point in row order with no CSV output.  Weights above 1 and a profile
    # outside [0, 1] are the only ways a point can fail.
    for rows, v in blocks():
        bad_weights = np.broadcast_to(v["prob_ll"] < -NORMALIZATION_TOL,
                                      (len(rows), len(inner.values)))
        bad = bad_weights | np.logical_not(
            (0.0 <= v["p"]) & (v["p"] <= 1.0) & (0.0 <= v["q"]) & (v["q"] <= 1.0))
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            point = dict(zip(names, rows[i] + (inner.values[j],)))
            if bad_weights[i, j]:
                where = ", ".join(f"{n}={_fmt(x, 12)}" for n, x in point.items())
                raise SpecError(f"state weights exceed 1 at grid point ({where})")
            MixingProfile(point.get("p", fixed["p"]), point.get("q", fixed["q"]))

    # No field can need CSV quoting, so rows are written as joined text.
    out = sys.stdout
    out.write(",".join(names + ["policy_payoff", "public_payoff", "nash"]) + "\n")
    inner_text = [_fmt(x, 12) for x in inner.values]
    for rows, v in blocks():
        # the squared magnitudes of the state from_probabilities would build
        weights = [a * a for a in normalized_amplitudes(
            v["prob_ll"], v["prob_lh"], v["prob_hl"], v["prob_hh"])]
        f_row, f_col = (ClosedFormPayoff(*bilinear_coefficients(*weights, vec))
                        for vec in (vec_row, vec_col))
        row_payoff, col_payoff, _, holds = deviation_gaps(f_row, f_col, v["p"], v["q"])
        for lead, r_row, c_row, ok_row in zip(rows, row_payoff.tolist(), col_payoff.tolist(),
                                              np.all(holds, axis=0).tolist()):
            prefix = "".join(_fmt(x, 12) + "," for x in lead)
            out.write("".join(
                f"{prefix}{text},{r:.12g},{c:.12g},{'true' if ok else 'false'}\n"
                for text, r, c, ok in zip(inner_text, r_row, c_row, ok_row)))
    return 0


def cmd_reproduce(args) -> int:
    checks = run_verification(fault_id=args.inject_fault)
    failed = [c for c in checks if not c.passed]

    if args.csv:
        writer = _csv_writer(sys.stdout)
        writer.writerow(["check_id", "expected", "computed", "tolerance",
                         "passed", "detail"])
        for c in checks:
            writer.writerow([c.check_id, _fmt(c.expected, 12),
                             _fmt(c.computed, 12), _fmt(c.tolerance, 12),
                             "true" if c.passed else "false", c.detail])
    else:
        width = max(len(c.check_id) for c in checks)
        for c in checks:
            mark = "ok  " if c.passed else "FAIL"
            line = (f"[{mark}] {c.check_id.ljust(width)} "
                    f"expected={_fmt(c.expected, 12)} computed={_fmt(c.computed, 12)}")
            if c.detail:
                line += f"  ({c.detail})"
            print(line)
        print(f"{len(checks) - len(failed)} passed, {len(failed)} failed")
    if failed:
        print("failed checks: " + ", ".join(c.check_id for c in failed),
              file=sys.stderr)
        return 1
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="qbg",
        description="Classical and quantized analysis of the Barro-Gordon "
                    "monetary policy game.")
    spec_flag = argparse.ArgumentParser(add_help=False)
    spec_flag.add_argument("--spec", metavar="PATH",
                           help="game description file (see README for the grammar)")
    csv_flag = argparse.ArgumentParser(add_help=False)
    csv_flag.add_argument("--csv", action="store_true",
                          help="emit machine-readable CSV instead of text")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classical", parents=[spec_flag, csv_flag],
                       help="payoff table, pure Nash set, dominated strategies")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("quantize", parents=[spec_flag, csv_flag],
                       help="closed-form payoffs and candidate analysis")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("equilibria", parents=[spec_flag, csv_flag],
                       help="exact Nash regions of the quantized game")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("sweep", parents=[spec_flag],
                       help="deterministic CSV sweep over p, q, or state weights")
    p.add_argument("--axis", action="append", metavar="VAR=LO:HI:STEPS",
                   help="swept variable (repeat for a 2-axis sweep); VAR is "
                        "one of " + ", ".join(_SWEEP_VARS))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", parents=[csv_flag],
                       help="run the built-in verification check list")
    p.add_argument("--inject-fault", metavar="CHECK_ID", default=None,
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``qbg sweep ... | head``).  Point the
        # descriptor at devnull so that the interpreter's final flush of the
        # unwritten rest cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
