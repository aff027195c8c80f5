"""Command-line front end.

Subcommands::

    classical    payoff table, pure equilibria, dominated strategies
    quantize     closed-form payoffs and candidate-profile analysis
    equilibria   equilibrium regions of the quantized game
    sweep        CSV parameter sweep over p, q, or state weights
    reproduce    run the built-in verification check list

All numeric output uses 6 significant digits for human tables and 12 for
CSV; CSV is comma-separated with a header row, LF line endings, and a fixed
row order, so repeated runs are byte-identical.

Exit codes: 0 success, 1 verification mismatch, 2 usage or spec error,
141 standard output closed before all output was written (the status a shell
reports for a process ended by SIGPIPE).

A command loads only what it runs: ``main`` builds the invoked command's
parser alone (the top-level parser only for argv that does not start with a
command name), ``csv`` is imported at the first CSV write, and ``sweep`` runs
in ``qbg.sweep``, qbg's one numpy user, imported only by that command.
``import qbg`` puts qbg's other modules in ``sys.modules`` as lazily executed
modules, whose code runs at their first attribute access.  Like every qbg
module, this one binds the modules themselves, not names from them, and
looks each name up at call time: importing a name would run its module at
once, and a function bound only in its own module is seen by a wrapper set
there on every call.  So ``classical`` runs ``specfile`` and ``game`` but not
``engine``; ``equilibria`` and ``quantize`` run ``specfile`` and ``engine``
but not ``game``; and only ``reproduce`` runs ``verification`` and
``scenarios``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from . import engine, game, specfile, verification   # each runs at its first use

EXIT_BROKEN_PIPE = 141

# the sweep's variables, here for sweep's --axis help; qbg.sweep reads them too
_STATE_VARS = ("prob_lh", "prob_hl", "prob_hh")
_SWEEP_VARS = ("p", "q") + _STATE_VARS


def _fmt(value, precision: int = 6) -> str:
    return f"{float(value):.{precision}g}"


def _load_spec(path: str | None) -> specfile.GameSpec:
    if path is None:
        raise specfile.SpecError("this command needs --spec <path>")
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as exc:
        raise specfile.SpecError(f"cannot read spec file {path!r}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as parse_spec numbers lines; the bytes before the bad one decode
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise specfile.SpecError(f"cannot decode spec file {path!r} as UTF-8: byte "
                                 f"0x{data[exc.start]:02x} on line {line}: {exc.reason}") from None
    return specfile.parse_spec(text)   # splitlines() ends a line at \r\n and \r too


def _csv_writer(stream):
    import csv
    return csv.writer(stream, lineterminator="\n")


def cmd_classical(args) -> int:
    spec = _load_spec(args.spec)
    table = spec.to_game()
    if args.csv:
        writer = _csv_writer(sys.stdout)
        writer.writerow(["row_label", "col_label", "row_payoff", "col_payoff"])
        for r in (0, 1):
            for c in (0, 1):
                writer.writerow([table.row_labels[r], table.col_labels[c],
                                 _fmt(table.row_payoff(r, c), 12),
                                 _fmt(table.col_payoff(r, c), 12)])
        return 0

    nash = sorted((profile.row_index, profile.col_index)
                  for profile in game.find_pure_nash(table))
    dominated = sorted((d.index, d.strict) for d in game.find_dominated_rows(table))
    print("Payoff table (rows: policy maker, columns: public)")
    cells = [[f"({_fmt(table.row_payoff(r, c))}, {_fmt(table.col_payoff(r, c))})"
              for c in (0, 1)] for r in (0, 1)]
    width = max(len(text) for row in cells for text in row) + 2
    header = "      " + "".join(label.ljust(width) for label in table.col_labels)
    print(header)
    for r in (0, 1):
        print(f"  {table.row_labels[r]:<4}"
              + "".join(cells[r][c].ljust(width) for c in (0, 1)))
    if nash:
        pretty = ", ".join(f"({table.row_labels[r]}, {table.col_labels[c]})"
                           for r, c in nash)
    else:
        pretty = "none"
    print(f"Pure Nash equilibria: {pretty}")
    if dominated:
        pretty = ", ".join(
            f"{table.row_labels[i]} ({'strict' if strict else 'weak'})"
            for i, strict in dominated)
    else:
        pretty = "none"
    print(f"Dominated rows: {pretty}")
    return 0


def cmd_quantize(args) -> int:
    spec = _load_spec(args.spec)
    if not spec.has_quantum:
        raise specfile.SpecError("quantize needs a [quantum] section in the spec")
    state = spec.to_state()
    vec_row, vec_col = spec.payoff_vectors()
    f_row = engine.closed_form_payoff(state, vec_row)
    f_col = engine.closed_form_payoff(state, vec_col)
    candidate = spec.to_candidate()

    rows: list[tuple[str, object]] = []
    for name, form in (("policy", f_row), ("public", f_col)):
        rows += [(f"{name}.constant", form.constant),
                 (f"{name}.coeff_p", form.coeff_p),
                 (f"{name}.coeff_q", form.coeff_q),
                 (f"{name}.coeff_pq", form.coeff_pq)]
    report = None
    if candidate is not None:
        rho = engine.final_density(state, candidate)
        trace_row = engine.expected_payoff_trace(vec_row, rho)
        trace_col = engine.expected_payoff_trace(vec_col, rho)
        report = engine.verify_nash(f_row, f_col, candidate)
        rows += [
            ("candidate.p", candidate.p),
            ("candidate.q", candidate.q),
            ("policy_payoff.trace", trace_row),
            ("policy_payoff.closed_form", report.row_payoff),
            ("public_payoff.trace", trace_col),
            ("public_payoff.closed_form", report.col_payoff),
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
        raise specfile.SpecError("equilibria needs a [quantum] section in the spec")
    state = spec.to_state()
    vec_row, vec_col = spec.payoff_vectors()
    regions = engine.enumerate_equilibria(engine.closed_form_payoff(state, vec_row),
                                          engine.closed_form_payoff(state, vec_col))

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


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    from . import sweep
    return sweep.run(spec, args.axis)


def cmd_reproduce(args) -> int:
    checks = verification.run_verification()
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


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports an argument it does not take itself,
    with its own usage line, instead of leaving it to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


_SPEC_FLAG = ("--spec", {"metavar": "PATH",
                        "help": "game description file (see README for the grammar)"})
_CSV_FLAG = ("--csv", {"action": "store_true",
                       "help": "emit machine-readable CSV instead of text"})

# Each command once: its line in the top-level help, its function, its flags.
_COMMANDS = {
    "classical": ("payoff table, pure Nash set, dominated strategies", cmd_classical,
                  (_SPEC_FLAG, _CSV_FLAG)),
    "quantize": ("closed-form payoffs and candidate analysis", cmd_quantize,
                 (_SPEC_FLAG, _CSV_FLAG)),
    "equilibria": ("Nash regions of the quantized game", cmd_equilibria,
                   (_SPEC_FLAG, _CSV_FLAG)),
    "sweep": ("deterministic CSV sweep over p, q, or state weights", cmd_sweep,
              (_SPEC_FLAG,
               ("--axis", {"action": "append", "metavar": "VAR=LO:HI:STEPS",
                           "help": "swept variable (repeat for a 2-axis sweep); VAR is "
                                   "one of " + ", ".join(_SWEEP_VARS)}))),
    "reproduce": ("run the built-in verification check list", cmd_reproduce, (_CSV_FLAG,)),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``parser`` the flags and function of command ``name``."""
    _, func, flags = _COMMANDS[name]
    for flag, options in flags:
        parser.add_argument(flag, **options)
    parser.set_defaults(func=func)
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Command ``name``'s parser, equal to the top-level parser's, built alone
    once per process; parsing never mutates it."""
    return _add_command(_CommandParser(prog=f"qbg {name}"), name)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="qbg",
        description="Classical and quantized analysis of the Barro-Gordon "
                    "monetary policy game.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The namespace the top-level parser gives for ``argv``, with its messages
    and exit codes.  That parser hands everything after a command name to the
    command's parser, so argv that starts with one goes there directly, and
    only other argv builds the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser().parse_args(argv)
    args = _command_parser(argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
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
    except ValueError as exc:   # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_and_exit():
    """Run ``main`` on the process arguments and exit with its code.

    The entry point of ``python -m qbg`` and of the ``qbg`` script.  Usage
    errors, ``--help`` and tracebacks leave through the same ``finally``,
    which freezes the garbage collector: the interpreter's teardown then
    skips its full collections over every live object (numpy's included),
    about three quarters of the time from a command's last output to its
    exit.  No output and no exit code depends on them.  In-process callers use ``main``, which
    never freezes.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run_and_exit()
