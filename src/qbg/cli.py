"""Command-line front end.

Subcommands::

    classical    payoff table, pure equilibria, dominated strategies
    quantize     closed-form payoffs and candidate-profile analysis
    equilibria   equilibrium regions of the quantized game
    sweep        CSV parameter sweep over p, q, or state weights
    reproduce    run the built-in verification check list

All numeric output uses 6 significant digits for human tables and 12 for
CSV; CSV is comma-separated with a header row, LF line endings, and a fixed
row order, so repeated runs are byte-identical.  Output is rendered with
``%``-templates (``%.6g`` for text, ``%.12g`` for CSV): ``sweep`` writes a
row at a time, every other command its whole report at once.  The one text
that comes from the spec, ``classical``'s labels, goes into CSV through
``csv.writer``, which quotes it where needed; every other CSV field is a
number, a fixed id or fixed text with no comma, quote or line break, so
none needs quoting.

Exit codes: 0 success, 1 verification mismatch, 2 usage or spec error,
141 standard output closed before all output was written (the status a shell
reports for a process ended by SIGPIPE).

A command loads only what it runs: ``main`` reads well-formed argv straight
from ``_COMMANDS`` and loads no ``argparse``; only help and usage errors,
and argv spelled in other ways argparse accepts, import it and build the
top-level parser.  ``csv`` is imported only by ``classical --csv``, and
``sweep`` runs in ``qbg.sweep``, qbg's one numpy user, imported only by
that command.
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

import functools
import gc
import os
import sys
import types

from . import engine, game, specfile, verification   # each runs at its first use

EXIT_BROKEN_PIPE = 141

# the sweep's variables, here for sweep's --axis help; qbg.sweep reads them too
_STATE_VARS = ("prob_lh", "prob_hl", "prob_hh")
_SWEEP_VARS = ("p", "q") + _STATE_VARS


# A spec is a page of text.  A larger file, or an endless stream such as
# /dev/zero, is refused once more than this many bytes have been read.
MAX_SPEC_BYTES = 1 << 20
_READ_SIZE = 1 << 16   # a read() of the whole limit would allocate it on every call


def _load_spec(path: str | None) -> specfile.GameSpec:
    if path is None:
        raise specfile.SpecError("this command needs --spec <path>")
    chunks, size = [], 0
    try:
        with open(path, "rb", buffering=0) as fh:
            while size <= MAX_SPEC_BYTES:
                chunk = fh.read(min(_READ_SIZE, MAX_SPEC_BYTES + 1 - size))
                if not chunk:
                    break
                chunks.append(chunk)
                size += len(chunk)
    except OSError as exc:   # its str() quotes the path again, in full
        raise specfile.SpecError(f"cannot read spec file {specfile._clip(path)!r}: "
                                 f"[Errno {exc.errno}] {exc.strerror}") from None
    if size > MAX_SPEC_BYTES:
        raise specfile.SpecError(f"spec file {specfile._clip(path)!r} is larger than "
                                 f"{MAX_SPEC_BYTES} bytes")
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as parse_spec numbers lines; the bytes before the bad one decode
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise specfile.SpecError(
            f"cannot decode spec file {specfile._clip(path)!r} as UTF-8: byte "
            f"0x{data[exc.start]:02x} on line {line}: {exc.reason}") from None
    return specfile.parse_spec(text)   # splitlines() ends a line at \r\n and \r too


def cmd_classical(args) -> int:
    spec = _load_spec(args.spec)
    table = spec.to_game()
    if args.csv:
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            [("row_label", "col_label", "row_payoff", "col_payoff")]
            + [(table.row_labels[r], table.col_labels[c], "%.12g" % table.row_payoff(r, c),
                "%.12g" % table.col_payoff(r, c)) for r in (0, 1) for c in (0, 1)])
        return 0

    nash = sorted((profile.row_index, profile.col_index)
                  for profile in game.find_pure_nash(table))
    dominated = sorted((d.index, d.strict) for d in game.find_dominated_rows(table))
    cells = [["(%.6g, %.6g)" % (table.row_payoff(r, c), table.col_payoff(r, c))
              for c in (0, 1)] for r in (0, 1)]
    width = max(len(text) for row in cells for text in row) + 2
    lines = ["Payoff table (rows: policy maker, columns: public)\n      "
             + "".join(label.ljust(width) for label in table.col_labels) + "\n"]
    lines += ["  %-4s%s\n" % (table.row_labels[r], "".join(text.ljust(width) for text in cells[r]))
              for r in (0, 1)]
    pretty_nash = ", ".join("(%s, %s)" % (table.row_labels[r], table.col_labels[c])
                            for r, c in nash)
    pretty_dominated = ", ".join("%s (%s)" % (table.row_labels[i], "strict" if strict else "weak")
                                 for i, strict in dominated)
    lines.append("Pure Nash equilibria: %s\nDominated rows: %s\n"
                 % (pretty_nash or "none", pretty_dominated or "none"))
    sys.stdout.write("".join(lines))
    return 0


def cmd_quantize(args) -> int:
    spec = _load_spec(args.spec)
    if not spec.has_quantum:
        raise specfile.SpecError("quantize needs a [quantum] section in the spec")
    vec_row, vec_col = spec.payoff_vectors()
    f_row, f_col = engine._closed_forms(spec._weights(), (vec_row, vec_col))
    candidate = spec.to_candidate()
    forms = f_row + f_col   # one tuple: policy's four coefficients, then public's

    if args.csv:
        out = ("item,value\n"
               "policy.constant,%.12g\npolicy.coeff_p,%.12g\n"
               "policy.coeff_q,%.12g\npolicy.coeff_pq,%.12g\n"
               "public.constant,%.12g\npublic.coeff_p,%.12g\n"
               "public.coeff_q,%.12g\npublic.coeff_pq,%.12g\n") % forms
    else:
        out = ("Closed form: payoff(p, q) = constant + coeff_p*p + coeff_q*q + coeff_pq*p*q\n"
               "  policy: constant=%.6g coeff_p=%.6g coeff_q=%.6g coeff_pq=%.6g\n"
               "  public: constant=%.6g coeff_p=%.6g coeff_q=%.6g coeff_pq=%.6g\n") % forms
    if candidate is not None:
        # the oracle's own state, independent of the closed forms' arithmetic
        rho = engine.final_density(spec.to_state(), candidate)
        report = engine.verify_nash(f_row, f_col, candidate)
        values = (candidate.p, candidate.q,
                  engine.expected_payoff_trace(vec_row, rho), report.row_payoff,
                  engine.expected_payoff_trace(vec_col, rho), report.col_payoff)
        if args.csv:
            out += ("candidate.p,%.12g\ncandidate.q,%.12g\n"
                    "policy_payoff.trace,%.12g\npolicy_payoff.closed_form,%.12g\n"
                    "public_payoff.trace,%.12g\npublic_payoff.closed_form,%.12g\n"
                    "nash.weak,%s\nnash.strict,%s\n") % (
                values + ("true" if report.is_nash else "false",
                          "true" if report.is_strict_nash else "false"))
        else:
            out += ("Candidate profile: p=%.6g, q=%.6g\n"
                    "  policy payoff: trace=%.6g, closed-form=%.6g\n"
                    "  public payoff: trace=%.6g, closed-form=%.6g\n"
                    "  Nash (weak): %s\n  Nash (strict): %s\n  conditions:\n") % (
                values + ("yes" if report.is_nash else "no",
                          "yes" if report.is_strict_nash else "no"))
            out += "".join("    [%s] %s: gap=%.6g\n" % ("ok" if check.satisfied else "VIOLATED",
                                                         check.description, check.value)
                           for check in report.conditions)
    sys.stdout.write(out)
    return 0


def cmd_equilibria(args) -> int:
    spec = _load_spec(args.spec)
    if not spec.has_quantum:
        raise specfile.SpecError("equilibria needs a [quantum] section in the spec")
    regions = engine.enumerate_equilibria(*engine._closed_forms(spec._weights(),
                                                                spec.payoff_vectors()))

    if args.csv:
        sys.stdout.write("kind,p_min,p_max,q_min,q_max\n" + "".join(
            "%s,%.12g,%.12g,%.12g,%.12g\n" % ((region.kind,) + region) for region in regions))
        return 0

    def interval(name, lo, hi):
        return "%s=%.6g" % (name, lo) if lo == hi else "%s in [%.6g, %.6g]" % (name, lo, hi)

    lines = "".join("  %s: %s, %s\n" % (region.kind, interval("p", region.p_min, region.p_max),
                                         interval("q", region.q_min, region.q_max))
                    for region in regions)
    sys.stdout.write("Nash equilibrium regions (p, q = identity probabilities):\n" + lines
                     if regions else "No Nash equilibria.\n")
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec)
    from . import sweep
    return sweep.run(spec, args.axis)


def cmd_reproduce(args) -> int:
    checks = verification.run_verification()
    failed = [c for c in checks if not c.passed]

    if args.csv:
        out = "check_id,expected,computed,tolerance,passed,detail\n" + "".join(
            "%s,%.12g,%.12g,%.12g,%s,%s\n" % (c.check_id, c.expected, c.computed, c.tolerance,
                                             "true" if c.passed else "false", c.detail)
            for c in checks)
    else:
        width = max(len(c.check_id) for c in checks)
        out = "".join("[%s] %-*s expected=%.12g computed=%.12g%s\n" % (
            "ok  " if c.passed else "FAIL", width, c.check_id, c.expected, c.computed,
            "  (%s)" % c.detail if c.detail else "") for c in checks)
        out += "%d passed, %d failed\n" % (len(checks) - len(failed), len(failed))
    sys.stdout.write(out)
    if failed:
        sys.stderr.write("failed checks: %s\n" % ", ".join(c.check_id for c in failed))
        return 1
    return 0


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


def _read_argv(argv: list[str]):
    """The namespace the top-level parser gives for well-formed ``argv``, read
    from ``_COMMANDS`` alone, or None for any other argv.

    Well-formed argv is a command name and then only that command's flags,
    each spelled in full, with each flag that takes a value followed by a
    token that does not start with ``-``.  argparse reads such argv token by
    token just so: a flag left out keeps its default (False or None), the
    last ``--spec`` wins and each ``--axis`` is appended.  Help, abbreviations,
    ``--spec=PATH``, ``--``, a missing value and every error are left to
    argparse, the one source of usage lines and messages.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, flags = _COMMANDS[argv[0]]
    options = dict(flags)
    args = {flag[2:]: False if option.get("action") == "store_true" else None
            for flag, option in flags}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in options:
            return None
        action, dest = options[flag].get("action"), flag[2:]
        if action == "store_true":
            args[dest] = True
            continue
        value = next(tokens, "-")   # a missing value is left to argparse too
        if value.startswith("-"):
            return None
        args[dest] = (args[dest] or []) + [value] if action == "append" else value
    return types.SimpleNamespace(command=argv[0], func=func, **args)


@functools.cache
def _build_parser():
    """The top-level parser, built once per process at first use, so that
    argparse is imported only for argv that ``_read_argv`` leaves to it;
    parsing never mutates it."""
    import argparse

    class _CommandParser(argparse.ArgumentParser):
        """A subcommand's parser: it reports an argument it does not take itself,
        with its own usage line, instead of leaving it to the top-level parser."""

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return namespace, extras

    parser = argparse.ArgumentParser(
        prog="qbg",
        description="Classical and quantized analysis of the Barro-Gordon "
                    "monetary policy game.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, func, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            command.add_argument(flag, **options)
        command.set_defaults(func=func)
    return parser


def _parse_args(argv):
    """The namespace the top-level parser gives for ``argv``, with its messages
    and exit codes.  Well-formed argv is read without argparse; only other
    argv builds the top-level parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    return _build_parser().parse_args(argv) if args is None else args


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
