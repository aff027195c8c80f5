"""Judge qbg's output for one operation against the exact reference.

Numbers are read back from qbg's text and compared with the exact value
under an absolute floor plus a relative bound.  qbg documents float results
good to 1e-12 and prints them with 6 (text) or 12 (CSV) significant digits,
so an exact 0 may legitimately print as ``-1.11022e-16``; a rule of "match
every printed digit" would reject that.  Verdicts, ``nash`` flags, region
kinds, labels, messages and exit codes are compared exactly.

An equilibria mismatch on a game whose best-response crossing lies exactly
at 0 or 1 is the one known qbg defect (a float residue moves the crossing
off the edge and a piece of the Nash set is lost).  Such an outcome is still
not ``ok``; it is labelled ``known_defect`` so that a run counts and lists
it apart from failures of any *other* cause, which mark the run incorrect.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

ABS_FLOOR = 1e-9                      # far above qbg's 1e-16 residues, far below any real error
REL_TEXT = 6e-6                       # %.6g rounding
REL_CSV = 1e-9                        # %.12g rounding plus float error
KNOWN_DEFECT = "equilibria region mismatch at an exact best-response crossing"

_NUMBER = r"([-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|nan|inf))"


@dataclass(frozen=True, slots=True)
class Outcome:
    ok: bool
    records: int                      # output records judged: grid points, rows or lines
    reason: str = ""
    known_defect: bool = False


class Mismatch(Exception):
    pass


def close(text: str, exact, rel: float) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return abs(value - float(exact)) <= ABS_FLOOR + rel * abs(float(exact))


def _number(text: str, exact, rel: float, what: str) -> None:
    if not close(text, exact, rel):
        raise Mismatch(f"{what}: got {text}, reference {exact}")


def _line(actual: str, parts: list, rel: float, what: str) -> None:
    """Match ``actual`` against literal strings and exact numbers in ``parts``.

    Whitespace inside literals matches any run of blanks, since qbg pads its
    tables to the widest cell.
    """
    pattern, numbers = "", []
    for part in parts:
        if isinstance(part, str):
            pattern += r"\s*".join(re.escape(word) for word in part.split(" "))
        else:
            pattern += _NUMBER
            numbers.append(part)
    match = re.fullmatch(pattern + r"\s*", actual)
    if match is None:
        raise Mismatch(f"{what}: got {actual!r}")
    for text, exact in zip(match.groups(), numbers):
        _number(text, exact, rel, what)


def _lines(actual: str, expected: list[list], rel: float, what: str) -> int:
    lines = actual.splitlines()
    if len(lines) != len(expected):
        raise Mismatch(f"{what}: {len(lines)} lines, reference {len(expected)}")
    for k, (line, parts) in enumerate(zip(lines, expected)):
        _line(line, parts, rel, f"{what} line {k + 1}")
    return len(lines)


def _rows(actual: str, header: list[str], expected: list[list], what: str) -> int:
    rows = list(csv.reader(io.StringIO(actual)))
    if not rows or rows[0] != header:
        raise Mismatch(f"{what}: header {rows[:1]}")
    rows = rows[1:]
    if len(rows) != len(expected):
        raise Mismatch(f"{what}: {len(rows)} rows, reference {len(expected)}")
    for k, (row, cells) in enumerate(zip(rows, expected)):
        if len(row) != len(cells):
            raise Mismatch(f"{what} row {k + 1}: {row}")
        for text, cell in zip(row, cells):
            if isinstance(cell, str):
                if text != cell:
                    raise Mismatch(f"{what} row {k + 1}: got {text!r}, reference {cell!r}")
            else:
                _number(text, cell, REL_CSV, f"{what} row {k + 1}")
    return len(rows)


def _flag(value: bool, csv_out: bool) -> str:
    if csv_out:
        return "true" if value else "false"
    return "yes" if value else "no"


# --- per-command expectations ------------------------------------------------

def _classical(spec, stdout: str, csv_out: bool) -> int:
    game = spec.game
    cells = [(r, c) for r in (0, 1) for c in (0, 1)]
    if csv_out:
        return _rows(stdout, ["row_label", "col_label", "row_payoff", "col_payoff"],
                     [[game.row_labels[r], game.col_labels[c], game.row[2 * r + c],
                       game.col[2 * r + c]] for r, c in cells], "classical csv")
    nash = ref.pure_nash(game)
    dominated = ref.dominated_rows(game)
    nash_text = ", ".join(f"({game.row_labels[r]}, {game.col_labels[c]})"
                          for r, c in nash) or "none"
    dom_text = ", ".join(f"{game.row_labels[i]} ({'strict' if strict else 'weak'})"
                         for i, strict in dominated) or "none"
    expected = [["Payoff table (rows: policy maker, columns: public)"],
                [" " + " ".join(game.col_labels)]]
    for r in (0, 1):
        line = ["  " + game.row_labels[r] + " "]
        for c in (0, 1):
            line += ["(", game.row[2 * r + c], ", ", game.col[2 * r + c], ") "]
        expected.append(line)
    expected += [[f"Pure Nash equilibria: {nash_text}"], [f"Dominated rows: {dom_text}"]]
    return _lines(stdout, expected, REL_TEXT, "classical")


def _forms(spec):
    f_row = ref.closed_form(spec.probs, spec.game.row)
    f_col = ref.closed_form(spec.probs, spec.game.col)
    return f_row, f_col


def _quantize(spec, stdout: str, csv_out: bool) -> int:
    f_row, f_col = _forms(spec)
    forms = (("policy", f_row), ("public", f_col))
    verdict = ref.verdict(f_row, f_col, *spec.candidate) if spec.candidate else None
    if csv_out:
        rows = []
        for name, form in forms:
            rows += [[f"{name}.constant", form.constant], [f"{name}.coeff_p", form.coeff_p],
                     [f"{name}.coeff_q", form.coeff_q], [f"{name}.coeff_pq", form.coeff_pq]]
        if verdict:
            rows += [["candidate.p", spec.candidate[0]], ["candidate.q", spec.candidate[1]],
                     ["policy_payoff.trace", verdict.row_payoff],
                     ["policy_payoff.closed_form", verdict.row_payoff],
                     ["public_payoff.trace", verdict.col_payoff],
                     ["public_payoff.closed_form", verdict.col_payoff],
                     ["nash.weak", _flag(verdict.weak, True)],
                     ["nash.strict", _flag(verdict.strict, True)]]
        return _rows(stdout, ["item", "value"], rows, "quantize csv")
    expected = [["Closed form: payoff(p, q) = constant + coeff_p*p + coeff_q*q + coeff_pq*p*q"]]
    for name, form in forms:
        expected.append([f"  {name}: constant=", form.constant, " coeff_p=", form.coeff_p,
                         " coeff_q=", form.coeff_q, " coeff_pq=", form.coeff_pq])
    if verdict:
        p, q = spec.candidate
        expected += [
            ["Candidate profile: p=", p, ", q=", q],
            ["  policy payoff: trace=", verdict.row_payoff, ", closed-form=", verdict.row_payoff],
            ["  public payoff: trace=", verdict.col_payoff, ", closed-form=", verdict.col_payoff],
            [f"  Nash (weak): {_flag(verdict.weak, False)}"],
            [f"  Nash (strict): {_flag(verdict.strict, False)}"],
            ["  conditions:"]]
        for gap, who, var, edge in zip(verdict.gaps, ("row", "row", "column", "column"),
                                       "ppqq", (0, 1, 0, 1)):
            mark = "ok" if gap >= 0 else "VIOLATED"
            expected.append([f"    [{mark}] {who} deviation to {var}={edge} does not gain: gap=",
                             gap])
    return _lines(stdout, expected, REL_TEXT, "quantize")


_REGION = re.compile(r"  (point|segment|rectangle): (?:p=NUM|p in \[NUM, NUM\]), "
                     r"(?:q=NUM|q in \[NUM, NUM\])".replace("NUM", _NUMBER))


def _parse_regions(stdout: str, csv_out: bool) -> list[tuple]:
    """Regions qbg printed, as (kind, p_min, p_max, q_min, q_max) strings."""
    if csv_out:
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows or rows[0] != ["kind", "p_min", "p_max", "q_min", "q_max"]:
            raise Mismatch(f"equilibria csv: header {rows[:1]}")
        if any(len(row) != 5 for row in rows[1:]):
            raise Mismatch(f"equilibria csv: rows {rows[1:]}")
        return [tuple(row) for row in rows[1:]]
    lines = stdout.splitlines()
    if lines == ["No Nash equilibria."]:
        return []
    if not lines or lines[0] != "Nash equilibrium regions (p, q = identity probabilities):":
        raise Mismatch(f"equilibria: heading {lines[:1]}")
    regions = []
    for line in lines[1:]:
        match = _REGION.fullmatch(line)
        if match is None:
            raise Mismatch(f"equilibria: got {line!r}")
        kind, p_eq, p_lo, p_hi, q_eq, q_lo, q_hi = match.groups()
        regions.append((kind, p_eq or p_lo, p_eq or p_hi, q_eq or q_lo, q_eq or q_hi))
    return regions


def _equilibria(spec, stdout: str, csv_out: bool) -> int:
    f_row, f_col = _forms(spec)
    expected = ref.equilibrium_regions(f_row, f_col)
    rel = REL_CSV if csv_out else REL_TEXT
    got = _parse_regions(stdout, csv_out)
    same = len(got) == len(expected) and all(
        g[0] == e.kind and all(close(t, x, rel) for t, x in
                               zip(g[1:], (e.p_min, e.p_max, e.q_min, e.q_max)))
        for g, e in zip(got, expected))
    if not same:
        shown = "; ".join(f"{e.kind} p=[{e.p_min}, {e.p_max}] q=[{e.q_min}, {e.q_max}]"
                          for e in expected)
        raise Mismatch(f"equilibria regions {got} vs reference {shown}")
    return max(1, len(got))


def _crossing_cause(spec) -> str:
    return ", ".join(ref.exact_crossings(*_forms(spec)))


_SPEC_CHECKS = {"classical": _classical, "quantize": _quantize, "equilibria": _equilibria}


def check_spec_command(command: str, csv_out: bool, spec, code: int, stdout: str,
                       stderr: str) -> Outcome:
    """Judge ``qbg <command> --spec <spec> [--csv]``."""
    try:
        if spec.malformed:
            lines = stderr.splitlines()
            if code != 2 or stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                raise Mismatch(f"malformed spec: exit {code}, stderr {stderr[-200:]!r}")
            return Outcome(True, 1)
        if code != 0 or stderr:
            raise Mismatch(f"exit {code}, stderr {stderr[-200:]!r}")
        return Outcome(True, _SPEC_CHECKS[command](spec, stdout, csv_out))
    except Mismatch as exc:
        reason = f"{command}{' --csv' if csv_out else ''}: {exc}"
        cause = _crossing_cause(spec) if command == "equilibria" and not spec.malformed else ""
        if cause:
            return Outcome(False, 0, f"{KNOWN_DEFECT} ({cause}): {reason}", True)
        return Outcome(False, 0, reason)


def check_sweep(op, code: int, stdout: str, stderr: str) -> Outcome:
    """Judge ``qbg sweep`` on a dyadic grid; every grid value is exact in binary.

    With p and q on the grid, the row payoff is constant + coeff_q*q plus p
    times the row slope coeff_p + coeff_pq*q, and the column payoff likewise
    with the roles swapped; the pieces are cached per state and per q (or p).
    """
    try:
        if code != 0 or stderr:
            raise Mismatch(f"exit {code}, stderr {stderr[-200:]!r}")
        spec = op.spec
        names = [axis[0] for axis in op.axes]
        grids = [[lo + (hi - lo) * Fraction(k, steps - 1) for k in range(steps)]
                 for _, lo, hi, steps in op.axes]
        expected = []
        row_parts, col_parts = {}, {}
        for outer in grids[0]:
            for inner in grids[1]:
                point = dict(zip(names, (outer, inner)))
                probs = list(spec.probs)
                for k, key in enumerate(("prob_lh", "prob_hl", "prob_hh"), start=1):
                    probs[k] = point.get(key, probs[k])
                probs[0] = 1 - sum(probs[1:])
                state = tuple(probs)
                p = point.get("p", spec.candidate[0])
                q = point.get("q", spec.candidate[1])
                if (state, q) not in row_parts:
                    f = ref.closed_form(state, spec.game.row)
                    row_parts[state, q] = (f.constant + f.coeff_q * q, f.coeff_p + f.coeff_pq * q)
                if (state, p) not in col_parts:
                    f = ref.closed_form(state, spec.game.col)
                    col_parts[state, p] = (f.constant + f.coeff_p * p, f.coeff_q + f.coeff_pq * p)
                row_base, row_slope = row_parts[state, q]
                col_base, col_slope = col_parts[state, p]
                nash = ref.best_response(row_slope, p) and ref.best_response(col_slope, q)
                expected.append([outer, inner, row_base + p * row_slope,
                                 col_base + q * col_slope, _flag(nash, True)])
        return Outcome(True, _rows(stdout, names + ["policy_payoff", "public_payoff", "nash"],
                                   expected, "sweep"))
    except Mismatch as exc:
        return Outcome(False, 0, f"sweep {' '.join(op.argv_axes)}: {exc}")


# --- reproduce ---------------------------------------------------------------

def _reproduce_ids() -> list[str]:
    """The check ids `qbg reproduce` prints, in its order."""
    ids = []
    for label in ("weak", "strong"):
        ids += [f"classical.{label}-table.{cell}.{who}" for cell in ("ll", "lh", "hl", "hh")
                for who in ("policy", "public")]
        ids += [f"classical.{label}-nash", f"classical.{label}-dominated"]
    ids += [f"closed-form.{who}.{part}" for who in ("policy", "public")
            for part in ("constant", "coeff-p", "coeff-q", "coeff-pq")]
    ids += [f"nash-gap.{who}.{what}" for what in ("definition", "closed-form")
            for who in ("policy", "public")]
    ids += [f"{case}.{who}-{what}" for case in ("case-a", "case-b", "case-c")
            for what in ("payoff", "condition") for who in ("policy", "public")]
    for family, last in (("strategy-i", "never-nash"), ("strategy-ii", "nash-threshold")):
        ids += [f"{family}.{what}" for what in ("state", "policy-payoff", "public-payoff",
                                                "policy-condition", "public-condition", last)]
    return ids + ["oracle.trace-vs-closed-form"]


REPRODUCE_IDS = _reproduce_ids()
REPRODUCE_EXPECT = ref.reproduce_expectations()
_REPRODUCE_LINE = re.compile(r"\[(ok  |FAIL)\] (\S+)\s+expected=NUM computed=NUM(?:  \((.*)\))?"
                             .replace("NUM", _NUMBER))


def _agree(expected: str, computed: str) -> bool:
    """Two printed numbers within the CSV tolerance of each other."""
    try:
        return close(computed, float(expected), REL_CSV)
    except ValueError:
        return False


def check_reproduce(csv_out: bool, code: int, stdout: str, stderr: str) -> Outcome:
    """Every check present and passing; modelled checks equal the exact reference."""
    try:
        if code != 0 or stderr:
            raise Mismatch(f"exit {code}, stderr {stderr[-200:]!r}")
        if csv_out:
            rows = list(csv.reader(io.StringIO(stdout)))
            if not rows or rows[0] != ["check_id", "expected", "computed", "tolerance",
                                       "passed", "detail"]:
                raise Mismatch(f"header {rows[:1]}")
            if any(len(row) != 6 for row in rows[1:]):
                raise Mismatch("a row without 6 fields")
            entries = [(row[0], row[1], row[2], row[4] == "true") for row in rows[1:]]
        else:
            lines = stdout.splitlines()
            if not lines or lines[-1] != f"{len(REPRODUCE_IDS)} passed, 0 failed":
                raise Mismatch(f"summary {lines[-1:]}")
            entries = []
            for line in lines[:-1]:
                match = _REPRODUCE_LINE.fullmatch(line)
                if match is None:
                    raise Mismatch(f"got {line!r}")
                entries.append((match[2], match[3], match[4], match[1] == "ok  "))
        if [e[0] for e in entries] != REPRODUCE_IDS:
            raise Mismatch("check ids differ from the reference list")
        rel = REL_CSV if csv_out else REL_TEXT
        for check_id, expected, computed, passed in entries:
            if not passed:
                raise Mismatch(f"{check_id} reported as failed")
            if check_id in REPRODUCE_EXPECT:
                _number(expected, REPRODUCE_EXPECT[check_id], rel, f"{check_id} expected")
                _number(computed, REPRODUCE_EXPECT[check_id], rel, f"{check_id} computed")
            elif not _agree(expected, computed):
                raise Mismatch(f"{check_id}: computed {computed} vs expected {expected}")
        return Outcome(True, len(entries))
    except Mismatch as exc:
        return Outcome(False, 0, f"reproduce{' --csv' if csv_out else ''}: {exc}")
