"""Line-oriented game description files.

Grammar (one page, deliberately small):

* A file is a sequence of ``[section]`` headers and ``key = value`` lines.
* Blank lines and lines starting with ``#`` or ``;`` are ignored.  A comment
  takes a whole line: text after a value is part of the value.
* Sections: ``[game]`` (required), ``[quantum]`` and ``[candidate]`` (optional).
* Labels are comma-separated strings.  A number is exactly a string that
  Python 3.11's ``Fraction(str)`` accepts, surrounding whitespace aside::

      number   = [sign] (digits "/" digits | digits ["." [digits]] [exponent]
                         | "." digits [exponent])
      exponent = ("e" | "E") [sign] digits
      digits   = digit {digit} {"_" digit {digit}}
      sign     = "+" | "-"

  where a digit is any Unicode decimal digit: ``0.25``, ``25e-2``, ``+1/2``,
  ``1_000``, ``.5``.  ``1/0`` and ``1/2e3`` are not numbers.  In a number
  list, numbers are separated by commas with optional whitespace around each.
  A decimal exponent may be at most ``MAX_EXPONENT`` in magnitude, and a
  value's numerator and denominator must each be writable by ``str()``.

``[game]`` keys::

    mode = builtin-bg | custom
    theta, a, b                 # builtin-bg: type flag and coefficients
    row_labels, col_labels      # custom: two labels each, e.g. "L,H"
    row_payoffs, col_payoffs    # custom: four numbers per player, cells
                                # in basis order LL,LH,HL,HH

``[quantum]`` keys (one family or the other, not both)::

    prob_ll, prob_lh, prob_hl, prob_hh   # squared magnitudes, sum 1
    amp_ll,  amp_lh,  amp_hl,  amp_hh    # real amplitudes, norm 1

The sum (or squared norm) is the state's: the values as floats, added in
basis order.  It must be 1 within ``engine.NORMALIZATION_TOL``.

``[candidate]`` keys::

    p = ...   # row player's identity probability, in [0, 1]
    q = ...   # column player's identity probability

Parsing keeps exact ``Fraction`` values so that rendering a spec and parsing
it back reproduces the object exactly.  Payoffs and state weights are also
used as floats, so each of them, and each payoff of a builtin-bg table, must
lie within the float range.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .engine import NORMALIZATION_TOL, MixingProfile, PayoffVector, QuantumInitialState
from .game import BimatrixGame, PolicyParams, build_bg_game

_SECTIONS = ("game", "quantum", "candidate")
_GAME_KEYS = {"mode", "theta", "a", "b",
              "row_labels", "col_labels", "row_payoffs", "col_payoffs"}
_PROB_KEYS = ("prob_ll", "prob_lh", "prob_hl", "prob_hh")
_AMP_KEYS = ("amp_ll", "amp_lh", "amp_hl", "amp_hh")
_CANDIDATE_KEYS = ("p", "q")

# A value is built with 10**exponent exactly, so a short text like 1e100000000
# would stall the parser; numbers with a larger exponent are refused unbuilt.
MAX_EXPONENT = 10_000
# Exactly the strings Python 3.11's Fraction(str) accepts, matched once.
_NUMBER = re.compile(r"""
    \s*(?P<sign>[-+]?)
    (?=\d|\.\d)                                    # a digit, or a point and a digit
    (?P<num>\d+(?:_\d+)*)?
    (?:/(?P<denom>\d+(?:_\d+)*)                    # a fraction n/d, or a decimal:
      |(?:\.(?P<decimal>\d+(?:_\d+)*)?)?           # optional point and digits,
       (?:[eE](?P<exp_sign>[-+]?)(?P<exp>\d+(?:_\d+)*))?)   # optional exponent
    \s*\Z""", re.VERBOSE)


class SpecError(ValueError):
    """Parse or validation failure, with source position when known."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        prefix = ""
        if line is not None:
            prefix = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(prefix + message)


class GameSpec(namedtuple("GameSpec", (
        "mode",            # str
        "theta",           # int | None
        "a", "b",          # Fraction | None
        "row_labels",      # tuple[str, str]
        "col_labels",      # tuple[str, str]
        "row_payoffs",     # tuple of 4 Fractions | None
        "col_payoffs",     # tuple of 4 Fractions | None
        "probabilities",   # tuple of 4 Fractions | None
        "amplitudes",      # tuple of 4 Fractions | None
        "candidate"),      # tuple[Fraction, Fraction] | None
        defaults=(None, None, None, ("L", "H"), ("L", "H"), None, None, None, None, None))):
    """Parsed game description; numeric fields are exact fractions."""

    __slots__ = ()

    @property
    def has_quantum(self) -> bool:
        return self.probabilities is not None or self.amplitudes is not None

    def to_game(self) -> BimatrixGame:
        if self.mode == "builtin-bg":
            game = build_bg_game(PolicyParams(theta=self.theta, a=self.a, b=self.b))
            if not _fits_float(v for row in game.payoffs for cell in row for v in cell):
                raise SpecError("the builtin-bg payoffs for these a and b exceed "
                                "the float range")
            return game
        cells_row = self.row_payoffs
        cells_col = self.col_payoffs
        payoffs = tuple(
            tuple((cells_row[2 * r + c], cells_col[2 * r + c]) for c in (0, 1))
            for r in (0, 1))
        return BimatrixGame(row_labels=self.row_labels,
                            col_labels=self.col_labels, payoffs=payoffs)

    def payoff_vectors(self) -> tuple[PayoffVector, PayoffVector]:
        from .engine import payoff_vectors_from_game
        return payoff_vectors_from_game(self.to_game())

    def to_state(self) -> QuantumInitialState | None:
        if self.probabilities is not None:
            return QuantumInitialState.from_probabilities(*self.probabilities)
        if self.amplitudes is not None:
            amps = [float(a) for a in self.amplitudes]
            norm_sq = sum(a ** 2 for a in amps)   # parse_spec's arithmetic, bit for bit
            if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
                raise SpecError(
                    f"[quantum] amplitudes have squared norm {norm_sq!r}, expected 1")
            return QuantumInitialState.normalized(*amps)
        return None

    def to_candidate(self) -> MixingProfile | None:
        if self.candidate is None:
            return None
        return MixingProfile(float(self.candidate[0]), float(self.candidate[1]))


def _parse_number(text: str, line: int, column: int) -> Fraction:
    match = _NUMBER.match(text)
    try:   # int() refuses more digits than sys.get_int_max_str_digits(), as Fraction() does
        if match is None:
            raise ValueError(text)
        sign, num, denom, decimal, exp_sign, exp = match.groups()
        numerator = int(num or 0)
        denominator = int(denom or 1)
        if decimal:
            decimal = decimal.replace("_", "")
            denominator = 10 ** len(decimal)
            numerator = numerator * denominator + int(decimal)
        if not denominator:
            raise ValueError(text)
    except ValueError:
        raise SpecError(f"not a number: {text!r}", line, column) from None
    if exp:
        try:
            shift = int(exp)
        except ValueError:            # more digits than int() converts
            shift = MAX_EXPONENT + 1
        if shift > MAX_EXPONENT:
            raise SpecError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude",
                            line, column)
        if exp_sign == "-":
            denominator *= 10 ** shift
        else:
            numerator *= 10 ** shift
    value = Fraction(-numerator if sign == "-" else numerator, denominator)
    try:   # render_spec writes the value with str(), which limits an int's digits
        str(value)
    except ValueError:
        raise SpecError(f"{text!r} has more than {sys.get_int_max_str_digits()} digits "
                        "in its numerator or denominator", line, column) from None
    return value


def _fits_float(values) -> bool:
    """Whether every value converts to a float without overflowing."""
    try:
        for value in values:
            float(value)
    except OverflowError:
        return False
    return True


def _parse_labels(text: str, line: int, column: int) -> tuple[str, str]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise SpecError(f"expected two comma-separated labels, got {text!r}",
                        line, column)
    return (parts[0], parts[1])


def _parse_number_list(text: str, count: int, line: int, column: int):
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != count:
        raise SpecError(f"expected {count} comma-separated numbers, got {text!r}",
                        line, column)
    return tuple(_parse_number(part, line, column) for part in parts)


def _scan(text: str) -> dict[str, dict[str, tuple[str, int, int]]]:
    """Split the file into sections mapping key -> (value, line, column)."""
    sections: dict[str, dict[str, tuple[str, int, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecError("unterminated section header", lineno, len(raw))
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise SpecError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise SpecError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise SpecError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise SpecError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise SpecError("empty key", lineno)
        if not value:
            raise SpecError(f"key {key!r} has no value", lineno,
                            raw.index("=") + 2)
        if key in sections[current]:
            raise SpecError(f"duplicate key {key!r} in [{current}]", lineno)
        column = raw.index("=") + 2
        sections[current][key] = (value, lineno, column)
    return sections


def parse_spec(text: str) -> GameSpec:
    """Parse a game description; raises SpecError with line diagnostics."""
    sections = _scan(text)
    if "game" not in sections:
        raise SpecError("missing required section [game]")

    game = dict(sections["game"])
    for key in game:
        if key not in _GAME_KEYS:
            raise SpecError(f"unknown key {key!r} in [game]", game[key][1])
    if "mode" not in game:
        raise SpecError("missing key 'mode' in [game]")
    mode_value, mode_line, mode_col = game["mode"]
    if mode_value not in ("builtin-bg", "custom"):
        raise SpecError(f"mode must be 'builtin-bg' or 'custom', got {mode_value!r}",
                        mode_line, mode_col)

    fields: dict = {"mode": mode_value}
    if mode_value == "builtin-bg":
        for key in ("theta", "a", "b"):
            if key not in game:
                raise SpecError(f"builtin-bg mode requires key {key!r} in [game]")
        for key in ("row_labels", "col_labels", "row_payoffs", "col_payoffs"):
            if key in game:
                raise SpecError(f"key {key!r} is only valid in custom mode",
                                game[key][1])
        theta = _parse_number(*game["theta"])
        if theta not in (0, 1):
            raise SpecError(f"theta must be 0 or 1, got {game['theta'][0]!r}",
                            game["theta"][1], game["theta"][2])
        fields["theta"] = int(theta)
        for key in ("a", "b"):
            value = _parse_number(*game[key])
            if value <= 0:
                raise SpecError(f"{key} must be positive", game[key][1],
                                game[key][2])
            fields[key] = value
    else:
        for key in ("row_payoffs", "col_payoffs"):
            if key not in game:
                raise SpecError(f"custom mode requires key {key!r} in [game]")
        for key in ("theta", "a", "b"):
            if key in game:
                raise SpecError(f"key {key!r} is only valid in builtin-bg mode",
                                game[key][1])
        if "row_labels" in game:
            fields["row_labels"] = _parse_labels(*game["row_labels"])
        if "col_labels" in game:
            fields["col_labels"] = _parse_labels(*game["col_labels"])
        fields["row_payoffs"] = _parse_number_list(game["row_payoffs"][0], 4,
                                                   game["row_payoffs"][1],
                                                   game["row_payoffs"][2])
        fields["col_payoffs"] = _parse_number_list(game["col_payoffs"][0], 4,
                                                   game["col_payoffs"][1],
                                                   game["col_payoffs"][2])

    if "quantum" in sections:
        quantum = dict(sections["quantum"])
        for key in quantum:
            if key not in _PROB_KEYS and key not in _AMP_KEYS:
                raise SpecError(f"unknown key {key!r} in [quantum]",
                                quantum[key][1])
        has_probs = any(k in quantum for k in _PROB_KEYS)
        has_amps = any(k in quantum for k in _AMP_KEYS)
        if has_probs and has_amps:
            raise SpecError("[quantum] mixes prob_* and amp_* keys; use one family")
        if not (has_probs or has_amps):
            raise SpecError("[quantum] section is empty")
        family = _PROB_KEYS if has_probs else _AMP_KEYS
        values = []
        for key in family:
            if key not in quantum:
                raise SpecError(f"[quantum] is missing key {key!r}")
            values.append(_parse_number(*quantum[key]))
        if has_probs:
            for key, value in zip(family, values):
                if value < 0:
                    raise SpecError(f"{key} must be nonnegative",
                                    quantum[key][1], quantum[key][2])
        try:   # a value or a square can overflow; the sums are to_state's, bit for bit
            w = [float(v) for v in values]
            size = w[0] + w[1] + w[2] + w[3] if has_probs else sum(a ** 2 for a in w)
        except OverflowError:
            for key, value in zip(family, values):
                if not _fits_float((value,)):
                    raise SpecError(f"{key} exceeds the float range",
                                    quantum[key][1], quantum[key][2]) from None
            size = math.inf
        if abs(size - 1.0) > NORMALIZATION_TOL:
            what = "squared magnitudes sum to" if has_probs else "amplitudes have squared norm"
            raise SpecError(f"[quantum] {what} {size!r}, expected 1")
        fields["probabilities" if has_probs else "amplitudes"] = tuple(values)

    if "candidate" in sections:
        candidate = dict(sections["candidate"])
        for key in candidate:
            if key not in _CANDIDATE_KEYS:
                raise SpecError(f"unknown key {key!r} in [candidate]",
                                candidate[key][1])
        for key in _CANDIDATE_KEYS:
            if key not in candidate:
                raise SpecError(f"[candidate] is missing key {key!r}")
        values = []
        for key in _CANDIDATE_KEYS:
            value = _parse_number(*candidate[key])
            if not 0 <= value <= 1:
                raise SpecError(f"{key} must lie in [0, 1]",
                                candidate[key][1], candidate[key][2])
            values.append(value)
        fields["candidate"] = (values[0], values[1])

    for key in ("row_payoffs", "col_payoffs"):
        if key in fields and not _fits_float(fields[key]):
            raise SpecError(f"{key} exceeds the float range", game[key][1], game[key][2])
    return GameSpec(**fields)


def render_spec(spec: GameSpec) -> str:
    """Write a spec back to text; ``parse_spec(render_spec(s)) == s``."""
    lines = ["[game]", f"mode = {spec.mode}"]
    if spec.mode == "builtin-bg":
        lines.append(f"theta = {spec.theta}")
        lines.append(f"a = {spec.a}")
        lines.append(f"b = {spec.b}")
    else:
        lines.append(f"row_labels = {spec.row_labels[0]},{spec.row_labels[1]}")
        lines.append(f"col_labels = {spec.col_labels[0]},{spec.col_labels[1]}")
        lines.append("row_payoffs = " + ",".join(str(v) for v in spec.row_payoffs))
        lines.append("col_payoffs = " + ",".join(str(v) for v in spec.col_payoffs))
    if spec.probabilities is not None:
        lines.append("")
        lines.append("[quantum]")
        for key, value in zip(_PROB_KEYS, spec.probabilities):
            lines.append(f"{key} = {value}")
    elif spec.amplitudes is not None:
        lines.append("")
        lines.append("[quantum]")
        for key, value in zip(_AMP_KEYS, spec.amplitudes):
            lines.append(f"{key} = {value}")
    if spec.candidate is not None:
        lines.append("")
        lines.append("[candidate]")
        lines.append(f"p = {spec.candidate[0]}")
        lines.append(f"q = {spec.candidate[1]}")
    return "\n".join(lines) + "\n"
