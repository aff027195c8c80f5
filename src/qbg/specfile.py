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
  The pattern ``_NUMBER`` is the grammar's one statement and the source of
  every "not a number" message; only the two shapes ``str(Fraction)``
  writes, ``[-]digits`` and ``[-]digits/digits`` with a nonzero
  denominator, are read without it, with ``str.isdecimal`` and ``int``.

``[game]`` keys::

    mode = builtin-bg | custom
    theta, a, b                 # builtin-bg: type flag and coefficients
    row_labels, col_labels      # custom: two labels each, e.g. "L,H"
    row_payoffs, col_payoffs    # custom: four numbers per player, cells
                                # in basis order LL,LH,HL,HH

``[quantum]`` keys (one family or the other, not both)::

    prob_ll, prob_lh, prob_hl, prob_hh   # squared magnitudes, sum 1
    amp_ll,  amp_lh,  amp_hl,  amp_hh    # real amplitudes, norm 1

The state's weights, the prob_* values or the squares of the amp_* values
as floats, must sum in basis order to 1 within ``NORMALIZATION_TOL`` (1e-9),
and each prob_* value must be nonnegative: ``_state_weights``' one rule,
for parsed and hand-built specs alike.

``[candidate]`` keys::

    p = ...   # row player's choice in [0, 1]: P(column qubit keeps the identity)
    q = ...   # column player's choice in [0, 1]: P(row qubit keeps the identity)

Parsing keeps exact ``Fraction`` values: a builtin-bg table's cells are
worked out exactly from them, and exact decisions on spec input (ROADMAP
item 1) can start from them.  Payoffs and state weights are also
used as floats, so each of them, and each payoff of a builtin-bg table, must
lie within the float range.  A builtin-bg table is worked out from the
integers of a and b: each cell is one int division n/d as a float, or a
``Fraction(n, d)`` for ``to_game``.  Every other value becomes a float
through ``_to_float``, once per use: a ``Fraction`` as the one int division
``numerator / denominator``, anything else with ``float()``.

Spec weights feed the closed forms only through ``_weights``, and the
density oracle only through ``to_state`` and ``to_candidate``:
``engine.final_density`` builds its result valid by construction (trace
checked, Hermitian and positive semidefinite by construction), while every
other way of building an ``engine.DensityMatrix4`` checks all three.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import engine, game   # each runs at its first use, not at import
from ._records import NORMALIZATION_TOL, check_policy_fields

# Each mode's own [game] keys, in the order another mode refuses them, and
# the keys it requires, in the order they are looked for.
_MODE_KEYS = {"builtin-bg": (("theta", "a", "b"), ("theta", "a", "b")),
              "custom": (("row_labels", "col_labels", "row_payoffs", "col_payoffs"),
                         ("row_payoffs", "col_payoffs"))}
# Each mode's foreign [game] keys, each with the mode it belongs to, in the
# order they are refused.
_FOREIGN_KEYS = {mode: tuple((key, other) for other, (own, _) in _MODE_KEYS.items()
                             if other != mode for key in own)
                 for mode in _MODE_KEYS}
_GAME_KEYS = frozenset({"mode"}.union(*(own for own, _ in _MODE_KEYS.values())))
_PROB_KEYS = ("prob_ll", "prob_lh", "prob_hl", "prob_hh")
_AMP_KEYS = ("amp_ll", "amp_lh", "amp_hl", "amp_hh")
_CANDIDATE_KEYS = ("p", "q")
# Each section's keys; _entries refuses any other.
_SECTION_KEYS = {"game": _GAME_KEYS, "quantum": frozenset(_PROB_KEYS + _AMP_KEYS),
                 "candidate": frozenset(_CANDIDATE_KEYS)}
_BG_OVERFLOW = "the builtin-bg payoffs for these a and b exceed the float range"

# An error message quotes at most this many characters of spec or --axis
# text, so that one bad line of a large file makes one short message.
_MAX_QUOTE = 80
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
    """Parse or validation failure, with source position when known.

    A message quotes spec or ``--axis`` text through ``_clip``."""

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
    """Parsed game description; numeric fields are exact fractions.  A
    hand-built spec's int and float fields are taken exactly, as ``Fraction(x)``."""

    __slots__ = ()

    @property
    def has_quantum(self) -> bool:
        return self.probabilities is not None or self.amplitudes is not None

    def to_game(self) -> game.BimatrixGame:
        if self.mode == "builtin-bg":
            cells, labels = self._bg_cells(exact=True), (("L", "H"), ("L", "H"))
        else:
            cells = self.row_payoffs + self.col_payoffs
            labels = (self.row_labels, self.col_labels)
        payoffs = tuple(tuple((cells[2 * r + c], cells[4 + 2 * r + c]) for c in (0, 1))
                        for r in (0, 1))
        return game.BimatrixGame(*labels, payoffs)

    def payoff_vectors(self) -> tuple[engine.PayoffVector, engine.PayoffVector]:
        if self.mode == "builtin-bg":
            cells = self._bg_cells()
        else:
            cells = tuple(map(_to_float, self.row_payoffs + self.col_payoffs))
        return engine.PayoffVector(*cells[:4]), engine.PayoffVector(*cells[4:])

    def _bg_cells(self, exact: bool = False) -> tuple:
        """``build_bg_game``'s cells for these fields, as floats or, if exact,
        as Fractions: the row player's, then the column player's, in basis
        order (LL, LH, HL, HH).  With h = b/a, the row cells are 0, -gain,
        gain - cost and -cost, for the gain theta*b*h and the cost a*h*h/2, and
        the column cells 0, -(h*h), -(h*h) and 0.  Each is made from two ints
        n and d, as ``float(Fraction(n, d))`` would round it; the sign is on n,
        so a zero cell is +0.0.
        """
        check_policy_fields(self.theta, self.a, self.b)   # PolicyParams's rule
        an, ad = self.a.as_integer_ratio()
        bn, bd = self.b.as_integer_ratio()
        n, d = bn * bn * ad, bd * bd * an          # b*h = b**2/a
        loss = (-(bn * ad) ** 2, (bd * an) ** 2)
        cells = ((0, 1), (-self.theta * n, d), ((2 * self.theta - 1) * n, 2 * d), (-n, 2 * d),
                 (0, 1), loss, loss, (0, 1))
        try:
            floats = tuple([n / d for n, d in cells])
        except OverflowError:
            raise SpecError(_BG_OVERFLOW) from None
        return tuple([Fraction(n, d) for n, d in cells]) if exact else floats

    def _weights(self) -> list[float]:
        """The state's weights (LL, LH, HL, HH), not normalized, under the [quantum] rule."""
        if self.probabilities is not None:
            return _state_weights(self.probabilities, _PROB_KEYS)
        return _state_weights(self.amplitudes, _AMP_KEYS)

    def to_state(self) -> engine.QuantumInitialState | None:
        """The state of the prob_* weights, or of the amp_* amplitudes
        normalized, once they meet the [quantum] rule; None without one."""
        if not self.has_quantum:
            return None
        weights = self._weights()
        if self.probabilities is not None:
            return engine.QuantumInitialState.from_probabilities(*weights)
        return engine.QuantumInitialState.normalized(*map(_to_float, self.amplitudes))

    def to_candidate(self) -> engine.MixingProfile | None:
        if self.candidate is None:
            return None
        return engine.MixingProfile(_to_float(self.candidate[0]), _to_float(self.candidate[1]))


def _clip(text: str) -> str:
    """``text``, or its first ``_MAX_QUOTE`` characters followed by ``...``
    when it is longer: the part of spec or ``--axis`` text a message quotes."""
    return text if len(text) <= _MAX_QUOTE else text[:_MAX_QUOTE] + "..."


def _parse_number(text: str, line: int, column: int) -> Fraction:
    # The two shapes str(Fraction) writes, [-]digits and [-]digits/digits with
    # a nonzero denominator, are read without the pattern: isdecimal() is true
    # for exactly the characters \d matches, and int() reads them.  int()'s
    # ValueError for too many digits leaves the text to _NUMBER's message.
    num, slash, denom = text.partition("/")
    if (num[1:] if num[:1] == "-" else num).isdecimal():
        try:
            if not slash:
                return Fraction(int(num))
            if denom.isdecimal():
                denominator = int(denom)
                if denominator:
                    return Fraction(int(num), denominator)
        except ValueError:
            pass
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
        raise SpecError(f"not a number: {_clip(text)!r}", line, column) from None
    shift = 0
    if exp:
        try:
            shift = int(exp)
        except ValueError:            # more digits than int() converts
            shift = MAX_EXPONENT + 1
        if shift > MAX_EXPONENT:
            raise SpecError(f"exponent of {_clip(text)!r} exceeds {MAX_EXPONENT} in magnitude",
                            line, column)
        if exp_sign == "-":
            denominator *= 10 ** shift
        else:
            numerator *= 10 ** shift
    value = Fraction(-numerator if sign == "-" else numerator, denominator)
    # repr() of a GameSpec writes a Fraction's ints with str(), which limits an
    # int's digits unless the limit is 0, so a value str() cannot write is
    # refused; its numerator and denominator have at most len(text) + shift digits.
    limit = sys.get_int_max_str_digits()
    if limit and len(text) + shift > limit:
        try:
            str(value)
        except ValueError:
            raise SpecError(f"{_clip(text)!r} has more than {limit} digits in its numerator "
                            "or denominator", line, column) from None
    return value


def _to_float(value) -> float:
    """``value`` as a float: a ``Fraction`` as ``numerator / denominator``,
    which is what ``float(Fraction)`` computes on Python 3.10-3.13 (the same
    bits and the same ``OverflowError``) without its generic dispatch, and
    anything else with ``float()``."""
    if type(value) is Fraction:
        return value.numerator / value.denominator
    return float(value)


def _fits_float(values) -> bool:
    """Whether every number in ``values`` converts to a float without
    overflowing."""
    try:
        for value in values:
            _to_float(value)
    except OverflowError:
        return False
    return True


def _state_weights(values, family, entries=None) -> list[float]:
    """The [quantum] rule: the ``family`` (``_PROB_KEYS`` or ``_AMP_KEYS``)
    ``values`` as float weights, an amp_* value squared as ``a * a``, the
    square ``engine`` gives the oracle's state, so a spec is accepted by the
    norm its state is built from (a square past the float range is inf).
    Refused unless every prob_* value is nonnegative, every value is a float
    and the weights sum to 1 within ``NORMALIZATION_TOL`` (so nan and inf
    never pass), checked in that order; a message names the first key at
    fault, with its place if ``entries`` maps it to (value, line, column)."""
    where = entries or dict.fromkeys(family, (None, None, None))
    if family is _PROB_KEYS:
        for key, value in zip(family, values):
            # a Fraction's sign is its numerator's, read without Fraction's comparison
            if (value.numerator if type(value) is Fraction else value) < 0:
                raise SpecError(f"{key} must be nonnegative", *where[key][1:])
    try:
        weights = [_to_float(value) for value in values]
    except OverflowError:
        key = next(k for k, value in zip(family, values) if not _fits_float((value,)))
        raise SpecError(f"{key} exceeds the float range", *where[key][1:]) from None
    if family is _AMP_KEYS:
        weights = [a * a for a in weights]
    total = weights[0] + weights[1] + weights[2] + weights[3]
    if not abs(total - 1.0) <= NORMALIZATION_TOL:
        raise SpecError(f"[quantum] amplitudes have squared norm {total!r}, expected 1"
                        if family is _AMP_KEYS else
                        f"[quantum] squared magnitudes sum to {total!r}, expected 1")
    return weights


def _parse_labels(text: str, line: int, column: int) -> tuple[str, str]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise SpecError(f"expected two comma-separated labels, got {_clip(text)!r}",
                        line, column)
    return (parts[0], parts[1])


def _parse_payoffs(text: str, line: int, column: int):
    """A player's four payoffs, in basis order."""
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 4:
        raise SpecError(f"expected 4 comma-separated numbers, got {_clip(text)!r}",
                        line, column)
    return tuple(_parse_number(part, line, column) for part in parts)


def _scan(text: str) -> dict[str, dict[str, tuple[str, int, int]]]:
    """Split the file into sections mapping key -> (value, line, column)."""
    sections: dict[str, dict[str, tuple[str, int, int]]] = {}
    current: str | None = None
    entries = None   # sections[current]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[":
            if not line.endswith("]"):
                raise SpecError("unterminated section header", lineno, len(raw))
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise SpecError(f"unknown section [{_clip(name)}]", lineno)
            if name in sections:
                raise SpecError(f"duplicate section [{name}]", lineno)
            entries = sections[name] = {}
            current = name
            continue
        key, equals, value = raw.partition("=")
        if not equals:
            raise SpecError(f"expected 'key = value', got {_clip(line)!r}", lineno)
        if entries is None:
            raise SpecError("key outside any [section]", lineno)
        column = len(key) + 2
        key = key.strip()
        value = value.strip()
        if not key:
            raise SpecError("empty key", lineno)
        if not value:
            raise SpecError(f"key {_clip(key)!r} has no value", lineno, column)
        if key in entries:
            raise SpecError(f"duplicate key {_clip(key)!r} in [{current}]", lineno)
        entries[key] = (value, lineno, column)
    return sections


def _entries(sections, name: str) -> dict[str, tuple[str, int, int]]:
    """Section ``name``'s key -> (value, line, column), refusing a key not in
    ``_SECTION_KEYS[name]``; the first such key in file order is named."""
    entries = sections[name]
    keys = _SECTION_KEYS[name]
    if not entries.keys() <= keys:
        key = next(key for key in entries if key not in keys)
        raise SpecError(f"unknown key {_clip(key)!r} in [{name}]", entries[key][1])
    return entries


def parse_spec(text: str) -> GameSpec:
    """Parse a game description; raises SpecError with line diagnostics."""
    sections = _scan(text)
    if "game" not in sections:
        raise SpecError("missing required section [game]")

    game = _entries(sections, "game")
    if "mode" not in game:
        raise SpecError("missing key 'mode' in [game]")
    mode = game["mode"][0]
    if mode not in _MODE_KEYS:
        raise SpecError(f"mode must be 'builtin-bg' or 'custom', got {_clip(mode)!r}",
                        *game["mode"][1:])
    for key in _MODE_KEYS[mode][1]:
        if key not in game:
            raise SpecError(f"{mode} mode requires key {key!r} in [game]")
    for key, other in _FOREIGN_KEYS[mode]:
        if key in game:
            raise SpecError(f"key {key!r} is only valid in {other} mode", game[key][1])

    fields: dict = {"mode": mode}
    if mode == "builtin-bg":
        # range checks compare a Fraction's ints; its denominator is positive
        theta = _parse_number(*game["theta"])
        if theta.denominator != 1 or theta.numerator not in (0, 1):
            raise SpecError(f"theta must be 0 or 1, got {_clip(game['theta'][0])!r}",
                            *game["theta"][1:])
        fields["theta"] = theta.numerator
        for key in ("a", "b"):
            value = _parse_number(*game[key])
            if value.numerator <= 0:
                raise SpecError(f"{key} must be positive", *game[key][1:])
            fields[key] = value
    else:
        for key in ("row_labels", "col_labels"):
            if key in game:
                fields[key] = _parse_labels(*game[key])
        for key in ("row_payoffs", "col_payoffs"):
            fields[key] = _parse_payoffs(*game[key])

    if "quantum" in sections:
        quantum = _entries(sections, "quantum")
        has_probs = not quantum.keys().isdisjoint(_PROB_KEYS)
        has_amps = not quantum.keys().isdisjoint(_AMP_KEYS)
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
        _state_weights(values, family, quantum)
        fields["probabilities" if has_probs else "amplitudes"] = tuple(values)

    if "candidate" in sections:
        candidate = _entries(sections, "candidate")
        for key in _CANDIDATE_KEYS:
            if key not in candidate:
                raise SpecError(f"[candidate] is missing key {key!r}")
        values = []
        for key in _CANDIDATE_KEYS:
            value = _parse_number(*candidate[key])
            if not 0 <= value.numerator <= value.denominator:
                raise SpecError(f"{key} must lie in [0, 1]", *candidate[key][1:])
            values.append(value)
        fields["candidate"] = (values[0], values[1])

    for key in ("row_payoffs", "col_payoffs"):
        if key in fields and not _fits_float(fields[key]):
            raise SpecError(f"{key} exceeds the float range", *game[key][1:])
    return GameSpec(**fields)

