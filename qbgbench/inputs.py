"""Seeded spec files and command streams for the workloads.

Everything here derives from ``random.Random(seed)``: the same seed gives the
same specs, the same file texts and the same operation order.  Each spec
carries its exact meaning (a ``reference.Game``, squared magnitudes and a
candidate) next to the text handed to qbg, so the checker never has to parse
what it wrote.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from reference import Game, bg_game

CANDIDATE_VALUES = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1))
LABEL_PAIRS = (("L", "H"), ("lo", "hi"), ("Low", "High"), ("keep", "raise"))
PROB_KEYS = ("prob_ll", "prob_lh", "prob_hl", "prob_hh")
AMP_KEYS = ("amp_ll", "amp_lh", "amp_hl", "amp_hh")
MALFORMED_EVERY = 32     # one spec in 32 of the corpus is malformed


def _unit_vectors(max_norm: int = 9) -> list[tuple[int, int, int, int, int]]:
    """Nonnegative integer quadruples (a, b, c, d, n) with a^2+b^2+c^2+d^2 = n^2."""
    out = []
    for n in range(2, max_norm + 1):
        for quad in itertools.product(range(n + 1), repeat=4):
            if sum(x * x for x in quad) == n * n and sum(x > 0 for x in quad) >= 2:
                out.append((*quad, n))
    return out


UNIT_VECTORS = _unit_vectors()


@dataclass(frozen=True)
class Spec:
    text: str
    game: Game | None             # None when the spec is malformed
    probs: tuple | None = None    # exact squared magnitudes, basis order
    candidate: tuple | None = None

    @property
    def malformed(self) -> bool:
        return self.game is None


def _fraction(rng: random.Random, numerators, denominators) -> Fraction:
    return Fraction(rng.choice(numerators), rng.choice(denominators))


def _random_game(rng: random.Random, builtin_only: bool) -> tuple[Game, list[str]]:
    if builtin_only or rng.random() < 0.5:
        theta = rng.randint(0, 1)
        a = _fraction(rng, range(1, 7), (1, 2, 3))
        b = _fraction(rng, range(1, 7), (1, 2, 3))
        lines = ["mode = builtin-bg", f"theta = {theta}", f"a = {a}", f"b = {b}"]
        return bg_game(theta, a, b), lines
    row_labels = rng.choice(LABEL_PAIRS)
    col_labels = rng.choice(LABEL_PAIRS)
    row = tuple(_fraction(rng, range(-4, 5), (1, 2, 4)) for _ in range(4))
    col = tuple(_fraction(rng, range(-4, 5), (1, 2, 4)) for _ in range(4))
    lines = ["mode = custom",
             f"row_labels = {','.join(row_labels)}",
             f"col_labels = {','.join(col_labels)}",
             "row_payoffs = " + ",".join(str(v) for v in row),
             "col_payoffs = " + ",".join(str(v) for v in col)]
    return Game(row_labels, col_labels, row, col), lines


def _random_state(rng: random.Random) -> tuple[tuple, list[str]]:
    """Squared magnitudes k/d, or signed rational amplitudes of exact unit norm."""
    if rng.random() < 0.5:
        d = rng.randint(2, 12)
        cuts = sorted(rng.randint(0, d) for _ in range(3))
        counts = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2]]
        probs = tuple(Fraction(k, d) for k in counts)
        return probs, [f"{key} = {value}" for key, value in zip(PROB_KEYS, probs)]
    *quad, n = rng.choice(UNIT_VECTORS)
    quad = list(quad)
    rng.shuffle(quad)
    amps = [Fraction(rng.choice((-1, 1)) * x, n) for x in quad]
    return (tuple(a * a for a in amps),
            [f"{key} = {value}" for key, value in zip(AMP_KEYS, amps)])


def random_spec(rng: random.Random, with_candidate: float = 0.85,
                builtin_only: bool = False) -> Spec:
    game, game_lines = _random_game(rng, builtin_only)
    probs, state_lines = _random_state(rng)
    lines = ["[game]", *game_lines, "", "[quantum]", *state_lines]
    candidate = None
    if rng.random() < with_candidate:
        candidate = (rng.choice(CANDIDATE_VALUES), rng.choice(CANDIDATE_VALUES))
        lines += ["", "[candidate]", f"p = {candidate[0]}", f"q = {candidate[1]}"]
    return Spec("\n".join(lines) + "\n", game, probs, candidate)


def _break(spec: Spec, rng: random.Random) -> Spec:
    """A spec qbg must reject with exit code 2 and an ``error:`` line."""
    edits = (("[game]", "[game]\ncolour = blue"),        # unknown key
             ("[quantum]", "[quantum]\nprob_xx = 1/2"),   # unknown key
             ("[game]", "[games]"),                       # unknown section
             ("mode = ", "mode = fancy-"),                # unknown mode
             ("[game]\n", ""),                            # key outside a section
             ("[quantum]", "[quantum"))                   # unterminated header
    old, new = rng.choice(edits)
    return Spec(spec.text.replace(old, new, 1), None)


def spec_corpus(rng: random.Random, count: int) -> list[Spec]:
    """``count`` specs; every MALFORMED_EVERY-th one is malformed."""
    specs = []
    for k in range(count):
        spec = random_spec(rng)
        specs.append(_break(spec, rng) if k % MALFORMED_EVERY == MALFORMED_EVERY - 1
                     else spec)
    return specs


def balanced_order(rng: random.Random, items: list, blocks: int) -> list:
    """``blocks`` shuffled copies of ``items``: every seed gets the same mix."""
    out = []
    for _ in range(blocks):
        block = list(items)
        rng.shuffle(block)
        out += block
    return out


@dataclass(frozen=True)
class SweepOp:
    spec: Spec
    axes: tuple[tuple[str, Fraction, Fraction, int], ...]   # (var, lo, hi, steps)

    @property
    def argv_axes(self) -> list[str]:
        out = []
        for var, lo, hi, steps in self.axes:
            out += ["--axis", f"{var}={float(lo)!r}:{float(hi)!r}:{steps}"]
        return out

    @property
    def points(self) -> int:
        total = 1
        for axis in self.axes:
            total *= axis[3]
        return total


OUTER_STEPS = 9      # steps - 1 is a power of two, so every grid value is a
INNER_STEPS = 17     # binary fraction that qbg's float grid hits exactly
EIGHTHS = [Fraction(k, 8) for k in range(9)]


def _dyadic_range(rng: random.Random, top: Fraction) -> tuple[Fraction, Fraction]:
    choices = [x for x in EIGHTHS if x <= top]
    lo = rng.choice(choices[: max(1, len(choices) // 3)])
    hi = rng.choice([x for x in choices if x > lo])
    return lo, hi


def sweep_op(rng: random.Random, kind: str) -> SweepOp:
    """A fresh spec plus a 2-axis grid of OUTER_STEPS x INNER_STEPS points.

    ``state`` grids put a state weight on the outer axis (prob_hh x p, or
    prob_lh x q) so the state changes every outer step; ``profile`` grids
    sweep p x q on one fixed state.
    """
    while True:
        spec = random_spec(rng, with_candidate=1.0)
        if kind == "profile":
            axes = (("p",) + _dyadic_range(rng, Fraction(1)) + (OUTER_STEPS,),
                    ("q",) + _dyadic_range(rng, Fraction(1)) + (INNER_STEPS,))
            return SweepOp(spec, axes)
        state_var, inner = rng.choice((("prob_hh", "p"), ("prob_lh", "q")))
        index = PROB_KEYS.index(state_var)
        others = sum(w for k, w in enumerate(spec.probs) if k not in (0, index))
        if others > Fraction(3, 4):
            continue          # leave the swept weight room to move
        axes = ((state_var,) + _dyadic_range(rng, 1 - others) + (OUTER_STEPS,),
                (inner,) + _dyadic_range(rng, Fraction(1)) + (INNER_STEPS,))
        return SweepOp(spec, axes)
