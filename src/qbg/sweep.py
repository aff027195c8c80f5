"""The ``qbg sweep`` command: a deterministic CSV sweep of the quantized game.

One or two axes vary the identity probabilities p, q or the state weights
prob_lh, prob_hl, prob_hh.  A point's weights start from the spec's own,
as ``quantize`` and ``equilibria`` take them, and the LL weight takes up
what the swept weights move from those; when none is swept, every point has
the spec's own weights and the closed forms ``quantize`` builds from them.
Each row gives the swept values, both players' payoffs and the weak Nash
verdict.

This is qbg's one numpy user: the grid is evaluated in blocks of rows on
arrays: ``engine._closed_forms`` gives the forms, normalizing the weights
by the spec commands' one rule, and the verdict is decided from
``engine.slopes`` through the sign test ``verify_nash`` uses.  The command
line imports this module only when ``sweep`` runs.
"""

from __future__ import annotations

import sys
from collections import namedtuple

import numpy as np

from . import cli, engine, specfile
from ._records import NORMALIZATION_TOL

_BLOCK_POINTS = 4096   # grid points a sweep evaluates at once (at least one row)
_MAX_AXIS_STEPS = 100_000   # values per axis; a larger STEPS exits 2 before any is made


class _Axis(namedtuple("_Axis", "var values")):
    """A swept variable (str) and its grid values (tuple of floats)."""

    __slots__ = ()


def _parse_axis(text: str) -> _Axis:
    var, sep, rest = text.partition("=")
    var = var.strip()
    if not sep or var not in cli._SWEEP_VARS:
        raise specfile.SpecError(f"bad axis {specfile._clip(text)!r}; expected "
                                 f"VAR=LO:HI:STEPS with VAR one of {', '.join(cli._SWEEP_VARS)}")
    parts = rest.split(":")
    if len(parts) != 3:
        raise specfile.SpecError(f"bad axis range {specfile._clip(rest)!r}; "
                                 "expected LO:HI:STEPS")
    try:
        # + 0.0 turns a bound written -0 into 0
        lo, hi = float(parts[0]) + 0.0, float(parts[1]) + 0.0
        steps = int(parts[2])
    except ValueError:
        raise specfile.SpecError(f"bad axis range {specfile._clip(rest)!r}") from None
    if steps < 1:
        raise specfile.SpecError("axis needs at least 1 step")
    if steps > _MAX_AXIS_STEPS:
        raise specfile.SpecError(f"axis {specfile._clip(text)!r} has more than "
                                 f"{_MAX_AXIS_STEPS} steps")
    if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
        raise specfile.SpecError("axis range must stay within [0, 1]")
    if steps == 1:
        if lo != hi:
            raise specfile.SpecError(f"axis {specfile._clip(text)!r} has 1 step, "
                                     "so LO and HI must be equal")
        values = (lo,)
    else:
        # the last value is HI itself: the formula can miss it by an ulp
        values = tuple(lo + (hi - lo) * k / (steps - 1) for k in range(steps - 1)) + (hi,)
    return _Axis(var, values)


def _point_weights(spec_weights, values):
    """The weights (LL, LH, HL, HH) at a point whose LH, HL and HH weights
    ``values`` holds (floats or arrays).  LL is the spec's own LL weight plus
    what each of the other three gives up of the spec's (an unswept weight
    adds exactly 0), clipped at 0.  The sweep refuses a grid whose LH, HL and
    HH weights sum above 1 + ``NORMALIZATION_TOL`` anywhere, so a clipped LL
    leaves a total in (1, 1 + ``NORMALIZATION_TOL``]."""
    ll, lh, hl, hh = spec_weights
    rest = ll + ((lh - values["prob_lh"]) + (hl - values["prob_hl"])
                 + (hh - values["prob_hh"]))
    return np.maximum(rest, 0.0), values["prob_lh"], values["prob_hl"], values["prob_hh"]


def _evaluate(f_row, f_col, p, q):
    """Both payoffs and the weak Nash verdict at (p, q), elementwise on arrays:
    the payoffs are ``evaluate``'s and the verdict is ``verify_nash``'s."""
    slope_r, slope_c = engine.slopes(f_row, f_col, p, q)
    h0, h1, h2, h3 = engine._edge_checks(engine._sign(slope_r), engine._sign(slope_c), p, q)
    return f_row.evaluate(p, q), f_col.evaluate(p, q), h0 & h1 & h2 & h3


def run(spec: specfile.GameSpec, axis_texts: list[str] | None) -> int:
    """Write the sweep of ``spec`` over the ``--axis`` texts to standard output
    as CSV and return the exit code 0; a bad axis or grid raises SpecError
    before any output."""
    if not axis_texts:
        raise specfile.SpecError("sweep needs at least one --axis VAR=LO:HI:STEPS")
    axes = [_parse_axis(text) for text in axis_texts]
    if len(axes) > 2:
        raise specfile.SpecError("sweep supports at most two axes")
    names = [axis.var for axis in axes]
    if len(set(names)) != len(names):
        raise specfile.SpecError("sweep axes must name distinct variables")
    if not spec.has_quantum:
        raise specfile.SpecError("sweep needs a [quantum] section in the spec")

    spec_weights = spec._weights()
    candidate = spec.to_candidate()
    if "p" not in names and candidate is None:
        raise specfile.SpecError("p is unresolved: sweep it or provide a [candidate]")
    if "q" not in names and candidate is None:
        raise specfile.SpecError("q is unresolved: sweep it or provide a [candidate]")

    vecs = spec.payoff_vectors()

    # Every axis value and the [candidate] lie in [0, 1], so each profile is
    # valid and each swept weight is a valid weight; only LH, HL and HH
    # weights summing above 1 by more than NORMALIZATION_TOL can fail a
    # point.  Rounded addition is monotone, so that sum never falls as a
    # swept weight rises: the grid is valid exactly when its heaviest point
    # is, and the first bad point in row order lies in the first row that is
    # bad at the heaviest inner value.  A bad grid fails there with no CSV
    # output.  The spec's weights are ``GameSpec._weights``, not normalized.
    fixed = dict(zip(cli._STATE_VARS, spec_weights[1:]))
    fixed.update(p=candidate and candidate.p, q=candidate and candidate.q)
    outer, inner = axes if len(axes) == 2 else (None, axes[0])
    # A row's lead is its outer value as a 1-tuple, or () in a 1-axis sweep;
    # they are made per block, as a list of every row's grows with the grid.
    lead_values = outer.values if outer else (None,)

    def leads(values):
        return [(v,) for v in values] if outer else [()]

    def is_bad(lead, x):
        v = dict(fixed, **dict(zip(names, lead + (x,))))
        return 1.0 - (v["prob_lh"] + v["prob_hl"] + v["prob_hh"]) < -NORMALIZATION_TOL

    heaviest = max(inner.values)
    if is_bad(*leads([max(lead_values)]), heaviest):
        lead = next(lead for lead in leads(lead_values) if is_bad(lead, heaviest))
        x = next(x for x in inner.values if is_bad(lead, x))
        where = ", ".join("%s=%.12g" % item for item in zip(names, lead + (x,)))
        raise specfile.SpecError(f"state weights exceed 1 at grid point ({where})")

    # Unswept variables are scalars.  The grid is evaluated in blocks of
    # outer rows (a 1-axis sweep is one row): the outer axis is a (rows, 1)
    # array and the inner one a (1, inner) array, and the scalars broadcast
    # into them, so memory is bounded by the block size.  The weights and
    # forms are computed once per block; with no state axis the weights are
    # the spec's own scalars, so every block has quantize's forms.  Each row
    # is written with one %-format: its template holds the outer prefix and
    # inner value of every point, and its slots take the two payoffs and the
    # verdict, interleaved in one object array per block.  No field can need
    # CSV quoting.
    out = sys.stdout
    out.write(",".join(names + ["policy_payoff", "public_payoff", "nash"]) + "\n")
    slots = ["%.12g" % x + ",%.12g,%.12g,%s\n" for x in inner.values]
    verdicts = np.array(["false", "true"], dtype=object)
    values = dict(fixed)
    values[inner.var] = np.array([inner.values])

    def write_block(rows):
        # a function, so that the block's arrays are freed before the next one's
        if outer:
            values[outer.var] = np.array(rows)
        f_row, f_col = engine._closed_forms(_point_weights(spec_weights, values), vecs)
        row_payoff, col_payoff, nash = _evaluate(f_row, f_col, values["p"], values["q"])
        cells = np.empty(row_payoff.shape + (3,), dtype=object)
        cells[..., 0] = row_payoff
        cells[..., 1] = col_payoff
        cells[..., 2] = verdicts[nash.astype(np.intp)]
        for lead, row_cells in zip(rows, cells.reshape(len(rows), -1).tolist()):
            prefix = "".join("%.12g," % x for x in lead)
            out.write((prefix + prefix.join(slots)) % tuple(row_cells))

    block_rows = max(1, _BLOCK_POINTS // len(inner.values))
    for start in range(0, len(lead_values), block_rows):
        write_block(leads(lead_values[start:start + block_rows]))
    return 0
