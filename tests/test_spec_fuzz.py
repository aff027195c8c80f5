"""Fuzzed spec files: every spec command exits 0 or 2, and what parses renders back.

The texts mix well-formed numbers with overflowing (``1e400``), underflowing
(``5e-324``, ``1e-4000``), boundary (``0.5000000005``) and malformed ones, in
both game modes and both ``[quantum]`` families; a quantum section is often normalized to within
about 2e-9, so that many specs get past the parser and into the engine.
"""

import contextlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qbg import parse_spec, render_spec
from qbg.cli import main
from qbg.specfile import SpecError

POSITIVE = ["1", "2", "1/2", "2/3", "0.25", "25e-2", ".5", "1.", "1_000", "+1/4", "1e-3",
            "0.1", "1e300", "1.7976931348623157e308",                  # near overflow
            "5e-324", "1e-4000", "2.2e-308", "1e-400",                 # underflow
            "0.5000000005", "0.4999999995", "0.500000001", "0.499999999"]   # boundary
WELL_FORMED = POSITIVE + ["0", "-0", "-3", "-7/4", "-1e308", "-5e-324"]
REFUSED = ["1e400", "-1e400", "1e309", "1e10000", "1e10001", "1e5000",   # overflow
           "", "abc", "1/0", "1..2", "1e", "--1", "1/2e3", "nan", "inf", "0x10",
           "1 000", "½", "1/2/3", "1,5"]                                 # malformed
# Derandomized: every run of the suite tries the same 300 examples.
FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

NUMBERS = st.one_of(st.sampled_from(WELL_FORMED),
                    st.builds(Fraction, st.integers(), st.integers(1, 10 ** 6)).map(str),
                    st.floats(allow_nan=False, allow_infinity=False).map(repr))
ANY_NUMBERS = NUMBERS | st.sampled_from(REFUSED)
POSITIVES = st.one_of(st.sampled_from(POSITIVE),
                      st.builds(Fraction, st.integers(1), st.integers(1, 10 ** 6)).map(str),
                      st.floats(5e-324, allow_infinity=False).map(repr))
QUARTERS = st.integers(0, 10 ** 12).map(lambda n: Fraction(n, 4 * 10 ** 12))
NEAR_ZERO = st.integers(-2 * 10 ** 11, 2 * 10 ** 11).map(lambda n: Fraction(n, 10 ** 20))
PROBABILITIES = (st.integers(0, 100).map(lambda n: str(Fraction(n, 100)))
                 | st.sampled_from(["0", "1", "1.", "5e-324", "1e-4000", "0.999999999"]))


@st.composite
def normalized(draw, family):
    """Three weights (amplitudes) and a fourth that brings their sum
    (squared norm) within about 2e-9 of 1, as texts."""
    values = [draw(QUARTERS) for _ in range(3)]
    d = draw(NEAR_ZERO)
    if family == "prob":
        last = 1 + d - sum(values)
    else:
        last = Fraction(math.sqrt(1 + d - sum(v * v for v in values)))
    values.insert(draw(st.integers(0, 3)), last)
    return [str(v) for v in values]


# Half the specs may hold refused numbers, a theta other than 0 or 1, payoff
# lists of the wrong length and unnormalized states; the other half only
# numbers that parse, and states normalized within about 2e-9.
FLAVOURS = [
    {"theta": st.sampled_from(["0", "1"]), "coefficients": POSITIVES,
     "payoffs": st.lists(NUMBERS, min_size=4, max_size=4), "candidate": PROBABILITIES,
     "prob": normalized("prob"), "amp": normalized("amp")},
    {"theta": ANY_NUMBERS | st.sampled_from(["0", "1"]),
     "coefficients": ANY_NUMBERS, "payoffs": st.lists(ANY_NUMBERS, min_size=3, max_size=5),
     "candidate": PROBABILITIES | ANY_NUMBERS,
     "prob": normalized("prob") | st.lists(ANY_NUMBERS, min_size=4, max_size=4),
     "amp": normalized("amp") | st.lists(ANY_NUMBERS, min_size=4, max_size=4)},
]


@st.composite
def spec_texts(draw):
    flavour = draw(st.sampled_from(FLAVOURS))
    mode = draw(st.sampled_from(["builtin-bg", "custom"]))
    lines = ["[game]", f"mode = {mode}"]
    if mode == "builtin-bg":
        lines.append(f"theta = {draw(flavour['theta'])}")
        lines += [f"{key} = {draw(flavour['coefficients'])}" for key in ("a", "b")]
    else:
        for key in ("row_payoffs", "col_payoffs"):
            lines.append(f"{key} = " + ", ".join(draw(flavour["payoffs"])))
    family = draw(st.sampled_from([None, "prob", "amp"]))
    if family:
        lines.append("[quantum]")
        for basis, value in zip(("ll", "lh", "hl", "hh"), draw(flavour[family])):
            lines.append(f"{family}_{basis} = {value}")
    if draw(st.booleans()):
        lines += ["[candidate]", f"p = {draw(flavour['candidate'])}",
                  f"q = {draw(flavour['candidate'])}"]
    return "\n".join(lines) + "\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "game.spec"


@FUZZ
@given(text=spec_texts(), axis=st.sampled_from(["p=0:1:3", "q=0:1:2", "prob_hh=0:0.5:3"]))
def test_commands_exit_0_or_2_and_what_parses_renders_back(spec_file, text, axis):
    spec_file.write_text(text, encoding="utf-8")
    for command in (["classical"], ["quantize"], ["equilibria"], ["sweep", "--axis", axis]):
        code, out, err = run([*command, "--spec", str(spec_file)])
        if code == 0:
            assert out and not err
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1
    try:
        spec = parse_spec(text)
    except SpecError:
        return
    assert parse_spec(render_spec(spec)) == spec
