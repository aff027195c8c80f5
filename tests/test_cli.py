"""Command-line interface: output formats, exit codes, determinism."""

import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_rng, random_vector

from qbg import (
    MixingProfile,
    QuantumInitialState,
    closed_form_payoff,
    expected_payoff_trace,
    parse_spec,
    verify_nash,
)
from qbg import cli
from qbg.cli import main
from qbg.engine import (ClosedFormPayoff, bilinear_coefficients, deviation_gaps,
                        normalized_amplitudes)
from qbg.specfile import SpecError

WEAK_SPEC = """\
[game]
mode = builtin-bg
theta = 1
a = 2
b = 2
"""

STRONG_SPEC = WEAK_SPEC.replace("theta = 1", "theta = 0")

MATCHED_SPEC = WEAK_SPEC + """
[quantum]
prob_ll = 0.8
prob_lh = 0
prob_hl = 0
prob_hh = 0.2

[candidate]
p = 1
q = 1
"""

MISMATCH_SPEC = WEAK_SPEC + """
[quantum]
prob_ll = 0
prob_lh = 0.5
prob_hl = 0.5
prob_hh = 0

[candidate]
p = 1
q = 1
"""

EVEN_MIX_SPEC = WEAK_SPEC + """
[quantum]
prob_ll = 0.25
prob_lh = 0.25
prob_hl = 0.25
prob_hh = 0.25

[candidate]
p = 1/2
q = 1/2
"""

ZERO_GAME_SPEC = """\
[game]
mode = custom
row_payoffs = 0,0,0,0
col_payoffs = 0,0,0,0
"""

PURE_LL_SPEC = WEAK_SPEC + """
[quantum]
prob_ll = 1
prob_lh = 0
prob_hl = 0
prob_hh = 0

[candidate]
p = 1
q = 1
"""


@pytest.fixture
def spec_path(tmp_path):
    def write(text, name="game.spec"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def child_env():
    """The environment for a child interpreter that imports qbg from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestClassical:
    def test_weak_game_table_and_nash(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "classical", "--spec", spec_path(WEAK_SPEC))
        assert code == 0
        assert "(1, -1)" in out and "(-2, -1)" in out
        assert "Pure Nash equilibria: (H, H)" in out
        assert "Dominated rows: L (strict)" in out

    def test_strong_game(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "classical", "--spec", spec_path(STRONG_SPEC))
        assert code == 0
        assert "Pure Nash equilibria: (L, L)" in out
        assert "Dominated rows: H (strict)" in out

    def test_csv_table(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "classical", "--csv",
                               "--spec", spec_path(WEAK_SPEC))
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["row_label", "col_label", "row_payoff", "col_payoff"]
        assert rows[1:] == [["L", "L", "0", "0"], ["L", "H", "-2", "-1"],
                            ["H", "L", "1", "-1"], ["H", "H", "-1", "0"]]

    def test_zero_custom_game_all_nash(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "classical",
                               "--spec", spec_path(ZERO_GAME_SPEC))
        assert code == 0
        assert out.count("(") >= 4  # all four profiles listed as equilibria
        assert "Dominated rows: none" in out

    def test_missing_spec_flag(self, capsys):
        code, _, err = run_cli(capsys, "classical")
        assert code == 2
        assert "--spec" in err

    def test_missing_spec_file(self, capsys):
        code, _, err = run_cli(capsys, "classical", "--spec", "/no/such/file")
        assert code == 2
        assert "cannot read" in err

    def test_parse_error_exit_code(self, capsys, spec_path):
        path = spec_path("[game]\nmode = builtin-bg\ntheta = 5\na = 2\nb = 2\n")
        code, _, err = run_cli(capsys, "classical", "--spec", path)
        assert code == 2
        assert "theta" in err


class TestFloatRange:
    """Spec numbers that are finite as fractions but overflow a float."""

    @pytest.mark.parametrize("command", ["classical", "quantize", "equilibria"])
    @pytest.mark.parametrize("text, position", [
        (ZERO_GAME_SPEC.replace("row_payoffs = 0,0,0,0", "row_payoffs = 1e400,0,0,0")
         + "\n[quantum]\nprob_ll = 1\nprob_lh = 0\nprob_hl = 0\nprob_hh = 0\n",
         "line 3, column 14: row_payoffs"),
        (WEAK_SPEC + "\n[quantum]\namp_ll = 1e400\namp_lh = 0\namp_hl = 0\namp_hh = 0\n",
         "line 8, column 9: amp_ll"),
        (WEAK_SPEC + "\n[quantum]\nprob_ll = 1e400\nprob_lh = 0\nprob_hl = 0\nprob_hh = 0\n",
         "line 8, column 10: prob_ll"),
    ])
    def test_out_of_range_number_is_a_spec_error(self, capsys, spec_path, command,
                                                 text, position):
        for fmt in ([], ["--csv"]):
            code, out, err = run_cli(capsys, command, *fmt, "--spec", spec_path(text))
            assert (code, out) == (2, "")
            assert err == f"error: {position} exceeds the float range\n"

    @pytest.mark.parametrize("quantum, message", [
        ("prob_ll = 1e308\nprob_lh = 1e308\nprob_hl = 0\nprob_hh = 0\n",
         "squared magnitudes sum to inf, expected 1"),
        ("amp_ll = 1e200\namp_lh = 0\namp_hl = 0\namp_hh = 0\n",
         "amplitudes have squared norm inf, expected 1"),
    ])
    def test_overflowing_sum_is_a_spec_error(self, capsys, spec_path, quantum, message):
        path = spec_path(WEAK_SPEC + "\n[quantum]\n" + quantum)
        for command in ("classical", "quantize", "equilibria"):
            code, out, err = run_cli(capsys, command, "--spec", path)
            assert (code, out, err) == (2, "", f"error: [quantum] {message}\n")

    @pytest.mark.parametrize("a, b", [("1e-400", "2"), ("2", "1e400"), ("1e100", "1e250")])
    def test_builtin_payoffs_beyond_float_range(self, capsys, spec_path, a, b):
        path = spec_path(PURE_LL_SPEC.replace("a = 2", f"a = {a}").replace("b = 2", f"b = {b}"))
        for command in ("classical", "quantize", "equilibria"):
            code, out, err = run_cli(capsys, command, "--spec", path)
            assert (code, out) == (2, "")
            assert "exceed the float range" in err

    def test_huge_builtin_coefficient_still_works(self, capsys, spec_path):
        # a = 1e400 only shrinks the payoffs
        path = spec_path(WEAK_SPEC.replace("a = 2", "a = 1e400"))
        assert run_cli(capsys, "classical", "--spec", path) == (0, """\
Payoff table (rows: policy maker, columns: public)
      L         H         
  L   (0, 0)    (-0, -0)  
  H   (0, -0)   (-0, 0)   
Pure Nash equilibria: (H, H)
Dominated rows: L (strict)
""", "")
        assert run_cli(capsys, "classical", "--csv", "--spec", path) == (0, """\
row_label,col_label,row_payoff,col_payoff
L,L,0,0
L,H,-0,-0
H,L,0,-0
H,H,-0,0
""", "")


# Its weights sum to 1 - 9.99999933e-10 exactly, inside the 1e-9 tolerance,
# while their floats, added in basis order, sum to 0.9999999989999999, which
# is 1 - 1.00000008e-9, outside it.
BOUNDARY_SPEC = WEAK_SPEC + """
[quantum]
prob_ll = 325109190941/5000000000000
prob_lh = 2585339801697/5000000000000
prob_hl = 52209682019/312500000000
prob_hh = 250839218011600067/1000000000000000000
"""


def near_boundary_specs(family, count, seed):
    """(spec text, verdict of exact arithmetic) for ``count`` seeded specs whose
    exact prob_* sum, or exact squared amp_* norm, is 1 + d with |d| < 2e-9.
    Most d lie within 1e-15 of +-1e-9, the normalization tolerance, where
    exact and float arithmetic can reach different verdicts."""
    tol = Fraction(1, 10 ** 9)
    keys = [f"{family}_{basis}" for basis in ("ll", "lh", "hl", "hh")]
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        d = rng.choice((-1, 1)) * (tol + Fraction(rng.randint(-10 ** 4, 10 ** 4), 10 ** 19))
        values = [Fraction(rng.randint(0, 10 ** 12), 4 * 10 ** 12) for _ in range(3)]
        if family == "prob":
            last = 1 + d - sum(values)
        else:
            last = Fraction(math.sqrt(1 + d - sum(v * v for v in values)))
            last += rng.randint(-3, 3) * Fraction(math.ulp(float(last)))
        values.insert(rng.randrange(4), last)
        size = sum(values) if family == "prob" else sum(v * v for v in values)
        if abs(size - 1) < 2 * tol:
            text = "".join(f"{key} = {value}\n" for key, value in zip(keys, values))
            specs.append((WEAK_SPEC + "\n[quantum]\n" + text, abs(size - 1) <= tol))
    return specs


class TestNormalizationBoundary:
    """A spec that parses builds its state: parse_spec checks the prob_* sum
    and the squared amp_* norm with the float arithmetic of the state."""

    def test_boundary_spec_is_refused_by_every_command(self, capsys, spec_path):
        path = spec_path(BOUNDARY_SPEC)
        for command in ("classical", "quantize", "equilibria"):
            for fmt in ([], ["--csv"]):
                assert run_cli(capsys, command, *fmt, "--spec", path) == (
                    2, "", "error: [quantum] squared magnitudes sum to "
                           "0.9999999989999999, expected 1\n")

    @pytest.mark.parametrize("family", ["prob", "amp"])
    def test_every_spec_that_parses_builds_its_state(self, capsys, spec_path, family):
        verdicts_differ = 0
        for text, exact_verdict in near_boundary_specs(family, 400, seed=7):
            try:
                spec = parse_spec(text)
            except SpecError:
                accepted = False
            else:
                spec.to_state()
                accepted = True
            verdicts_differ += accepted != exact_verdict
            path = spec_path(text)
            codes = {run_cli(capsys, command, "--spec", path)[0]
                     for command in ("classical", "quantize", "equilibria")}
            assert codes == ({0} if accepted else {2}), text
        assert verdicts_differ   # the search reached the specs the arithmetic decides


class TestLargeExponent:
    def test_refused_before_the_value_is_built(self, spec_path):
        # Fraction('1e100000000') would build 10**100000000 exactly; the
        # timeout turns that stall into a failure
        path = spec_path(WEAK_SPEC.replace("a = 2", "a = 1e100000000"))
        for command in ("classical", "quantize", "equilibria"):
            proc = subprocess.run([sys.executable, "-m", "qbg", command, "--spec", path],
                                  capture_output=True, text=True, env=child_env(),
                                  timeout=20)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                2, "", "error: line 4, column 4: exponent of '1e100000000' exceeds "
                       "10000 in magnitude\n")

    def test_more_digits_than_str_writes_exits_2(self, capsys, spec_path):
        path = spec_path(WEAK_SPEC.replace("a = 2", "a = 1e5000"))
        for command in ("classical", "quantize", "equilibria"):
            assert run_cli(capsys, command, "--spec", path) == (
                2, "", f"error: line 4, column 4: '1e5000' has more than "
                       f"{sys.get_int_max_str_digits()} digits in its numerator or "
                       "denominator\n")


class TestReadmeExample:
    def test_spec_example_runs(self, capsys, spec_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Spec file format"):]
        example = section[section.index("```ini\n") + len("```ini\n"):]
        path = spec_path(example[:example.index("```\n")])
        for command in ("classical", "quantize", "equilibria"):
            code, out, err = run_cli(capsys, command, "--spec", path)
            assert (code, err) == (0, "")
            assert out


class TestQuantize:
    def test_matched_state_candidate(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "quantize",
                               "--spec", spec_path(MATCHED_SPEC))
        assert code == 0
        assert "trace=-0.2" in out and "closed-form=-0.2" in out
        assert "Nash (weak): yes" in out

    def test_mismatch_state_not_nash(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "quantize",
                               "--spec", spec_path(MISMATCH_SPEC))
        assert code == 0
        assert "public payoff: trace=-1, closed-form=-1" in out
        assert "Nash (weak): no" in out

    def test_even_mixing_payoffs(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "quantize",
                               "--spec", spec_path(EVEN_MIX_SPEC))
        assert code == 0
        assert "policy payoff: trace=-0.5, closed-form=-0.5" in out
        assert "public payoff: trace=-0.5, closed-form=-0.5" in out

    @pytest.mark.parametrize("fmt", [[], ["--csv"]])
    def test_trace_payoffs_computed_once(self, capsys, spec_path, monkeypatch, fmt):
        calls = []

        def counting(vec, rho):
            calls.append(vec)
            return expected_payoff_trace(vec, rho)

        monkeypatch.setattr(cli, "expected_payoff_trace", counting)
        code, out, _ = run_cli(capsys, "quantize", *fmt, "--spec", spec_path(MIXED_SPEC))
        assert code == 0
        assert len(calls) == 2
        assert out.count("trace") == 2

    def test_csv_items(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "quantize", "--csv",
                               "--spec", spec_path(MATCHED_SPEC))
        assert code == 0
        rows = dict((r[0], r[1]) for r in parse_csv(out)[1:])
        assert rows["policy_payoff.closed_form"] == "-0.2"
        assert rows["public_payoff.trace"] == "0"
        assert rows["nash.weak"] == "true"
        assert rows["policy.coeff_pq"] == "0"

    def test_requires_quantum_block(self, capsys, spec_path):
        code, _, err = run_cli(capsys, "quantize", "--spec", spec_path(WEAK_SPEC))
        assert code == 2
        assert "quantum" in err


class TestEquilibria:
    def test_matched_state_has_identity_corner(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "equilibria",
                               "--spec", spec_path(MATCHED_SPEC))
        assert code == 0
        assert "point: p=1, q=1" in out

    def test_csv(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "equilibria", "--csv",
                               "--spec", spec_path(MATCHED_SPEC))
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["kind", "p_min", "p_max", "q_min", "q_max"]
        assert ["point", "1", "1", "1", "1"] in rows

    def test_requires_quantum_block(self, capsys, spec_path):
        code, _, err = run_cli(capsys, "equilibria",
                               "--spec", spec_path(WEAK_SPEC))
        assert code == 2
        assert "quantum" in err


class TestSweep:
    def test_hh_weight_threshold(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                               "--axis", "prob_hh=0:1:11")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["prob_hh", "policy_payoff", "public_payoff", "nash"]
        assert len(rows) == 12
        for value, _, _, nash in rows[1:]:
            assert (nash == "true") == (float(value) <= 0.5)

    def test_payoff_affine_in_p(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "sweep", "--spec", spec_path(PURE_LL_SPEC),
                               "--axis", "p=0:1:11")
        assert code == 0
        rows = parse_csv(out)
        values = [float(r[1]) for r in rows[1:]]
        diffs = [b - a for a, b in zip(values, values[1:])]
        for d in diffs[1:]:
            assert d == pytest.approx(diffs[0], abs=1e-9)

    def test_two_axis_surface_matches_product_form(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                               "--axis", "p=0:1:5", "--axis", "q=0:1:5")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][:2] == ["p", "q"]
        assert len(rows) == 26
        # outer axis slow, inner fast
        assert [r[0] for r in rows[1:6]] == ["0"] * 5
        mismatch = 0.0  # matched state has no LH/HL weight
        for p_txt, q_txt, _, public, _ in rows[1:]:
            p, q = float(p_txt), float(q_txt)
            expected = (1 - 2 * mismatch) * (q * (2 * p - 1) - p) - mismatch
            assert float(public) == pytest.approx(expected, abs=1e-9)

    def test_byte_identical_runs(self, capsys, spec_path):
        path = spec_path(MATCHED_SPEC)
        _, first, _ = run_cli(capsys, "sweep", "--spec", path,
                              "--axis", "prob_hh=0:1:21")
        _, second, _ = run_cli(capsys, "sweep", "--spec", path,
                               "--axis", "prob_hh=0:1:21")
        assert first == second

    def test_underconstrained_without_candidate(self, capsys, spec_path):
        text = WEAK_SPEC + """
[quantum]
prob_ll = 1
prob_lh = 0
prob_hl = 0
prob_hh = 0
"""
        code, _, err = run_cli(capsys, "sweep", "--spec", spec_path(text),
                               "--axis", "p=0:1:5")
        assert code == 2
        assert "unresolved" in err

    def test_overconstrained_weights(self, capsys, spec_path):
        code, _, err = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                               "--axis", "prob_lh=0:1:3", "--axis",
                               "prob_hl=0:1:3")
        assert code == 2
        assert "exceed" in err

    def test_duplicate_axis_rejected(self, capsys, spec_path):
        code, _, err = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                               "--axis", "p=0:1:3", "--axis", "p=0:1:3")
        assert code == 2
        assert "distinct" in err

    def test_unknown_axis_rejected(self, capsys, spec_path):
        code, _, err = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                               "--axis", "prob_ll=0:1:3")
        assert code == 2
        assert "bad axis" in err

    def test_one_step_axis_needs_equal_bounds(self, capsys, spec_path):
        path = spec_path(MATCHED_SPEC)
        code, out, err = run_cli(capsys, "sweep", "--spec", path,
                                 "--axis", "p=0.2:0.9:1")
        assert (code, out) == (2, "")
        assert "1 step" in err
        code, out, _ = run_cli(capsys, "sweep", "--spec", path,
                               "--axis", "p=0.2:0.2:1")
        assert code == 0
        assert [row[0] for row in parse_csv(out)] == ["p", "0.2"]

    def test_last_axis_value_is_hi(self, capsys, spec_path):
        # lo + (hi - lo) * k / (steps - 1) misses HI by an ulp on these axes,
        # once above 1 and once below 0
        path = spec_path(MATCHED_SPEC)
        for axis, steps, last in (("p=0.1:1:1755", 1755, "1"),
                                  ("p=0.1:5e-324:395", 395, "4.94065645841e-324")):
            code, out, err = run_cli(capsys, "sweep", "--spec", path, "--axis", axis)
            assert (code, err) == (0, "")
            rows = parse_csv(out)
            assert len(rows) == steps + 1
            assert rows[-1][0] == last

    def test_axis_steps_are_bounded(self, capsys, spec_path):
        # a trillion steps would exhaust memory if the axis were materialized
        path = spec_path(MATCHED_SPEC)
        code, out, err = run_cli(capsys, "sweep", "--spec", path,
                                 "--axis", f"p=0:1:{10 ** 12}")
        assert (code, out) == (2, "")
        assert f"more than {cli._MAX_AXIS_STEPS} steps" in err
        assert cli._MAX_AXIS_STEPS == 100_000
        assert len(cli._parse_axis(f"q=0:1:{cli._MAX_AXIS_STEPS}").values) == 100_000
        with pytest.raises(SpecError, match="more than"):
            cli._parse_axis(f"q=0:1:{cli._MAX_AXIS_STEPS + 1}")

    def test_closed_stdout_exits_quietly(self, spec_path):
        # a 160k-row sweep cannot fit in the pipe, so closing the read end
        # after the header makes the next write fail
        proc = subprocess.Popen(
            [sys.executable, "-m", "qbg", "sweep", "--spec", spec_path(MATCHED_SPEC),
             "--axis", "p=0:1:400", "--axis", "q=0:1:400"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        header = proc.stdout.readline()
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert header == b"p,q,policy_payoff,public_payoff,nash\n"
        assert err == b""
        assert code == cli.EXIT_BROKEN_PIPE == 141


GENERAL_GAME = """\
[game]
mode = custom
row_payoffs = 0.3,-2,1.7,-1
col_payoffs = 0,-1/3,-1,0.25
"""

MIXED_SPEC = GENERAL_GAME + """
[quantum]
prob_ll = 0.4
prob_lh = 0.1
prob_hl = 0.2
prob_hh = 0.3

[candidate]
p = 0.3
q = 2/3
"""

SIGNED_AMP_SPEC = GENERAL_GAME + """
[quantum]
amp_ll = 0.5
amp_lh = -0.5
amp_hl = 0.7
amp_hh = -0.1

[candidate]
p = 1
q = 0.7
"""


def reference_sweep(text, axes):
    """CSV text of a sweep computed point by point: a fresh state, both closed
    forms and a verify_nash call at every grid point."""
    spec = parse_spec(text)
    names = [var for var, _, _, _ in axes]
    grids = [[lo + (hi - lo) * k / (steps - 1) for k in range(steps - 1)] + [hi]
             for _, lo, hi, steps in axes]
    base = spec.to_state().squared_magnitudes()
    candidate = spec.to_candidate()
    vec_row, vec_col = spec.payoff_vectors()
    lines = [",".join(names + ["policy_payoff", "public_payoff", "nash"])]
    for point in itertools.product(*grids):
        assignment = dict(zip(names, point))
        probs = {"prob_lh": base[1], "prob_hl": base[2], "prob_hh": base[3]}
        probs.update((k, v) for k, v in assignment.items() if k in probs)
        prob_ll = 1.0 - sum(probs.values())
        if prob_ll < -1e-9:
            where = ", ".join(f"{n}={v:.12g}" for n, v in assignment.items())
            raise SpecError(f"state weights exceed 1 at grid point ({where})")
        state = QuantumInitialState.from_probabilities(
            max(prob_ll, 0.0), probs["prob_lh"], probs["prob_hl"], probs["prob_hh"])
        p = assignment.get("p", candidate and candidate.p)
        q = assignment.get("q", candidate and candidate.q)
        report = verify_nash(state, vec_row, vec_col, MixingProfile(p, q))
        row = closed_form_payoff(state, vec_row).evaluate(p, q)
        col = closed_form_payoff(state, vec_col).evaluate(p, q)
        lines.append(",".join([f"{v:.12g}" for v in point]
                              + [f"{row:.12g}", f"{col:.12g}",
                                 "true" if report.is_nash else "false"]))
    return "\n".join(lines) + "\n"


class TestSweepGolden:
    """The streamed, per-state sweep against the per-point reference, byte for byte."""

    @pytest.mark.parametrize("text, axes", [
        (MATCHED_SPEC, [("prob_hh", 0, 1, 21)]),          # Nash up to weight 1/2
        (MATCHED_SPEC, [("prob_hh", 0, 1, 9), ("p", 0, 1, 7)]),
        (MIXED_SPEC, [("p", 0, 1, 5), ("prob_lh", 0, 0.5, 11)]),
        (MIXED_SPEC, [("prob_lh", 0, 0.3, 4), ("prob_hl", 0.35, 0, 6)]),
        (MIXED_SPEC, [("p", 0.1, 0.9, 9), ("q", 1, 0, 17)]),
        (SIGNED_AMP_SPEC, [("p", 0, 1, 9), ("q", 0, 1, 17)]),
        (SIGNED_AMP_SPEC, [("prob_hh", 0, 0.2, 9), ("q", 0, 1, 17)]),
        (SIGNED_AMP_SPEC, [("q", 0.3, 0.8, 12)]),
        (MIXED_SPEC, [("prob_hh", 0, 0.3, 7), ("prob_lh", 0.5, 0, 700)]),
    ], ids=["hh", "hh-p", "p-lh", "lh-hl", "p-q", "amp-p-q", "amp-hh-q", "amp-q",
            "blocks"])
    def test_matches_per_point_reference(self, capsys, spec_path, text, axes):
        argv = ["sweep", "--spec", spec_path(text)]
        for var, lo, hi, steps in axes:
            argv += ["--axis", f"{var}={lo}:{hi}:{steps}"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == reference_sweep(text, axes)

    def test_first_bad_point_fails_before_any_output(self, capsys, spec_path):
        axes = [("p", 0, 1, 3), ("prob_lh", 0, 1, 5)]
        with pytest.raises(SpecError) as excinfo:
            reference_sweep(MATCHED_SPEC, axes)
        code, out, err = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                                 "--axis", "p=0:1:3", "--axis", "prob_lh=0:1:5")
        assert (code, out) == (2, "")
        assert err == f"error: {excinfo.value}\n"
        assert "(p=0, prob_lh=1)" in err

    def test_first_bad_point_in_a_later_block(self, capsys, spec_path):
        # an inner axis longer than a block makes each row its own block;
        # the second row turns bad halfway along
        steps = cli._BLOCK_POINTS + 1
        axes = [("prob_hh", 0.5, 0.9, 2), ("prob_lh", 0, 0.2, steps)]
        with pytest.raises(SpecError) as excinfo:
            reference_sweep(MATCHED_SPEC, axes)
        code, out, err = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                                 "--axis", "prob_hh=0.5:0.9:2",
                                 "--axis", f"prob_lh=0:0.2:{steps}")
        assert (code, out) == (2, "")
        assert err == f"error: {excinfo.value}\n"
        assert "(prob_hh=0.9, prob_lh=0.1" in err

    def test_chunk_is_bitwise_the_scalar_path(self):
        # CSV rounding to 12 digits hides last-bit drift, so the array core
        # the sweep runs on is compared with the per-state path at full
        # precision: normalization, closed forms, payoffs and the weak verdict
        rng = fresh_rng(23)
        for _ in range(20):
            vec_row, vec_col = random_vector(rng), random_vector(rng)
            weights = rng.uniform(size=(4, 30)) * (rng.uniform(size=(4, 30)) < 0.7)
            weights[0, weights.sum(axis=0) == 0] = 1.0
            weights /= weights.sum(axis=0)
            states = [QuantumInitialState.from_probabilities(*w) for w in weights.T]
            squared = [a * a for a in normalized_amplitudes(*weights)]
            forms = [ClosedFormPayoff(*bilinear_coefficients(*squared, vec))
                     for vec in (vec_row, vec_col)]
            p = rng.choice([0.0, 1.0, rng.uniform()], size=30)
            q = rng.choice([0.0, 1.0, rng.uniform()], size=30)
            row, col, gaps, holds = deviation_gaps(*forms, p, q)
            weak = np.all(holds, axis=0)
            for k, state in enumerate(states):
                for form, vec in zip(forms, (vec_row, vec_col)):
                    scalar = closed_form_payoff(state, vec)
                    assert (form.constant[k], form.coeff_p[k], form.coeff_q[k],
                            form.coeff_pq[k]) == (scalar.constant, scalar.coeff_p,
                                                  scalar.coeff_q, scalar.coeff_pq)
                report = verify_nash(state, vec_row, vec_col,
                                     MixingProfile(p[k], q[k]))
                assert (row[k], col[k], weak[k]) == (
                    report.row_payoff, report.col_payoff, report.is_nash)
                assert [(g[k], h[k]) for g, h in zip(gaps, holds)] == [
                    (c.value, c.satisfied) for c in report.conditions]


IMPORT_PROBE = """\
import contextlib, io, json, sys
from qbg.cli import main
watched, argvs = json.loads(sys.argv[1])
loaded = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append((code, [name for name in watched if name in sys.modules]))
print(json.dumps(loaded))
"""


def modules_loaded(watched, argvs):
    """Run ``argvs`` in turn in one fresh interpreter; after each, its exit code
    and which of the ``watched`` modules are loaded by then."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps([watched, argvs])],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.stderr == ""
    return json.loads(proc.stdout)


class TestNumpyImport:
    @pytest.mark.parametrize("command", ["classical", "equilibria", "quantize"])
    def test_scalar_commands_never_import_numpy(self, spec_path, command):
        # quantize with a [candidate] runs the density-matrix oracle, which
        # needs numpy; it comes last, as a check that the probe can see it
        specs = [spec_path(text.split("\n[candidate]")[0], name)
                 for text, name in ((MIXED_SPEC, "prob.spec"),
                                    (SIGNED_AMP_SPEC, "amp.spec"))]
        argvs = [[command, *fmt, "--spec", path]
                 for path in specs for fmt in ([], ["--csv"])]
        argvs.append(["quantize", "--spec", spec_path(MIXED_SPEC)])
        assert modules_loaded(["numpy"], argvs) == [[0, []]] * 4 + [[0, ["numpy"]]]


class TestRecordImport:
    @pytest.mark.parametrize("command", ["classical", "equilibria"])
    def test_scalar_commands_never_import_dataclasses(self, spec_path, command):
        # qbg's records are named tuples: neither dataclasses nor the inspect
        # module it imports is loaded.  reproduce loads numpy, which imports
        # inspect; it comes last, as a check that the probe can see it.
        path = spec_path(MIXED_SPEC.split("\n[candidate]")[0])
        argvs = [[command, *fmt, "--spec", path] for fmt in ([], ["--csv"])]
        argvs.append(["reproduce"])
        assert modules_loaded(["dataclasses", "inspect"], argvs) == (
            [[0, []]] * 2 + [[0, ["inspect"]]])


class TestParser:
    def test_built_once_with_unchanged_output(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        fresh = cli._build_parser.__wrapped__()
        for argv in (["--help"], ["sweep", "--help"], ["nope"], [],
                     ["sweep", "--bogus"]):
            with pytest.raises(SystemExit) as cached_exit:
                main(argv)
            cached = capsys.readouterr()
            with pytest.raises(SystemExit) as fresh_exit:
                fresh.parse_args(argv)
            assert cached == capsys.readouterr()
            assert cached_exit.value.code == fresh_exit.value.code

    @pytest.mark.parametrize("command, flag", [("sweep", "--csv"), ("reproduce", "--spec")])
    def test_commands_have_no_flag_they_would_ignore(self, capsys, spec_path, command, flag):
        with pytest.raises(SystemExit) as help_exit:
            main([command, "--help"])
        assert help_exit.value.code == 0
        assert flag not in capsys.readouterr().out
        argv = {"sweep": ["sweep", "--csv", "--spec", spec_path(MATCHED_SPEC),
                          "--axis", "p=0:1:3"],
                "reproduce": ["reproduce", "--spec", "/nonexistent"]}[command]
        with pytest.raises(SystemExit) as usage_exit:
            main(argv)
        out, err = capsys.readouterr()
        assert (usage_exit.value.code, out) == (2, "")
        assert f"error: unrecognized arguments: {flag}" in err


class TestReproduce:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert ", 0 failed" in out

    def test_csv_lists_all_checks(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["check_id", "expected", "computed", "tolerance",
                           "passed", "detail"]
        assert all(r[4] == "true" for r in rows[1:])

    def test_injected_fault_fails_and_names_check(self, capsys):
        code, out, err = run_cli(capsys, "reproduce", "--inject-fault",
                                 "case-c.policy-payoff")
        assert code == 1
        assert "case-c.policy-payoff" in err
        assert "FAIL" in out

    def test_unknown_fault_id_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "--inject-fault", "nope")
        assert code == 2
        assert "unknown check id" in err

    def test_csv_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce", "--csv")
        _, second, _ = run_cli(capsys, "reproduce", "--csv")
        assert first == second
