"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import errno
import gc
import importlib
import io
import itertools
import json
import math
import os
import random
import runpy
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import fresh_rng, load_by_path, random_vector

from qbg import (
    MixingProfile,
    QuantumInitialState,
    closed_form_payoff,
    expected_payoff_trace,
    parse_spec,
    verify_nash,
)
from qbg import cli, engine, game, scenarios, specfile, sweep, verification
from qbg.cli import main
from qbg.engine import ClosedFormPayoff, bilinear_coefficients
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

    @pytest.mark.parametrize("fmt, calls", [([], 1), (["--csv"], 0)], ids=["text", "csv"])
    def test_analysis_runs_only_for_text(self, capsys, spec_path, monkeypatch, fmt, calls):
        # the CSV output is the payoff table alone: it prints neither the
        # pure equilibria nor the dominated rows, so it computes neither
        counts = {"find_pure_nash": 0, "find_dominated_rows": 0}

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(game, name, counting(name, getattr(game, name)))
        code, _, _ = run_cli(capsys, "classical", *fmt, "--spec", spec_path(WEAK_SPEC))
        assert code == 0
        assert counts == {"find_pure_nash": calls, "find_dominated_rows": calls}

    @pytest.mark.parametrize("fmt, expected", [
        ([], "Payoff table (rows: policy maker, columns: public)\n"
             "      L's            H\"             \n"
             "  \"L\" (1, 0.333333)  (-2, 2)        \n"
             "  H H (3, -1)        (0.5, 1)       \n"
             "Pure Nash equilibria: (H H, H\")\n"
             "Dominated rows: \"L\" (strict)\n"),
        (["--csv"], "row_label,col_label,row_payoff,col_payoff\n"
                    "\"\"\"L\"\"\",L's,1,0.333333333333\n"
                    "\"\"\"L\"\"\",\"H\"\"\",-2,2\n"
                    "H H,L's,3,-1\n"
                    "H H,\"H\"\"\",0.5,1\n"),
    ], ids=["text", "csv"])
    def test_report_bytes_with_quoted_labels(self, capsys, spec_path, fmt, expected):
        # labels come from the spec: the CSV quotes those holding a quote
        code, out, err = run_cli(capsys, "classical", *fmt,
                                 "--spec", spec_path(QUOTED_LABELS_SPEC))
        assert (code, out, err) == (0, expected, "")
        if fmt:
            assert parse_csv(out)[2][:2] == ['"L"', 'H"']

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
        code, out, err = run_cli(capsys, "classical", "--spec", "/no/such/file")
        assert (code, out) == (2, "")
        assert err == ("error: cannot read spec file '/no/such/file': "
                       f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}\n")

    @pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["text", "csv"])
    def test_a_long_spec_path_gets_one_short_error_line(self, capsys, fmt):
        # the path is quoted once, cut at 80 characters, and the OS reason
        # (a name too long, or no such file) does not repeat it
        path = "x" * 100_000
        code, out, err = run_cli(capsys, "classical", *fmt, "--spec", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read spec file {'x' * 80 + '...'!r}: [Errno ")
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("data, byte, line, reason", [
        (b"\xff[game]\n", 0xFF, 1, "invalid start byte"),
        (b"[game]\r\nmode = custom\r\n# caf\xe9\r\n", 0xE9, 3, "invalid continuation byte"),
        (b"[game]\rmode = custom\xc2\x85# \xe2\x82", 0xE2, 3, "unexpected end of data"),
    ], ids=["first-byte", "crlf-comment", "cr-nel-end"])
    def test_invalid_utf8_names_the_file_and_line(self, capsys, tmp_path, data, byte, line,
                                                   reason):
        # lines are counted as the spec parser counts them: CR and NEL end one too
        path = tmp_path / "bad.spec"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "classical", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot decode spec file {specfile._clip(str(path))!r} as UTF-8: "
                       f"byte 0x{byte:02x} on line {line}: {reason}\n")

    @pytest.mark.parametrize("source", ["sparse", "/dev/zero"])
    def test_a_spec_past_the_size_limit_is_refused(self, capsys, tmp_path, source):
        # an endless stream ends the read too: at most one byte past the limit is read
        if source == "sparse":
            path = tmp_path / "huge.spec"
            with open(path, "wb") as fh:
                fh.truncate(cli.MAX_SPEC_BYTES + 1)
            source = str(path)
        elif not os.path.exists(source):
            pytest.skip(f"no {source} on this platform")
        code, out, err = run_cli(capsys, "classical", "--spec", source)
        assert (code, out) == (2, "")
        assert err == (f"error: spec file {specfile._clip(source)!r} is larger than "
                       f"{cli.MAX_SPEC_BYTES} bytes\n")

    def test_a_spec_at_the_size_limit_is_read(self, capsys, tmp_path):
        path = tmp_path / "padded.spec"
        padding = cli.MAX_SPEC_BYTES - len(WEAK_SPEC) - 1
        path.write_bytes(WEAK_SPEC.encode() + b"#" * padding + b"\n")
        assert path.stat().st_size == cli.MAX_SPEC_BYTES
        code, out, err = run_cli(capsys, "classical", "--spec", str(path))
        assert (code, err) == (0, "")
        assert "Pure Nash equilibria: (H, H)" in out

    def test_a_spec_of_nul_bytes_gets_one_short_error_line(self, capsys, tmp_path):
        # the whole file is one line that is not 'key = value'; the message
        # quotes its first 80 characters, not all of its 1 MiB
        path = tmp_path / "nul.spec"
        with open(path, "wb") as fh:
            fh.truncate(cli.MAX_SPEC_BYTES)
        code, out, err = run_cli(capsys, "classical", "--spec", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: line 1: expected 'key = value', got {chr(0) * 80 + '...'!r}\n"

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


class TestHandBuiltWeights:
    """A spec built in code meets the [quantum] rule that parse_spec applies:
    the weights the closed forms are built from refuse what a parsed spec
    could not hold, before any output."""

    @pytest.mark.parametrize("field, values, message", [
        ("probabilities", (2, 0, 0, 0), "[quantum] squared magnitudes sum to 2.0, expected 1"),
        ("probabilities", (1.5, -0.5, 0.0, 0.0), "prob_lh must be nonnegative"),
        ("probabilities", (math.nan, 0, 0, 1), "[quantum] squared magnitudes sum to nan, "
                                               "expected 1"),
        ("amplitudes", (2, 0, 0, 0), "[quantum] amplitudes have squared norm 4.0, expected 1"),
        ("amplitudes", (math.inf, 0, 0, 0), "[quantum] amplitudes have squared norm inf, "
                                            "expected 1"),
    ], ids=["prob-sum", "prob-negative", "prob-nan", "amp-norm", "amp-inf"])
    def test_refused_by_every_command(self, capsys, monkeypatch, field, values, message):
        spec = specfile.GameSpec(mode="custom", row_payoffs=(1, 0, 0, 2),
                                 col_payoffs=(0, 1, 3, 0), candidate=(0.5, 0.5),
                                 **{field: values})
        monkeypatch.setattr(cli, "_load_spec", lambda path: spec)
        for argv in (["quantize"], ["quantize", "--csv"], ["equilibria"]):
            assert run_cli(capsys, *argv, "--spec", "unread.spec") == (
                2, "", f"error: {message}\n")
        with pytest.raises(ValueError) as err:
            sweep.run(spec, ["p=0:1:3"])
        assert str(err.value) == message


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

        monkeypatch.setattr(engine, "expected_payoff_trace", counting)
        code, out, _ = run_cli(capsys, "quantize", *fmt, "--spec", spec_path(MIXED_SPEC))
        assert code == 0
        assert len(calls) == 2
        assert out.count("trace") == 2

    @pytest.mark.parametrize("fmt", [[], ["--csv"]])
    def test_each_closed_form_built_once(self, capsys, spec_path, form_calls, fmt):
        # the candidate's payoffs and Nash verdict reuse the two printed forms,
        # and the density oracle builds none
        code, _, _ = run_cli(capsys, "quantize", *fmt, "--spec", spec_path(MIXED_SPEC))
        assert code == 0
        assert [args[-1] for args in form_calls] == list(parse_spec(MIXED_SPEC).payoff_vectors())

    def test_csv_items(self, capsys, spec_path):
        code, out, _ = run_cli(capsys, "quantize", "--csv",
                               "--spec", spec_path(MATCHED_SPEC))
        assert code == 0
        rows = dict((r[0], r[1]) for r in parse_csv(out)[1:])
        assert rows["policy_payoff.closed_form"] == "-0.2"
        assert rows["public_payoff.trace"] == "0"
        assert rows["nash.weak"] == "true"
        assert rows["policy.coeff_pq"] == "0"

    @pytest.mark.parametrize("fmt, expected", [
        ([], "Closed form: payoff(p, q) = constant + coeff_p*p + coeff_q*q + coeff_pq*p*q\n"
             "  policy: constant=-0.168 coeff_p=-0.5 coeff_q=0.536 coeff_pq=-0.4\n"
             "  public: constant=0.09 coeff_p=-0.663333 coeff_q=-0.85 coeff_pq=1.58333\n"
             "Candidate profile: p=1, q=0.333333\n"
             "  policy payoff: trace=-0.622667, closed-form=-0.622667\n"
             "  public payoff: trace=-0.328889, closed-form=-0.328889\n"
             "  Nash (weak): no\n"
             "  Nash (strict): no\n"
             "  conditions:\n"
             "    [VIOLATED] row deviation to p=0 does not gain: gap=-0.633333\n"
             "    [ok] row deviation to p=1 does not gain: gap=0\n"
             "    [ok] column deviation to q=0 does not gain: gap=0.244444\n"
             "    [VIOLATED] column deviation to q=1 does not gain: gap=-0.488889\n"),
        (["--csv"], "item,value\n"
                    "policy.constant,-0.168\npolicy.coeff_p,-0.5\n"
                    "policy.coeff_q,0.536\npolicy.coeff_pq,-0.4\n"
                    "public.constant,0.09\npublic.coeff_p,-0.663333333333\n"
                    "public.coeff_q,-0.85\npublic.coeff_pq,1.58333333333\n"
                    "candidate.p,1\ncandidate.q,0.333333333333\n"
                    "policy_payoff.trace,-0.622666666667\n"
                    "policy_payoff.closed_form,-0.622666666667\n"
                    "public_payoff.trace,-0.328888888889\n"
                    "public_payoff.closed_form,-0.328888888889\n"
                    "nash.weak,false\nnash.strict,false\n"),
    ], ids=["text", "csv"])
    def test_report_bytes_with_a_candidate(self, capsys, spec_path, fmt, expected):
        code, out, err = run_cli(capsys, "quantize", *fmt, "--spec", spec_path(ZERO_AMP_SPEC))
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("fmt, expected", [
        ([], "Candidate profile: p=1, q=1\n"
             "  policy payoff: trace=-0.15, closed-form=-0.15\n"
             "  public payoff: trace=-0.4, closed-form=-0.4\n"
             "  Nash (weak): no\n"
             "  Nash (strict): no\n"
             "  conditions:\n"
             "    [ok] row deviation to p=0 does not gain: gap=0.4\n"
             "    [VIOLATED] row deviation to p=1 does not gain: gap=-4.00124e-14\n"
             "    [ok] column deviation to q=0 does not gain: gap=0.2\n"
             "    [ok] column deviation to q=1 does not gain: gap=0\n"),
        (["--csv"], "candidate.p,1\ncandidate.q,1\n"
                    "policy_payoff.trace,-0.15\npolicy_payoff.closed_form,-0.15\n"
                    "public_payoff.trace,-0.4\npublic_payoff.closed_form,-0.4\n"
                    "nash.weak,false\nnash.strict,false\n"),
    ], ids=["text", "csv"])
    def test_a_candidate_near_an_edge_gets_the_exact_verdict(self, capsys, spec_path, fmt,
                                                            expected):
        # the keep slope is 0.4, so the move from p = 1 - 1e-13 to p = 1 gains
        # 4e-14: within the tolerance as a gap, but the slope's sign decides
        code, out, err = run_cli(capsys, "quantize", *fmt, "--spec", spec_path(NEAR_EDGE_SPEC))
        assert (code, out[out.index("candidate" if fmt else "Candidate"):], err) == (
            0, expected, "")
        game = REFERENCE.bg_game(1, Fraction(1), Fraction(1))
        truth = REFERENCE.verdict(*[REFERENCE.closed_form(REFERENCE.REFERENCE_PROBS, vec)
                                    for vec in (game.row, game.col)],
                                  Fraction("0.9999999999999"), 1)
        assert (truth.weak, truth.strict, truth.gaps[1] < 0) == (False, False, True)

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

    @pytest.mark.parametrize("fmt", [[], ["--csv"]])
    def test_each_closed_form_built_once(self, capsys, spec_path, form_calls, fmt):
        code, _, _ = run_cli(capsys, "equilibria", *fmt, "--spec", spec_path(MIXED_SPEC))
        assert code == 0
        assert [args[-1] for args in form_calls] == list(parse_spec(MIXED_SPEC).payoff_vectors())

    @pytest.mark.parametrize("payoffs, text, csv_text", [
        (("-1/7,0,-1,0", "2,1/3,0,2"),
         "  point: p=0, q=0\n  point: p=0.512727, q=0.313333\n  point: p=1, q=1\n",
         "point,0,0,0,0\npoint,0.512727272727,0.512727272727,0.313333333333,0.313333333333\n"
         "point,1,1,1,1\n"),
        (("0,0,0,0", "1,0,2,0"),
         "  segment: p in [0, 0.64], q=1\n  segment: p=0.64, q in [0, 1]\n"
         "  segment: p in [0.64, 1], q=0\n",
         "segment,0,0.64,1,1\nsegment,0.64,0.64,0,1\nsegment,0.64,1,0,0\n"),
        (("0,0,0,0", "0,0,0,0"), "  rectangle: p in [0, 1], q in [0, 1]\n",
         "rectangle,0,1,0,1\n"),
    ], ids=["points", "segments", "rectangle"])
    def test_report_bytes(self, capsys, spec_path, payoffs, text, csv_text):
        path = spec_path(ZERO_AMP_SPEC.replace(GENERAL_GAME, CUSTOM_GAME % payoffs))
        assert run_cli(capsys, "equilibria", "--spec", path) == (
            0, "Nash equilibrium regions (p, q = identity probabilities):\n" + text, "")
        assert run_cli(capsys, "equilibria", "--csv", "--spec", path) == (
            0, "kind,p_min,p_max,q_min,q_max\n" + csv_text, "")

    def test_report_bytes_without_equilibria(self, capsys, spec_path, monkeypatch):
        # every game of the closed forms has an equilibrium, so the empty
        # report is reached through the enumeration alone
        monkeypatch.setattr(engine, "enumerate_equilibria", lambda f_row, f_col: ())
        path = spec_path(MIXED_SPEC)
        assert run_cli(capsys, "equilibria", "--spec", path) == (0, "No Nash equilibria.\n", "")
        assert run_cli(capsys, "equilibria", "--csv", "--spec", path) == (
            0, "kind,p_min,p_max,q_min,q_max\n", "")

    @pytest.mark.parametrize("name, text, csv_text", [
        ("defect", "  segment: p=0, q in [0.35, 1]\n", "segment,0,0,0.35,1\n"),
        ("corpus0464", "  segment: p in [0, 0.5], q=0\n  point: p=1, q=1\n",
         "segment,0,0.5,0,0\npoint,1,1,1,1\n"),
    ])
    def test_a_crossing_on_an_edge_keeps_its_piece(self, capsys, spec_path, name, text,
                                                   csv_text):
        # a slope of 0 at one end of the other's interval, within a residue,
        # puts the crossing exactly on that edge, as the exact regions have it
        path = spec_path({"defect": DEFECT_SPEC, "corpus0464": CORPUS0464_SPEC}[name])
        assert run_cli(capsys, "equilibria", "--spec", path) == (
            0, "Nash equilibrium regions (p, q = identity probabilities):\n" + text, "")
        assert run_cli(capsys, "equilibria", "--csv", "--spec", path) == (
            0, "kind,p_min,p_max,q_min,q_max\n" + csv_text, "")

    def test_random_rational_specs_match_the_exact_reference(self, capsys, tmp_path):
        # ROADMAP item 1's spec-path test: small rational games and states hit
        # crossings on an edge often; each printed region is the reference's
        # within the benchmark checker's 1e-9
        rng = random.Random(34)
        path = tmp_path / "game.spec"
        for _ in range(1000):
            text, weights, row, col = random_rational_spec(rng)
            path.write_text(text)
            code, out, err = run_cli(capsys, "equilibria", "--csv", "--spec", str(path))
            expected = REFERENCE.equilibrium_regions(REFERENCE.closed_form(weights, row),
                                                     REFERENCE.closed_form(weights, col))
            got = parse_csv(out)[1:]
            assert (code, err, [r[0] for r in got]) == (0, "", [r.kind for r in expected]), text
            for printed, region in zip(got, expected):
                assert all(math.isclose(float(x), y, rel_tol=1e-9, abs_tol=1e-9) for x, y in
                           zip(printed[1:], (region.p_min, region.p_max, region.q_min,
                                             region.q_max))), (text, printed, region)

    def test_requires_quantum_block(self, capsys, spec_path):
        code, _, err = run_cli(capsys, "equilibria",
                               "--spec", spec_path(WEAK_SPEC))
        assert code == 2
        assert "quantum" in err


UNSWEPT_GAME = """\
[game]
mode = custom
row_payoffs = -1,1,-1,3
col_payoffs = 0,-3,1,2
"""

UNSWEPT_SPEC = UNSWEPT_GAME + """
[quantum]
prob_ll = 3/23
prob_lh = 7/23
prob_hl = 5/23
prob_hh = 8/23

[candidate]
p = 1/2
q = 1/2
"""

BUILTIN_REFERENCE_SPEC = WEAK_SPEC + """
[quantum]
prob_ll = 1/2
prob_lh = 1/5
prob_hl = 1/5
prob_hh = 1/10

[candidate]
p = 1
q = 1/4
"""

# the candidate sits 1e-13 below the edge p=1 that the keep slope favours
NEAR_EDGE_SPEC = BUILTIN_REFERENCE_SPEC.replace("a = 2\nb = 2", "a = 1\nb = 1").replace(
    "p = 1\nq = 1/4", "p = 0.9999999999999\nq = 1")

REFERENCE = load_by_path("reference")


def random_rational_spec(rng):
    """A spec with rational weights k/d and a builtin-bg or small rational
    custom game: (text, weights, row payoffs, column payoffs), exact."""
    d = rng.randint(1, 12)
    cuts = sorted(rng.randint(0, d) for _ in range(3))
    weights = [Fraction(k, d) for k in (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1],
                                        d - cuts[2])]
    if rng.random() < 0.3:
        theta = rng.randint(0, 1)
        a, b = (Fraction(rng.randint(1, 6), rng.choice((1, 2, 3))) for _ in range(2))
        game = REFERENCE.bg_game(theta, a, b)
        row, col = game.row, game.col
        lines = ["mode = builtin-bg", f"theta = {theta}", f"a = {a}", f"b = {b}"]
    else:
        row, col = ([Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4))) for _ in range(4)]
                    for _ in range(2))
        lines = ["mode = custom", "row_payoffs = " + ",".join(map(str, row)),
                 "col_payoffs = " + ",".join(map(str, col))]
    lines += ["[quantum]"] + [f"prob_{key} = {w}" for key, w in zip(("ll", "lh", "hl", "hh"),
                                                                    weights)]
    return "[game]\n" + "\n".join(lines) + "\n", weights, row, col

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

# a state with a zero and a -0 amplitude, so the density oracle's entries
# and traces hold signed zeros
ZERO_AMP_SPEC = GENERAL_GAME + """
[quantum]
amp_ll = 3/5
amp_lh = -0
amp_hl = 0
amp_hh = -4/5

[candidate]
p = 1
q = 1/3
"""

CUSTOM_GAME = """\
[game]
mode = custom
row_payoffs = %s
col_payoffs = %s
"""

# known defect 1 on spec input: the column player's slope is 0 at p=0 (this
# spec) and the row player's at q=0 (the seed-1 corpus0464 spec), so each
# best-response crossing lies exactly on an edge
DEFECT_SPEC = CUSTOM_GAME % ("1/2, -1, 0, 1/2", "0, 3, -2, 0") + """
[quantum]
prob_ll = 0
prob_lh = 4/7
prob_hl = 2/7
prob_hh = 1/7
"""

CORPUS0464_SPEC = CUSTOM_GAME % ("0, -3, 1/2, 3/2", "2, 2, -4, -1/2") + """
[quantum]
prob_ll = 1/2
prob_lh = 0
prob_hl = 1/3
prob_hh = 1/6
"""

QUOTED_LABELS_SPEC = """\
[game]
mode = custom
row_labels = "L",H H
col_labels = L's,H"
row_payoffs = 1,-2,3,0.5
col_payoffs = 1/3,2,-1,1
"""

# MIXED_SPEC with its candidate's q at a value that every route through the
# sweep reaches, and the one-point q axis there
MIXED_AT_Q = MIXED_SPEC.replace("q = 2/3", "q = 0.8723121923197372")
AT_Q = "q=0.8723121923197372:0.8723121923197372:1"


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

    @pytest.mark.parametrize("axis, quoted, message", [
        ("z" * 1000, "z" * 1000, "bad axis {!r}; expected VAR=LO:HI:STEPS with VAR one of "
                                 "p, q, prob_lh, prob_hl, prob_hh"),
        ("p=" + "0" * 1000, "0" * 1000, "bad axis range {!r}; expected LO:HI:STEPS"),
        ("p=x:" + "0" * 1000 + ":3", "x:" + "0" * 1000 + ":3", "bad axis range {!r}"),
        ("p=0:1:" + "9" * 1000, "p=0:1:" + "9" * 1000, "axis {!r} has more than 100000 steps"),
        ("p=0.2:0." + "9" * 1000 + ":1", "p=0.2:0." + "9" * 1000 + ":1",
         "axis {!r} has 1 step, so LO and HI must be equal"),
    ], ids=["variable", "range-shape", "range-number", "steps", "one-step"])
    def test_axis_messages_quote_at_most_80_characters(self, capsys, spec_path, axis, quoted,
                                                       message):
        code, out, err = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                                 "--axis", axis)
        assert (code, out) == (2, "")
        assert err == "error: " + message.format(quoted[:80] + "...") + "\n"

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

    def test_negative_zero_bound_is_zero(self, capsys, spec_path):
        # the CSV grid column and the bad-point message print 0, not -0
        path = spec_path(MATCHED_SPEC)
        assert all(math.copysign(1.0, v) == 1.0
                   for text in ("q=-0:-0.0:1", "q=1:-0:2", "q=-0.0:1:3")
                   for v in sweep._parse_axis(text).values)
        code, out, err = run_cli(capsys, "sweep", "--spec", path, "--axis", "q=1:-0:2")
        assert (code, err) == (0, "")
        assert [row[0] for row in parse_csv(out)[1:]] == ["1", "0"]
        code, out, err = run_cli(capsys, "sweep", "--spec", path,
                                 "--axis", "p=-0:-0:1", "--axis", "prob_lh=-0:1:3")
        assert (code, out) == (2, "")
        assert err == "error: state weights exceed 1 at grid point (p=0, prob_lh=1)\n"

    def test_axis_steps_are_bounded(self, capsys, spec_path):
        # a trillion steps would exhaust memory if the axis were materialized
        path = spec_path(MATCHED_SPEC)
        code, out, err = run_cli(capsys, "sweep", "--spec", path,
                                 "--axis", f"p=0:1:{10 ** 12}")
        assert (code, out) == (2, "")
        assert f"more than {sweep._MAX_AXIS_STEPS} steps" in err
        assert sweep._MAX_AXIS_STEPS == 100_000
        assert len(sweep._parse_axis(f"q=0:1:{sweep._MAX_AXIS_STEPS}").values) == 100_000
        with pytest.raises(SpecError, match="more than"):
            sweep._parse_axis(f"q=0:1:{sweep._MAX_AXIS_STEPS + 1}")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lo=st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 1 - 2 ** -53])),
           hi=st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 1 - 2 ** -53])),
           steps=st.integers(1, sweep._MAX_AXIS_STEPS))
    def test_axis_values_stay_in_unit_interval(self, lo, hi, steps):
        # the sweep's grid check reads only the state weights: it relies on
        # every axis value lying in [0, 1], descending ranges included
        hi = lo if steps == 1 else hi
        values = sweep._parse_axis(f"q={lo!r}:{hi!r}:{steps}").values
        assert len(values) == steps
        assert all(0.0 <= v <= 1.0 for v in values)

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

    @pytest.mark.parametrize("text, axes, at", [
        # weights (3, 7, 5, 8)/23, where quantize's public payoff is a residue
        # of 1.4e-17 whose exact value is 0
        (UNSWEPT_SPEC, ["p=0.5:0.5:1"], ["0.5"]),
        # the builtin-bg reference state, where quantize's coeff_pq is a residue
        (BUILTIN_REFERENCE_SPEC, ["p=1:1:1"], ["1"]),
        (UNSWEPT_GAME + """
[quantum]
amp_ll = 1/3
amp_lh = -2/3
amp_hl = 2/3
amp_hh = 0

[candidate]
p = 1/2
q = 1/2
""", ["p=0.5:0.5:1"], ["0.5"]),
        (UNSWEPT_SPEC, ["p=0:1:3", "q=0:1:5"], ["0.5", "0.5"]),
    ], ids=["weights-over-23", "builtin-bg-reference", "negative-amplitude", "p-by-q-grid"])
    def test_unswept_state_payoffs_match_quantize(self, capsys, spec_path, text, axes, at):
        # with no state weight swept, the sweep's row at the [candidate] prints
        # quantize's closed-form payoffs
        path = spec_path(text)
        code, out, _ = run_cli(capsys, "quantize", "--csv", "--spec", path)
        assert code == 0
        items = dict(parse_csv(out)[1:])
        code, out, _ = run_cli(capsys, "sweep", "--spec", path,
                               *(arg for axis in axes for arg in ("--axis", axis)))
        assert code == 0
        (row,) = [row for row in parse_csv(out)[1:] if row[:len(at)] == at]
        assert row[len(at):len(at) + 2] == [items["policy_payoff.closed_form"],
                                            items["public_payoff.closed_form"]]

    @pytest.mark.parametrize("text, axes", [
        (BUILTIN_REFERENCE_SPEC, ["p=1:1:1"]),
        (BUILTIN_REFERENCE_SPEC, ["prob_lh=0.2:0.2:1", "prob_hl=0.2:0.2:1"]),
        (BUILTIN_REFERENCE_SPEC, ["prob_hh=0.1:0.1:1", "p=1:1:1"]),
        (BUILTIN_REFERENCE_SPEC, ["prob_lh=0.2:0.2:1", "p=1:1:1"]),
        (MIXED_AT_Q, [AT_Q]), (MIXED_AT_Q, ["prob_lh=0.1:0.1:1", AT_Q]),
        (MIXED_AT_Q, ["prob_hh=0.3:0.3:1", AT_Q]),
    ], ids=["p", "lh-hl", "hh-p", "lh-p", "mixed-q", "mixed-lh-q", "mixed-hh-q"])
    def test_one_state_prints_one_payoff_whatever_the_axes(self, capsys, spec_path, text, axes):
        # each grid holds one point: the spec's own state and candidate.  On
        # the builtin-bg reference quantize's policy payoff is a residue of
        # 5.6e-17; on the mixed spec 1 - (0.1 + 0.2 + 0.3) is not its LL
        # weight 0.4.  A prob_* axis starts from the spec's own weights, so
        # every route prints quantize's payoffs.
        path = spec_path(text)
        code, out, _ = run_cli(capsys, "quantize", "--csv", "--spec", path)
        assert code == 0
        items = dict(parse_csv(out)[1:])
        code, out, _ = run_cli(capsys, "sweep", "--spec", path,
                               *(arg for axis in axes for arg in ("--axis", axis)))
        assert code == 0
        [row] = parse_csv(out)[1:]
        assert row[len(axes):len(axes) + 2] == [items["policy_payoff.closed_form"],
                                                items["public_payoff.closed_form"]]


def unswept_weights(spec):
    """The sweep's (LL, LH, HL, HH) weights where no state axis sets them, not
    normalized: a prob_* spec's own, or the squares of an amp_* spec's."""
    if spec.probabilities:
        return [float(w) for w in spec.probabilities]
    return [float(a) ** 2 for a in spec.amplitudes]


def reference_sweep(text, axes):
    """CSV text of a sweep computed point by point: the point's weights
    divided by their sum, both closed forms and a verify_nash call at every
    grid point."""
    spec = parse_spec(text)
    names = [var for var, _, _, _ in axes]
    grids = [[lo + (hi - lo) * k / (steps - 1) for k in range(steps - 1)] + [hi]
             for _, lo, hi, steps in axes]
    base = unswept_weights(spec)
    candidate = spec.to_candidate()
    vec_row, vec_col = spec.payoff_vectors()
    lines = [",".join(names + ["policy_payoff", "public_payoff", "nash"])]
    for point in itertools.product(*grids):
        assignment = dict(zip(names, point))
        probs = {"prob_lh": base[1], "prob_hl": base[2], "prob_hh": base[3]}
        probs.update((k, v) for k, v in assignment.items() if k in probs)
        if 1.0 - sum(probs.values()) < -1e-9:
            where = ", ".join(f"{n}={v:.12g}" for n, v in assignment.items())
            raise SpecError(f"state weights exceed 1 at grid point ({where})")
        # the spec's LL weight plus what the other three give up of the spec's,
        # clipped at 0; with no state axis, the spec's own weights
        prob_ll = base[0] + ((base[1] - probs["prob_lh"]) + (base[2] - probs["prob_hl"])
                             + (base[3] - probs["prob_hh"]))
        weights = [max(prob_ll, 0.0), probs["prob_lh"], probs["prob_hl"], probs["prob_hh"]]
        total = weights[0] + weights[1] + weights[2] + weights[3]
        p = assignment.get("p", candidate and candidate.p)
        q = assignment.get("q", candidate and candidate.q)
        unit = [w / total for w in weights]
        f_row, f_col = (ClosedFormPayoff(*bilinear_coefficients(*unit, vec))
                        for vec in (vec_row, vec_col))
        report = verify_nash(f_row, f_col, MixingProfile(p, q))
        row = f_row.evaluate(p, q)
        col = f_col.evaluate(p, q)
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
        (MIXED_SPEC, [("prob_hh", 0.1, 0.3, 2), ("prob_lh", 0.4, 0, sweep._BLOCK_POINTS + 1)]),
        (SIGNED_AMP_SPEC, [("prob_hl", 0, 0.7, sweep._BLOCK_POINTS + 904)]),
        # the spec's weights total 1 - 9e-10, and the point's 1 + 5e-10
        (MIXED_SPEC.replace("prob_ll = 0.4", "prob_ll = 0.3999999991"),
         [("prob_lh", 0.5000000005, 0.5000000005, 1)]),
        # LH and HH weights just within 1 + 1e-9; the LL weight is clipped at 0
        (MATCHED_SPEC, [("prob_lh", 0.8000000009999999, 0.8000000009999999, 1)]),
    ], ids=["hh", "hh-p", "p-lh", "lh-hl", "p-q", "amp-p-q", "amp-hh-q", "amp-q",
            "blocks", "row-per-block", "long-row", "spec-below-1", "lh-at-bound"])
    def test_matches_per_point_reference(self, capsys, spec_path, text, axes):
        argv = ["sweep", "--spec", spec_path(text)]
        for var, lo, hi, steps in axes:
            argv += ["--axis", f"{var}={lo}:{hi}:{steps}"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == reference_sweep(text, axes)

    @pytest.mark.parametrize("axes, where", [
        ([("p", 0, 1, 3), ("prob_lh", 0, 1, 5)], "(p=0, prob_lh=1)"),
        # LH and HH weights just beyond 1 + 1e-9, which from_probabilities
        # refuses too, though the LL weight is within 1e-9 of 0
        ([("prob_lh", 0.800000001, 0.800000001, 1)], "(prob_lh=0.800000001)"),
    ], ids=["p-lh", "lh-past-bound"])
    def test_first_bad_point_fails_before_any_output(self, capsys, spec_path, axes, where):
        with pytest.raises(SpecError) as excinfo:
            reference_sweep(MATCHED_SPEC, axes)
        argv = ["sweep", "--spec", spec_path(MATCHED_SPEC)]
        for var, lo, hi, steps in axes:
            argv += ["--axis", f"{var}={lo}:{hi}:{steps}"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {excinfo.value}\n"
        assert where in err

    def test_first_bad_point_in_a_later_block(self, capsys, spec_path):
        # an inner axis longer than a block makes each row its own block;
        # the second row turns bad halfway along
        steps = sweep._BLOCK_POINTS + 1
        axes = [("prob_hh", 0.5, 0.9, 2), ("prob_lh", 0, 0.2, steps)]
        with pytest.raises(SpecError) as excinfo:
            reference_sweep(MATCHED_SPEC, axes)
        code, out, err = run_cli(capsys, "sweep", "--spec", spec_path(MATCHED_SPEC),
                                 "--axis", "prob_hh=0.5:0.9:2",
                                 "--axis", f"prob_lh=0:0.2:{steps}")
        assert (code, out) == (2, "")
        assert err == f"error: {excinfo.value}\n"
        assert "(prob_hh=0.9, prob_lh=0.1" in err

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_grid_check_matches_per_point_reference(self, capsys, spec_path, data):
        # the sweep checks one scalar, its heaviest point; the reference checks
        # every point, so both must agree on whether a grid fails and where
        text = data.draw(st.sampled_from([MATCHED_SPEC, MIXED_SPEC, SIGNED_AMP_SPEC,
                                          MISMATCH_SPEC]))
        names = data.draw(st.lists(st.sampled_from(cli._SWEEP_VARS),
                                   min_size=1, max_size=2, unique=True))
        base = dict(zip(cli._STATE_VARS, unswept_weights(parse_spec(text))[1:]))
        axes = []
        for var in names:
            steps = data.draw(st.integers(1, 7))
            bounds = [st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])]
            if var in base:
                # a value within a few ulps of the one that puts the LH, HL and
                # HH weights' sum at 1 + NORMALIZATION_TOL, the others at their
                # base or last value
                others = dict(base, **{v: hi for v, _, hi, _ in axes if v in base})
                edge = 1.0 + 1e-9 - sum(w for k, w in others.items() if k != var)
                for _ in range(data.draw(st.integers(0, 4))):
                    edge = math.nextafter(edge, data.draw(st.sampled_from([0.0, 1.0])))
                bounds.append(st.just(min(max(edge, 0.0), 1.0)))
            lo = data.draw(st.one_of(bounds)) + 0.0
            hi = lo if steps == 1 else data.draw(st.one_of(bounds)) + 0.0
            axes.append((var, lo, hi, steps))
        argv = ["sweep", "--spec", spec_path(text)]
        for var, lo, hi, steps in axes:
            argv += ["--axis", f"{var}={lo!r}:{hi!r}:{steps}"]
        try:
            expected = (0, reference_sweep(text, axes), "")
        except SpecError as exc:
            expected = (2, "", f"error: {exc}\n")
        assert run_cli(capsys, *argv) == expected

    def test_memory_is_bounded_by_the_block(self, spec_path):
        # 400 rows of 400 points run in blocks of 10 rows; each block's arrays
        # are freed before the next is built, so they peak within 5% of one
        # block of 10 rows; stdout counts the rows and drops them
        path = spec_path(MIXED_SPEC)

        class RowCounter:
            rows = 0

            def write(self, text):
                self.rows += text.count("\n")

            def flush(self):
                pass

        def peak(outer_steps):
            sink = RowCounter()
            with contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    code = main(["sweep", "--spec", path, "--axis", f"p=0:1:{outer_steps}",
                                 "--axis", "q=0:1:400"])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert (code, sink.rows) == (0, 1 + outer_steps * 400)
            return peak

        peak(10)   # numpy's import and first-use allocations stay out of the peaks
        assert sweep._BLOCK_POINTS // 400 == 10
        assert peak(400) <= 1.05 * peak(10)

    def test_block_is_bitwise_the_scalar_path(self):
        # CSV rounding to 12 digits hides last-bit drift, so the array core
        # the sweep runs on is compared with its scalar path at full
        # precision: point weights, closed forms, payoffs and the weak verdict.
        # The spec weights are prob_* values or amp_* squares; a point keeps
        # the spec's own weights (quantize's), takes random ones, or has LH,
        # HL and HH weights summing into (1, 1 + 1e-9], so that LL is clipped
        rng = fresh_rng(23)
        clipped = 0
        for trial in range(20):
            vecs = (random_vector(rng), random_vector(rng))
            if trial % 2:
                amps = rng.normal(size=4) * (rng.uniform(size=4) < 0.8)
                amps[0] += not amps.any()
                spec_weights = [float(a) ** 2 for a in amps / np.linalg.norm(amps)]
            else:
                spec_weights = rng.uniform(size=4) * (rng.uniform(size=4) < 0.7)
                spec_weights[0] += not spec_weights.any()
                spec_weights = [float(w) for w in spec_weights / spec_weights.sum()]
            kind = rng.integers(3, size=30)
            swept = rng.dirichlet(np.ones(4), size=30)[:, 1:].T
            swept[2] = np.where(kind == 2, 1 + rng.uniform(0, 1e-9, size=30)
                                - swept[0] - swept[1], swept[2])
            swept = np.where(kind == 0, np.array(spec_weights[1:])[:, None], swept)
            values = dict(zip(cli._STATE_VARS, swept))
            weights = sweep._point_weights(spec_weights, values)
            clipped += int(((kind == 2) & (weights[0] == 0)).sum())
            block = engine._closed_forms(weights, vecs)
            p = rng.choice([0.0, 1.0, rng.uniform()], size=30)
            q = rng.choice([0.0, 1.0, rng.uniform()], size=30)
            row, col, nash = sweep._evaluate(*block, p, q)
            for k in range(30):
                point = {var: float(w[k]) for var, w in values.items()}
                if kind[k] == 0:   # quantize's weights, as the spec gives them
                    assert list(sweep._point_weights(spec_weights, point)) == spec_weights
                scalar = engine._closed_forms(sweep._point_weights(spec_weights, point), vecs)
                for form, one in zip(block, scalar):
                    assert tuple(c[k] for c in form) == tuple(one)
                report = verify_nash(*scalar, MixingProfile(p[k], q[k]))
                assert (row[k], col[k], nash[k]) == (
                    report.row_payoff, report.col_payoff, report.is_nash)
        assert clipped


IMPORT_PROBE = """\
import argparse, contextlib, io, json, os, sys
executed = []
def audit(event, args):
    # a module's code runs through exec, whether compiled now or read from a .pyc
    if event == "exec":
        executed.append(getattr(args[0], "co_filename", ""))
sys.addaudithook(audit)
built = 0
init = argparse.ArgumentParser.__init__
def counted_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted_init
watched, argvs = json.loads(sys.argv[1])
results = []
def step(run):
    before, ran = built, len(executed)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run()
    qbg_dir = os.path.dirname(sys.modules["qbg"].__file__)
    results.append((code, [name for name in watched if name in sys.modules], built - before,
                    sorted({os.path.basename(f) for f in executed[ran:]
                            if os.path.dirname(f) == qbg_dir})))
step(lambda: exec("import qbg"))
step(lambda: exec("import qbg.cli"))
main = sys.modules["qbg.cli"].main
for argv in argvs:
    step(lambda: main(argv))
print(json.dumps(results))
"""


def probe(watched, argvs):
    """Run ``import qbg``, ``import qbg.cli`` and then ``argvs`` in turn in one
    fresh interpreter; after each step, its exit code (None for the imports),
    which of the ``watched`` modules are in ``sys.modules`` by then, how many
    ``ArgumentParser``s it constructed and which qbg source files it executed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps([watched, argvs])],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def modules_loaded(watched, argvs):
    """``probe`` of the commands alone, without the parser counts or the files."""
    return [[code, loaded] for code, loaded, _, _ in probe(watched, argvs)[2:]]


ARGPARSE_PROBE = """\
import contextlib, io, json, sys
import qbg.cli
loaded = ["argparse" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qbg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    loaded.append([code, "argparse" in sys.modules])
print(json.dumps(loaded))
"""


def argparse_loaded(argvs):
    """Whether ``argparse`` is in ``sys.modules`` after ``import qbg.cli``, and
    the exit code and whether it is after each of ``argvs`` in turn, in one
    fresh interpreter that never imports argparse itself."""
    proc = subprocess.run([sys.executable, "-c", ARGPARSE_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.stderr == ""
    return json.loads(proc.stdout)


ENGINE_PROBE = """\
import sys
import qbg.engine as engine
state = engine.QuantumInitialState.from_probabilities(0.4, 0.1, 0.2, 0.3)
rho = engine.final_density(state, engine.MixingProfile(0.3, 0.6))
engine.expected_payoff_trace(engine.PayoffVector(0.0, -2.0, 1.0, -1.0), rho)
repr(rho)
rho._replace(rows=rho.rows)
print("numpy" in sys.modules)
"""


class TestNumpyImport:
    @pytest.mark.parametrize("command", ["classical", "equilibria", "quantize"])
    def test_scalar_commands_never_import_numpy(self, spec_path, command):
        # the specs keep their [candidate], so quantize runs the density
        # oracle too; sweep's block evaluation needs numpy and comes last,
        # as a check that the probe can see it
        specs = [spec_path(text, name) for text, name in ((MIXED_SPEC, "prob.spec"),
                                                          (SIGNED_AMP_SPEC, "amp.spec"))]
        argvs = [[command, *fmt, "--spec", path]
                 for path in specs for fmt in ([], ["--csv"])]
        argvs.append(["sweep", "--spec", specs[0], "--axis", "p=0:1:3"])
        assert modules_loaded(["numpy"], argvs) == [[0, []]] * 4 + [[0, ["numpy"]]]

    def test_reproduce_never_imports_numpy(self, spec_path):
        # the oracle check draws complex samples with stdlib random and works
        # on Python numbers; sweep loads numpy but not numpy.random, and comes
        # last, as a check that the probe can see it
        argvs = [["reproduce"], ["sweep", "--spec", spec_path(MIXED_SPEC), "--axis", "p=0:1:3"]]
        assert modules_loaded(["numpy", "numpy.random"], argvs) == [[0, []], [0, ["numpy"]]]

    def test_engine_and_its_oracle_never_import_numpy(self):
        # state construction, the density oracle, its trace, and a density's
        # repr and revalidation all run on Python numbers
        proc = subprocess.run([sys.executable, "-c", ENGINE_PROBE], capture_output=True,
                              text=True, env=child_env(), timeout=60)
        assert (proc.stderr, proc.stdout) == ("", "False\n")


class TestColdStartLoads:
    """A command loads only what it runs."""

    @pytest.mark.parametrize("command, csv_loads", [
        ("classical", ["csv"]), ("equilibria", []), ("quantize", []), ("reproduce", []),
    ], ids=["classical", "equilibria", "quantize", "reproduce"])
    def test_text_output_loads_neither_csv_nor_the_sweep(self, spec_path, command, csv_loads):
        # only classical's CSV output loads csv, as its labels come from the
        # spec; sweep loads qbg.sweep and numpy, and no csv
        path = spec_path(MIXED_SPEC)
        spec = [] if command == "reproduce" else ["--spec", path]
        argvs = [[command, *spec], [command, "--csv", *spec],
                 ["sweep", "--spec", path, "--axis", "p=0:1:3"]]
        assert modules_loaded(["csv", "qbg.sweep", "numpy"], argvs) == [
            [0, []], [0, csv_loads], [0, csv_loads + ["qbg.sweep", "numpy"]]]

    def test_only_argv_left_to_argparse_builds_the_parsers_once(self, spec_path):
        # well-formed argv builds no parser at all; the first argv left to
        # argparse, here an abbreviated flag, builds the top-level parser and
        # its five subparsers, and later argv reuses them
        path = spec_path(MIXED_SPEC)
        argvs = [["classical", "--spec", path], ["classical", "--csv", "--spec", path],
                 ["quantize", "--spec", path], ["quantize", "--cs", "--spec", path],
                 ["quantize", "--cs", "--spec", path]]
        assert [built for _, _, built, _ in probe([], argvs)[2:]] == [0, 0, 0, 6, 0]

    def test_well_formed_argv_never_loads_argparse(self, spec_path):
        # every command, as text and as CSV, and a two-axis sweep; a usage
        # error comes last, as a check that the probe can see argparse
        path = spec_path(MIXED_SPEC)
        argvs = [[command, *fmt, "--spec", path]
                 for command in ("classical", "quantize", "equilibria")
                 for fmt in ([], ["--csv"])]
        argvs += [["sweep", "--spec", path, "--axis", "p=0:1:3", "--axis", "q=0:1:3"],
                  ["reproduce"], ["reproduce", "--csv"], ["quantize", "--bogus"]]
        assert argparse_loaded(argvs) == [False] + [[0, False]] * 9 + [[2, True]]

    @pytest.mark.parametrize("argv, code", [
        (["quantize", "-h"], 0), (["-h"], 0), (["quantize", "--cs"], 2), (["nope"], 2),
    ], ids=["command-help", "help", "abbreviation", "no-command"])
    def test_help_and_usage_errors_load_argparse(self, argv, code):
        assert argparse_loaded([argv]) == [False, [code, True]]

    def test_scenarios_and_verification_run_only_for_reproduce(self, spec_path):
        # import qbg and the scalar commands, as text and CSV, execute neither
        # module's code; reproduce executes both, as a check that the probe
        # can see them.  cli.py is executed by import qbg.cli alone.
        path = spec_path(MIXED_SPEC)
        argvs = [[command, *fmt, "--spec", path]
                 for command in ("classical", "quantize", "equilibria")
                 for fmt in ([], ["--csv"])]
        argvs.append(["reproduce"])
        lazy = ["scenarios.py", "verification.py"]
        steps = probe([], argvs)
        assert [code for code, *_ in steps] == [None, None] + [0] * 7
        assert ["cli.py" in files for *_, files in steps] == [False, True] + [False] * 7
        assert [[name for name in lazy if name in files] for *_, files in steps] == (
            [[]] * 8 + [lazy])

    @pytest.mark.parametrize("argv, spec, executed", [
        (["classical"], MATCHED_SPEC, ["_records.py", "game.py", "specfile.py"]),
        (["classical", "--csv"], MATCHED_SPEC, ["_records.py", "game.py", "specfile.py"]),
        (["equilibria"], MATCHED_SPEC, ["_records.py", "engine.py", "specfile.py"]),
        (["quantize"], MATCHED_SPEC.split("\n[candidate]")[0],
         ["_records.py", "engine.py", "specfile.py"]),
        (["quantize"], MATCHED_SPEC, ["_records.py", "engine.py", "specfile.py"]),
        (["reproduce"], None, ["_records.py", "engine.py", "game.py", "scenarios.py",
                               "verification.py"]),
    ], ids=["classical", "classical-csv", "equilibria", "quantize", "quantize-candidate",
            "reproduce"])
    def test_a_command_executes_only_the_modules_it_runs(self, spec_path, argv, spec,
                                                           executed):
        # import qbg executes only the package and import qbg.cli only cli.py;
        # the builtin-bg spec's table comes without game.py.  reproduce reads
        # no spec, so it never executes specfile.py.
        argv = argv + (["--spec", spec_path(spec)] if spec else [])
        steps = probe([], [argv])
        assert [(code, files) for code, _, _, files in steps] == [
            (None, ["__init__.py"]), (None, ["cli.py"]), (0, executed)]

    def test_lazy_modules_are_in_sys_modules_from_import_on(self):
        # code that walks the loaded qbg modules to patch them finds them all
        lazy = ["qbg.engine", "qbg.game", "qbg.scenarios", "qbg.specfile", "qbg.verification"]
        assert [loaded for _, loaded, _, _ in probe(lazy, [])] == [lazy, lazy]


class TestOneBinding:
    """qbg's modules call each other's functions through the defining module,
    so a wrapper set there alone sees every call, whichever module loaded first."""

    WRAPPED = ((engine, "_closed_forms"), (engine, "bilinear_coefficients"),
               (engine, "verify_nash"),
               (engine, "enumerate_equilibria"), (engine, "final_density"),
               (engine, "expected_payoff_trace"), (scenarios, "run_strategy_ii"))

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {name: 0 for _, name in self.WRAPPED}

        def counting(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        for module, name in self.WRAPPED:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        return counts

    def test_run_verification(self, calls):
        verification.run_verification()
        assert calls == {"_closed_forms": 256, "bilinear_coefficients": 562,
                         "verify_nash": 205,
                         "enumerate_equilibria": 0, "final_density": 50,
                         "expected_payoff_trace": 150, "run_strategy_ii": 101}

    @pytest.mark.parametrize("argv, seen", [
        (["quantize"], {"_closed_forms": 1, "bilinear_coefficients": 2, "verify_nash": 1,
                        "final_density": 1, "expected_payoff_trace": 2}),
        (["equilibria"], {"_closed_forms": 1, "bilinear_coefficients": 2,
                          "enumerate_equilibria": 1}),
        (["sweep", "--axis", "p=0:1:3"], {"_closed_forms": 1, "bilinear_coefficients": 2}),
        (["sweep", "--axis", "prob_lh=0:0.5:3"], {"_closed_forms": 1,
                                                  "bilinear_coefficients": 2}),
    ], ids=["quantize", "equilibria", "sweep", "sweep-state"])
    def test_commands(self, capsys, spec_path, calls, argv, seen):
        # qbg.sweep was imported with this module, before the wrappers were set
        assert sys.modules["qbg.sweep"] is sweep
        code, _, _ = run_cli(capsys, *argv, "--spec", spec_path(MIXED_SPEC))
        assert code == 0
        assert calls == dict(dict.fromkeys(calls, 0), **seen)


SURFACE_PROBE = """\
import json
import qbg
undirected = sorted(set(qbg.__all__) - set(dir(qbg)))
namespace = {}
exec("from qbg import *", namespace)
try:
    qbg.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
try:
    import qbg.oracle
    oracle = None
except ModuleNotFoundError as exc:
    oracle = str(exc)
print(json.dumps({
    "bound": sorted(name for name in namespace if name != "__builtins__"),
    "all": sorted(qbg.__all__),
    "same": all(namespace[name] is getattr(qbg, name) for name in qbg.__all__),
    "undirected": undirected,
    "lazy": [qbg.run_strategy_ii is qbg.scenarios.run_strategy_ii,
             qbg.run_verification is qbg.verification.run_verification,
             qbg.final_density is qbg.engine.final_density],
    "missing": missing,
    "oracle": oracle,
}))
"""


class TestPublicSurface:
    def test_every_export_survives_the_lazy_modules(self):
        proc = subprocess.run([sys.executable, "-c", SURFACE_PROBE], capture_output=True,
                              text=True, env=child_env(), timeout=60)
        assert proc.stderr == ""
        surface = json.loads(proc.stdout)
        assert len(surface["all"]) == 28
        assert surface["bound"] == surface["all"]
        assert surface["same"]
        assert surface["undirected"] == []
        assert surface["lazy"] == [True, True, True]
        assert surface["missing"] == "module 'qbg' has no attribute 'nope'"
        # the density oracle is part of qbg.engine, not a module of its own
        assert surface["oracle"] == "No module named 'qbg.oracle'"


class TestRecordImport:
    @pytest.mark.parametrize("command", ["classical", "equilibria"])
    def test_scalar_commands_never_import_dataclasses(self, spec_path, command):
        # qbg's records are named tuples: neither dataclasses nor the inspect
        # module it imports is loaded.  sweep loads numpy, which imports
        # inspect; it comes last, as a check that the probe can see it.
        path = spec_path(MIXED_SPEC.split("\n[candidate]")[0])
        argvs = [[command, *fmt, "--spec", path] for fmt in ([], ["--csv"])]
        argvs.append(["sweep", "--spec", path, "--axis", "p=0:1:3", "--axis", "q=0:1:3"])
        assert modules_loaded(["dataclasses", "inspect"], argvs) == (
            [[0, []]] * 2 + [[0, ["inspect"]]])


class TestParser:
    def test_built_once_with_unchanged_output(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        fresh = cli._build_parser.__wrapped__()

        def outcome(parse, argv):
            """The namespace's attributes, or the exit code, and what was printed."""
            try:
                result = vars(parse(argv))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        # main reads well-formed argv itself and hands the rest to the cached
        # parser; each shape must come out as a freshly built parser gives it
        for argv in (["--help"], ["-h"], ["sweep", "--help"], ["nope"], [], ["--"],
                     ["sweep", "--bogus"], ["classical", "--sp", "X"], ["quantize", "--cs"],
                     ["sweep", "--ax", "p=0:1:3"], ["reproduce", "--cs"],
                     ["equilibria", "--spec=PATH"], ["classical", "--", "--spec"],
                     ["--", "classical"], ["--spec", "X", "classical"], ["Classical"],
                     ["class"], ["classical", "extra"], ["classical", "--csv", "--csv"],
                     ["classical", "--csv", "--spec", "X"], ["reproduce"],
                     ["classical", "--spec", "-x"], ["classical", "--spec", ""],
                     ["quantize", "--csv", "--spec"], ["quantize", "--spec", "X", "--spec", "Y"],
                     ["sweep", "--axis", "p=0:1:3", "--spec", "X", "--axis", "q=0:1:3"],
                     ["equilibria", "--csv", "-h"]):
            expected = outcome(fresh.parse_args, argv)
            assert outcome(cli._parse_args, argv) == expected, argv
            if not isinstance(expected[0], dict):
                assert outcome(main, argv) == expected, argv

    # command names, flags in full and abbreviated, --, -h and values
    ARGV_TOKENS = (list(cli._COMMANDS) + ["--spec", "--csv", "--axis", "--sp", "--cs", "--ax",
                                          "--", "-h", "x", "-x", "", "-1", "--spec=x"])

    @settings(max_examples=400, deadline=None)
    @given(head=st.sampled_from(ARGV_TOKENS + list(cli._COMMANDS) * 8),
           tail=st.lists(st.sampled_from(ARGV_TOKENS), max_size=5))
    def test_read_argv_agrees_with_argparse(self, head, tail):
        # the reader reads argv as the top-level parser does, or leaves it to
        # it; argv mostly starts with a command name, as all it reads does
        argv = [head, *tail]
        args = cli._read_argv(argv)
        if args is not None:
            assert vars(args) == vars(cli._build_parser.__wrapped__().parse_args(argv)), argv

    @pytest.mark.parametrize("command", ["classical", "quantize", "equilibria", "sweep",
                                         "reproduce"])
    def test_command_help_line_claims_no_exactness(self, command):
        # the command's line in the top-level help claims no exactness: the
        # regions are decided in floats against ALGEBRA_TOL
        [subparsers] = [action for action in cli._build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)]
        [line] = [action.help for action in subparsers._choices_actions
                  if action.dest == command]
        assert "exact" not in line

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

    @pytest.mark.parametrize("argv, usage, extras", [
        (["reproduce", "--spec", "X"], "qbg reproduce [-h] [--csv]", "--spec X"),
        (["reproduce", "--inject-fault", "X"], "qbg reproduce [-h] [--csv]",
         "--inject-fault X"),
        (["sweep", "--csv", "--axis", "p=0:1:3"],
         "qbg sweep [-h] [--spec PATH] [--axis VAR=LO:HI:STEPS]", "--csv"),
        (["classical", "--spec", "X", "extra"], "qbg classical [-h] [--spec PATH] [--csv]",
         "extra"),
    ], ids=["reproduce", "reproduce-fault", "sweep", "classical"])
    def test_unknown_argument_gets_the_subcommand_usage(self, capsys, argv, usage, extras):
        with pytest.raises(SystemExit) as usage_exit:
            main(argv)
        assert usage_exit.value.code == 2
        assert capsys.readouterr() == (
            "", f"usage: {usage}\nqbg {argv[0]}: error: unrecognized arguments: {extras}\n")


FAULT_ID = "case-c.policy-payoff"
# Code that wraps qbg.verification.run_verification so that check FAULT_ID's
# computed value is off by 1e-3; reproduce looks the function up on the module
INJECT_FAULT = f"""\
import qbg.verification
real = qbg.verification.run_verification
qbg.verification.run_verification = lambda: [
    c._replace(computed=c.computed + 1e-3) if c.check_id == {FAULT_ID!r} else c for c in real()]
"""


@pytest.fixture
def injected_fault(monkeypatch):
    """INJECT_FAULT run in this process, undone after the test."""
    monkeypatch.setattr(verification, "run_verification", verification.run_verification)
    exec(INJECT_FAULT, {})


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

    def test_injected_fault_fails_and_names_check(self, capsys, injected_fault):
        code, out, err = run_cli(capsys, "reproduce")
        assert code == 1
        assert err == f"failed checks: {FAULT_ID}\n"
        assert f"[FAIL] {FAULT_ID}" in out

    def test_csv_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "reproduce", "--csv")
        _, second, _ = run_cli(capsys, "reproduce", "--csv")
        assert first == second

    @pytest.mark.parametrize("fmt", [[], ["--csv"]], ids=["text", "csv"])
    def test_report_bytes(self, capsys, injected_fault, fmt):
        # the report of the checks, rendered here field by field: CSV through
        # csv.writer, which quotes nothing in it
        checks = verification.run_verification()
        failed = [c for c in checks if not c.passed]
        if fmt:
            stream = io.StringIO()
            csv.writer(stream, lineterminator="\n").writerows(
                [["check_id", "expected", "computed", "tolerance", "passed", "detail"]]
                + [[c.check_id, f"{c.expected:.12g}", f"{c.computed:.12g}",
                    f"{c.tolerance:.12g}", str(c.passed).lower(), c.detail] for c in checks])
            expected = stream.getvalue()
            assert '"' not in expected
            assert expected.startswith("check_id,expected,computed,tolerance,passed,detail\n")
        else:
            width = max(len(c.check_id) for c in checks)
            expected = "".join(
                f"[{'ok  ' if c.passed else 'FAIL'}] {c.check_id:<{width}} "
                f"expected={c.expected:.12g} computed={c.computed:.12g}"
                + (f"  ({c.detail})" if c.detail else "") + "\n" for c in checks)
            expected += f"{len(checks) - 1} passed, 1 failed\n"
            assert expected.endswith("56 passed, 1 failed\n")
        assert [c.check_id for c in failed] == [FAULT_ID]
        assert any(c.detail for c in checks)
        assert run_cli(capsys, "reproduce", *fmt) == (1, expected,
                                                      f"failed checks: {FAULT_ID}\n")

    @pytest.mark.parametrize("utility", ["policy_utility", "public_utility"])
    def test_classical_checks_run_the_utility_functions(self, capsys, monkeypatch, utility):
        # the classical table is the model's utilities evaluated at 0 and b/a,
        # so shifting either utility by 1 fails reproduce's classical checks
        real = getattr(game, utility)
        monkeypatch.setattr(game, utility, lambda *args: real(*args) + 1)
        failed = [check.check_id for check in verification.run_verification()
                  if not check.passed]
        assert any(check_id.startswith("classical.") for check_id in failed)
        code, _, _ = run_cli(capsys, "reproduce")
        assert code == 1

    def test_oracle_check_keeps_its_sample_counts(self, monkeypatch):
        complex_states, traced = [], []
        real_density, real_trace = engine.final_density, engine.expected_payoff_trace

        def final_density(state, mix):
            complex_states.append(any(complex(a).imag for a in state))
            return real_density(state, mix)

        def expected_payoff_trace(vec, rho):
            traced.append(vec)
            return real_trace(vec, rho)

        monkeypatch.setattr(engine, "final_density", final_density)
        monkeypatch.setattr(engine, "expected_payoff_trace", expected_payoff_trace)
        [check] = verification._oracle_checks()
        assert check.passed
        assert complex_states == [True] * 50
        assert len(traced) == 150

    def test_strategy_runners_are_looked_up_in_scenarios(self, monkeypatch):
        # a patch of qbg.scenarios.run_strategy_ii sees every grid run of the
        # strategy-ii checks, not a binding taken when verification loaded
        real, weights = scenarios.run_strategy_ii, []

        def counting(hh_prob):
            weights.append(hh_prob)
            return real(hh_prob)

        monkeypatch.setattr(scenarios, "run_strategy_ii", counting)
        checks = verification.run_verification()
        assert all(check.passed for check in checks)
        assert weights == list(verification.GRID) and len(weights) == 101

    def test_reference_state_forms_built_once(self, closed_form_calls):
        # the closed-form and gap checks share one pair of forms, built from
        # the reference weights; each of the three case runners builds its
        # own pair from the reference state's squared magnitudes
        reference = QuantumInitialState.from_probabilities(*verification.REFERENCE_PROBS)
        vecs = scenarios.bg_payoff_vectors()
        verification.run_verification()
        assert closed_form_calls.count((verification.REFERENCE_PROBS, vecs)) == 1
        assert closed_form_calls.count((reference.squared_magnitudes(), vecs)) == 3

    def test_strategy_grid_builds_two_forms_per_point(self, closed_form_calls):
        # each grid run builds its policy and public forms in one call on
        # its family's weights, and the checks read their margins from the
        # run's report instead of building them again
        grid_weights = {weights for w in verification.GRID
                        for weights in ((0.0, w, 1.0 - w, 0.0), (1.0 - w, 0.0, 0.0, w))}
        verification.run_verification()
        assert len(grid_weights) == 202
        grid_calls = [vecs for weights, vecs in closed_form_calls if weights in grid_weights]
        assert grid_calls == [scenarios.bg_payoff_vectors()] * 202


def run_module(*argv):
    """``python -m qbg`` with ``argv``, through the entry function."""
    return subprocess.run([sys.executable, "-m", "qbg", *argv], capture_output=True,
                          text=True, env=child_env(), timeout=120)


def run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntryPoint:
    def test_multi_block_sweep_writes_every_row(self, capsys, spec_path):
        argv = ["sweep", "--spec", spec_path(MATCHED_SPEC),
                "--axis", "p=0:1:101", "--axis", "q=0:1:101"]
        assert 101 * 101 > 2 * sweep._BLOCK_POINTS
        proc = run_module(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_in_process(capsys, argv)[1]
        assert proc.stdout.count("\n") == 1 + 101 * 101

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["reproduce", "--help"], 0), ([], 2), (["nope"], 2),
        (["reproduce", "--spec", "X"], 2), (["classical"], 2),
    ], ids=["help", "reproduce-help", "no-command", "bad-command", "unknown-flag",
            "no-spec"])
    def test_codes_and_bytes_pass_through(self, capsys, argv, code):
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(capsys, argv)
        assert proc.returncode == code

    def test_failed_check_exits_1(self, capsys, injected_fault):
        proc = subprocess.run(
            [sys.executable, "-c", INJECT_FAULT + "import qbg.cli\nqbg.cli.run_and_exit()\n",
             "reproduce"], capture_output=True, text=True, env=child_env(), timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(capsys, ["reproduce"])
        assert proc.returncode == 1

    def test_payoffs_near_the_float_limit_print_numbers_or_fail_cleanly(self, spec_path):
        path = spec_path("""\
[game]
mode = custom
row_payoffs = 1.7e308,-1.7e308,1.7e308,1.7e308
col_payoffs = 1e308,1e308,-1e308,1e308

[quantum]
prob_ll = 0.7
prob_lh = 0.1
prob_hl = 0.1
prob_hh = 0.1

[candidate]
p = 1/3
q = 1/2
""")
        for argv in (["quantize"], ["quantize", "--csv"], ["sweep", "--axis", "p=0:1:2"]):
            proc = run_module(*argv, "--spec", path)
            if proc.returncode == 2:
                assert proc.stdout == ""
                assert re.fullmatch(r"error: [^\n]*\n", proc.stderr), argv
            else:
                assert proc.returncode == 0, argv
                assert proc.stderr == "", argv
                assert not re.search(r"\b(?:nan|inf)\b", proc.stdout, re.I), argv

    def test_in_process_main_never_freezes_the_collector(self, capsys):
        assert run_in_process(capsys, ["reproduce"])[0] == 0
        assert run_in_process(capsys, ["--help"])[0] == 0
        assert gc.get_freeze_count() == 0

    def test_script_target_is_the_module_entry(self, monkeypatch):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        target = re.search(r'^\[project\.scripts\]\nqbg = "(.+)"$', pyproject, re.M)[1]
        module, _, name = target.partition(":")
        calls = []
        monkeypatch.setattr(importlib.import_module(module), name, lambda: calls.append(target))
        monkeypatch.delitem(sys.modules, "qbg.__main__", raising=False)
        runpy.run_module("qbg", run_name="__main__")
        assert calls == [target]
