"""Tests of the benchmark's own reference, checker, inputs and tracer.

    python3 -m pytest -q qbgbench
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checker
import inputs
import reference as ref
from checker import Outcome
from tracer import CLOSED_FORM, Tracer
from workloads import InProcessRun, Sample, child_env, purge_qbg, run_child, run_in_process

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

F = Fraction
GRID = [F(k, 100) for k in range(101)]
README_SPEC = """[game]
mode = builtin-bg
theta = 1
a = 2
b = 2

[quantum]
prob_ll = 1/2
prob_lh = 1/5
prob_hl = 1/5
prob_hh = 1/10

[candidate]
p = 1
q = 1
"""
# The seed's one known defect: the column player's crossing is exactly p = 0.
DEFECT_PROBS = (F(0), F(4, 7), F(2, 7), F(1, 7))
DEFECT_ROW = (F(1, 2), F(-1), F(0), F(1, 2))
DEFECT_COL = (F(0), F(3), F(-2), F(0))


# --- the reference reproduces the paper's identities --------------------------

@pytest.mark.parametrize("w", GRID)
def test_strategy_ii_pays_minus_w_and_is_nash_up_to_one_half(w):
    result = ref.strategy_ii(w)
    assert result.row_payoff == -w
    assert result.col_payoff == 0
    assert result.weak == (w <= F(1, 2))
    assert result.strict == (w < F(1, 2))


def test_strategy_i_is_never_nash():
    assert not any(ref.strategy_i(w).weak for w in GRID)
    assert all(ref.strategy_i(w).col_payoff == -1 for w in GRID)


def test_case_c_pays_minus_one_half_on_any_state():
    rng = random.Random(3)
    for _ in range(200):
        probs = inputs.random_spec(rng).probs
        assert ref.case_payoffs(probs, F(1, 2), F(1, 2)) == (F(-1, 2), F(-1, 2))


def test_classical_tables_weak_and_strong():
    assert ref.WEAK_GAME.row == (0, -2, 1, -1) and ref.WEAK_GAME.col == (0, -1, -1, 0)
    assert ref.STRONG_GAME.row == (0, 0, -1, -1) and ref.STRONG_GAME.col == (0, -1, -1, 0)
    assert ref.pure_nash(ref.WEAK_GAME) == [(1, 1)]
    assert ref.pure_nash(ref.STRONG_GAME) == [(0, 0)]
    assert ref.dominated_rows(ref.WEAK_GAME) == [(0, True)]
    assert ref.dominated_rows(ref.STRONG_GAME) == [(1, True)]


def test_regions_are_exactly_the_nash_set():
    """Every region point is Nash, and every Nash point of a fine grid is covered."""
    rng = random.Random(4)
    grid = [F(k, 12) for k in range(13)]
    for _ in range(300):
        spec = inputs.random_spec(rng)
        f_row = ref.closed_form(spec.probs, spec.game.row)
        f_col = ref.closed_form(spec.probs, spec.game.col)
        regions = ref.equilibrium_regions(f_row, f_col)
        assert regions
        for r in regions:
            for p in (r.p_min, r.p_max, (r.p_min + r.p_max) / 2):
                for q in (r.q_min, r.q_max, (r.q_min + r.q_max) / 2):
                    assert ref.verdict(f_row, f_col, p, q).weak
        breaks = [r.p_min for r in regions] + [r.p_max for r in regions]
        qbreaks = [r.q_min for r in regions] + [r.q_max for r in regions]
        for p in grid + breaks:
            for q in grid + qbreaks:
                nash = ref.verdict(f_row, f_col, p, q).weak
                covered = any(r.p_min <= p <= r.p_max and r.q_min <= q <= r.q_max
                              for r in regions)
                assert nash == covered


def test_defect_example_reference_keeps_the_segment():
    f_row = ref.closed_form(DEFECT_PROBS, DEFECT_ROW)
    f_col = ref.closed_form(DEFECT_PROBS, DEFECT_COL)
    assert ref.Region(F(0), F(0), F(7, 20), F(1)) in ref.equilibrium_regions(f_row, f_col)
    assert ref.exact_crossings(f_row, f_col) == ["p=0"]


# --- the checker ---------------------------------------------------------------

def _spec(text=README_SPEC, probs=(F(1, 2), F(1, 5), F(1, 5), F(1, 10)),
          game=ref.WEAK_GAME, candidate=(F(1), F(1))):
    return inputs.Spec(text, game, probs, candidate)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    purge_qbg()
    import qbg.cli
    return qbg.cli


def _run(cli, tmp_path, command, spec, csv_out=False):
    path = tmp_path / "spec.txt"
    path.write_text(spec.text)
    argv = [command, "--spec", str(path)] + ["--csv"] * csv_out
    code, out, err, _ = run_in_process(cli.main, argv)
    return code, out, err


def test_float_residue_of_an_exact_zero_is_accepted():
    assert checker.close("-1.11022e-16", 0, checker.REL_TEXT)
    assert checker.close("-1.11022302463e-16", 0, checker.REL_CSV)
    assert not checker.close("1e-6", 0, checker.REL_CSV)
    assert not checker.close("0.333334", F(1, 3), checker.REL_CSV)


@pytest.mark.parametrize("csv_out", [False, True])
def test_readme_state_passes_in_both_formats(cli, tmp_path, csv_out):
    for command in ("classical", "quantize", "equilibria"):
        code, out, err = _run(cli, tmp_path, command, _spec(), csv_out)
        assert checker.check_spec_command(command, csv_out, _spec(), code, out, err).ok


def test_flipped_verdict_is_rejected(cli, tmp_path):
    code, out, err = _run(cli, tmp_path, "quantize", _spec())
    assert "Nash (weak): yes" in out
    flipped = out.replace("Nash (weak): yes", "Nash (weak): no")
    assert not checker.check_spec_command("quantize", False, _spec(), code, flipped, err).ok
    code, out, err = _run(cli, tmp_path, "quantize", _spec(), True)
    flipped = out.replace("nash.weak,true", "nash.weak,false")
    assert not checker.check_spec_command("quantize", True, _spec(), code, flipped, err).ok


def test_wrong_region_kind_is_rejected(cli, tmp_path):
    code, out, err = _run(cli, tmp_path, "equilibria", _spec())
    kinds = ("point", "segment", "rectangle")
    kind = next(k for k in kinds if f"  {k}:" in out)
    other = next(k for k in kinds if k != kind)
    wrong = out.replace(f"  {kind}:", f"  {other}:", 1)
    assert not checker.check_spec_command("equilibria", False, _spec(), code, wrong, err).ok


def test_malformed_spec_needs_exit_2_and_an_error_line():
    bad = inputs.Spec("[games]\n", None)
    good = Outcome(True, 1)
    assert checker.check_spec_command("classical", False, bad, 2, "", "error: x\n") == good
    assert not checker.check_spec_command("classical", False, bad, 2, "", "").ok
    assert not checker.check_spec_command("classical", False, bad, 0, "", "error: x\n").ok
    assert not checker.check_spec_command("classical", False, bad, 2, "", "oops\n").ok


def test_defect_example_is_failed_and_labelled(cli, tmp_path):
    lines = ["[game]", "mode = custom", "row_payoffs = 1/2,-1,0,1/2", "col_payoffs = 0,3,-2,0",
             "[quantum]"] + [f"{k} = {v}" for k, v in zip(inputs.PROB_KEYS, DEFECT_PROBS)]
    spec = inputs.Spec("\n".join(lines) + "\n", ref.Game(("L", "H"), ("L", "H"),
                                                         DEFECT_ROW, DEFECT_COL), DEFECT_PROBS)
    code, out, err = _run(cli, tmp_path, "equilibria", spec)
    outcome = checker.check_spec_command("equilibria", False, spec, code, out, err)
    if not outcome.ok:                     # the seed prints a point; a fix prints the segment
        assert outcome.known_defect and checker.KNOWN_DEFECT in outcome.reason


def test_known_defect_ops_are_counted_apart_from_failed_ones(tmp_path):
    run = InProcessRun("spec-corpus", 1, 1.0, False, tmp_path)
    run.out_dir.mkdir()
    run.probes = [run.probe_ref_ms] * 2
    known = Outcome(False, 0, checker.KNOWN_DEFECT, True)
    run.samples = [Sample(0.001 * k, Outcome(True, 1), 10, probe=0) for k in range(1, 9)]
    run.samples.append(Sample(0.002, known, 0, probe=0))
    result = run.result([0.1], [1.0])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 9, 0)
    assert run.report["known_defect"] == 1 and run.report["failures"] == [checker.KNOWN_DEFECT]
    run.samples.append(Sample(0.002, Outcome(False, 0, "classical: wrong"), 0, probe=0))
    result = run.result([0.1], [1.0])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 10, 1)
    assert run.report["known_defect"] == 1 and len(run.report["failures"]) == 2


def test_reproduce_output_passes(cli):
    for csv_out in (False, True):
        code, out, err, _ = run_in_process(cli.main, ["reproduce"] + ["--csv"] * csv_out)
        assert checker.check_reproduce(csv_out, code, out, err).ok
        broken = out.replace("computed=-0.5", "computed=-0.4", 1) if not csv_out else \
            out.replace("case-c.policy-payoff,-0.5,-0.5", "case-c.policy-payoff,-0.5,-0.4")
        assert broken != out
        assert not checker.check_reproduce(csv_out, code, broken, err).ok


def test_child_runs_give_exit_code_output_and_their_own_peak_rss(tmp_path):
    env = child_env(ROOT)
    path = tmp_path / "readme.spec"
    path.write_text(README_SPEC)
    code, out, err, seconds, rss_kb = run_child(ROOT, tmp_path, env,
                                                ["classical", "--spec", str(path)])
    assert code == 0 and not err and out.startswith("Payoff table") and seconds > 0
    assert rss_kb > 1024
    code, out, err, _, _ = run_child(ROOT, tmp_path, env,
                                     ["classical", "--spec", str(tmp_path / "missing.spec")])
    assert code == 2 and not out and err.startswith("error: ")


# --- inputs --------------------------------------------------------------------

def test_same_seed_gives_same_inputs():
    assert ([s.text for s in inputs.spec_corpus(random.Random(9), 200)]
            == [s.text for s in inputs.spec_corpus(random.Random(9), 200)])
    assert ([s.text for s in inputs.spec_corpus(random.Random(9), 200)]
            != [s.text for s in inputs.spec_corpus(random.Random(10), 200)])
    first = [inputs.sweep_op(random.Random(9), kind) for kind in ("state", "profile")]
    again = [inputs.sweep_op(random.Random(9), kind) for kind in ("state", "profile")]
    assert first == again


def test_amplitude_specs_have_exact_unit_norm_and_signs():
    rng = random.Random(1)
    specs = [inputs.random_spec(rng) for _ in range(400)]
    amp_specs = [s for s in specs if "amp_ll" in s.text]
    assert amp_specs and all(sum(s.probs) == 1 for s in specs)
    assert any("= -" in s.text for s in amp_specs)


# --- tracing -------------------------------------------------------------------

def test_tracer_patches_every_binding_and_counts_four_closed_forms_per_point(cli, tmp_path):
    import qbg.engine
    import qbg.scenarios
    op = inputs.sweep_op(random.Random(2), "state")
    path = tmp_path / "sweep.spec"
    path.write_text(op.spec.text)
    tracer = Tracer()
    original = qbg.engine.closed_form_payoff
    tracer.install()
    try:
        assert qbg.engine.closed_form_payoff is not original
        assert cli.closed_form_payoff is qbg.engine.closed_form_payoff
        assert qbg.scenarios.closed_form_payoff is qbg.engine.closed_form_payoff
        code, out, err, _ = run_in_process(cli.main, ["sweep", "--spec", str(path),
                                                      *op.argv_axes], tracer)
    finally:
        tracer.uninstall()
    assert qbg.engine.closed_form_payoff is original
    assert checker.check_sweep(op, code, out, err).ok
    assert tracer.calls[CLOSED_FORM] == 4 * op.points
    ops = {span[0] for span in tracer.spans}
    assert ops == {1} and sum(span[2] is None for span in tracer.spans) == 1
