"""Differential check of qbg's command line against another source tree.

    python3 tools/cli_diff.py PARENT_TREE [--seed N]

Builds the seeded operations of the three benchmark workloads (sweep-grid,
spec-corpus and cold-start, taken from ``qbgbench/`` of this tree, which is
only read) and adds ``reproduce`` as text and as CSV, each also with an
injected fault.  It also runs ``classical``, ``quantize`` and ``equilibria``,
as text and as CSV, on fixed specs of two kinds: "spelling" specs, whose
numbers are spelled in ways the workloads never write (``0.25``, ``25e-2``,
``+1/2``, ``1_000``, spaces in a number list, and the refused ``1e10000``,
``1e10001``, ``1/0`` and ``1/2e3``), and "normalization" specs, whose
``prob_*`` weights sum to 1 within 1e-9 exactly but not as floats, to just
inside 1e-9 either way, or to 1.1.  "flag" operations pass a flag the command
does not take: ``sweep --csv`` and ``reproduce --spec``.  The spec files are
written once, to one temporary directory, so both sides read them at the
same paths.  Each tree then runs every operation in one child process of its
own, calling ``qbg.cli.main`` from that tree's ``src/`` once per operation;
each demo script of this tree also runs once per tree, as its own child.

Every operation whose exit code, standard output or standard error differs
between the trees is listed, with the first differing line of each stream.
Exits 1 if any operation differs, 0 if none does, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "qbgbench"))

from workloads import WORKLOADS, child_env  # noqa: E402

FAULT_ID = "case-c.policy-payoff"
REPRODUCE_OPS = [["reproduce"], ["reproduce", "--csv"],
                 ["reproduce", "--inject-fault", FAULT_ID],
                 ["reproduce", "--csv", "--inject-fault", FAULT_ID]]
CHILD_TIMEOUT_S = 1800

# Number spellings the workload generators never write, one spec each.
SPELLING_SPECS = {
    "decimals": """[game]
mode = builtin-bg
theta = 1
a = 0.25
b = 25e-2

[quantum]
prob_ll = 0.25
prob_lh = 25E-2
prob_hl = .25
prob_hh = 2_5/1_00

[candidate]
p = +1/2
q = 1.
""",
    "signs-and-underscores": """[game]
mode = builtin-bg
theta = 0
a = 1_000
b = +2.5e+3

[quantum]
amp_ll = +3/5
amp_lh = -0
amp_hl = 0.0
amp_hh = -8_0e-2

[candidate]
p = 1.
q = 0e10000
""",
    "spaced-list": """[game]
mode = custom
row_payoffs =  1 , -2/4 ,0.5e1,  +3
col_payoffs = 0,\t-1.25 ,  1_0/4,-0

[quantum]
prob_ll = 1/2
prob_lh = 0
prob_hl = 0
prob_hh = 1/2
""",
    "digit-limit": "[game]\nmode = builtin-bg\ntheta = 1\na = 1e10000\nb = 2\n",
    "exponent-limit": "[game]\nmode = builtin-bg\ntheta = 1\na = 2\nb = 1e10001\n",
    "zero-denominator": "[game]\nmode = builtin-bg\ntheta = 1\na = 1/0\nb = 2\n",
    "fraction-with-exponent": ("[game]\nmode = custom\n"
                               "row_payoffs = 0,1/2e3,0,0\ncol_payoffs = 0,0,0,0\n"),
}

# prob_* sums on both sides of the 1e-9 normalization tolerance.
_STATE_SPEC = """[game]
mode = builtin-bg
theta = 1
a = 2
b = 2

[quantum]
prob_ll = {}
prob_lh = {}
prob_hl = {}
prob_hh = {}

[candidate]
p = 1
q = 1
"""
NORMALIZATION_SPECS = {
    # exact sum 1 - 9.99999933e-10 (inside); float sum 1 - 1.00000008e-9 (outside)
    "boundary": _STATE_SPEC.format("325109190941/5000000000000",
                                   "2585339801697/5000000000000",
                                   "52209682019/312500000000",
                                   "250839218011600067/1000000000000000000"),
    # exact and float sums 1 - 9.99999e-10 (inside)
    "inside-boundary": _STATE_SPEC.format("0.1", "0.2", "0.3", "0.399999999000001"),
    # exact sum 1.1; float sum 1.0999999999999999
    "off-boundary": _STATE_SPEC.format("0.5", "0.2", "0.2", "0.2"),
}
FIXED_SPECS = {"spelling": SPELLING_SPECS, "normalization": NORMALIZATION_SPECS}
SPEC_COMMANDS = [[command, *fmt] for command in ("classical", "quantize", "equilibria")
                 for fmt in ([], ["--csv"])]

# Runs in a child with one tree's src/ on the path: argv lists in, results out.
RUNNER = """\
import contextlib, io, json, sys
from qbg.cli import main
with open(sys.argv[1], encoding="utf-8") as fh:
    ops = json.load(fh)
results = []
for argv in ops:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            code = f"traceback: {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def build_ops(seed: int, work: Path) -> list[tuple[str, list[str]]]:
    """(workload, argv) for every seeded operation, spec files written to ``work``."""
    ops = []
    for name, run in WORKLOADS.items():
        (work / name).mkdir()
        ops += [(name, op.argv) for op in run.make_ops(random.Random(seed), work / name)]
    for kind, specs in FIXED_SPECS.items():
        for name, text in specs.items():
            path = work / f"{name}.spec"
            path.write_text(text, encoding="utf-8")
            ops += [(kind, [*argv, "--spec", str(path)]) for argv in SPEC_COMMANDS]
    ops += [("flag", ["sweep", "--csv", "--spec", str(work / "inside-boundary.spec"),
                      "--axis", "p=0:1:3"]),
            ("flag", ["reproduce", "--spec", "X"])]
    return ops + [("reproduce", argv) for argv in REPRODUCE_OPS]


def run_tree(tree: Path, ops_path: Path) -> list:
    """[exit code, stdout, stderr] per operation, run in one child against ``tree``."""
    results_path = ops_path.with_name("results.json")
    subprocess.run([sys.executable, "-c", RUNNER, str(ops_path), str(results_path)],
                   cwd=tree, env=child_env(tree), check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(results_path.read_text(encoding="utf-8"))


def run_demo(tree: Path, name: str) -> list:
    script = tree / "demos" / name
    if not script.is_file():
        return [f"no {script}", "", ""]
    proc = subprocess.run([sys.executable, str(script)], cwd=tree, env=child_env(tree),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return [proc.returncode, proc.stdout, proc.stderr]


def first_difference(old: str, new: str) -> str:
    old_lines, new_lines = old.splitlines(), new.splitlines()
    for k in range(max(len(old_lines), len(new_lines))):
        a = old_lines[k] if k < len(old_lines) else "<end>"
        b = new_lines[k] if k < len(new_lines) else "<end>"
        if a != b:
            return f"line {k + 1}: parent {a[:160]!r}, this tree {b[:160]!r}"
    return "line endings differ"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_TREE", type=Path,
                        help="root of the qbg source tree to compare against")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args()
    parent = args.parent.resolve()
    if not (parent / "src" / "qbg" / "cli.py").is_file():
        parser.error(f"no qbg sources under {parent / 'src' / 'qbg'}")

    with tempfile.TemporaryDirectory(prefix="qbg-cli-diff-") as tmp:
        work = Path(tmp)
        ops = build_ops(args.seed, work)
        ops_path = work / "ops.json"
        ops_path.write_text(json.dumps([argv for _, argv in ops]), encoding="utf-8")
        results = list(zip(run_tree(parent, ops_path), run_tree(ROOT, ops_path)))
    demos = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    ops += [("demo", ["demos/" + name]) for name in demos]
    results = [*results, *((run_demo(parent, name), run_demo(ROOT, name)) for name in demos)]

    counts: dict[str, int] = {}
    differing = 0
    for (kind, argv), (old, new) in zip(ops, results):
        counts[kind] = counts.get(kind, 0) + 1
        if old == new:
            continue
        differing += 1
        print(f"DIFF [{kind}] {' '.join(argv)}")
        for label, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                detail = (f"parent {a!r}, this tree {b!r}" if label == "exit code"
                          else first_difference(a, b))
                print(f"  {label}: {detail}")
    summary = ", ".join(f"{kind} {count}" for kind, count in counts.items())
    print(f"{len(ops)} ops ({summary}), seed {args.seed}: {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
