"""Differential check of qbg's command line against another source tree.

    python3 tools/cli_diff.py PARENT_TREE [--seed N]

Builds the seeded operations of the three benchmark workloads (sweep-grid,
spec-corpus and cold-start, taken from ``qbgbench/`` of this tree, which is
only read) and adds ``reproduce`` as text and as CSV.  It also runs
``classical``, ``quantize`` and ``equilibria``, as text and as CSV, on
fixed specs of two kinds: "spelling" specs, whose
numbers are spelled in ways the workloads never write (``0.25``, ``25e-2``,
``+1/2``, ``1_000``, spaces in a number list, the edges of the shapes read
without the number pattern, ``٣/٤``, ``007``, ``-0/05`` and ``-12``, and the
refused ``1e10000``, ``1e10001``, ``1/0``, ``-1/0``, ``1/-2``, ``--1`` and
``1/2e3``), and "normalization" specs, whose
``prob_*`` weights sum to 1 within 1e-9 exactly but not as floats, to just
inside 1e-9 either way, or to 1.1.  "corner" operations run ``quantize``,
as text and as CSV, with a ``[candidate]`` at (0,0), (0,1), (1,0), (1,1) and
(1/2,1/2), on a state with zero, ``-0`` and negative amplitudes and on a
one-hot state, where the density oracle's entries and traces hold signed
zeros.  "sweep-shapes" operations run ``sweep`` on grids the benchmark's
9x17 grids never reach: several blocks of rows, an inner axis longer than a
block, two state axes, descending and one-step axes, ``-0`` bounds, a grid
whose heaviest point has LH, HL and HH weights summing into (1, 1 + 1e-9],
so that its LL weight is clipped at 0, and bad grids that fail in the
first row, in a later row and halfway along a later block.
"sweep-weights" operations run ``sweep`` over an unswept p x q grid and
over a state axis on an ``amp_*`` spec and on the "inside-boundary"
normalization spec, whose weights the sweep takes as the spec commands do.
"file-bytes" operations run ``classical``, ``quantize`` and
``equilibria``, as text and as CSV, and one ``sweep``, on specs that differ
from a plain one only in bytes that a text-mode read of the file handled:
CRLF and lone CR line endings, a UTF-8 byte order mark, invalid UTF-8 in
the first line and in a trailing comment, a form feed, NEL and U+2028
inside a line, a NUL, an empty file, and builtin-bg specs whose table just
fits the float range or just overflows it; ``classical`` also runs on a
spec padded with a comment to exactly 1 MiB, the largest the command line
reads, and on one a byte longer, which it refuses.  "missing-path"
operations run ``classical``, as text and as CSV, on a short path that names
no file and on a 100,000-character one, which the messages quote cut.
"edge" operations run ``quantize`` and ``equilibria``, as text and as CSV,
on three specs where a payoff slope is 0 at an edge up to a float residue:
ROADMAP's known-defect spec and the seed-1 corpus0464 spec, whose
best-response crossings lie exactly on an edge, and a builtin-bg spec whose
candidate sits 1e-13 below the edge p=1 that its keep slope favours.
"flag" operations pass a flag the command does not take: ``sweep --csv``
and ``reproduce --spec``.
The spec files are written once, to one temporary directory, so both sides
read them at the same paths.
Each tree then runs every operation in one child process of its own,
calling ``qbg.cli.main`` from that tree's ``src/`` once per operation.
"child" operations go through the entry point instead, one ``python -m qbg``
process each: every subcommand as text and as CSV, the top-level ``--help``
and a usage error (``nope``), and each subcommand's ``-h`` and one usage
error of its own (a flag with no value, an unknown flag or an extra
argument); "corner-child" operations repeat the "corner" ones that way; a
"closed-pipe" operation runs a long sweep whose reader keeps the first line
and closes the pipe (exit 141); "argv" operations pass argv shapes that
``main`` must route exactly as the top-level parser does: abbreviated
flags, ``--spec=PATH``, ``--`` before and after the command, a flag before
the command, a misspelled or abbreviated command, an extra argument, a
repeated ``--csv``, ``-h`` and no arguments at all, and the edges of the
argv that ``main`` reads without argparse: a ``--spec`` value that starts
with ``-``, an empty ``--spec`` value, a trailing ``--spec``, two ``--spec``
(the last wins), two ``--axis`` and ``--csv -h``.  Each demo script of
this tree also runs once per tree, as its own child, and so does a
"verification" operation, which prints the repr of each check
``qbg.verification.run_verification()`` returns, one per line: the
full-precision values behind ``reproduce``, which together make
``repr(run_verification())``.  Two "fault" operations, one child each per
tree, run ``reproduce`` as text and as CSV with that function wrapped so
that one check's computed value is off by 1e-3, which exercises the failure
report and exit code 1.  A "library" operation, also one child per
tree, prints the repr of ``qbg.game.build_bg_game`` for theta 0 and 1 on
int, Fraction, float and mixed coefficients, some of whose tables underflow
to zeros, and then of ``qbg.scenarios.bg_payoff_vectors()``: no command
reaches a float coefficient, so this is what compares the library's tables.

Every operation whose exit code, standard output or standard error differs
between the trees is listed, with the first differing line of each stream;
each argument and line shown is cut at 160 characters.
Exits 1 if any operation differs, 0 if none does, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "qbgbench"))

from workloads import WORKLOADS, child_env  # noqa: E402

REPRODUCE_OPS = [["reproduce"], ["reproduce", "--csv"]]
CHILD_TIMEOUT_S = 1800
# one usage error per command, each reported by that command's own parser
COMMAND_USAGE_ERRORS = [["classical", "--spec"], ["quantize", "--csv", "extra"],
                        ["equilibria", "--nope"], ["sweep", "--axis"],
                        ["reproduce", "--csv", "extra"]]
VERIFICATION_CODE = ("import qbg.verification\n"
                     "print(*map(repr, qbg.verification.run_verification()), sep='\\n')")
# reproduce, with the argv after -c, once qbg.verification.run_verification
# adds 1e-3 to one check's computed value; the wrapper passes on any keyword
# arguments, so it also runs against a tree whose function still takes some
FAULT_CODE = """\
import sys
import qbg.cli
import qbg.verification
real = qbg.verification.run_verification
def faulty(**kwargs):
    return [c._replace(computed=c.computed + 1e-3) if c.check_id == "case-c.policy-payoff" else c
            for c in real(**kwargs)]
qbg.verification.run_verification = faulty
sys.exit(qbg.cli.main(sys.argv[1:]))
"""
# The builtin-bg table on coefficients (a, b) of every kind build_bg_game takes.
LIBRARY_CODE = """\
from fractions import Fraction
from qbg.game import PolicyParams, build_bg_game
from qbg.scenarios import bg_payoff_vectors
coefficients = [(2, 4), (3, 2), (5, 3), (Fraction(3, 7), Fraction(5, 11)),
                (0.3, 0.7), (2.5, 1e-3), (1e-200, 1e-150),
                (Fraction(2, 3), 0.1), (0.7, Fraction(1, 3)), (2.0, 5e-324), (1e150, 1e-100)]
for theta in (0, 1):
    for a, b in coefficients:
        print(repr(build_bg_game(PolicyParams(theta, a, b))))
print(repr(bg_payoff_vectors()))
"""

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
    # the edges of the shapes read without the pattern, [-]n and [-]n/d
    "short-edges": """[game]
mode = custom
row_payoffs = ٣/٤,007,-0/05,-12
col_payoffs = -12,٣/٤,007,-0/05

[quantum]
prob_ll = ٣/٤
prob_lh = -0/05
prob_hl = 000
prob_hh = 1/4

[candidate]
p = -0/05
q = 007/0010
""",
    "negative-zero-denominator": "[game]\nmode = builtin-bg\ntheta = 1\na = -1/0\nb = 2\n",
    "negative-denominator": "[game]\nmode = builtin-bg\ntheta = 1\na = 2\nb = 1/-2\n",
    "double-minus": ("[game]\nmode = custom\n"
                     "row_payoffs = 0,--1,0,0\ncol_payoffs = 0,0,0,0\n"),
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

# Specs that differ from a plain one only in bytes a text-mode read of the
# file would have handled: line endings, a byte order mark, invalid UTF-8
# (written from lone surrogates), line breaks other than LF, NUL, no bytes at
# all, and builtin-bg tables at the edge of the float range.
_BYTES_SPEC = """[game]
mode = builtin-bg
theta = 1
a = {}
b = {}

[quantum]
prob_ll = 0.4
prob_lh = 0.1
prob_hl = 0.2
prob_hh = 0.3

[candidate]
p = 1/2
q = 1
"""
_PLAIN = _BYTES_SPEC.format("2", "3/2")
_FLOAT_EDGE = math.isqrt(2 ** 1024 - 2 ** 970 - 1)   # b*b/a, a = 1, just below overflow
FILE_BYTES_SPECS = {
    "crlf": _PLAIN.replace("\n", "\r\n"),
    "crlf-no-value": "[game]\r\nmode = builtin-bg\r\ntheta = 1\r\na =  \r\nb = 2\r\n",
    "lone-cr": _PLAIN.replace("\n", "\r"),
    "bom": "\ufeff" + _PLAIN,
    "invalid-first-line": "\udcff" + _PLAIN,
    "invalid-comment": _PLAIN + "# caf\udce9\n",
    "form-feed": _PLAIN.replace("theta = 1\n", "\ftheta = 1\f"),
    "nel-ls": _PLAIN.replace("theta = 1\n", "theta = 1\x85").replace("a = 2\n", "a = 2\u2028")
              + "r = 1\n",   # refused, with its line number
    "nul": _PLAIN.replace("b = 3/2", "b = 3/2\0"),
    "empty": "",
    "float-edge-fits": _BYTES_SPEC.format("1", _FLOAT_EDGE),
    "float-edge-overflows": _BYTES_SPEC.format("1", _FLOAT_EDGE + 1),
}
# Specs where a slope is 0 at an edge up to a residue: a best-response
# crossing exactly on an edge (the first two), and a candidate 1e-13 from the
# edge its slope of 0.4 favours.
EDGE_SPECS = {
    "defect": """[game]
mode = custom
row_payoffs = 1/2, -1, 0, 1/2
col_payoffs = 0, 3, -2, 0

[quantum]
prob_ll = 0
prob_lh = 4/7
prob_hl = 2/7
prob_hh = 1/7
""",
    "corpus0464": """[game]
mode = custom
row_payoffs = 0, -3, 1/2, 3/2
col_payoffs = 2, 2, -4, -1/2

[quantum]
prob_ll = 1/2
prob_lh = 0
prob_hl = 1/3
prob_hh = 1/6
""",
    "near-edge": """[game]
mode = builtin-bg
theta = 1
a = 1
b = 1

[quantum]
prob_ll = 1/2
prob_lh = 1/5
prob_hl = 1/5
prob_hh = 1/10

[candidate]
p = 0.9999999999999
q = 1
""",
}
# The largest spec file the command line reads, in bytes.
SIZE_LIMIT = 1 << 20
FIXED_SPECS = {"spelling": SPELLING_SPECS, "normalization": NORMALIZATION_SPECS,
               "file-bytes": FILE_BYTES_SPECS}
SPEC_COMMANDS = [[command, *fmt] for command in ("classical", "quantize", "equilibria")
                 for fmt in ([], ["--csv"])]

# quantize with a [candidate] at the corners of the profile square and its centre.
_CORNER_SPEC = """[game]
mode = custom
row_payoffs = 0,-1,2,0
col_payoffs = -1/2,0,0,-3

[quantum]
amp_ll = {}
amp_lh = {}
amp_hl = {}
amp_hh = {}

[candidate]
p = {}
q = {}
"""
CORNER_STATES = {"signed": ("-3/5", "-0", "0", "4/5"), "one-hot": ("0", "-1", "-0", "0")}
CORNER_PROFILES = (("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("1/2", "1/2"))
CORNER_SPECS = {f"corner-{state}-{k}": _CORNER_SPEC.format(*amps, *profile)
                for state, amps in CORNER_STATES.items()
                for k, profile in enumerate(CORNER_PROFILES)}

# sweep on grid shapes the benchmark's 9x17 grids never reach, on one spec
# whose state weights are (0.4, 0.1, 0.2, 0.3).
SWEEP_SPEC = """[game]
mode = custom
row_payoffs = 0.3,-2,1.7,-1
col_payoffs = 0,-1/3,-1,0.25

[quantum]
prob_ll = 0.4
prob_lh = 0.1
prob_hl = 0.2
prob_hh = 0.3

[candidate]
p = 0.3
q = 2/3
"""
SWEEP_SHAPES = (
    ("p=0:1:300", "q=0:1:30"),                       # three blocks of rows
    ("prob_hh=0.1:0.3:2", "prob_lh=0.4:0:4097"),     # inner axis longer than a block
    ("prob_lh=0:0.3:40", "prob_hl=0.35:0:50"),       # two state axes, one descending
    ("prob_hh=0.05:0.3:60", "prob_hl=0:0.4:100"),    # two state axes over two blocks
    ("q=1:0:7", "p=0.3:0.3:1"),                      # descending, then one step
    ("prob_hh=0.25:0.25:1", "p=1:0:5"),
    ("prob_lh=0.45:0:9",),
    ("q=1:-0:3",),                                   # -0 bounds
    ("p=-0:-0.0:1", "prob_lh=0:0.1:3"),
    ("prob_hl=0.2:-0:4", "q=-0.0:1:3"),
    ("p=-0:-0:1", "prob_lh=0:1:3"),                  # bad: -0 in the message
    ("p=0:1:3", "prob_lh=0:1:5"),                    # bad in the first row
    ("prob_hh=0:0.9:10", "q=0:1:5"),                 # bad in a later row
    ("prob_hh=0.5:0.7:2", "prob_lh=0:0.2:4097"),     # bad halfway along a later block
    ("prob_hh=0:1:11",),                             # bad in a 1-axis sweep
    ("prob_lh=0:0.5000000005:5", "q=0:1:3"),         # LH+HL+HH up to 1 + 5e-10: LL clipped
)
# sweep over p x q and over a state axis on the state of each SWEEP_WEIGHT_SPECS
# spec; the "inside-boundary" one is written for the normalization operations.
SWEEP_AMP_SPEC = """[game]
mode = custom
row_payoffs = 0.3,-2,1.7,-1
col_payoffs = 0,-1/3,-1,0.25

[quantum]
amp_ll = 1/2
amp_lh = -1/10
amp_hl = 7/10
amp_hh = 1/2

[candidate]
p = 1/3
q = 1/2
"""
SWEEP_WEIGHT_SPECS = ("sweep-amp", "inside-boundary")
SWEEP_WEIGHT_SHAPES = (("p=0:1:9", "q=0:1:9"), ("prob_hh=0:0.2:5", "q=0:1:3"))

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
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            ops += [(kind, [*argv, "--spec", str(path)]) for argv in SPEC_COMMANDS]
    ops.append(("file-bytes", ["sweep", "--spec", str(work / "crlf.spec"), "--axis", "p=0:1:5"]))
    for name, text in EDGE_SPECS.items():
        path = work / f"{name}.spec"
        path.write_text(text, encoding="utf-8")
        ops += [("edge", [*argv, "--spec", str(path)]) for argv in SPEC_COMMANDS
                if argv[0] != "classical"]
    for name, size in (("at-size-limit", SIZE_LIMIT), ("past-size-limit", SIZE_LIMIT + 1)):
        path = work / f"{name}.spec"
        path.write_bytes(_PLAIN.encode() + b"#" * (size - len(_PLAIN) - 1) + b"\n")
        ops.append(("file-bytes", ["classical", "--spec", str(path)]))
    for name, text in CORNER_SPECS.items():
        (work / f"{name}.spec").write_text(text, encoding="utf-8")
    ops += [("corner", argv) for argv in corner_argvs(work)]
    sweep_spec = work / "sweep.spec"
    sweep_spec.write_text(SWEEP_SPEC, encoding="utf-8")
    ops += [("sweep-shapes", ["sweep", "--spec", str(sweep_spec),
                              *(arg for axis in axes for arg in ("--axis", axis))])
            for axes in SWEEP_SHAPES]
    (work / "sweep-amp.spec").write_text(SWEEP_AMP_SPEC, encoding="utf-8")
    ops += [("sweep-weights", ["sweep", "--spec", str(work / f"{name}.spec"),
                               *(arg for axis in axes for arg in ("--axis", axis))])
            for name in SWEEP_WEIGHT_SPECS for axes in SWEEP_WEIGHT_SHAPES]
    ops += [("missing-path", ["classical", *fmt, "--spec", str(path)])
            for path in (work / "missing.spec", work / ("m" * 100_000)) for fmt in ([], ["--csv"])]
    ops += [("flag", ["sweep", "--csv", "--spec", str(work / "inside-boundary.spec"),
                      "--axis", "p=0:1:3"]),
            ("flag", ["reproduce", "--spec", "X"])]
    return ops + [("reproduce", argv) for argv in REPRODUCE_OPS]


def corner_argvs(work: Path) -> list[list[str]]:
    """``quantize`` as text and as CSV on each corner spec ``build_ops`` wrote."""
    return [["quantize", *fmt, "--spec", str(work / f"{name}.spec")]
            for name in CORNER_SPECS for fmt in ([], ["--csv"])]


def build_child_ops(work: Path) -> list[tuple[str, list[str]]]:
    """(kind, argv) of the ``python -m qbg`` operations, on a spec ``build_ops`` wrote."""
    spec = str(work / "decimals.spec")
    ops = [[*argv, "--spec", spec] for argv in SPEC_COMMANDS]
    ops += [["sweep", "--spec", spec, "--axis", "p=0:1:5"], ["reproduce"], ["reproduce", "--csv"],
            ["--help"], ["nope"]]
    ops += [[argv[0], "-h"] for argv in COMMAND_USAGE_ERRORS] + COMMAND_USAGE_ERRORS
    return [("child", argv) for argv in ops] + [
        ("corner-child", argv) for argv in corner_argvs(work)] + [
        ("closed-pipe", ["sweep", "--spec", spec, "--axis", "p=0:1:400", "--axis", "q=0:1:400"])
    ] + [("argv", argv) for argv in argv_shapes(spec)]


def argv_shapes(spec: str) -> list[list[str]]:
    """Argv that starts with a command name and argv that does not, each
    routed by ``main`` as the top-level parser routes it, and the edges of
    the argv ``main`` reads without argparse."""
    return [["classical", "--sp", spec], ["quantize", "--cs", "--spec", spec],
            ["sweep", "--spec", spec, "--ax", "p=0:1:3"], ["reproduce", "--cs"],
            ["equilibria", f"--spec={spec}"], ["classical", "--", "--spec"],
            ["--", "classical"], ["--spec", spec, "classical"], ["Classical"], ["class"],
            ["classical", "--spec", spec, "extra"],
            ["classical", "--csv", "--csv", "--spec", spec], ["-h"], [],
            ["classical", "--spec", "-x"], ["classical", "--spec", ""],
            ["quantize", "--csv", "--spec"], ["quantize", "--spec", "X", "--spec", spec],
            ["sweep", "--spec", spec, "--axis", "p=0:1:3", "--axis", "q=0:1:2"],
            ["equilibria", "--csv", "-h"]]


def run_module(tree: Path, kind: str, argv: list[str]) -> list:
    """[exit code, stdout, stderr] of one ``python -m qbg`` child against ``tree``;
    for a "closed-pipe" operation, stdout is the one line read before closing."""
    proc = subprocess.Popen([sys.executable, "-m", "qbg", *argv], cwd=tree, env=child_env(tree),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    with proc:
        if kind == "closed-pipe":
            out = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        else:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        return [proc.wait(timeout=CHILD_TIMEOUT_S), out, err]


def run_tree(tree: Path, ops_path: Path) -> list:
    """[exit code, stdout, stderr] per operation, run in one child against ``tree``."""
    results_path = ops_path.with_name("results.json")
    subprocess.run([sys.executable, "-c", RUNNER, str(ops_path), str(results_path)],
                   cwd=tree, env=child_env(tree), check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(results_path.read_text(encoding="utf-8"))


def run_python(tree: Path, args: list[str]) -> list:
    """[exit code, stdout, stderr] of one ``python ARGS`` child against ``tree``."""
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=child_env(tree),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return [proc.returncode, proc.stdout, proc.stderr]


def run_demo(tree: Path, name: str) -> list:
    script = tree / "demos" / name
    if not script.is_file():
        return [f"no {script}", "", ""]
    return run_python(tree, [str(script)])


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
        child_ops = build_child_ops(work)
        ops += child_ops
        results += [(run_module(parent, kind, argv), run_module(ROOT, kind, argv))
                    for kind, argv in child_ops]
    demos = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    ops += [("demo", ["demos/" + name]) for name in demos]
    results = [*results, *((run_demo(parent, name), run_demo(ROOT, name)) for name in demos)]
    ops.append(("verification", ["run_verification()"]))
    results.append(tuple(run_python(tree, ["-c", VERIFICATION_CODE]) for tree in (parent, ROOT)))
    for argv in REPRODUCE_OPS:
        ops.append(("fault", argv))
        results.append(tuple(run_python(tree, ["-c", FAULT_CODE, *argv]) for tree in (parent, ROOT)))
    ops.append(("library", ["build_bg_game", "bg_payoff_vectors()"]))
    results.append(tuple(run_python(tree, ["-c", LIBRARY_CODE]) for tree in (parent, ROOT)))

    counts: dict[str, int] = {}
    differing = 0
    for (kind, argv), (old, new) in zip(ops, results):
        counts[kind] = counts.get(kind, 0) + 1
        if old == new:
            continue
        differing += 1
        print(f"DIFF [{kind}] {' '.join(arg[:160] for arg in argv)}")
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
