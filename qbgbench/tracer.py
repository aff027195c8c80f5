"""Span tracing of qbg's layers, installed from outside the package.

Each traced function is replaced by a wrapper under *every* module attribute
that binds it: ``cli``, ``scenarios`` and ``verification`` import engine
functions by name, and ``verify_nash`` reaches ``closed_form_payoff``
through ``engine``'s globals, so patching one module would miss calls.
Classmethods and methods are patched on their class.

A span is (op id, span id, parent span id, name, start, end).  Spans stay in
memory and are written out once, at the end of the run.  A layer's self time
is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# metric prefix -> functions it covers, as (module, qualified name)
LAYERS = {
    "specfile.parse_spec": [("qbg.specfile", "parse_spec")],
    "specfile.to_state": [("qbg.specfile", "GameSpec.to_state")],
    "specfile.payoff_vectors": [("qbg.specfile", "GameSpec.payoff_vectors")],
    "engine.state": [("qbg.engine", "QuantumInitialState.from_probabilities"),
                     ("qbg.engine", "QuantumInitialState.normalized")],
    "game.build_bg_game": [("qbg.game", "build_bg_game")],
    "game.find_pure_nash": [("qbg.game", "find_pure_nash")],
    "game.find_dominated_rows": [("qbg.game", "find_dominated_rows")],
    "engine.closed_form_payoff": [("qbg.engine", "closed_form_payoff")],
    "engine.verify_nash": [("qbg.engine", "verify_nash")],
    "engine.enumerate_equilibria": [("qbg.engine", "enumerate_equilibria")],
    "engine.oracle": [("qbg.engine", "final_density"), ("qbg.engine", "initial_density"),
                      ("qbg.engine", "expected_payoff_trace")],
    "scenarios.run": [("qbg.scenarios", name) for name in
                      ("run_case_a", "run_case_b", "run_case_c",
                       "run_strategy_i", "run_strategy_ii")],
    "verification.run_verification": [("qbg.verification", "run_verification")],
}
CLI = "cli"          # the root span of an operation: argparse, formatting, csv writing
CLOSED_FORM = "engine.closed_form_payoff"
ENUMERATE = "engine.enumerate_equilibria"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[list] = []          # [child seconds, span id] per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.distinct = 0                      # distinct closed-form inputs, summed per op
        self.regions = 0
        self._op_inputs: set = set()
        self._patches: list[tuple] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, len(self.spans)]
        self.spans.append(None)               # reserve the id; filled in on exit
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += end - start
            self.spans[frame[1]] = (self.op_id, frame[1], parent, name, start, end)
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[0]
        if name == CLOSED_FORM:
            self._op_inputs.add(args)
        elif name == ENUMERATE:
            self.regions += len(result)
        return result

    def run_op(self, main, argv):
        """Run one CLI operation as a root span with its own op id."""
        self.op_id += 1
        self._op_inputs = set()
        try:
            return self.call(CLI, main, (argv,), {})
        finally:
            self.distinct += len(self._op_inputs)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Patch every binding of every traced function in the loaded qbg modules."""
        modules = {key: mod for key, mod in list(sys.modules.items())
                   if key == "qbg" or key.startswith("qbg.")}
        originals = {}
        for name, targets in LAYERS.items():
            for module_name, qualname in targets:
                owner = modules[module_name]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if path:                                   # method or classmethod
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, patched)
                else:
                    originals[id(getattr(owner, attr))] = (getattr(owner, attr), name)
        wrappers = {key: self._wrap(name, fn) for key, (fn, name) in originals.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for op, span, parent, name, start, end in self.spans:
                fh.write(f"{op},{span},{'' if parent is None else parent},{name},"
                         f"{start:.9f},{end:.9f}\n")
