"""The three workloads: how each builds its operations and runs them.

Every workload is closed-loop and single-process: the next operation starts
when the previous one has returned and been checked, and at most one child
process runs at a time.  Only the call into qbg is timed; generating inputs
and checking outputs are not.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import checker
import inputs
import speed
from tracer import CLI, CLOSED_FORM, ENUMERATE, LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 7                 # set-up is repeated and its median reported
WARMUP_OPS = 4             # run and checked, never timed
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_OPS = 128            # cycled; ops alternate state-outer and profile grids
CORPUS_SPECS = 512         # spec-corpus specs: a cycle longer than any small cache
CORPUS_OPS = 3072          # then cycled; each pass gives a spec another command
COLD_SPECS = 64
COLD_BLOCKS = 64           # 64 shuffled blocks of the 8 (command, format) pairs


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str, str], checker.Outcome]
    kind: str


@dataclass(slots=True)      # compact: a run keeps one per operation
class Sample:
    seconds: float
    outcome: checker.Outcome
    bytes_out: int
    traced: bool = False
    probe: int = -1            # index of the last speed probe taken before the op


# --- inputs ------------------------------------------------------------------

def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def sweep_ops(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for k in range(SWEEP_OPS):
        kind = ("state", "profile")[k % 2]
        sweep = inputs.sweep_op(rng, kind)
        path = _write(work, f"sweep{k:04d}.spec", sweep.spec.text)
        ops.append(Op(["sweep", "--spec", path, *sweep.argv_axes],
                      partial(checker.check_sweep, sweep), f"sweep-{kind}"))
    return ops


def _spec_ops(specs, order, work: Path, prefix: str) -> list[Op]:
    paths = [_write(work, f"{prefix}{k:04d}.spec", spec.text) for k, spec in enumerate(specs)]
    ops = []
    for k, (command, csv_out) in enumerate(order):
        argv = [command] + ["--csv"] * csv_out
        if command == "reproduce":
            check = partial(checker.check_reproduce, csv_out)
        else:
            spec = specs[k % len(specs)]
            argv += ["--spec", paths[k % len(specs)]]
            check = partial(checker.check_spec_command, command, csv_out, spec)
        ops.append(Op(argv, check, command))
    return ops


def corpus_ops(rng: random.Random, work: Path) -> list[Op]:
    specs = inputs.spec_corpus(rng, CORPUS_SPECS)
    pairs = [(c, f) for c in ("classical", "quantize", "equilibria") for f in (False, True)]
    order = inputs.balanced_order(rng, pairs, CORPUS_OPS // len(pairs))
    return _spec_ops(specs, order, work, "corpus")


def cold_ops(rng: random.Random, work: Path) -> list[Op]:
    specs = [inputs.random_spec(rng, with_candidate=1.0, builtin_only=True)
             for _ in range(COLD_SPECS)]
    pairs = [(c, f) for c in ("classical", "quantize", "equilibria", "reproduce")
             for f in (False, True)]
    return _spec_ops(specs, inputs.balanced_order(rng, pairs, COLD_BLOCKS), work, "cold")


# --- running one operation ---------------------------------------------------

def run_in_process(main, argv, tracer: Tracer | None = None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = tracer.run_op(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:                    # a traceback is a failed op, not a crash
            code = -1
            print(f"traceback: {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_times(stderr: str) -> tuple[dict, str]:
    """Split ``-X importtime`` lines off stderr: ({numpy_ms, qbg_ms}, rest)."""
    numpy_us = qbg_us = 0
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        match = _IMPORTTIME.match(line)
        if match is None:                   # the column header
            continue
        cumulative, indent, name = int(match[2]), len(match[3]), match[4]
        if name == "numpy":
            numpy_us += cumulative
        if indent == 1 and (name == "qbg" or name.startswith("qbg.")):
            qbg_us += cumulative
    return {"numpy_ms": numpy_us / 1000, "qbg_ms": qbg_us / 1000}, "".join(rest)


def run_child(root: Path, work: Path, env: dict, argv, trace_files=None):
    """One ``python -m qbg`` child, or the traced launcher when ``trace_files``.

    Returns (exit code, stdout, stderr, seconds, peak RSS in KiB).  The child
    is reaped with ``wait4`` so that the RSS is its own, not the maximum over
    every child of the run, the speed probe's included.  Its output goes to
    files in ``work`` while it runs.
    """
    if trace_files:
        cmd = [sys.executable, "-X", "importtime", str(BENCH_DIR / "launch.py"),
               *map(str, trace_files), *argv]
    else:
        cmd = [sys.executable, "-m", "qbg", *argv]
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), seconds, usage.ru_maxrss)


# --- the measured loop -------------------------------------------------------

def purge_qbg() -> None:
    for key in [k for k in sys.modules if k == "qbg" or k.startswith("qbg.")]:
        del sys.modules[key]


def set_up(make_ops, seed: int, work: Path):
    """One set-up: a fresh ``import qbg.cli``, the seeded inputs, their spec files.

    Spec files of an earlier set-up in the run are overwritten in place, which
    costs less and varies less than deleting and creating them again.
    """
    work.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    purge_qbg()
    cli = importlib.import_module("qbg.cli")
    ops = make_ops(random.Random(seed), work)
    return cli, ops, perf_counter() - start


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, ops: int, points: int, bytes_out: int) -> dict:
    metrics = {}
    for name in [*LAYERS, CLI]:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (tracer.self_s.get(name, 0.0) * 1000 / ops, "ms/op")
    closed = tracer.calls.get(CLOSED_FORM, 0)
    metrics[f"{CLOSED_FORM}.calls_per_point"] = (closed / points if points else 0.0,
                                                 "calls/point")
    metrics[f"{CLOSED_FORM}.distinct_share"] = (tracer.distinct / closed if closed else 0.0,
                                                "share")
    enum = tracer.calls.get(ENUMERATE, 0)
    metrics[f"{ENUMERATE}.regions"] = (tracer.regions / enum if enum else 0.0, "regions/call")
    metrics["cli.bytes_out"] = (bytes_out / ops, "B/op")
    # Set by the workloads that exercise them; 0 elsewhere.
    metrics["sweep.peak_alloc_kb"] = (0.0, "KiB")
    metrics["startup.import_numpy_ms"] = (0.0, "ms")
    metrics["startup.import_qbg_ms"] = (0.0, "ms")
    return metrics


def end_to_end(setups: list[float], samples: list[Sample], rss_kb: int, speeds=None) -> dict:
    """The end-to-end metrics; with ``speeds``, every time is first multiplied by
    the speed factor measured around it (``setups`` then pairs with ``speeds[0]``,
    ``samples`` with ``speeds[1]``)."""
    setup_f, sample_f = speeds or ([1.0] * len(setups), [1.0] * len(samples))
    setups = [t * f for t, f in zip(setups, setup_f)]
    latencies = [s.seconds * f for s, f in zip(samples, sample_f)]
    busy = sum(latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "points_per_s": (sum(s.outcome.records for s in samples) / busy, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


class Run:
    """One benchmark run of one workload."""

    probe_every_s = 0.05      # probe cadence, between operations
    probe_ref_ms = speed.PROBE_REF_MS

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, root: Path):
        self.name, self.seed, self.seconds, self.trace, self.root = name, seed, seconds, trace, root
        self.out_dir = root / ".qbgbench-out"
        self.work = self.out_dir / f"work-{name}-{seed}"
        self.samples: list[Sample] = []
        self.tracer = Tracer()
        self.probes: list[float] = []
        self.extra_metrics: dict = {}
        self.env = child_env(root)

    def execute(self, op: Op, traced: bool) -> Sample:
        raise NotImplementedError

    def record(self, op: Op, traced: bool) -> None:
        sample = self.execute(op, traced)
        sample.probe = len(self.probes) - 1
        self.samples.append(sample)
        if not sample.outcome.ok:
            label = "known-defect op" if sample.outcome.known_defect else "failed op"
            print(f"{label} [{op.kind}] {' '.join(op.argv)}: {sample.outcome.reason}",
                  file=sys.stderr)

    def probe_ms(self) -> float:
        return speed.probe_ms()

    def probe(self) -> None:
        self.probes.append(self.probe_ms())
        self.last_probe = perf_counter()

    def speed_at(self, index: int) -> float:
        """Speed factor from the probes just before and just after an interval."""
        return self.probe_ref_ms / statistics.mean(self.probes[index:index + 2])

    def go(self) -> dict:
        self.out_dir.mkdir(exist_ok=True)
        setups, setup_probes, ops = [], [], None
        for _ in range(SETUPS):
            self.cli = ops = None
            gc.collect()            # every set-up starts from the same heap
            self.probe()
            setup_probes.append(len(self.probes) - 1)
            self.cli, ops, seconds = set_up(self.make_ops, self.seed, self.work)
            setups.append(seconds)
        self.probe()
        for k in range(WARMUP_OPS):
            self.execute(ops[k % len(ops)], False)
        self.probe()
        deadline = perf_counter() + self.seconds
        k = 0
        while perf_counter() < deadline or k < 4:      # percentiles need samples
            op = ops[(WARMUP_OPS + k) % len(ops)]
            self.record(op, self.trace and k % 2 == 0)
            k += 1
            if perf_counter() - self.last_probe >= self.probe_every_s:
                self.probe()
        self.probe()
        if self.trace:
            self.after_trace(ops)
        shutil.rmtree(self.work, ignore_errors=True)
        return self.result(setups, [self.speed_at(i) for i in setup_probes])

    def after_trace(self, ops) -> None:
        pass

    def result(self, setups: list[float], setup_speeds: list[float]) -> dict:
        rss_kb = self.peak_rss_kb()
        samples = self.samples
        # An op that disagrees with the reference only through the seed's known
        # equilibria defect is counted and listed apart, not in ``failed``: the
        # result line's ``failed`` is ops that went wrong for any other reason.
        wrong = [s for s in samples if not s.outcome.ok]
        known = [s for s in wrong if s.outcome.known_defect]
        failed = [s for s in wrong if not s.outcome.known_defect]
        timed = [s for s in samples if not s.traced]
        factor = self.probe_ref_ms / statistics.median(self.probes)
        raw = end_to_end(setups, timed, rss_kb)
        metrics = end_to_end(setups, timed, rss_kb,
                             (setup_speeds, [self.speed_at(s.probe) for s in timed]))
        if self.trace:
            traced = [s for s in samples if s.traced]
            raw = layer_metrics(self.tracer, len(traced),
                                sum(s.outcome.records for s in traced),
                                sum(s.bytes_out for s in traced))
            raw.update(self.extra_metrics)
            raw["trace.overhead_ms"] = (
                (statistics.median(s.seconds for s in traced)
                 - statistics.median(s.seconds for s in timed)) * 1000, "ms")
            raw["check.failed_share"] = (len(failed) / len(samples), "share")
            raw["check.known_defect_share"] = (len(known) / len(samples), "share")
            metrics = {name: (value * factor if unit in ("ms", "ms/op") else value, unit)
                       for name, (value, unit) in raw.items()}
            self.tracer.write(self.out_dir / f"{self.name}-seed{self.seed}.spans.csv")
        report = {
            "workload": self.name, "seed": self.seed, "trace": self.trace,
            "attempted": len(samples), "failed": len(failed),
            "failed_share": len(failed) / len(samples),
            "known_defect": len(known),
            "known_defect_share": len(known) / len(samples),
            "failures": [s.outcome.reason for s in wrong],
            "samples_timed": len(timed),
            "samples_beyond_p90": sum(s.seconds * 1000 > raw["latency_p90_ms"][0]
                                      for s in timed) if not self.trace else None,
            "speed_factor": factor, "probe_ms": self.probes,
            "setup_s_all": setups,
            "latency_ms_all": [s.seconds * 1000 for s in timed],
            "raw": {k: v[0] for k, v in raw.items()},
            "metrics": {k: v[0] for k, v in metrics.items()},
        }
        (self.out_dir / f"{self.name}-seed{self.seed}-trace{int(self.trace)}.json").write_text(
            json.dumps(report, indent=1), encoding="utf-8")
        self.report = report
        return {"correct": not failed, "attempted": len(samples), "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class InProcessRun(Run):
    def execute(self, op: Op, traced: bool) -> Sample:
        if traced:
            self.tracer.install()
        try:
            code, out, err, seconds = run_in_process(self.cli.main, op.argv,
                                                     self.tracer if traced else None)
        finally:
            if traced:
                self.tracer.uninstall()
        return Sample(seconds, op.check(code, out, err), len(out.encode()), traced)


class SweepRun(InProcessRun):
    make_ops = staticmethod(sweep_ops)
    PEAK_OPS = 4

    def after_trace(self, ops) -> None:
        """tracemalloc peak per sweep op, on ops kept out of the timed samples."""
        peaks = []
        for op in ops[:self.PEAK_OPS]:
            tracemalloc.start()
            try:
                run_in_process(self.cli.main, op.argv)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        self.extra_metrics["sweep.peak_alloc_kb"] = (statistics.mean(peaks) / 1024, "KiB")


class CorpusRun(InProcessRun):
    make_ops = staticmethod(corpus_ops)


class ColdStartRun(Run):
    """Children are timed against a child probe: start-up is process creation,
    dynamic loading and unmarshalling, which an in-process probe does not see."""

    make_ops = staticmethod(cold_ops)
    probe_every_s = 1.0
    probe_ref_ms = speed.CHILD_PROBE_REF_MS

    def probe_ms(self) -> float:
        return speed.child_probe_ms(self.env)

    def __init__(self, *args):
        super().__init__(*args)
        self.imports: list[dict] = []
        self.child_rss_kb = 0          # largest ru_maxrss of an untraced qbg child

    def execute(self, op: Op, traced: bool) -> Sample:
        if not traced:
            code, out, err, seconds, rss_kb = run_child(self.root, self.work, self.env, op.argv)
            self.child_rss_kb = max(self.child_rss_kb, rss_kb)
            return Sample(seconds, op.check(code, out, err), len(out.encode()))
        stats_path = self.work / "child-stats.json"
        spans_path = self.work / "child-spans.csv"
        code, out, err, seconds, _ = run_child(self.root, self.work, self.env, op.argv,
                                               (stats_path, spans_path))
        times, err = import_times(err)
        self.imports.append(times)
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        for name, count in stats["calls"].items():
            self.tracer.calls[name] += count
        for name, value in stats["self_s"].items():
            self.tracer.self_s[name] += value
        self.tracer.distinct += stats["distinct"]
        self.tracer.regions += stats["regions"]
        self.tracer.op_id += 1
        with open(spans_path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                _, span, parent, name, start, end = line.rstrip("\n").split(",")
                self.tracer.spans.append((self.tracer.op_id, int(span),
                                          int(parent) if parent else None, name,
                                          float(start), float(end)))
        return Sample(seconds, op.check(code, out, err), len(out.encode()), True)

    def after_trace(self, ops) -> None:
        self.extra_metrics["startup.import_numpy_ms"] = (
            statistics.median(t["numpy_ms"] for t in self.imports), "ms")
        self.extra_metrics["startup.import_qbg_ms"] = (
            statistics.median(t["qbg_ms"] for t in self.imports), "ms")

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb


WORKLOADS = {"sweep-grid": SweepRun, "spec-corpus": CorpusRun, "cold-start": ColdStartRun}
