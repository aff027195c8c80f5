"""Benchmark entry point.

    python3 qbgbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qbg source tree; qbg is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Failed operations,
and operations hit by qbg's one known defect (counted apart, not in
``failed``), are listed on standard error, and a report with the raw
figures goes to ``.qbgbench-out/``.

    python3 qbgbench/run.py --all [--seed N] [--seconds S]

runs every workload once and prints each end-to-end metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qbg" / "cli.py").is_file():
        print(f"error: no qbg sources at {ROOT / 'src' / 'qbg'}; run from a qbg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.all:
        for name, workload in WORKLOADS.items():
            workload_run = workload(name, args.seed, args.seconds, False, ROOT)
            result = workload_run.go()
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"known_defect_share={workload_run.report['known_defect_share']:.6f}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        return 0

    run = WORKLOADS[args.workload](args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    result = run.go()
    print(json.dumps({key: run.report[key] for key in ("raw", "speed_factor", "failed_share",
                                                       "known_defect_share")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
