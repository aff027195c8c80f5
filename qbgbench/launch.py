"""Run ``qbg.cli.main`` under the span tracer, as ``python -m qbg`` would.

Usage: python launch.py STATS_PATH SPANS_PATH qbg-arguments...

The tracer is installed after ``import qbg.cli`` and before ``main`` runs;
per-layer counts go to STATS_PATH (JSON) and the spans to SPANS_PATH when
the command returns.  The exit code is qbg's.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    stats_path, spans_path, *argv = sys.argv[1:]
    import qbg.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_op(qbg.cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"calls": tracer.calls, "self_s": tracer.self_s,
                       "distinct": tracer.distinct, "regions": tracer.regions}, fh)
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
