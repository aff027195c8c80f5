"""A fixed speed probe, to take host speed drift out of the timings.

On a shared host the same work can run at very different speeds from one
minute to the next, in CPU time as well as wall time.  Each run therefore
takes this probe between its operations (outside the timed calls; before
and after every operation that lasts 50 ms or more, and every 50 ms
otherwise) and multiplies each operation's time by
``PROBE_REF_MS / mean(probe just before, probe just after)``: figures then
read as if measured on a host where the probe takes PROBE_REF_MS.  The probe
is benchmark code plus numpy and never touches qbg, so a change to qbg cannot
move it; its mix of tiny numpy calls, small-object Python work and number
formatting is the mix that dominates qbg's operations.  Workloads made of
child processes use ``child_probe_ms`` instead.  Raw figures are kept beside
the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import numpy as np

PROBE_REF_MS = 3.5          # near the probe's median in runs on the 2-core baseline host
CHILD_PROBE_REF_MS = 150.0  # the same for ``python -c "import numpy"``
_ROUNDS = 24
_STATE = np.sqrt(np.array([0.5, 0.2, 0.2, 0.1])).astype(complex)
_FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
_IDENT = np.eye(2)
_VEC = np.array([0.0, -2.0, 1.0, -1.0])


def probe_ms() -> float:
    """Milliseconds for one fixed batch of probe work."""
    start = perf_counter()
    total = 0.0
    for k in range(_ROUNDS):
        ops = (np.kron(_IDENT, _IDENT), np.kron(_FLIP, _IDENT),
               np.kron(_IDENT, _FLIP), np.kron(_FLIP, _FLIP))
        rows = np.array([np.abs(op @ _STATE) ** 2 for op in ops])
        r = rows @ _VEC
        total += float(r[0] - r[1] - r[2] + r[3])
        text = f"{total:.12g},{k / 7:.12g},{float(Fraction(k, 7) + Fraction(1, 3)):.6g}"
        total += len(text.split(","))
    return (perf_counter() - start) * 1000


def child_probe_ms(env: dict) -> float:
    """Milliseconds for a child ``python -c "import numpy"``: interpreter start-up
    plus a large third-party import, the bulk of a qbg cold start."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   capture_output=True, timeout=60)
    return (perf_counter() - start) * 1000
