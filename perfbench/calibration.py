"""Machine speed, from fixed probes timed between operations.

On a virtual machine whose host is shared, as the 2-vCPU Xeon the reference
figures come from, speed drifts by up to half from one minute to the next,
so the same run can take 1.5x as long an hour later.  A fixed probe is timed between operations and each operation's wall
time is scaled by ``reference / probe time``, with the median of the probes
nearest to it.  Two probes, each matched to the work it calibrates:

- ``loop``: small numpy calls and Python-level work in this process, the mix
  of discoh's in-process operations;
- ``process``: a fresh interpreter importing numpy, the mix of a CLI command
  or a set-up (process start, imports from disk).

The probes use nothing from discoh, so a change to the program moves the
scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Probe times when the host is quiet (2-vCPU Xeon, 2.0 GHz; Python 3.11,
# numpy 2.4), so scaled times read as times on that machine.
REFERENCE_S = {"loop": 0.005, "process": 0.2}
# Probe at most this often, and take the median of this many probes.
EVERY_S = 0.05
WINDOW = 5

_RNG = np.random.default_rng(0)
_G = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_M = _G @ _G.conj().T
_M /= np.trace(_M).real


def loop() -> None:
    acc = 0.0
    for i in range(120):
        w = np.linalg.eigvalsh(_M + (i * 1e-4) * np.eye(6))
        t = np.einsum("ijkj->ik", _M.reshape(2, 3, 2, 3))
        w = np.clip(w, 0.0, None)
        acc += float(-np.dot(w[w > 0], np.log2(w[w > 0]))) + abs(t[0, 0])
        acc += {"i": i}["i"] * 1e-12


def process() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


class Speed:
    """Timings of one probe, and the scale factor around a moment."""

    def __init__(self, probe: str = "loop"):
        self.probe = {"loop": loop, "process": process}[probe]
        self.reference = REFERENCE_S[probe]
        self.times: list[float] = []     # when each probe ended
        self.samples: list[float] = []   # how long it took
        self.refresh()

    def refresh(self) -> None:
        """Time the probe, unless the last one ended under EVERY_S ago."""
        if self.times and perf_counter() - self.times[-1] < EVERY_S:
            return
        t0 = perf_counter()
        self.probe()
        t1 = perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def factor(self, at: float) -> float:
        """reference / median of the WINDOW probes nearest to time ``at``."""
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - WINDOW // 2, len(self.samples) - WINDOW))
        return self.reference / statistics.median(self.samples[lo:lo + WINDOW])
