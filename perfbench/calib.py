"""Host speed reference: a fixed piece of work timed between operations.

On a shared host the speed of a core drifts by tens of percent over minutes,
longer than a run, so two runs of the same code can differ by more than any
useful bound.  Each run therefore times reference work that uses none of the
library alongside its timed operations (the time it takes is never counted
as operation time), and the gated operation times are rescaled to the host's
nominal speed:

    reported time = measured time * nominal / reference time

A change to the library moves the measured time and not the reference, so it
shows in full; a slow spell of the host moves both and cancels.  Two references
(``KINDS``): in-process work for the in-process workloads, and a fresh
interpreter for the cli workload, whose slow spells differ.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

import numpy as np

#: Nominal times: a typical reference time on the host the benchmark was
#: defined on (2 vCPUs, Intel Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread).
KINDS = {
    # in-process workloads: interpreted complex arithmetic and small numpy
    # contractions, run by an interval timer every ``period_s`` inside the
    # timed operations and taken back out of their times
    "compute": {"nominal_s": 0.0008, "period_s": 0.05},
    # the cli workload: a fresh interpreter that imports numpy and runs a
    # dense SVD, the steps a cold library call goes through; run between
    # calls for ``share`` of their time, counted in nominal time
    "spawn": {"nominal_s": 0.20, "share": 0.10},
}
SPAWN_CODE = (
    "import numpy as np; "
    "np.linalg.svd(np.random.default_rng(0).standard_normal((300, 300)))"
)

_G = (np.arange(6 * 6 * 6, dtype=complex).reshape(6, 6, 6) + 1j) / 216
_M = np.eye(6, dtype=complex) + 0.01j * np.ones((6, 6))
_MINV = np.linalg.inv(_M)


def _compute() -> None:
    acc = 0j
    seen = {}
    for i in range(300):
        z = complex(i % 7 + 1, i % 5)
        acc += z * z.conjugate() / (1 + abs(z))
        seen[(i % 64, "slot")] = (z, acc)
    g = np.einsum("ai,bj,abl,kl->ijk", _M, _M, _G, _MINV)
    np.linalg.solve(_M, g[0])
    float(np.max(np.abs(g)))


class Sampler:
    """Compute references run inside the timed region by an interval timer.

    Within ``with sampler:`` a timer interrupts the main thread every
    ``period_s`` and the handler runs one reference, so the samples follow
    the host's speed through operations of any length.  ``taken(t0, t1)``
    gives the reference seconds that fell between two clock readings, for
    the caller to take back out of its timing.
    """

    def __init__(self):
        self.times: list[float] = []
        self._spans: list[tuple[float, float]] = []
        self._next = 0
        self._old = None

    def __enter__(self):
        period = KINDS["compute"]["period_s"]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _compute()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self._spans.append((t0, t1))

    def taken(self, t0: float, t1: float) -> float:
        """Reference seconds run between ``t0`` and ``t1``; call in time order."""
        total = 0.0
        while self._next < len(self._spans) and self._spans[self._next][0] < t1:
            start, end = self._spans[self._next]
            if start >= t0:
                total += end - start
            self._next += 1
        return total

    def after(self, seconds: float) -> None:
        """Nothing to do between operations: the timer takes the samples."""


class Spawns:
    """Spawned references, run between operations.

    ``after(seconds)`` is called after each timed operation; once the
    operations have added up to ``nominal_s / share`` seconds, one reference
    runs, so the references spread over the run like the operations do.
    """

    def __init__(self):
        self.times: list[float] = []
        self._owed = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def taken(self, t0: float, t1: float) -> float:
        return 0.0

    def after(self, seconds: float) -> None:
        k = KINDS["spawn"]
        self._owed += k["share"] * seconds
        while self._owed >= k["nominal_s"] or not self.times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True,
                           stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - t0)
            self._owed -= k["nominal_s"]


REFERENCES = {"compute": Sampler, "spawn": Spawns}


def factor(kind: str, times: list[float]) -> float:
    """Nominal over measured host speed: multiply a measured time by it."""
    return KINDS[kind]["nominal_s"] / statistics.mean(times)
