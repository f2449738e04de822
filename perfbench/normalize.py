"""Machine-speed normalization of the benchmark's timings.

On a shared machine the same work can take up to twice as long from
one minute to the next, because other tenants contend for the cores.
On a 2-core Xeon VM, a fixed numpy loop timed once a second ranged
from 0.72 s to 1.09 s within half a minute. The medians of 20-second
windows of fasdnet training differed by up to 45%. Process CPU time
drifts the same way, so it does not help.

A SIGALRM timer therefore cuts timed work into segments of about
SEGMENT_S. After each segment a fixed reference kernel runs. The kernel
is a small numpy training step plus Python float arithmetic and
float-to-text formatting, the mix of numpy dispatch and interpreter
work that fasdnet spends its time on. A segment's normalized time is
its wall time times REFERENCE_S over the mean duration of the kernel
runs on either side. That is the time in seconds the segment would
take on a machine where the kernel takes REFERENCE_S.

Segments must be short. Normalizing only at the two ends of a
16-second sweep removed less than half of the drift. The timer cuts
wherever the program happens to be, so the cut points do not depend on
how fasdnet is structured. The kernel runs in the signal handler,
between two Python bytecodes, and its own time is left out of the
segments.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.012  # about the kernel's time on a quiet 2-core Xeon VM, so normalized ≈ raw there
SEGMENT_S = 0.5


class Stopwatch:
    """Times work in segments, each normalized by the kernel runs
    before and after it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((98, 20))
        self._w1 = rng.standard_normal((20, 100))
        self._w2 = rng.standard_normal((100, 2))
        self._running = False
        self._kernel_s = 0.0  # total time spent in the kernel

    def work_clock(self) -> float:
        """A clock that stands still while the kernel runs."""
        return time.perf_counter() - self._kernel_s

    def _reference(self) -> float:
        start = time.perf_counter()
        for _ in range(100):
            z = self._x @ self._w1
            h = np.where(z > 0.0, z, 0.01 * z)
            delta = (h @ self._w2) / 98.0
            self._w2 - 0.001 * (h.T @ delta)
        cells = []
        for i in range(2500):
            v = math.sqrt(-2.0 * math.log((i + 1) / 2501.0)) * math.cos(0.001 * i)
            cells.append(repr(v))
        ",".join(cells).split(",")
        elapsed = time.perf_counter() - start
        self._kernel_s += elapsed
        return elapsed

    def normalize(self, seconds: float) -> float:
        """Scale a wall time measured just before this call. The median
        of three kernel runs discards a first run's one-off BLAS set-up."""
        kernel_s = statistics.median(self._reference() for _ in range(3))
        return seconds * REFERENCE_S / kernel_s

    def measure(self, fn, *args):
        """Call fn(*args); returns (result, raw seconds, normalized seconds)."""
        self._start()
        try:
            result = fn(*args)
        finally:
            raw, norm = self._stop()
        return result, raw, norm

    def _start(self) -> None:
        self._raw_s = self._norm_s = 0.0
        self._before = self._reference()
        self._t = time.perf_counter()
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def _on_alarm(self, signum, frame) -> None:
        if self._running:  # an alarm delivered just before _stop() is dropped
            self._split()
            signal.setitimer(signal.ITIMER_REAL, SEGMENT_S)

    def _split(self) -> None:
        segment = time.perf_counter() - self._t
        after = self._reference()
        self._raw_s += segment
        self._norm_s += segment * REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        self._t = time.perf_counter()

    def _stop(self) -> tuple[float, float]:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._split()
        return self._raw_s, self._norm_s
