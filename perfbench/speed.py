"""The machine's current speed, from a fixed reference kernel.

On the shared 2-vCPU VM this benchmark was built on, one thread's speed
changes by up to 1.8x, in stretches from a fraction of a second to minutes,
with other tenants' load on the sibling hardware thread.  The closed loop
therefore runs `kernel` between operations, at most every CADENCE_S, and
divides each operation's time by its speed factor: the mean of the kernel
times just before and just after it, over KERNEL_REF_S.  The
kernel is interpreter-bound small-array numpy work, like the replication
engine and the quadrature callbacks, so it slows with them; the gated
timings then read as seconds at the reference speed and move with the
program, not with the neighbours.  The raw timings are printed beside them.

The kernel must run while the program is idle: `closed_loop` fails an
operation that leaves a thread or a child process running.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

KERNEL_REF_S = 0.0004  # kernel time at the reference speed
CADENCE_S = 0.025
_DATA = np.arange(20.0)[::-1].copy()


def kernel() -> float:
    total = 0.0
    for i in range(60):
        s = np.sort(_DATA)
        total += float((s[1:] - s[:-1]).sum()) + math.log(i + 1.0)
    return total


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.marks: list[int] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Median of three kernel runs, if CADENCE_S has passed since the last sample."""
        if not force and time.perf_counter() - self._last < CADENCE_S:
            return
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(runs))
        self._last = time.perf_counter()

    def mark(self) -> None:
        """Call right before a timed operation, after `sample`."""
        self.marks.append(len(self.samples))

    def factors(self) -> list[float]:
        """Speed factor of each marked operation; above 1 means slower than the reference."""
        out = []
        for k in self.marks:
            after = self.samples[k] if k < len(self.samples) else self.samples[k - 1]
            out.append((self.samples[k - 1] + after) / 2.0 / KERNEL_REF_S)
        return out
