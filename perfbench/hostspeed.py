"""Host-speed calibration: a fixed pure-Python kernel timed during each op.

A shared host changes speed when its other tenants load it: on the
2-core VM this benchmark was built on, the same op took 90 ms in one
minute and 170 ms in the next, and the wall time of a 30-second run
moved its median op by 25-40% from run to run.  So the worker times
KERNEL right before and after every op and, from a SIGALRM handler in
the main thread, every PERIOD_S while the op runs; the op's wall time
(less the handler's own time) is scaled to the reference speed, at
which KERNEL takes REF_KERNEL_S:

    scaled = wall * REF_KERNEL_S / median(kernel times during and around the op)

The kernel is benchmark code, so a change to blockstat does not move it;
a change that makes blockstat faster lowers the scaled times as much as
the wall times.  The kernel is an interpreter loop, like the loops that
dominate blockstat's ops, so the two slow down together: on that VM the
scaled time of a repeated 3-second Beta solve varied by 4% (coefficient
of variation) where its wall time varied by 9%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass

# Seconds KERNEL takes at the reference speed; on the VM named above it
# took 0.40-0.68 ms, depending on the load of the host.
REF_KERNEL_S = 0.5e-3
REPS = 3  # kernel runs before and after an op; their median is taken
PERIOD_S = 0.05  # kernel samples while an op runs: 1% of its time


def kernel() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        acc += (i * 7) % 13
        table[i & 63] = acc
    return acc


def kernel_s() -> float:
    """Median wall time of REPS runs of the kernel."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(wall_s: float, kernel_times: list[float]) -> float:
    """Wall seconds at the reference speed, given kernel times taken meanwhile."""
    return wall_s * REF_KERNEL_S / statistics.median(kernel_times)


@dataclass
class Timing:
    wall_s: float  # the op alone, without the sampler's time
    scaled_s: float
    kernel_s: float  # median kernel time during and around the op


def wall_time(fn):
    """Run fn() unscaled; returns what Sampler.time does (no kernel times)."""
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # the caller counts it as a failed op
        out, err = None, exc
    wall = time.perf_counter() - t0
    return out, err, Timing(wall, wall, math.nan)


class Sampler:
    """Times the kernel every PERIOD_S of wall time while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """Run fn(); return (its result or None, the exception or None, Timing)."""
        before = kernel_s()
        n0, spent0 = len(self.samples), self.spent_s
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # the caller counts it as a failed op
            out, err = None, exc
        wall = time.perf_counter() - t0 - (self.spent_s - spent0)
        during = self.samples[n0:]
        kernels = [before, *during, kernel_s()]
        return out, err, Timing(wall, scale(wall, kernels), statistics.median(kernels))
