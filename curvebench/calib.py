"""Calibration kernel and drift correction.

The machine's own speed drifts by more than the effects the benchmark must
resolve, so every timed quantity is divided by a calibration time taken in
the same process right before and right after it.  The kernel does integer
arithmetic only, allocates no object the cyclic garbage collector tracks,
and runs with the collector off, so its speed reflects the machine and not
the heap an operation left behind.
"""

from __future__ import annotations

import gc
import time

# One repetition takes about 3.5 ms on a 2-core x86-64 sandbox (Python 3.11).
KERNEL_STEPS = 20_000
REPETITIONS = 5


def _kernel(steps: int) -> int:
    x = 1
    for _ in range(steps):
        x = (x * 48271) % 2147483647
    return x


def calibrate(steps: int = KERNEL_STEPS, repetitions: int = REPETITIONS) -> float:
    """Median wall time in seconds of one kernel repetition, collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            _kernel(steps)
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


def correct(raw: float, reference: float, *calibrations: float) -> float:
    """Scale a raw duration to reference machine speed.

    ``calibrations`` are the kernel times measured around the quantity; their
    mean stands for the machine's speed while it ran.  A machine running at
    half speed doubles both the quantity and the kernel, so the ratio holds.
    """
    if not calibrations or min(calibrations) <= 0:
        raise ValueError("drift correction needs positive calibration times")
    return raw * reference / (sum(calibrations) / len(calibrations))
