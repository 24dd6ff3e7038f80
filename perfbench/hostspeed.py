"""Host speed: how long a fixed piece of work takes right now.

The benchmark's times are scaled to a reference host speed. Each op is timed
next to ``calibrate`` and each set-up next to ``calibrate_loop``, fixed pieces
of work that use nothing of the program, and its time is multiplied by a
reference time over the mean of those calibrations. On a shared host whose
speed drifts, the op and the fixed work slow down together, so the scaled time
moves much less than the raw one. The raw times are printed as well.

The host can switch speed within a second, so a long op is not well served by
measurements taken only before and after it. ``Sampler`` therefore also runs
the fixed work from a timer signal every ``INTERVAL_S`` while an op runs, in
the op's own thread, and keeps the time it took so that it can be taken off
the op's latency.

On the machine the benchmark was written on, a slowdown stretched small
numpy calls more than a pure-Python loop. The ops, which are mostly the
solver's small numpy calls, followed a mix of the two; the set-up, which is
mostly running module code, followed the loop alone.
"""

from __future__ import annotations

import signal
import time

# What ``calibrate`` and ``calibrate_loop`` take on the machine the baseline
# was measured on, at its usual speed, so that scaled times read as that
# machine's seconds.
REFERENCE_S = 0.0004
SETUP_REFERENCE_S = 0.00023
INTERVAL_S = 0.05
REPEATS = 2

_work = None


def _arrays():
    global _work
    if _work is None:
        import numpy as np  # here, so that the parent process, which only scales, never loads numpy

        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40))
        a = a @ a.T + 40.0 * np.eye(40)
        _work = (np, a, rng.standard_normal((40, 8)))
    return _work


def _loop() -> None:
    s = 0
    for i in range(3000):
        s += i * i % 7


def _fastest(work) -> float:
    """Seconds ``work`` takes: the fastest of ``REPEATS`` runs, which drops most interrupts."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def calibrate() -> float:
    """Seconds the fixed work takes: the loop and six small numpy solves."""
    np, a, b = _arrays()

    def work():
        _loop()
        for _ in range(6):
            y = a @ np.linalg.solve(a, b)
            np.maximum(y, 0.0).sum()

    return _fastest(work)


def calibrate_loop() -> float:
    """Seconds the loop alone takes; it needs no numpy, so it can run while set-up imports it."""
    return _fastest(_loop)


class Sampler:
    """Calibrates every ``INTERVAL_S`` seconds of wall time while the ``with`` block runs.

    The calibrations run from ``SIGALRM`` in the main thread, between the
    block's own bytecodes. ``samples`` holds their results and ``busy_s`` the
    time they took, which the block's wall time includes.
    """

    def __init__(self, work=calibrate):
        self.work = work

    def __enter__(self) -> "Sampler":
        self.work()  # warm-up, outside the block
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.work())
        self.busy_s += time.perf_counter() - start


def scale(seconds: float, calibration_s: float, reference_s: float = REFERENCE_S) -> float:
    """``seconds`` as it would read at the reference host speed."""
    return seconds * reference_s / calibration_s
