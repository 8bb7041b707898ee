"""Correction of measured times for the machine's drifting speed.

On a shared machine the speed of the CPU can change by a factor of 1.5 or
more, for stretches from under a second to tens of seconds, longer than a
benchmark run can average out.  A fixed kernel that runs no helmscat code is
timed before and after every timed interval, and the interval is scaled by
the kernel's reference time over its measured time: the result is the
interval's length in seconds at the reference speed.  The raw wall times are
printed beside the corrected ones.

The kernel mixes interpreted Python with a NumPy FFT, as helmscat's
operations do; it uses numpy.fft, which no scipy.fft setting reaches.
"""

from __future__ import annotations

import time

LOOP_N = 12_000
FFT_SHAPE = (32, 32, 32)
# the kernel's time at the reference speed, about its fastest time on the
# machine the benchmark was defined on
REFERENCE_S = 1.05e-3
REPEATS = 3
WARMUP_S = 0.05


class SpeedProbe:
    """Times the kernel (a Python loop and a complex FFT of FFT_SHAPE),
    which takes REFERENCE_S at the reference speed; ``scale`` turns an
    interval measured between two probes into seconds at that speed."""

    def __init__(self):
        import numpy
        self._fftn = numpy.fft.fftn
        self._a = numpy.ones(FFT_SHAPE, dtype=complex)
        self.samples: list[float] = []
        # the first runs are slower: they plan the transform and wake the CPU
        t_end = time.perf_counter() + WARMUP_S
        while time.perf_counter() < t_end:
            self._kernel()

    def _kernel(self):
        s = 0
        for i in range(LOOP_N):
            s += i * i
        self._fftn(self._a)
        return s

    def __call__(self) -> float:
        """Fastest of REPEATS kernel runs, in seconds."""
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t)
        self.samples.append(best)
        return best

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * REFERENCE_S / (0.5 * (before + after))
