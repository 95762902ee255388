"""A fixed numpy kernel timed between trials, to scale timings to one host speed.

The 2-vCPU host the bounds were set on runs for minutes at a time in a
fast or a slow regime, about 1.5x apart, whatever this process does; no
run length averages that out. So the benchmark times a probe, a fixed
kernel shaped like the pipeline's work (complex matmul, a small least
squares, FFTs), before each stretch of work, and scales a trial's wall
time by `REF_S` over the mean of the probes just before and just after
it. A scaled time is the time the trial would take on a host that runs
the probe in `REF_S`; raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# the probe's time on the reference host, about its median there
REF_S = 0.020

# the longest stretch of trials between two probes
EVERY_S = 0.5


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((1184, 200)) + 1j * rng.standard_normal((1184, 200))
        self._x = rng.standard_normal((4, 12000)) + 1j * rng.standard_normal((4, 12000))
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(6):
            self._a.conj().T @ self._a[:, :10]
            np.linalg.lstsq(self._a[:, :10], self._a[:, 10:20], rcond=None)
            np.fft.fft(self._x, axis=1)
        self.at.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """REF_S over the mean of the last probe before `start` and the first after.

        Needs a probe taken before the interval and one taken after it.
        """
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, start + seconds)
        return REF_S / ((self.seconds[before] + self.seconds[after]) / 2)
