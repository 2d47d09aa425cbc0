"""Host speed calibration: timings scaled to a nominal host.

The benchmark host, a 2-core VM, runs the same code at changing speed: a
10 ms pure-Python kernel takes from about 1x to 1.6x its fastest time,
switching within a second and drifting over minutes, so repeated runs of
a 30 s workload differ by up to 25%.  The kernel is timed between ops every
CALIBRATE_EVERY_S seconds, and a timing over [start, end] is multiplied by
REFERENCE_MS over the kernel times taken within WINDOW_S of the interval:
seconds on a host where the kernel takes REFERENCE_MS.  An op reports its
fastest pass, so it is scaled by a fast kernel time near it: the lower
quartile, which tracked the host's drift between runs better than the
fastest or the median kernel time did (on series and cli, 6 seeds each,
the spread of every end-to-end metric roughly halved against the fastest).
A set-up is timed once, through the host's changes, so it is scaled by
their mean.
The kernel does not touch the package, so no change to the package moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_MS = 10.0  # the kernel on a 2-core Xeon at 2.1 GHz, in its fast state
CALIBRATE_EVERY_S = 0.25
WINDOW_S = 2.0


def kernel_ms() -> float:
    """One run of the reference kernel, in milliseconds."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(100000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    return (time.perf_counter() - start) * 1e3


class HostClock:
    """Calibrations taken between ops; see the module docstring."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.kernel.append(kernel_ms())
        self.times.append(time.perf_counter())

    def tick(self) -> None:
        """Calibrate if one is due."""
        if time.perf_counter() - self.times[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def finish(self) -> None:
        """Calibrate through the window after the last timing."""
        stop = time.perf_counter() + WINDOW_S
        while time.perf_counter() < stop:
            self.sample()
            time.sleep(CALIBRATE_EVERY_S / 2)

    def scale(self, start: float, end: float, mean: bool) -> float:
        """Factor from this host to the nominal one for a timing over
        [start, end], by the lower quartile or the mean of the kernel times
        near it; call after finish()."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = sorted(self.kernel[lo:hi] or self.kernel)
        return REFERENCE_MS / (statistics.fmean(near) if mean else near[len(near) // 4])

    def speed(self) -> float:
        """Median host speed relative to the nominal host (1.0 = nominal)."""
        return REFERENCE_MS / statistics.median(self.kernel)
