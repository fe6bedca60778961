"""Host CPU speed, sampled while a measurement runs.

On a shared host the speed of this process can change by half within a
second: on the 2-core sandbox where the baseline was measured, a fixed
kernel took 0.21 s or 0.35 s depending on the moment, and the same
benchmark unit took 12 s or 18 s twenty minutes apart. So a timed block can
run a sampler: a SIGALRM timer times a fixed kernel every PERIOD_S. A
block's reference seconds are its wall seconds, less the sampler's own
time, times the mean of the kernel's reference seconds over its sampled
seconds.

Which kernel tracks a block depends on the block's kind of work. Over seven
minutes of repeating the same units on that host:
  - "numpy" (150 dot products of 10-vectors) tracked the learning units,
    which are per-label Python around small numpy calls: the unit time
    scaled with it with exponent 1.06 (ladder) and 1.07 (sparse), and the
    scaled times varied by 3.5% and 2.6% (coefficient of variation).
  - "python" (a pure integer loop) under-corrected them: exponent 1.37,
    variation 7.3% and 6.6%. It needs no numpy, so it times set-up, which
    imports numpy.
  - No kernel tracked 1e6-row numpy batches (exponents 0.0-0.5), which are
    steadier unscaled (5.7%) than scaled by any kernel (9-13%). For those
    blocks pass kernel=None: no sampler runs and reference seconds are wall
    seconds.
"""

import signal
import statistics
import time

PERIOD_S = 0.05


def _python_kernel():
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc = (acc + i * 2654435761) % 1000003
    return time.perf_counter() - t0


def _numpy_kernel():
    import numpy as np  # already loaded whenever this kernel is chosen

    v = np.ones(10)
    w = np.arange(10.0)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        acc += float(v @ w)
    return time.perf_counter() - t0


# kernel, and its seconds at the reference speed (about the faster state there)
KERNELS = {"python": (_python_kernel, 0.00025), "numpy": (_numpy_kernel, 0.00022)}


class HostSpeed:
    """Context manager: times the block and samples the host speed inside it."""

    def __init__(self, kernel="python"):
        self.kernel, self.reference_s = KERNELS[kernel] if kernel else (None, None)

    def __enter__(self):
        self.samples = []
        if self.kernel is not None:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.t0 = time.perf_counter()
        if self.kernel is not None:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _on_alarm(self, signum, frame):
        self.samples.append(self.kernel())

    def __exit__(self, *exc):
        if self.kernel is None:
            self.wall_s = self.busy_s = self.ref_s = time.perf_counter() - self.t0
            self.speed = 1.0
            return False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self._previous)
        self.busy_s = self.wall_s - sum(self.samples)  # without the sampler's own time
        if not self.samples:  # a block shorter than one period
            self.samples.append(self.kernel())
        self.speed = statistics.fmean(self.reference_s / k for k in self.samples)
        self.ref_s = self.busy_s * self.speed
        return False
