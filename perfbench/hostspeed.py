"""Host speed, sampled by timing a fixed pure-Python kernel between ops.

On a shared 2-vCPU host, the same compile measured 37 ms in one minute and
96 ms a few minutes later.  Thread CPU time moved with wall time, so the
cause is contention from other tenants, not steal, and a longer run does
not average it out: the slow and fast phases last minutes.  So the
benchmark samples the host's speed while it measures.  Every
:data:`SAMPLE_EVERY_S` seconds it times :func:`kernel`, which is this
file's own code and does not touch the program under test.  The
end-to-end times are then scaled to a host on which the kernel takes
:data:`REFERENCE_S`.  A change to the program moves the scaled times as
it moves the raw ones; a change in the host's speed mostly cancels.  The
run record keeps the raw figures and the slowdown next to them.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: seconds one kernel call takes on the reference host: the median on
#: the 2-vCPU Intel Xeon (2.0 GHz) host the bounds were set on, while
#: other tenants were quiet
REFERENCE_S = 0.00055

#: how the kernel's time tracks the workloads': when the host slows the
#: workloads by a factor f, the kernel slows by about f ** (1 / EXPONENT).
#: The kernel reacts more strongly to contention than the workloads do,
#: and by how much varies: fits per workload over 20 runs on that host
#: gave 0.34 (``edit_recompile``) to 0.89 (``sim_warm``).  0.6 gave the
#: smallest worst-case spread over those runs.
EXPONENT = 0.6

SAMPLE_EVERY_S = 0.25

#: samples nearest to an op that set its slowdown
NEAREST = 7


def kernel() -> int:
    """Fixed interpreter-bound work: dict, tuple and str churn."""
    d: dict = {}
    acc = 0
    for i in range(2000):
        k = ("k", i % 257)
        d[k] = d.get(k, 0) + i
        acc += len(str(i)) * (i & 7)
    return acc


class HostSpeed:
    """Kernel timings over a run, and the slowdown they imply."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.secs: list[float] = []  # the kernel's time then
        self.costs: list[float] = []  # seconds each sample took

    def sample(self) -> None:
        """Time the kernel three times back to back and keep the fastest,
        which drops one-off stalls."""
        t0 = time.perf_counter()
        best = min(self._once() for _ in range(3))
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.secs.append(best)
        self.costs.append(t1 - t0)

    @staticmethod
    def _once() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    def maybe_sample(self) -> None:
        if not self.times or \
                time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def slowdown_at(self, t: float) -> float:
        """The slowdown implied by the median kernel time over the
        :data:`NEAREST` samples closest to ``t``."""
        i = bisect.bisect(self.times, t)
        window = range(max(0, i - NEAREST), min(len(self.times), i + NEAREST))
        near = sorted(window, key=lambda j: abs(self.times[j] - t))[:NEAREST]
        return _slowdown(statistics.median(self.secs[j] for j in near))

    def scaled_seconds(self, t0: float, t1: float) -> float:
        """The wall time in ``[t0, t1]`` less the time spent sampling,
        each stretch divided by the slowdown around it."""
        total, t = 0.0, t0
        while t < t1:
            dt = min(SAMPLE_EVERY_S, t1 - t)
            total += dt / self.slowdown_at(t + dt / 2)
            t += dt
        return total - sum(c / self.slowdown_at(t)
                           for t, c in zip(self.times, self.costs)
                           if t0 <= t <= t1)

    def slowdown_between(self, t0: float, t1: float) -> float:
        """Median over the samples taken in ``[t0, t1]``."""
        inside = [s for t, s in zip(self.times, self.secs) if t0 <= t <= t1]
        if not inside:
            return self.slowdown_at((t0 + t1) / 2)
        return _slowdown(statistics.median(inside))


def _slowdown(kernel_s: float) -> float:
    return (kernel_s / REFERENCE_S) ** EXPONENT
