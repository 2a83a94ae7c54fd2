"""Machine-speed calibration.

On a shared machine the same pass can take 60% longer from one minute to
the next, because of what other tenants run.  Between items the benchmark
times a fixed kernel with the workloads' mix: banded solves stepped from
Python, as in the Crank-Nicolson loops, vector steps on thousands of
values, as in the Monte Carlo loop, and an operator filled element by
element from Python, as in operator assembly.  Times are reported scaled
by REFERENCE_S / (median kernel time): seconds on a machine that runs the
kernel in REFERENCE_S.  The host's speed swings within seconds, so each
item is scaled by the ITEM_NEAREST samples nearest to it in time (one is
taken before nearly every item), and each pass by its items' scales,
weighted by their times.  An import probe times the kernel PROBE_SAMPLES
times in its own process, right after the import: its speed follows the
core it runs on, which the run's samples do not see.  On a shared 2-core
Xeon host, a 0.37 s PDE solve repeated for a minute had a spread
(interquartile range over median) of 0.47 raw, 0.47 scaled by the
minute's kernel median, and 0.08 scaled by its nearest samples.  The raw
times stay in the run record.

The kernel does not call killdiff, but anything the package leaves running
(threads, a busy worker pool) would slow the kernel and so shrink the
reported times.  The kernel is therefore also timed before killdiff is
imported; the run records and prints the ratio of the in-run and of the
import probes' medians to that baseline, and warns above DRIFT_WARN.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional

REFERENCE_S = 0.010  # about the kernel's time on the host named above
INTERVAL_S = 0.1  # at most one kernel sample per this much run time
BASELINE_SAMPLES = 9
ITEM_NEAREST = 6  # fewest kernel samples a span's scale is taken from
PROBE_SAMPLES = 5  # kernel samples after the import in each import probe
# kernel median over the baseline above which the run warns that the
# calibration moved; host load alone moved it between 0.56 and 1.79
DRIFT_WARN = 2.0


def kernel() -> float:
    """Run the fixed kernel once and return its duration: banded solves
    stepped from Python on 400 unknowns, as the Crank-Nicolson loops do;
    vector steps on 8,000 values, as the Monte Carlo loop does; and a
    tridiagonal operator on 800 nodes filled element by element from
    Python, as operator assembly does.  The assembly takes about half the
    time, the vector steps a third and the solves the rest."""
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.empty((3, 400))
    ab[0], ab[1], ab[2] = -0.25, 1.5, -0.25
    u = np.ones(400)
    rng = np.random.Generator(np.random.Philox(key=7))
    x = np.zeros(8000)
    h = np.full(800, 1.0 / 800)
    t0 = time.perf_counter()
    for _ in range(25):
        rhs = 0.5 * u
        rhs[:-1] += 0.25 * u[1:]
        rhs[1:] += 0.25 * u[:-1]
        u = solve_banded((1, 1), ab, rhs, check_finite=False)
    for _ in range(10):
        x = x + 0.05 * rng.standard_normal(x.size)
        hit = np.abs(x) > 1.0
        x = np.where(hit, 0.0, x)
        np.flatnonzero(rng.random(x.size) < 0.01)
    for _ in range(6):
        lo, di, up = np.zeros(800), np.zeros(800), np.zeros(800)
        for r in range(800):
            lo[r] = 800.05 / h[r]
            di[r] = -1600.0 / h[r] - 0.1 * r
            up[r] = 799.95 / h[r]
    return time.perf_counter() - t0


class Calibrator:
    def __init__(self, run_kernel: Callable[[], float] = kernel, clock=time.perf_counter):
        self.run_kernel = run_kernel
        self.clock = clock
        self.samples: List[float] = []
        self.times: List[float] = []  # clock at the end of each sample
        self.baseline: List[float] = []
        self.spent = 0.0  # wall time taken by sampling, to leave out of passes
        self._last: Optional[float] = None

    def sample(self) -> None:
        """Time the kernel unless a sample was taken less than INTERVAL_S ago."""
        start = self.clock()
        if self._last is not None and start - self._last < INTERVAL_S:
            return
        self.samples.append(self.run_kernel())
        self._last = self.clock()
        self.times.append(self._last)
        self.spent += self._last - start

    def take_baseline(self) -> None:
        """Time the kernel BASELINE_SAMPLES times, before the package loads."""
        self.baseline = [self.run_kernel() for _ in range(BASELINE_SAMPLES)]

    def drift(self, samples: Optional[List[float]] = None) -> float:
        """Kernel median (of the in-run samples unless others are given) over
        the baseline median: near 1 unless the package slows the process, or
        the host load moved."""
        return statistics.median(samples or self.samples) / statistics.median(self.baseline)

    def scale_between(self, start: float, end: float) -> float:
        """Factor for the raw seconds of work done between the clock readings
        start and end: from the samples taken in that span, or from the
        ITEM_NEAREST samples to its middle if it holds fewer."""
        inside = [s for s, t in zip(self.samples, self.times) if start <= t <= end]
        if len(inside) < ITEM_NEAREST:
            mid = (start + end) / 2
            near = sorted(range(len(self.samples)), key=lambda i: abs(self.times[i] - mid))
            inside = [self.samples[i] for i in near[:ITEM_NEAREST]]
        return REFERENCE_S / statistics.median(inside)

    def scale(self) -> float:
        """Factor that turns this run's raw seconds into reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
