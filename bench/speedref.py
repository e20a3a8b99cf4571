"""Reference work timed beside the workload, to take the host's speed out of the times.

The 2-vCPU virtual machine this benchmark was built on shares its host with
other jobs, and its speed changes by about a third for minutes at a time: a
workload's wall time spread 14-24% (quartile distance over median) between
runs of 20-60 s, whatever the run length.  A fixed numpy kernel slows with
it.  So a run times the kernel between the workload's steps, and scales the
time of each step by KERNEL_NOMINAL_S / (the median kernel time around that
step): the times read as on this machine at its usual faster speed.  Set-up
time is scaled the same way by a fresh interpreter that imports numpy and
scipy, timed beside each set-up probe.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# medians measured on the machine described above, at its faster speed
KERNEL_NOMINAL_S = 0.065
IMPORT_NOMINAL_S = 0.30
PROBE_INTERVAL_S = 2.0
PROBE_RUNS = 3  # a probe is the median of this many kernel timings in a row
# a step is scaled by the probes taken from this long, or the step's own
# length if that is longer, before it starts to as long after it ends
PROBE_WINDOW_S = 2.0
IMPORT_TIMEOUT_S = 120


def kernel_s():
    """Seconds for a fixed kernel shaped like the workloads' inner loop.

    Complex Gaussian draws over a 10 MB array, quantization by searchsorted,
    a Bussgang-style residual and an einsum reduction; it uses no code from
    the library, so a change to the library cannot move it.
    """
    rng = np.random.default_rng(0)
    edges = np.linspace(-2.0, 2.0, 15)
    start = time.perf_counter()
    x = rng.standard_normal((10_000, 64)) + 1j * rng.standard_normal((10_000, 64))
    q = np.searchsorted(edges, x.real) + 1j * np.searchsorted(edges, x.imag)
    d = 0.8 * x - q
    np.einsum("cm,cm->m", d.conj(), x).real.sum() + (np.abs(d) ** 2).sum()
    return time.perf_counter() - start


def import_s():
    """Seconds for a fresh interpreter to start and import numpy and scipy.

    Timed to the moment the child is ready, as set-up is, not to its exit.
    """
    ready = "import time, numpy, scipy.linalg, scipy.special; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", ready], capture_output=True, text=True, check=True, timeout=IMPORT_TIMEOUT_S
    )
    return float(done.stdout.split()[-1]) - start


class SpeedProbe:
    """Kernel timings taken at step boundaries, at most one probe a PROBE_INTERVAL_S."""

    def __init__(self):
        self.samples = []  # median kernel seconds of each probe
        self.times = []    # time.perf_counter() at the end of each
        kernel_s()  # warm-up: the first timing of a process reads about 20% slow

    def between_steps(self):
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_INTERVAL_S:
            self.samples.append(statistics.median(kernel_s() for _ in range(PROBE_RUNS)))
            self.times.append(time.perf_counter())

    def scale(self, start=-math.inf, end=math.inf):
        """Factor that turns a time taken from start to end into one at the nominal speed.

        Uses the probes within the window of the interval, or the nearest
        one if there is none.
        """
        window = max(PROBE_WINDOW_S, end - start)
        near = [k for k, t in zip(self.samples, self.times) if start - window <= t <= end + window]
        if not near:
            near = [min(zip(self.times, self.samples), key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))[1]]
        return KERNEL_NOMINAL_S / statistics.median(near)
