"""The machine's speed during a run, measured by a fixed calibration kernel.

On the reference VM (2 vCPUs on a shared host) the speed of a core moves by
up to 1.7x, in phases that last from seconds to whole runs, and process CPU
time moves with it, so neither wall nor CPU time of an op is steady from run
to run.  A fixed kernel of small-matrix numpy and Python work, like the ops',
is timed between ops, at most every ``EVERY_S``; an op's time is then scaled
to the speed at which the kernel takes ``REF_KERNEL_S``.  The kernel runs in
the benchmark's own process, never inside a timed op, and calls no absfef
code, so a change to the library moves op times but not the kernel.

Import after the thread pins are set: this module loads numpy.
"""

import bisect
import statistics
import time

import numpy as np

# The kernel's median time on the reference VM at its usual speed.
REF_KERNEL_S = 2.6e-3
EVERY_S = 0.25


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        self._mats = list(g @ g.conj().transpose(0, 2, 1))
        self.times = []
        self.readings = []

    def read(self):
        """Time the kernel once."""
        t0 = time.perf_counter()
        for m in self._mats:
            np.linalg.eigvalsh(m)
            np.kron(m, m).trace()
            sum(float(x.real) for x in m.ravel())
        self.times.append(t0)
        self.readings.append(time.perf_counter() - t0)

    def read_due(self):
        """Time the kernel if the last reading is more than ``EVERY_S`` old."""
        if not self.times or time.perf_counter() - self.times[-1] > EVERY_S:
            self.read()

    def scale(self, t):
        """``REF_KERNEL_S`` over the kernel's time at ``t``: the median of the
        reading last before ``t`` and its two neighbours."""
        k = max(bisect.bisect_right(self.times, t) - 1, 0)
        return REF_KERNEL_S / statistics.median(self.readings[max(k - 1, 0):k + 2])

    def median_reading(self):
        return statistics.median(self.readings)
