"""Host-speed probe: a fixed reference workload timed throughout a run.

On a small shared virtual machine the same code runs 20-40% slower for
minutes at a time, whenever neighbours load the host, and no statistic taken
inside one run can remove that. The probe times a fixed piece of work that
does not use bevtrack (pure-Python box overlaps and single-point numpy maps,
the kind of work the pipeline spends its time in) at every phase boundary
and every ``every_s`` seconds of tracking, and ``scale`` turns the run's
median probe time into a factor that expresses the run's durations at a
fixed host speed, so that runs made at different moments compare.

The pipeline slows less than the probe when the host is loaded: over thirty
runs of the three workloads on a 2-vCPU Intel Xeon virtual machine, the
pipeline's durations grew as the 0.4th to 0.9th power of the probe's, 0.6 in
the middle. ``SENSITIVITY`` is that power. ``run.py`` prints the raw times
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median probe time on that machine (Python 3.11, numpy 2.4) in a
# quiet period. It only sets the scale of the scaled times.
NOMINAL_S = 0.0025
SENSITIVITY = 0.6

_BOXES = [(7.0 * i, 3.0 * (i % 5), 7.0 * i + 40.0, 3.0 * (i % 5) + 90.0) for i in range(60)]
_POINTS = [np.array([0.5 * i, 4.0 + 0.25 * i]) for i in range(60)]
_MATRIX = np.array([[1.0, 0.1, 2.0], [0.0, 0.9, 1.0], [0.0, 0.02, 1.0]])


def reference_work() -> float:
    """Pairwise box overlaps in pure Python, then per-point projective maps."""
    total = 0.0
    for l1, t1, r1, b1 in _BOXES:
        for l2, t2, r2, b2 in _BOXES:
            iw = min(r1, r2) - max(l1, l2)
            ih = min(b1, b2) - max(t1, t2)
            if iw > 0 and ih > 0:
                inter = iw * ih
                total += inter / ((r1 - l1) * (b1 - t1) + (r2 - l2) * (b2 - t2) - inter)
    for p in _POINTS:
        q = np.concatenate([p, [1.0]]) @ _MATRIX.T
        total += float(np.where(q[2] > 0, q[0] / q[2], 0.0))
    return total


class SpeedProbe:
    """Samples ``reference_work`` on demand or at most every ``every_s`` seconds."""

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> float:
        """Time the reference now; returns the seconds spent."""
        start = time.perf_counter()
        reference_work()  # refills caches the pipeline evicted; untimed
        mid = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append(end - mid)
        self._due = end + self.every_s
        return end - start

    def poll(self) -> float:
        """Time the reference if a sample is due; returns the seconds spent."""
        return self.sample() if time.perf_counter() >= self._due else 0.0

    def scale(self) -> float:
        """Factor taking a duration measured during the run to nominal speed."""
        return (NOMINAL_S / statistics.median(self.samples)) ** SENSITIVITY
