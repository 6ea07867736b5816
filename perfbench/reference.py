"""Machine-speed reference for normalizing timings.

On a small shared host (a 2-vCPU Intel Xeon virtual machine) the speed of
the same code changes by up to 1.5-2x for tens of seconds at a time.  With the same seed and input, the oracle
loop's per-second throughput moved between ~440 and ~720 problems/s with CPU
time equal to wall time, so the slowdown is inside the CPU's execution, not
stolen time; fresh processes (interpreter start, imports) slow down with it.
A 30-s run lands in one such phase, so raw timings spread by 10-40% between
runs.  The benchmark therefore interleaves a fixed reference with the
workload and scales each timing by the reference's nominal duration over its
measured duration around that timing.  Reported timings are "at nominal
speed": what the work takes when the reference takes its nominal time.

- In-process work (the oracle loop) is interleaved with `slice_seconds()`,
  plain Python arithmetic and dict updates plus the small numpy calls the
  program is made of, every 0.1 s.
- Subprocess work (CLI calls, set-up probes) is interleaved with one
  reference process, `python perfbench/reference.py`, before each call: it
  starts an interpreter, imports numpy and runs five slices.  A reference
  slice taken in the waiting harness does not track the child's speed; the
  reference process does (per-call correlation 0.8-0.86).

The reference is benchmark code: a change to the program cannot change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_SLICE_S = 0.0035   # one slice_seconds() on the reference machine
NOMINAL_PROCESS_S = 0.23   # one reference process on the reference machine
UNITS = 10
PROCESS_SLICES = 5

_A = np.arange(6.0).reshape(3, 2)
_M = np.eye(3) * 2.0 + 0.1


def _python_unit() -> float:
    acc, d = 0.0, {}
    for i in range(400):
        acc += math.sqrt(i * 1.5 + acc % 7.0)
        d[i % 50] = (i, acc)
    return acc


def _numpy_unit() -> float:
    acc = 0.0
    for _ in range(10):
        acc += float(np.linalg.norm(_A[1] - _A[0])) + float(np.dot(_A[0], _A[1]))
        acc += float(np.linalg.solve(_M, _A[:, 0])[0])
    return acc


def slice_seconds() -> float:
    """Duration of one reference slice."""
    t0 = time.perf_counter()
    for _ in range(UNITS):
        _python_unit()
        _numpy_unit()
    return time.perf_counter() - t0


class Speed:
    """Reference durations measured during a run, by when they were taken."""

    def __init__(self, measure, nominal_s: float):
        self.measure = measure
        self.nominal_s = nominal_s
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        t = time.perf_counter()
        self.samples.append((t, self.measure()))

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over the median reference taken in [t0, t1], or over the
        nearest one before and after it; multiply a duration measured in
        that interval by it."""
        near = [d for t, d in self.samples if t0 <= t <= t1]
        if not near:
            before = [s for s in self.samples if s[0] < t0]
            after = [s for s in self.samples if s[0] > t1]
            near = [s[1] for s in (before[-1:] + after[:1])]
        return self.nominal_s / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)


if __name__ == "__main__":
    for _ in range(PROCESS_SLICES):
        slice_seconds()
