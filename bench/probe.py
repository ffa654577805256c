"""Calibration probe: a fixed piece of the benchmark's own work, timed beside every op.

The benchmark runs on machines whose CPUs are shared with other tenants.
There, the speed of the whole machine drifts by tens of percent over
minutes, so wall seconds per op from runs a few minutes apart disagree
even at the same commit.  The probe is timed right before the first op
and right after each op, in the same process.  Dividing an op's wall time
by the mean of the two probes around it gives the op's cost in probe
units, which cancels most of that drift.  The probe never calls `oocs3d`,
so a change to the library moves the op's cost and not the probe.

Its three parts mirror what the workloads spend time on: memory-bound
elementwise numpy on 4 MiB operands, numpy calls on tiny arrays where
per-call overhead dominates, and plain interpreter work.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=1 << 19)
        self._b = rng.normal(size=1 << 19)
        self._out = np.empty_like(self._a)
        self._small = rng.normal(size=(4, 6, 6, 6))

    def run(self) -> float:
        """Wall seconds for one fixed round of work."""
        t0 = perf_counter()
        for _ in range(30):
            np.multiply(self._a, self._b, out=self._out)
            np.add(self._out, self._a, out=self._out)
        acc = 0.0
        for _ in range(3000):
            acc += float(np.sum(self._small[:, 1:5, 1:5, 1:5] * 0.5))
        counts: dict[int, int] = {}
        for i in range(60000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        return perf_counter() - t0
