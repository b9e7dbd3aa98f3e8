"""The machine's speed at each moment of a run, for scaling measured times.

On the 2-core box this benchmark was written on, the same code runs up to
twice as slow for seconds to minutes at a time, with CPU time equal to wall
time: work outside the process slows the cores themselves, and a longer
run does not average it away (README.md, "Noise and the reference
speed"). A fixed reference kernel, Python calls and small numpy operations
like those of `gere`, runs between operations and samples that speed. A time measured at
perf_counter() value t, when the kernel took r ms (the median of the NEAR
samples nearest to t), is reported as

    time * (REF_MS / r) ** elasticity

that is, at the speed at which the kernel takes REF_MS. The elasticity is
how far a workload's times follow the kernel's, a constant of each
workload measured on that box (README.md).
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

import numpy as np

REF_MS = 2.0  # the kernel's time near the fast end of the box's range
EVERY_S = 0.2  # sampling interval between operations
NEAR = 5  # samples that give the speed at one moment


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((16, 64)).astype(np.float32)
        self._b = rng.standard_normal((64, 64)).astype(np.float32)
        self._c = rng.standard_normal((8, 16)).astype(np.float32)
        self.t: list[float] = []  # perf_counter() at each sample's start
        self.ms: list[float] = []
        self._next = 0.0

    def _kernel(self) -> float:
        total = 0.0
        for i in range(2000):  # interpreter: calls, small lists and dicts
            row = [i, i + 1, i + 2]
            total += len({"row": row, "i": i}["row"]) + abs(i)
        c = self._c
        for _ in range(75):  # numpy calls on small arrays: a softmax of 8x8 scores
            x = c @ c.T
            y = np.exp(x - x.max(axis=-1, keepdims=True))
            total += float((y / y.sum(axis=-1, keepdims=True))[0, 0])
        for _ in range(280):  # small matmuls
            total += float((self._a @ self._b)[0, 0])
        return total

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # collecting the program's garbage is not the kernel's time
        try:
            t0 = perf_counter()
            self._kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.t.append(t0)
        self.ms.append((t1 - t0) * 1e3)
        self._next = t1 + EVERY_S

    def between(self) -> float:
        """Between two operations: a sample if EVERY_S has passed since the
        last one. Returns the seconds taken."""
        t0 = perf_counter()
        if t0 < self._next:
            return 0.0
        self.sample()
        return perf_counter() - t0

    def scale(self, t: float, elasticity: float) -> float:
        """The factor for a time measured from perf_counter() value t."""
        i = bisect.bisect(self.t, t)
        lo = max(0, min(i - NEAR // 2, len(self.t) - NEAR))
        return (REF_MS / statistics.median(self.ms[lo:lo + NEAR])) ** elasticity
