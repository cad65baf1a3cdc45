"""Reference kernel that measures how fast the machine runs at a moment.

On a shared virtual machine the whole CPU speeds up and slows down from one
minute to the next, and every timing of a run moves with it.  The benchmark
therefore times this fixed kernel throughout each run, with the same
interpreter and numpy the workload uses, and reports its timings scaled to
the kernel's time on the reference machine: scaled = measured * REF_S / kernel.
The kernel is numpy work on arrays of a few thousand points, the kind of
work spheriq's sampled curves and meshes do; of the kernels tried it tracked
the commands' own slow-downs best.  It is the benchmark's own code, so a
change to the library cannot move it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# fastest kernel time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6), the speed every scaled timing refers to
REF_S = 0.0041

_Z = np.linspace(0.0, 3.0, 4096)


def kernel() -> float:
    acc = 0.0
    for i in range(20):
        y = np.sin(_Z * (1.0 + i * 1e-3))
        w = np.diff(np.cumsum(y * y))
        p = np.stack([y, np.cos(_Z), w[0] * np.ones_like(y)], axis=1)
        acc += float(np.linalg.norm(p, axis=1).sum()) + float(np.max(np.abs(w)))
    return acc


def sample(repeats: int = 3) -> float:
    """Seconds of the fastest of `repeats` kernel calls, one speed sample."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best
