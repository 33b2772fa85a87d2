"""Fixed reference kernel that measures how fast the machine runs right now.

The benchmark host is a shared 2-vCPU virtual machine whose speed drifts
by up to half over seconds to minutes: the same job list with the same
seed measured 147 to 190 routes-desk jobs/s in consecutive processes.  The
benchmark therefore runs this kernel between jobs and scales each job's
time by REFERENCE_MS / (median kernel time around that job), so times read
as milliseconds on a machine where the kernel takes REFERENCE_MS.  The
kernel does not use hkq, so no change to the program can move it.  It
mixes the kinds of work the workloads do: small complex LAPACK calls, a
small frozen dataclass, a 48 x 48 SVD and a plain Python loop.  On each
workload the per-cycle job time tracked each of these parts with a log-log
slope between 0.7 and 1.05; JSON parsing, which moved twice as much as the
jobs did, was left out.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# Median kernel time on the machine the first baseline was recorded on
# (2 vCPU Intel Xeon VM, one BLAS thread); it only sets the unit.
REFERENCE_MS = 2.1
# Kernel passes on each side of a job that make its local speed estimate.
WINDOW = 10


@dataclass(frozen=True)
class _Pair:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.a)):
            raise ValueError("non-finite")


class ReferenceKernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(20051103)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.h = a @ a.conj().T + np.eye(4)
        self.b = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        self.c = rng.standard_normal((48, 48))
        self.samples: list[float] = []

    def run(self) -> float:
        """One timed pass; the time is also kept in `samples`."""
        t0 = time.perf_counter()
        for _ in range(10):
            np.linalg.eigh(self.h)
            np.linalg.svd(self.b)
            np.linalg.solve(self.h, self.b.T)
            m = self.b.conj().T @ self.b
            _Pair(0.5 * (m + m.conj().T), m)
            sum([i * 0.5 for i in range(50)])
        np.linalg.svd(self.c)
        x = 0
        for i in range(3000):
            x += i * i
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factors(self, positions) -> np.ndarray:
        """Scale from measured to reference-speed seconds for each job.

        positions[i] is len(samples) when job i started; its speed is the
        median of the WINDOW passes before and the WINDOW passes after.
        """
        if not self.samples:
            raise ValueError("the reference kernel never ran")
        out = np.empty(len(positions))
        cache: dict[int, float] = {}
        for i, pos in enumerate(positions):
            if pos not in cache:
                window = self.samples[max(0, pos - WINDOW):pos + WINDOW]
                cache[pos] = REFERENCE_MS / (1e3 * statistics.median(window))
            out[i] = cache[pos]
        return out
