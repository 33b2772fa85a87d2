"""Order statistics and span arithmetic used by the benchmark.

Kept free of hkq and of the clock so the unit tests can pin them down on
hand-made inputs.
"""

from __future__ import annotations

import math
import statistics

import numpy as np


def ranked_latencies(latencies, failed, fail_value: float) -> list[float]:
    """Latencies sorted ascending, failed jobs ranked as slower than any
    success.

    A failed job has no latency that a user would accept, so it takes
    `fail_value`, which the caller chooses at least as large as every
    measured latency.  Turning a failure into a success can then only lower
    each percentile, never raise it.
    """
    if len(latencies) != len(failed):
        raise ValueError("latencies and failed flags differ in length")
    worst = max(latencies, default=0.0)
    if fail_value < worst:
        raise ValueError(f"fail_value {fail_value} is below a measured latency {worst}")
    return sorted(fail_value if bad else lat for lat, bad in zip(latencies, failed))


def nearest_rank(ranked: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list, 0 < q <= 1."""
    if not ranked:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def beyond(n: int, q: float) -> int:
    """Number of samples ranked strictly after the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span: its duration minus the time its children
    cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it; the covered time is the sum of their durations.  parent[i]
    is the index of the enclosing span, or -1 at the top.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - covered


def quartile_spread(values) -> tuple[float, float, float]:
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return q2, q1, q3
