"""Percentiles and summaries with their sample counts.

A timing is reported as its median and the highest percentile that has
at least ten samples beyond it; with fewer samples only the median is
meaningful.  Quartiles use :func:`statistics.quantiles` with its default
method, the same definition the spread checks use.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, highest first.  p99.9 is left
#: out so that a serve tail means p99 at every run length the benchmark
#: uses (1000 to 10000 asks).
TAIL_PERCENTILES = (99.0, 90.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond ``q``."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND


def tail(values) -> tuple:
    """``(q, value)`` at the highest supported percentile, else the median."""
    n = len(values)
    for q in TAIL_PERCENTILES:
        if supported(n, q):
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def summary(values) -> dict:
    """Median, quartiles and sample count of ``values``."""
    values = list(values)
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }
