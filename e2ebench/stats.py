"""Order statistics shared by the benchmark and its steadiness command."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the interquartile range as a share of the
    median — the steadiness figure the bounds are checked against."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def latency_summary(seconds: List[float]) -> Dict[str, float]:
    """p50 and p99 in milliseconds; p99 needs 1000 samples (ten beyond
    it), which every workload's measured phase guarantees."""
    return {
        "p50_ms": percentile(seconds, 0.50) * 1e3,
        "p99_ms": percentile(seconds, 0.99) * 1e3,
    }

