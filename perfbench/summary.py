"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics


def tail_percentile(samples, beyond: int = 10):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)``, or None when the run is too short for
    that percentile to sit at or above the median (fewer than
    ``2 * beyond`` samples).
    """
    ordered = sorted(samples)
    rank = len(ordered) - beyond          # 1-based; `beyond` samples lie above it
    if rank < 1 or 2 * rank < len(ordered):
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
