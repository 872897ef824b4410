"""Order statistics shared by the launcher and the worker (stdlib only)."""

import math
import statistics

# percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples above the nearest-rank ``p`` percentile of ``n``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values, p: float) -> tuple[str, int, float]:
    """The tail percentile as ``(label, samples beyond, value)``: ``p``
    itself when at least 10 samples lie beyond it, else the highest lower
    percentile of the ladder that has 10 beyond, else the median.

    A workload fixes ``p`` at the highest percentile its runs reach with
    room to spare, so the same quantile is compared on every run even
    though the number of operations in a window varies with machine speed.
    """
    n = len(values)
    for q in (p, *TAIL_LADDER):
        if 50.0 < q <= p and beyond(n, q) >= 10:
            return f"p{q:g}", beyond(n, q), percentile(values, q)
    return "p50", n // 2, statistics.median(values)
