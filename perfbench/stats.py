"""Summary statistics for the benchmark's latency samples.

Kept free of numpy and of the package under test so the benchmark's own
tests can check the arithmetic in isolation.
"""

from __future__ import annotations

import math
import statistics

# Percentiles tried for the tail, highest first.  The integer steps make the
# chosen percentile move smoothly with the sample count, so two runs with a
# few more or fewer samples report neighbouring percentiles, not distant ones.
TAIL_LADDER = (99.99, 99.9) + tuple(float(p) for p in range(99, 49, -1))
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``len`` samples."""
    n = len(sorted_values)
    return max(1, min(n, math.ceil(pct / 100.0 * n - 1e-9)))


def tail_percentile(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value, beyond)`` where ``beyond`` counts samples
    ranked above the percentile.  With fewer than twenty samples no ladder
    entry qualifies and the median is returned with however many lie beyond.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        rank = nearest_rank(xs, pct)
        beyond = len(xs) - rank
        if beyond >= TAIL_MIN_BEYOND:
            return pct, xs[rank - 1], beyond
    rank = nearest_rank(xs, 50.0)
    return 50.0, xs[rank - 1], len(xs) - rank


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
