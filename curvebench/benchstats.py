"""Order statistics and comparisons used by the runner."""

from __future__ import annotations

import statistics

# The tail is the highest percentile that still has this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond.

    Nearest rank: with n samples sorted ascending, rank n - 10 has exactly
    ten samples above it, and its percentile is 100 * (n - 10) / n.  Below
    21 samples that rank is at or under the median, so no tail exists and
    the median is returned with percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = n - TAIL_BEYOND
    if rank <= 0 or 100.0 * rank / n <= 50.0:
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / n


def relative_difference(first: float, second: float) -> float:
    """How much worse or better ``second`` is than ``first``, as a share of it."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    return (second - first) / abs(first)
