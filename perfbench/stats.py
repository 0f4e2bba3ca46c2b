"""Sample statistics: nearest-rank percentiles and the tail rule.

A tail percentile is only reported where the sample supports it: the
*q*-th percentile of *n* samples needs at least :data:`MIN_BEYOND`
samples ranked past it, otherwise a single outlier decides the number.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: samples that must rank past a reported percentile.
MIN_BEYOND = 10


def rank(n: int, q: int) -> int:
    """1-based nearest rank of the *q*-th percentile of *n* samples."""
    return max(1, -(-q * n // 100))


def beyond(n: int, q: int) -> int:
    """How many of *n* samples rank past their *q*-th percentile."""
    return n - rank(n, q)


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank *q*-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), q) - 1]


def highest_supported(n: int, min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """Highest whole percentile with *min_beyond* samples past it, or None."""
    for q in range(99, 0, -1):
        if beyond(n, q) >= min_beyond:
            return q
    return None
