"""Tail percentile of a latency sample."""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the tail estimate is a handful of outliers.
MIN_BEYOND = 10


def tail_percentile(values, pct: float) -> float | None:
    """Nearest-rank ``pct`` percentile of *values*, or None when fewer
    than :data:`MIN_BEYOND` samples lie strictly beyond it."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]
