"""Performance metrics: IPC aggregation and comparison helpers.

The paper reports improvements in the **harmonic mean of per-task IPC**
relative to the all-bank-refresh baseline (Section 6.1), and average memory
access latency in memory cycles (Figure 11).
"""

from __future__ import annotations

from typing import Sequence


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean; zero if any value is zero or the sequence is empty."""
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def speedup(value: float, baseline: float) -> float:
    """Relative improvement of *value* over *baseline* (0.10 = +10%)."""
    if baseline <= 0:
        return 0.0
    return value / baseline - 1.0


def degradation(value: float, reference: float) -> float:
    """Relative loss of *value* versus *reference* (0.10 = -10%)."""
    if reference <= 0:
        return 0.0
    return 1.0 - value / reference


def fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-task allocations (1.0 = perfectly
    fair); used to check the eta_thresh fairness valve."""
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 0.0
    return total * total / (len(values) * squares)
