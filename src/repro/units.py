"""Unit helpers: times, sizes, and frequency conversions.

The simulation's time base is **CPU cycles** (integers).  All DRAM timing
parameters are specified in nanoseconds or memory-bus cycles and converted to
CPU cycles once, at configuration time, so the hot simulation path only ever
compares integers.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Sizes (bytes)
# ---------------------------------------------------------------------------

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

# ---------------------------------------------------------------------------
# Times (picoseconds, to keep integer math exact)
# ---------------------------------------------------------------------------

PS = 1
NS = 1000 * PS
US = 1000 * NS
MS = 1000 * US


def ns(value: float) -> int:
    """Convert nanoseconds to picoseconds."""
    return round(value * NS)


def us(value: float) -> int:
    """Convert microseconds to picoseconds."""
    return round(value * US)


def ms(value: float) -> int:
    """Convert milliseconds to picoseconds."""
    return round(value * MS)


class ClockDomain:
    """Converts wall-clock durations into integer cycles of one clock.

    >>> cpu = ClockDomain(freq_mhz=3200)
    >>> cpu.cycles(ns(10))   # 10ns at 3.2GHz
    32
    """

    def __init__(self, freq_mhz: float):
        if freq_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_mhz}")
        self.freq_mhz = freq_mhz
        # cycle period in picoseconds
        self.period_ps = 1_000_000 / freq_mhz

    def cycles(self, duration_ps: int) -> int:
        """Number of whole cycles covering *duration_ps*, rounded up."""
        return math.ceil(duration_ps / self.period_ps)

    def duration_ps(self, n_cycles: int) -> int:
        """Duration of *n_cycles* in picoseconds (rounded)."""
        return round(n_cycles * self.period_ps)

    def __repr__(self) -> str:
        return f"ClockDomain({self.freq_mhz}MHz)"


def format_size(n_bytes: int) -> str:
    """Human-readable byte count, e.g. ``format_size(3 * GB) == '3.0GB'``."""
    for unit, name in ((GB, "GB"), (MB, "MB"), (KB, "KB")):
        if n_bytes >= unit:
            return f"{n_bytes / unit:.1f}{name}"
    return f"{n_bytes}B"


def format_time_ps(picos: int) -> str:
    """Human-readable duration, e.g. ``format_time_ps(ms(4)) == '4.000ms'``."""
    for unit, name in ((MS, "ms"), (US, "us"), (NS, "ns")):
        if abs(picos) >= unit:
            return f"{picos / unit:.3f}{name}"
    return f"{picos}ps"
