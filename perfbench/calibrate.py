"""Host-speed calibration for every reported timing.

The benchmark shares its cores with other tenants, and the guest slows
down as a whole while they are busy: on a 2-vCPU Xeon guest a fixed
plain-Python kernel took anywhere from 0.33 s to 0.64 s within one
minute, with no steal time reported, and whole runs minutes apart
differed by 1.5x.  Medians
inside a run cannot remove a slowdown that outlasts the run, and a
kernel timed only before and after a sample misses the swings inside
it.

So :class:`HostSampler` times a tiny reference kernel (independent of
the simulator, so no change to the simulator moves it) from a timer
signal every :data:`PERIOD_S` seconds, in the measuring process, for
the whole run: about 0.3% of the CPU.  A timing sample is then rescaled
by the mean kernel time over the sample's own interval (widened to at
least :data:`MIN_READINGS` readings for short samples) to a host on
which the kernel takes :data:`NOMINAL_S`.  On WL-6 runs this cut the
run-to-run spread from 13% to 3.5% of the median.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import statistics
import time

#: Timer period of the speed sampler.
PERIOD_S = 0.05
#: Reference-kernel time of the nominal host: the kernel's time inside
#: a measured run on a quiet 2-vCPU Xeon guest, so calibrated and raw
#: figures agree there.
NOMINAL_S = 220e-6
#: Readings averaged for a sample shorter than that many periods.
MIN_READINGS = 10


class _Cell:
    __slots__ = ("value", "total")

    def __init__(self, value):
        self.value = value
        self.total = 0

    def step(self, x):
        self.total += (x ^ self.value) & 15
        return self.total


_CELLS = [_Cell(i) for i in range(64)]
_DOC = {"tasks": [{"id": i, "name": f"task{i}", "ipc": i / 7, "reads": i * 1000}
                  for i in range(12)]}


def kernel() -> int:
    """Fixed work in the proportions of the workloads: interpreter
    bytecode (attribute access, calls, integer maths), then a JSON round
    trip and a SHA-256 of a small document, as the service does."""
    acc = 0
    cells = _CELLS
    for i in range(400):
        acc += cells[i & 63].step(i)
    text = json.dumps(_DOC, sort_keys=True)
    acc ^= len(json.loads(text)["tasks"])
    acc ^= hashlib.sha256(text.encode()).digest()[0]
    return acc


class HostSampler:
    """Times :func:`kernel` from ``SIGALRM`` while active (main thread
    only; a context manager)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.times: list[float] = []  # reading end times, ascending
        self.kernel_s: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def host_seconds(self, t0: float, t1: float) -> float:
        """Mean kernel time over ``[t0, t1]``, widened around its middle
        until it holds :data:`MIN_READINGS` readings."""
        times = self.times
        if not times:
            return NOMINAL_S
        lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
        half = (t1 - t0) / 2
        middle = t0 + half
        while hi - lo < MIN_READINGS and (lo > 0 or hi < len(times)):
            half = max(2 * half, self.period)
            lo = bisect.bisect_left(times, middle - half)
            hi = bisect.bisect_right(times, middle + half)
        return statistics.fmean(self.kernel_s[lo:hi])

    def host_factor(self) -> float:
        """Median kernel time over nominal: above 1 is a slow host."""
        return statistics.median(self.kernel_s) / NOMINAL_S if self.kernel_s else 1.0


class CalibratedClock:
    """Timing samples of one kind, rescaled to the nominal host."""

    def __init__(self, sampler: HostSampler):
        self.sampler = sampler
        self.raw: list[float] = []
        self._ends: list[float] = []

    def add(self, seconds: float) -> None:
        """Record a sample that ended just now."""
        self._ends.append(time.perf_counter())
        self.raw.append(seconds)

    def scaled(self) -> list[float]:
        host = self.sampler.host_seconds
        return [
            raw * NOMINAL_S / host(end - raw, end)
            for raw, end in zip(self.raw, self._ends)
        ]
