"""Discrete-event simulation engine.

Time is measured in integer **CPU cycles**.  Events are callbacks scheduled
at absolute times; ties are broken by insertion order, which makes every run
fully deterministic.  Nothing is ever cancelled: a component that may
change its mind schedules a callback that decides what to do when it fires.

Hot-path design (see docs/PERFORMANCE.md):

* **Bucketed calendar queue with a head fast path.**  Entries at the same
  absolute time share one insertion-ordered list (a *bucket*).  The
  earliest bucket is pinned in ``_head`` and served without touching any
  other structure; later buckets live in ``_buckets`` (time -> list)
  ordered by a plain int min-heap of their times.  Heap comparisons are
  C-level int compares, the time-then-insertion-order tie-break falls out
  of list order, and the dominant schedule-soon/fire-next pattern never
  touches the dict or heap at all.  Invariants: every scheduled time has
  exactly one non-empty bucket; ``_times`` holds exactly the keys of
  ``_buckets``; ``_head_time`` is smaller than every heap time.
* **Entries are plain values.**  :meth:`Engine.schedule` and
  :meth:`Engine.schedule_at` store the callback itself in the bucket, or
  the tuple ``(fn, arg)`` when it carries an argument, and return
  ``None``.  The drain loop tells the two entry kinds apart by class: a
  tuple fires as ``fn(arg)``, anything else is called bare.  A 2-tuple is
  built at C level and dropped after it fires, so no wrapper object is
  allocated, recycled or reset.
* **One drain loop.**  :meth:`Engine.run` and :meth:`Engine.run_until`
  share :meth:`Engine._drain`, which differs between them only in the
  per-bucket horizon test.  An installed dispatch profiler is a branch
  inside that loop, tested once per event.
* **Batched counters.**  The drain loop counts processed events per
  bucket and flushes once on exit, so ``events_processed`` is only
  guaranteed current between :meth:`run`/:meth:`run_until` calls
  (``step`` updates it per event).

The engine is not re-entrant: callbacks must not call :meth:`run`,
:meth:`run_until` or :meth:`step` (rule RPR008 enforces this for library
code).  If a callback raises, the exception propagates; the remainder of
the partially drained bucket is kept and resumes exactly where it
stopped on the next run call.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.core.state import INT, Codec, Stateful, field, listof, seq
from repro.errors import CheckpointError, SimulationError


class Engine(Stateful):
    """A minimal, deterministic event-driven simulator core.

    >>> eng = Engine()
    >>> hits = []
    >>> eng.schedule(10, lambda: hits.append(eng.now))
    >>> eng.run_until(100)
    >>> hits
    [10]
    """

    # ``_buckets`` is written by hand, through the caller's entry codec, with
    # the head cache folded in; the profiler is re-attached by the host.
    STATE = (("now", INT), ("_events_processed", INT))
    DERIVED = (
        "_head_time",
        "_head",
        "_spare",
        "_run_list",
        "_run_index",
        "_run_time",
        "_profiler",
    )

    __slots__ = (
        "now",
        "_head_time",
        "_head",
        "_buckets",
        "_times",
        "_events_processed",
        "_run_list",
        "_run_index",
        "_run_time",
        "_spare",
        "_profiler",
    )

    def __init__(self):
        self.now: int = 0
        # Earliest bucket, pinned outside the dict/heap (None = no head).
        self._head_time: Optional[int] = None
        self._head: list[Callable] = []
        # All later buckets: time -> entries in insertion order, with an
        # int min-heap over exactly those times.
        self._buckets: dict[int, list[Callable]] = {}
        self._times: list[int] = []
        self._events_processed: int = 0
        # Bucket currently being drained (already detached) + resume index
        # and its time (maintained by step() and by an exception unwind;
        # the drain loop resumes from and resets them).
        self._run_list: Optional[list[Callable]] = None
        self._run_index: int = 0
        self._run_time: int = 0
        self._spare: Optional[list[Callable]] = None
        # Dispatch profiler (repro.obs.profiler) or None.  The drain loop
        # reads it once per call and tests the local once per event.
        self._profiler = None

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: int, fn: Callable, arg: Any = None) -> None:
        """Schedule *fn* to run *delay* (integer) cycles from now.

        With *arg*, the callback fires as ``fn(arg)`` — the hot paths use
        this to pass a bound method plus its argument instead of
        allocating a closure per event; the bucket stores the tuple
        ``(fn, arg)``.
        """
        # The insert branch is inlined (as in schedule_at): this is the
        # hottest function in the simulator and a second call frame is
        # measurable.
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        if time.__class__ is not int:
            # Match schedule_at's int() coercion: float delays must not
            # mint float bucket keys (5.000001 != 5 would split a bucket
            # and change ordering between otherwise identical runs).  The
            # class check is ~5x cheaper than an unconditional int() on
            # this, the hottest line in the simulator.
            time = int(time)
        if arg is not None:
            fn = (fn, arg)
        head_time = self._head_time
        if head_time is None:
            times = self._times
            if not times or time < times[0]:
                self._head_time = time
                self._head.append(fn)
            else:
                bucket = self._buckets.get(time)
                if bucket is None:
                    self._buckets[time] = [fn]
                    heappush(times, time)  # repro: noqa[RPR004] int keys are totally ordered; ties merge into one bucket
                else:
                    bucket.append(fn)
        elif time == head_time:
            self._head.append(fn)
        elif time > head_time:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [fn]
                heappush(self._times, time)  # repro: noqa[RPR004] int keys are totally ordered; ties merge into one bucket
            else:
                bucket.append(fn)
        else:
            # New earliest time: demote the head bucket into the calendar.
            self._buckets[head_time] = self._head
            heappush(self._times, head_time)  # repro: noqa[RPR004] int keys are totally ordered; ties merge into one bucket
            self._head = [fn]
            self._head_time = time

    def schedule_at(self, time: int, fn: Callable, arg: Any = None) -> None:
        """Schedule *fn* to run at absolute *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        if time.__class__ is not int:
            # Same float-key guard as schedule(); see the comment there.
            time = int(time)
        if arg is not None:
            fn = (fn, arg)
        # Same insert branch as schedule(), inlined: schedule_at is the
        # controller hot path's scheduling call and a second frame is
        # measurable.
        head_time = self._head_time
        if head_time is None:
            times = self._times
            if not times or time < times[0]:
                self._head_time = time
                self._head.append(fn)
            else:
                bucket = self._buckets.get(time)
                if bucket is None:
                    self._buckets[time] = [fn]
                    heappush(times, time)  # repro: noqa[RPR004] int keys are totally ordered; ties merge into one bucket
                else:
                    bucket.append(fn)
        elif time == head_time:
            self._head.append(fn)
        elif time > head_time:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [fn]
                heappush(self._times, time)  # repro: noqa[RPR004] int keys are totally ordered; ties merge into one bucket
            else:
                bucket.append(fn)
        else:
            self._buckets[head_time] = self._head
            heappush(self._times, head_time)  # repro: noqa[RPR004] int keys are totally ordered; ties merge into one bucket
            self._head = [fn]
            self._head_time = time

    # -- execution ----------------------------------------------------------

    def _take_next_bucket(self) -> Optional[list[Callable]]:
        """Detach the earliest bucket for draining (head first, then heap)."""
        head_time = self._head_time
        if head_time is not None:
            bucket = self._head
            self._head_time = None
            spare = self._spare
            if spare is None:
                self._head = []
            else:
                self._head = spare
                self._spare = None
            self._run_time = head_time
            return bucket
        if self._times:
            time = heappop(self._times)
            self._run_time = time
            return self._buckets.pop(time)
        return None

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when no events remain."""
        run_list = self._run_list
        if run_list is not None and self._run_index == len(run_list):
            # Recycle the fully drained bucket.
            run_list.clear()
            if self._spare is None:
                self._spare = run_list
            run_list = self._run_list = None
        if run_list is None:
            run_list = self._take_next_bucket()
            if run_list is None:
                return False
            self._run_list = run_list
            self._run_index = 0
        entry = run_list[self._run_index]
        self._run_index += 1
        self.now = self._run_time
        self._events_processed += 1
        if entry.__class__ is tuple:
            fn, arg = entry
            fn(arg)
        else:
            entry()
        return True

    def set_profiler(self, profiler) -> None:
        """Install (or with ``None`` remove) a dispatch profiler.

        The profiler must expose ``clock()`` (a monotonic float clock,
        injected so this module never reads wall time itself) and
        ``record(fn, elapsed)``; see
        :class:`repro.obs.profiler.EngineProfiler`.  While installed,
        the drain loop times every callback through it (two clock reads
        per event); event order, times and counts are identical.  A
        profiler installed from inside a callback takes effect on the
        next run call.
        """
        self._profiler = profiler

    def run_until(self, end_time: int) -> None:
        """Run every event scheduled strictly before or at *end_time*, then
        advance the clock to *end_time*."""
        self._drain(end_time)
        if end_time > self.now:
            self.now = end_time

    def run(self) -> None:
        """Run until the event queue drains."""
        self._drain(None)

    def _drain(self, end_time: Optional[int]) -> None:
        """The drain loop behind :meth:`run` (``end_time=None``: no
        horizon) and :meth:`run_until`.

        Resumes a bucket left partially drained by :meth:`step` or by a
        raising callback, then detaches buckets in time order until the
        queue is empty or the next bucket lies past *end_time*.  On an
        exception the rest of the bucket is kept as the resume point.
        """
        buckets = self._buckets
        times = self._times
        run_list = self._run_list
        index = self._run_index
        if run_list is not None:
            if (
                end_time is not None
                and index < len(run_list)
                and self._run_time > end_time
            ):
                # A bucket detached by step() extends past the horizon;
                # leave it pending.
                return
            self._run_list = None
            self._run_index = 0
        else:
            run_list = []
        n = len(run_list)
        processed = n - index
        profiler = self._profiler
        clock = record = None
        if profiler is not None:
            clock = profiler.clock
            record = profiler.record
        try:
            while True:
                while index < n:
                    entry = run_list[index]
                    index += 1
                    # Arg carriers are the commonest entries in a
                    # full-system run, so the tuple test comes first.
                    if entry.__class__ is tuple:
                        fn, arg = entry
                        if profiler is None:
                            fn(arg)
                            continue
                    elif profiler is None:
                        entry()
                        continue
                    else:
                        fn = entry
                        arg = None
                    # Profiled dispatch: time the callback.
                    start = clock()
                    if arg is None:
                        fn()
                    else:
                        fn(arg)
                    record(fn, clock() - start)
                run_list.clear()
                index = 0
                n = 0
                head_time = self._head_time
                if head_time is not None:
                    if end_time is not None and head_time > end_time:
                        break
                    self._head_time = None
                    nxt = self._head
                    self._head = run_list
                    run_list = nxt
                    self.now = head_time
                elif times and (end_time is None or times[0] <= end_time):
                    time = heappop(times)
                    self._spare = run_list
                    run_list = buckets.pop(time)
                    self.now = time
                else:
                    break
                n = len(run_list)
                processed += n
        finally:
            self._events_processed += processed - (n - index)
            if index < n:
                self._run_list = run_list
                self._run_index = index
                self._run_time = self.now

    # -- checkpoint/restore -------------------------------------------------

    def snapshot_state(self, encode_entry: Callable) -> dict:
        """Serialize the clock, counters and every queued entry.

        Callables cannot serialize, so each entry is passed through
        *encode_entry(fn, arg)* which must return a JSON-able descriptor
        (the system layer maps bound methods to (owner, method, arg)
        descriptors) and should raise on a callable it cannot describe.
        Bucket order — and therefore the documented same-cycle
        insertion-order tie-break — is preserved exactly.

        Only legal between run calls (never from inside a callback).
        """
        if self._run_list is not None:
            raise SimulationError("cannot snapshot a partially drained bucket")
        pairs: list[tuple[int, list[Callable]]] = []
        if self._head_time is not None:
            pairs.append((self._head_time, self._head))
        for time in sorted(self._times):
            pairs.append((time, self._buckets[time]))
        buckets = []
        for time, bucket in pairs:
            entries = [
                encode_entry(*entry) if entry.__class__ is tuple else encode_entry(entry, None)
                for entry in bucket
            ]
            buckets.append([time, entries])
        state = super().snapshot_state()
        state["_buckets"] = buckets
        return state

    def restore_state(self, state: dict, decode_entry: Callable) -> None:
        """Rebuild the queue from a :meth:`snapshot_state` payload.

        *decode_entry(descriptor)* must return ``(fn, arg)`` — or ``None``
        to drop the entry (used when restoring into a system whose
        refresh policy differs from the snapshot's).  Entries are
        re-inserted in snapshot order, so same-cycle ordering is
        bit-identical to the captured run.
        """
        if self._run_list is not None:
            raise SimulationError("cannot restore over a partially drained bucket")
        self.clear_pending()
        super().restore_state(state)
        entry = Codec(None, lambda data, refs=None, current=None: decode_entry(data))
        buckets = field(state, "_buckets", listof(seq(INT, listof(entry))))
        for time, entries in buckets:
            if time < self.now:
                raise CheckpointError(
                    f"a bucket at t={time} precedes the clock {self.now}",
                    ["_buckets"],
                )
            for decoded in entries:
                if decoded is not None:
                    self.schedule_at(time, *decoded)

    # -- maintenance --------------------------------------------------------

    def clear_pending(self) -> int:
        """Drop every queued event (test/driver helper); returns the number
        of events discarded.  The clock and counters are untouched."""
        dropped = self.pending_events
        self._head_time = None
        self._head.clear()
        self._buckets.clear()
        self._times.clear()
        self._run_list = None
        self._run_index = 0
        return dropped

    # -- introspection ------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far.

        Updated in batches by :meth:`run`/:meth:`run_until`; only
        guaranteed current between run calls."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events currently queued.

        Computed on demand — the hot paths keep no counter."""
        count = len(self._head) + sum(map(len, self._buckets.values()))
        run_list = self._run_list
        if run_list is not None:
            count += len(run_list) - self._run_index
        return count

    def __repr__(self) -> str:
        return f"Engine(now={self.now}, pending={self.pending_events})"
