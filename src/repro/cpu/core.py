"""Interval-model out-of-order core with ROB retirement blocking.

The core alternates compute gaps (derived from the running task's LLC MPKI
and base CPI) with LLC-miss memory requests.  Two windows limit how far the
front end can run ahead:

* the task's **MLP** — maximum concurrently outstanding misses;
* the **ROB** — instructions retire in order, so the front end may be at
  most ``rob_entries`` instructions past the oldest incomplete miss.

The ROB constraint is the paper's stall mechanism (Figure 6: "cores
stalled on the outstanding loads"): a single miss delayed by a
refresh-busy bank blocks retirement, the window fills within a few dozen
instructions, and the core stops — even if younger misses completed.

Instruction accounting: a compute gap's instructions are credited when its
trailing miss issues; a gap cut short by a context switch credits its
prorated fraction.  Per-task IPC is retired instructions over scheduled
cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.engine import Engine
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.errors import SimulationError


#: Max pure-compute gaps folded into one fast-forward wake-up.  Bounds the
#: workload prefetch when no quantum boundary caps the chain.
_CHAIN_MAX = 64


class _RobEntry:
    """One outstanding miss: its preceding instruction gap and done flag."""

    __slots__ = ("instructions", "done")

    def __init__(self, instructions: int):
        self.instructions = instructions
        self.done = False


class Core:
    """One CPU core executing whichever task the OS scheduler assigns."""

    def __init__(
        self,
        core_id: int,
        engine: Engine,
        controller: MemoryController,
        rob_entries: int = 128,
    ):
        self.core_id = core_id
        self.engine = engine
        self.controller = controller
        self.rob_entries = rob_entries
        self.current_task = None
        self.quantum_start = 0
        # Epoch token: bumped on every context switch so in-flight events
        # belonging to the previous occupant become no-ops.
        self._epoch = 0
        self._outstanding = 0
        self._window: deque[_RobEntry] = deque()
        self._inflight_instr = 0
        self._stalled = False
        self._deferred = None
        self._pending_gap_start = 0
        self._pending_gap_cycles = 0
        self._pending_instructions = 0
        # Compute-chain fast-forward state: a run of pure-compute gaps
        # collapsed into one engine event.  ``_chain`` holds
        # (end_offset, instructions) per folded gap, offsets relative to
        # ``_chain_start``; ``_chain_final`` is the trailing (unfolded)
        # access's (start_offset, gap_cycles, instructions).
        self._quantum_end: Optional[int] = None
        self._chain: Optional[list[tuple[int, int]]] = None
        self._chain_start = 0
        self._chain_credited = 0
        self._chain_final = (0, 0, 0)
        self.idle_cycles = 0
        self._idle_since: Optional[int] = None
        # The issue path runs once per LLC miss: bind its calls once.  The
        # prebound callbacks (as in MemoryController) also spare one
        # bound-method allocation per scheduled issue or issued read.
        self._decode = controller.mapping.address_to_coordinate
        self._enqueue = controller.enqueue
        self._schedule = engine.schedule
        self._issue = self._issue
        self._on_read_complete = self._on_read_complete

    # -- scheduler interface -----------------------------------------------------

    def run_task(self, task, quantum_end: Optional[int] = None) -> None:
        """Context-switch *task* onto this core (or go idle with ``None``).

        *quantum_end* (absolute cycle of the next scheduler tick, if
        known) bounds the compute-chain fast-forward so a chain never
        crosses a preemption boundary."""
        if self.current_task is not None:
            raise SimulationError(
                f"core {self.core_id} already running {self.current_task}"
            )
        self._epoch += 1
        self._quantum_end = quantum_end
        self._chain = None
        if task is None:
            if self._idle_since is None:
                self._idle_since = self.engine.now
            return
        if self._idle_since is not None:
            self.idle_cycles += self.engine.now - self._idle_since
            self._idle_since = None
        self.current_task = task
        task.on_scheduled(self.engine.now, self.core_id)
        self.quantum_start = self.engine.now
        self._outstanding = 0
        self._window.clear()
        self._inflight_instr = 0
        self._stalled = False
        self._deferred = None
        self._schedule_next_issue()

    def preempt(self):
        """Remove the current task at a quantum boundary; returns it."""
        task = self.current_task
        if task is None:
            if self._idle_since is None:
                self._idle_since = self.engine.now
            return None
        now = self.engine.now
        self.sync_accounting(now)
        # Credit the fraction of the in-progress compute gap, rounding
        # half-up in pure integer arithmetic (a bare int() truncation
        # would systematically under-credit preempted gaps).
        gap = self._pending_gap_cycles
        if gap > 0:
            elapsed = now - self._pending_gap_start
            if elapsed < 0:
                elapsed = 0
            elif elapsed > gap:
                elapsed = gap
            task.stats.instructions += (
                2 * self._pending_instructions * elapsed + gap
            ) // (2 * gap)
        self._pending_gap_cycles = 0
        self._chain = None
        self._deferred = None
        task.on_descheduled(now)
        self.current_task = None
        self._epoch += 1
        return task

    @property
    def is_idle(self) -> bool:
        return self.current_task is None

    # -- issue loop -----------------------------------------------------------------

    def _schedule_next_issue(self) -> None:
        task = self.current_task
        now = self.engine.now
        qend = self._quantum_end
        next_access = task.workload.next_access
        access = next_access(task)
        gap = max(1, access.gap_cycles)
        offset = gap
        chain = None
        # Compute-chain fast-forward: fold consecutive pure-compute gaps
        # that end strictly inside the current quantum into one engine
        # event.  Per-gap instruction credits are replayed lazily by
        # sync_accounting, so every observer (preemption, stats
        # collection, time-series sampling) sees the same cycle-exact
        # accounting the one-event-per-gap schedule produced.
        while (
            access.address is None
            and (qend is None or now + offset < qend)
            and (chain is None or len(chain) < _CHAIN_MAX)
        ):
            if chain is None:
                chain = []
            chain.append((offset, access.instructions))
            access = next_access(task)
            gap = max(1, access.gap_cycles)
            offset += gap
        self._chain = chain
        self._chain_start = now
        self._chain_credited = 0
        self._chain_final = (offset - gap, gap, access.instructions)
        self._pending_gap_start = now + offset - gap
        self._pending_gap_cycles = gap
        self._pending_instructions = access.instructions
        self._schedule(offset, self._issue, (self._epoch, access))

    def sync_accounting(self, now: Optional[int] = None) -> None:
        """Credit fully-elapsed fast-forward chain gaps up to *now*.

        The fast-forward replaces one engine event per compute gap with a
        single event at the end of the chain; anything that reads
        ``task.stats.instructions`` mid-chain must call this first so the
        credit matches the per-event schedule cycle for cycle.  Also
        re-points the pending-gap proration window at whichever gap is in
        progress at *now*."""
        chain = self._chain
        task = self.current_task
        if chain is None or task is None:
            return
        if now is None:
            now = self.engine.now
        start = self._chain_start
        i = self._chain_credited
        n = len(chain)
        stats = task.stats
        while i < n and start + chain[i][0] <= now:
            stats.instructions += chain[i][1]
            i += 1
        self._chain_credited = i
        if i < n:
            end, instructions = chain[i]
            prev_end = chain[i - 1][0] if i else 0
            self._pending_gap_start = start + prev_end
            self._pending_gap_cycles = end - prev_end
            self._pending_instructions = instructions
        else:
            foff, fgap, finstr = self._chain_final
            self._pending_gap_start = start + foff
            self._pending_gap_cycles = fgap
            self._pending_instructions = finstr
            self._chain = None  # fully replayed

    def _issue(self, ctx: tuple[int, object]) -> None:
        epoch, access = ctx
        if epoch != self._epoch:
            return  # stale: the task was switched out
        task = self.current_task
        chain = self._chain
        if chain is not None:
            # The chain ends strictly before this event, so every folded
            # gap is fully elapsed: flush any uncredited remainder.
            stats = task.stats
            for i in range(self._chain_credited, len(chain)):
                stats.instructions += chain[i][1]
            self._chain = None
        if access.address is not None:
            # The front end runs ahead only while the MLP window and the
            # ROB have room (the head entry's gap has retired, so it does
            # not occupy the ROB); _do_issue and _on_read_complete repeat
            # this test.  Full: the gap elapsed but the front end is
            # stalled — defer the miss until retirement frees room.
            window = self._window
            if (
                self._outstanding >= task.workload.mlp
                or self._inflight_instr - (window[0].instructions if window else 0)
                >= self.rob_entries
            ):
                self._deferred = access
                self._stalled = True
                self._pending_gap_cycles = 0
                task.stats.mlp_stalls += 1
                return
        self._do_issue(epoch, task, access)

    def _do_issue(self, epoch: int, task, access) -> None:
        instructions, _, address, writeback = access
        stats = task.stats
        stats.instructions += instructions
        self._pending_gap_cycles = 0

        if address is None:
            # Pure-compute gap (no LLC miss): keep the front end running.
            self._schedule_next_issue()
            return

        entry = _RobEntry(instructions)
        window = self._window
        window.append(entry)
        inflight = self._inflight_instr + instructions
        self._inflight_instr = inflight
        request = MemoryRequest(
            RequestType.READ, address, self._decode(address), task.task_id,
            self._on_read_complete,
        )
        request.ctx = (epoch, task, entry)
        # enqueue only queues the request and schedules a pick; it never
        # calls back into this core, so the locals above stay current.
        self._enqueue(request)
        stats.reads_issued += 1
        outstanding = self._outstanding + 1
        self._outstanding = outstanding

        if writeback is not None:
            self._enqueue(
                MemoryRequest(
                    RequestType.WRITE, writeback, self._decode(writeback),
                    task.task_id,
                )
            )
            stats.writes_issued += 1

        if (
            outstanding < task.workload.mlp
            and inflight - window[0].instructions < self.rob_entries
        ):
            self._schedule_next_issue()
        else:
            self._stalled = True
            stats.mlp_stalls += 1

    def _on_read_complete(self, request: MemoryRequest) -> None:
        epoch, task, entry = request.ctx
        stats = task.stats
        stats.reads_completed += 1
        stats.read_latency_sum += request.finish_time - request.arrive_time
        stats.refresh_stall_sum += request.refresh_stall
        if epoch != self._epoch:
            return  # completion for a task no longer on this core
        entry.done = True
        outstanding = self._outstanding - 1
        self._outstanding = outstanding
        # In-order retirement: only entries at the head of the window
        # (every older miss complete) free ROB space.
        window = self._window
        inflight = self._inflight_instr
        while window and window[0].done:
            inflight -= window.popleft().instructions
        self._inflight_instr = inflight
        if (
            self._stalled
            and outstanding < task.workload.mlp
            and inflight - (window[0].instructions if window else 0)
            < self.rob_entries
        ):
            self._stalled = False
            deferred = self._deferred
            if deferred is not None:
                self._deferred = None
                self._do_issue(epoch, task, deferred)
            else:
                self._schedule_next_issue()

    # -- checkpoint/restore ----------------------------------------------------

    def rob_index(self, entry: _RobEntry) -> int:
        """Position of *entry* in the ROB window (for request ctx capture)."""
        for i, candidate in enumerate(self._window):
            if candidate is entry:
                return i
        raise SimulationError("ROB entry not in window")

    def rob_entry(self, index: int) -> _RobEntry:
        """ROB entry at *index* (for request ctx restore)."""
        return self._window[index]

    def snapshot_state(self) -> dict:
        """Serializable mutable state.  Call :meth:`sync_accounting` first
        so lazily credited fast-forward gaps are linearized; a chain whose
        tail extends past the barrier is captured mid-flight."""
        return {
            "current_task": (
                None if self.current_task is None else self.current_task.task_id
            ),
            "quantum_start": self.quantum_start,
            "_epoch": self._epoch,
            "_outstanding": self._outstanding,
            "_window": [[e.instructions, e.done] for e in self._window],
            "_inflight_instr": self._inflight_instr,
            "_stalled": self._stalled,
            "_deferred": encode_access(self._deferred),
            "_pending_gap_start": self._pending_gap_start,
            "_pending_gap_cycles": self._pending_gap_cycles,
            "_pending_instructions": self._pending_instructions,
            "_quantum_end": self._quantum_end,
            "_chain": (
                None
                if self._chain is None
                else [[off, instr] for off, instr in self._chain]
            ),
            "_chain_start": self._chain_start,
            "_chain_credited": self._chain_credited,
            "_chain_final": list(self._chain_final),
            "idle_cycles": self.idle_cycles,
            "_idle_since": self._idle_since,
        }

    def restore_state(self, state: dict, task_by_id: dict) -> None:
        """Inverse of :meth:`snapshot_state`; *task_by_id* resolves the
        running task reference."""
        task_id = state["current_task"]
        self.current_task = None if task_id is None else task_by_id[int(task_id)]
        self.quantum_start = int(state["quantum_start"])
        self._epoch = int(state["_epoch"])
        self._outstanding = int(state["_outstanding"])
        self._window = deque()
        for instructions, done in state["_window"]:
            entry = _RobEntry(int(instructions))
            entry.done = bool(done)
            self._window.append(entry)
        self._inflight_instr = int(state["_inflight_instr"])
        self._stalled = bool(state["_stalled"])
        self._deferred = decode_access(state["_deferred"])
        self._pending_gap_start = int(state["_pending_gap_start"])
        self._pending_gap_cycles = int(state["_pending_gap_cycles"])
        self._pending_instructions = int(state["_pending_instructions"])
        qend = state["_quantum_end"]
        self._quantum_end = None if qend is None else int(qend)
        chain = state["_chain"]
        self._chain = (
            None
            if chain is None
            else [(int(off), int(instr)) for off, instr in chain]
        )
        self._chain_start = int(state["_chain_start"])
        self._chain_credited = int(state["_chain_credited"])
        final = state["_chain_final"]
        self._chain_final = (int(final[0]), int(final[1]), int(final[2]))
        self.idle_cycles = int(state["idle_cycles"])
        since = state["_idle_since"]
        self._idle_since = None if since is None else int(since)

    def __repr__(self) -> str:
        running = self.current_task.task_id if self.current_task else "idle"
        return f"Core({self.core_id}, task={running})"


def encode_access(access) -> Optional[list]:
    """JSON-able form of a workload :class:`MemAccess` (or ``None``)."""
    if access is None:
        return None
    return [
        access.instructions,
        access.gap_cycles,
        access.address,
        access.writeback_address,
    ]


def decode_access(data):
    """Inverse of :func:`encode_access`."""
    if data is None:
        return None
    from repro.workloads.benchmark import MemAccess

    instructions, gap_cycles, address, writeback = data
    return MemAccess(
        int(instructions),
        int(gap_cycles),
        None if address is None else int(address),
        None if writeback is None else int(writeback),
    )
