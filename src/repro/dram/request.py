"""Memory request objects exchanged between cores and the controller."""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.dram.address import DramCoordinate


class RequestType(enum.Enum):
    READ = "read"
    WRITE = "write"


class MemoryRequest:
    """One cache-line-sized DRAM transaction.

    Latency accounting fields are filled in by the controller:

    ``arrive_time``   when the request entered the controller queue
    ``start_time``    when its first DRAM command issued
    ``finish_time``   when its data burst completed
    ``refresh_stall`` cycles its start was delayed by a refresh-busy bank
    """

    __slots__ = (
        "req_id",
        "rtype",
        "address",
        "coord",
        "task_id",
        "arrive_time",
        "start_time",
        "finish_time",
        "refresh_stall",
        "on_complete",
        "row_hit",
        "ctx",
        "is_read",
    )

    def __init__(
        self,
        rtype: RequestType,
        address: int,
        coord: DramCoordinate,
        task_id: int = -1,
        on_complete: Optional[Callable[["MemoryRequest"], None]] = None,
        req_id: int = -1,
    ):
        # Ids come from the accepting controller (per-run, deterministic),
        # not a process-global counter (RPR002); -1 = not yet enqueued.
        self.req_id = req_id
        self.rtype = rtype
        # Precomputed: the controller/bank hot path tests this on every
        # queue, service and completion step.
        self.is_read = rtype is RequestType.READ
        self.address = address
        self.coord = coord
        self.task_id = task_id
        self.arrive_time = -1
        self.start_time = -1
        self.finish_time = -1
        self.refresh_stall = 0
        self.on_complete = on_complete
        self.row_hit = False
        # Issuer-owned completion context (e.g. the core's ROB entry).
        # Letting the issuer hang its state here keeps ``on_complete`` a
        # plain bound method instead of a per-request closure.
        self.ctx = None

    @property
    def latency(self) -> int:
        """Total queueing + service latency in CPU cycles."""
        if self.finish_time < 0 or self.arrive_time < 0:
            raise ValueError("request has not completed")
        return self.finish_time - self.arrive_time

    def __repr__(self) -> str:
        return (
            f"MemoryRequest(#{self.req_id} {self.rtype.value} "
            f"bank={self.coord.bank_key} row={self.coord.row})"
        )
