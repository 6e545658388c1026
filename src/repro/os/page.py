"""Physical memory: frames, ownership, and bank accounting.

One frame = one OS page = one DRAM row (4KB by default), so the
frame-to-bank mapping is exactly the hardware address mapping the co-design
exposes to the OS.
"""

from __future__ import annotations

from repro.core.state import INT, Stateful, listof
from repro.dram.address import AddressMapping
from repro.errors import AllocationError


class PhysicalMemory(Stateful):
    """Frame-granular view of DRAM used by the allocators."""

    STATE = (("_owner", listof(INT, sized=True)),)

    def __init__(self, mapping: AddressMapping):
        self.mapping = mapping
        self.total_frames = mapping.total_frames
        # owner task_id per frame, -1 = free.  A flat array keeps the
        # allocator hot path cheap.
        self._owner = [-1] * self.total_frames

    @property
    def total_banks(self) -> int:
        return self.mapping.org.total_banks

    @property
    def frames_per_bank(self) -> int:
        return self.mapping.rows_per_bank

    def bank_of_frame(self, frame: int) -> int:
        """Flat bank index hosting *frame* (get_bank_id_from_page)."""
        return self.mapping.frame_to_bank_index(frame)

    def claim(self, frame: int, task_id: int) -> None:
        if self._owner[frame] != -1:
            raise AllocationError(
                f"frame {frame} already owned by task {self._owner[frame]}"
            )
        self._owner[frame] = task_id

    def release(self, frame: int) -> None:
        if self._owner[frame] == -1:
            raise AllocationError(f"frame {frame} is already free")
        self._owner[frame] = -1

    def owner(self, frame: int) -> int:
        return self._owner[frame]

    def used_frames(self) -> int:
        return sum(1 for o in self._owner if o != -1)

    def __repr__(self) -> str:
        return (
            f"PhysicalMemory({self.total_frames} frames, "
            f"{self.used_frames()} used)"
        )
