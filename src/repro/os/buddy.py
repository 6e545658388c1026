"""Classic binary buddy allocator (Linux-style, Section 2.3).

Maintains free lists per order; allocation splits larger blocks, freeing
coalesces with the buddy block when both halves are free.  The allocator is
bank-oblivious — the *baseline* configuration of the paper — and is also the
backing store the bank-aware partitioning allocator (Algorithm 2) pulls
pages from.
"""

from __future__ import annotations

from bisect import insort

from repro.core.state import INT, INTS, Stateful, listof, mapping
from repro.errors import AllocationError, OutOfMemoryError


class BuddyAllocator(Stateful):
    """Buddy allocator over a contiguous range of page frames.

    Free lists hold block base frames, kept sorted ascending so allocation
    is deterministic and favors low addresses (like Linux's free-list
    ordering after boot).
    """

    MAX_ORDER = 11  # Linux default: blocks up to 2^10 pages

    STATE = (
        ("_free", listof(INTS, sized=True)),
        ("_allocated_order", mapping(INT, INT)),
    )
    DERIVED = ("_free_set",)

    def __init__(self, total_frames: int, max_order: int | None = None):
        if total_frames <= 0:
            raise AllocationError("total_frames must be positive")
        self.total_frames = total_frames
        self.max_order = max_order if max_order is not None else self.MAX_ORDER
        if self.max_order < 1:
            raise AllocationError("max_order must be >= 1")
        self._free: list[list[int]] = [[] for _ in range(self.max_order)]
        # block_order[frame] = order of the allocated block based there;
        # -1 when the frame is not an allocated block base.
        self._allocated_order: dict[int, int] = {}
        self._free_set: set[tuple[int, int]] = set()  # (order, base)
        self._seed_initial_blocks()

    def _seed_initial_blocks(self) -> None:
        base = 0
        remaining = self.total_frames
        while remaining > 0:
            order = min(self.max_order - 1, remaining.bit_length() - 1)
            # The block must also be naturally aligned to its size.
            while order > 0 and (base % (1 << order) != 0 or (1 << order) > remaining):
                order -= 1
            self._insert_free(order, base)
            base += 1 << order
            remaining -= 1 << order

    # -- free-list plumbing ---------------------------------------------------

    def _insert_free(self, order: int, base: int) -> None:
        # Keep ascending order (bases are unique, so insort's tie rule
        # never applies).
        insort(self._free[order], base)
        self._free_set.add((order, base))

    def _remove_free(self, order: int, base: int) -> None:
        self._free[order].remove(base)
        self._free_set.remove((order, base))

    # -- public API --------------------------------------------------------------

    def alloc(self, order: int = 0) -> int:
        """Allocate a block of 2^order frames; returns its base frame."""
        if not 0 <= order < self.max_order:
            raise AllocationError(f"order {order} out of range")
        for o in range(order, self.max_order):
            if self._free[o]:
                base = self._free[o][0]
                self._remove_free(o, base)
                # Split down to the requested order, returning the low half
                # and freeing each high half (buddy).
                while o > order:
                    o -= 1
                    buddy = base + (1 << o)
                    self._insert_free(o, buddy)
                self._allocated_order[base] = order
                return base
        raise OutOfMemoryError(f"no free block of order {order}")

    def alloc_page(self) -> int:
        """Allocate a single page frame.

        The order-0 head is taken directly when there is one: the same
        frame and state :meth:`alloc` would produce, without its search
        and split loop (a footprint allocation makes one call per page).
        """
        free = self._free[0]
        if free:
            base = free.pop(0)
            self._free_set.remove((0, base))
            self._allocated_order[base] = 0
            return base
        return self.alloc(0)

    def free(self, base: int, order: int | None = None) -> None:
        """Free a previously allocated block, coalescing with buddies."""
        recorded = self._allocated_order.pop(base, None)
        if recorded is None:
            raise AllocationError(f"frame {base} was not an allocated block base")
        if order is not None and order != recorded:
            self._allocated_order[base] = recorded
            raise AllocationError(
                f"block at {base} has order {recorded}, not {order}"
            )
        order = recorded
        while order < self.max_order - 1:
            buddy = base ^ (1 << order)
            if (order, buddy) not in self._free_set:
                break
            self._remove_free(order, buddy)
            base = min(base, buddy)
            order += 1
        self._insert_free(order, base)

    def free_frames(self) -> int:
        """Total number of free page frames."""
        return sum(len(lst) << order for order, lst in enumerate(self._free))

    def _rebuild(self) -> None:
        self._free_set = {
            (order, base)
            for order, lst in enumerate(self._free)
            for base in lst
        }

    def has_free(self) -> bool:
        return any(self._free)

    def free_blocks(self) -> list[tuple[int, int]]:
        """All free blocks as (order, base), for inspection/tests."""
        return [
            (order, base)
            for order, lst in enumerate(self._free)
            for base in lst
        ]

    def __repr__(self) -> str:
        return (
            f"BuddyAllocator({self.free_frames()}/{self.total_frames} frames free)"
        )
