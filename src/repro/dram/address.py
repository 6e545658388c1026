"""Physical-address <-> DRAM-coordinate mapping.

The OS side of the co-design needs exactly this mapping exposed to it
(paper Section 1: "exposing the hardware address-mapping ... to the OS"), so
it lives in one shared object used by both the memory controller and the
bank-aware allocator.

The default layout places the bank bits directly above the page-offset/row
bits, i.e. consecutive 4KB frames stripe round-robin across channels, then
banks, then ranks — the interleaving that gives the bank-oblivious baseline
its natural bank-level parallelism.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.config.dram_configs import LAYOUTS, DramOrganization
from repro.errors import AddressMapError

#: Frame-decode memo bound.  Cleared (deterministically, by insertion
#: count alone) when full, so long sweeps cannot grow it without bound.
_FRAME_CACHE_MAX = 65536


class DramCoordinate(NamedTuple):
    """A fully decoded DRAM location.

    A NamedTuple rather than a dataclass: the controller decodes one of
    these per memory access, and building a tuple is cheaper than
    initialising a dataclass.  Immutable, ordered, hashable — same
    contract as the frozen dataclass it replaced.
    """

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    @property
    def bank_key(self) -> tuple[int, int, int]:
        """(channel, rank, bank) triple identifying the physical bank."""
        return (self.channel, self.rank, self.bank)


#: Module-level binding of the coordinate constructor used per access
#: and per frame decode.  ``namedtuple._make`` is a Python classmethod,
#: ``tuple.__new__`` plus a length check (CPython 3.10-3.12), so each
#: call still runs one Python frame.
_coord_make = DramCoordinate._make


class AddressMapping:
    """Maps physical addresses and frame numbers onto DRAM coordinates.

    One DRAM row (4KB by default) holds exactly one OS page, so a frame
    number maps to a single (channel, rank, bank, row) and the column is
    selected by the in-page offset.  The frame-number bit layout is
    selected by *layout* (a name in
    :data:`~repro.config.dram_configs.LAYOUTS`); this is exactly the
    hardware mapping the co-design exposes to the OS.
    """

    def __init__(
        self,
        organization: DramOrganization,
        total_rows_per_bank: int,
        layout: str = "interleaved",
    ):
        organization.validate()
        if total_rows_per_bank <= 0:
            raise AddressMapError("rows per bank must be positive")
        if layout not in LAYOUTS:
            raise AddressMapError(
                f"unknown layout {layout!r}; known: {sorted(LAYOUTS)}"
            )
        self.org = organization
        self.layout = layout
        self.rows_per_bank = total_rows_per_bank
        self._channels = organization.channels
        self._ranks = organization.ranks_per_channel
        self._banks = organization.banks_per_rank
        self._field_sizes = {
            "channel": self._channels,
            "rank": self._ranks,
            "bank": self._banks,
            "row": total_rows_per_bank,
        }
        self._fields = LAYOUTS[layout]
        self.total_frames = (
            self._channels * self._ranks * self._banks * total_rows_per_bank
        )
        self.page_bytes = organization.row_size_bytes
        self.total_bytes = self.total_frames * self.page_bytes
        # (divisor, size) of the channel, rank, bank and row fields in the
        # layout's mixed radix: field f of a frame is ``frame // d_f % s_f``.
        divisor = 1
        radix = {}
        for field in self._fields:
            size = self._field_sizes[field]
            radix[field] = (divisor, size)
            divisor *= size
        self._radix = (
            *radix["channel"], *radix["rank"], *radix["bank"], *radix["row"]
        )
        # Frame -> (channel, rank, bank, row) memo; frames repeat heavily
        # within a run (every access to a page hits the same frame).
        self._frame_cache: dict[int, DramCoordinate] = {}
        # Byte address split via shifts when the page/cacheline sizes are
        # powers of two (they always are for real organizations).
        page = self.page_bytes
        line = organization.cacheline_bytes
        if page & (page - 1) == 0 and line & (line - 1) == 0:
            self._page_shift = page.bit_length() - 1
            self._page_mask = page - 1
            self._line_shift = line.bit_length() - 1
        else:  # pragma: no cover - exotic configs keep the divmod path
            self._page_shift = None
            self._page_mask = 0
            self._line_shift = 0
        # Flat bank index -> (channel, rank, bank) lookup table.
        self._unflat = tuple(
            (
                flat // (self._ranks * self._banks),
                (flat // self._banks) % self._ranks,
                flat % self._banks,
            )
            for flat in range(organization.total_banks)
        )

    # -- frame-level mapping (used by the OS allocator) ----------------------

    def frame_to_coordinate(self, frame: int) -> DramCoordinate:
        """Decode a physical frame number into a DRAM coordinate (column 0)."""
        coord = self._frame_cache.get(frame)
        if coord is not None:
            return coord
        if not 0 <= frame < self.total_frames:
            raise AddressMapError(
                f"frame {frame} out of range [0, {self.total_frames})"
            )
        cd, channels, rd, ranks, bd, banks, wd, rows = self._radix
        coord = _coord_make(
            (frame // cd % channels, frame // rd % ranks, frame // bd % banks,
             frame // wd % rows, 0)
        )
        cache = self._frame_cache
        if len(cache) >= _FRAME_CACHE_MAX:
            cache.clear()
        cache[frame] = coord
        return coord

    def coordinate_to_frame(self, coord: DramCoordinate) -> int:
        """Encode a DRAM coordinate back into a frame number."""
        self._check_coord(coord)
        values = {
            "channel": coord.channel,
            "rank": coord.rank,
            "bank": coord.bank,
            "row": coord.row,
        }
        frame = 0
        for field in reversed(self._fields):
            frame = frame * self._field_sizes[field] + values[field]
        return frame

    def frame_to_bank_index(self, frame: int) -> int:
        """Flat bank index in [0, total_banks) for a frame.

        This is the ``get_bank_id_from_page`` helper of Algorithm 2.  It
        runs once per allocated page, so it decodes only the three bank
        fields and neither builds nor caches a coordinate.
        """
        if not 0 <= frame < self.total_frames:
            raise AddressMapError(
                f"frame {frame} out of range [0, {self.total_frames})"
            )
        cd, channels, rd, ranks, bd, banks, _, _ = self._radix
        return (
            frame // cd % channels * ranks + frame // rd % ranks
        ) * banks + frame // bd % banks

    # -- address-level mapping (used by the memory controller) ---------------

    def address_to_coordinate(self, address: int) -> DramCoordinate:
        """Decode a byte address into a full DRAM coordinate."""
        if address < 0 or address >= self.total_bytes:
            raise AddressMapError(
                f"address {address:#x} out of range [0, {self.total_bytes:#x})"
            )
        if self._page_shift is not None:
            frame = address >> self._page_shift
            column = (address & self._page_mask) >> self._line_shift
        else:  # pragma: no cover - exotic configs keep the divmod path
            frame, offset = divmod(address, self.page_bytes)
            column = offset // self.org.cacheline_bytes
        coord = self._frame_cache.get(frame)
        if coord is None:
            coord = self.frame_to_coordinate(frame)
        # _make is a Python classmethod (tuple.__new__ plus a length
        # check), not a C-level constructor: one Python frame per access,
        # bound once at module level rather than looked up per call.
        return _coord_make((coord[0], coord[1], coord[2], coord[3], column))

    def frame_offset_to_address(self, frame: int, offset: int = 0) -> int:
        """Byte address of *offset* within physical frame *frame*."""
        if not 0 <= offset < self.page_bytes:
            raise AddressMapError(f"offset {offset} outside page")
        return frame * self.page_bytes + offset

    # -- helpers --------------------------------------------------------------

    def flat_bank_index(self, channel: int, rank: int, bank: int) -> int:
        """Flatten (channel, rank, bank) into [0, total_banks).

        Layout: ``channel * ranks * banks + rank * banks + bank`` — banks of
        rank 0 come first, matching the refresh stretch order of the
        proposed schedule (bank 0..7 of rank 0, then rank 1).
        """
        return (channel * self._ranks + rank) * self._banks + bank

    def unflatten_bank_index(self, index: int) -> tuple[int, int, int]:
        """Inverse of :meth:`flat_bank_index` (precomputed table)."""
        if not 0 <= index < self.org.total_banks:
            raise AddressMapError(f"bank index {index} out of range")
        return self._unflat[index]

    def bank_of_flat_index(self, index: int) -> int:
        """The per-rank bank number of a flat bank index."""
        return index % self._banks

    def _check_coord(self, coord: DramCoordinate) -> None:
        if not (
            0 <= coord.channel < self._channels
            and 0 <= coord.rank < self._ranks
            and 0 <= coord.bank < self._banks
            and 0 <= coord.row < self.rows_per_bank
        ):
            raise AddressMapError(f"coordinate out of range: {coord}")

    def __repr__(self) -> str:
        return (
            f"AddressMapping({self._channels}ch x {self._ranks}rk x "
            f"{self._banks}bk x {self.rows_per_bank}rows)"
        )
