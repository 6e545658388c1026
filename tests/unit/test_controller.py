"""Unit tests for the memory controller (FR-FCFS, drain, refresh entry)."""

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming


@pytest.fixture
def timing():
    return DramTiming.from_config(default_system_config(refresh_scale=1024))


@pytest.fixture
def setup(timing):
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=64)
    mc = MemoryController(engine, timing, org, mapping)
    return engine, mapping, mc


def read_to(mapping, frame, column=0, on_complete=None):
    address = mapping.frame_offset_to_address(frame, column * 64)
    return MemoryRequest(
        RequestType.READ, address, mapping.address_to_coordinate(address),
        on_complete=on_complete,
    )


def write_to(mapping, frame, column=0):
    address = mapping.frame_offset_to_address(frame, column * 64)
    return MemoryRequest(
        RequestType.WRITE, address, mapping.address_to_coordinate(address)
    )


def test_single_read_completes_with_callback(setup, timing):
    engine, mapping, mc = setup
    done = []
    mc.enqueue(read_to(mapping, 0, on_complete=lambda r: done.append(r)))
    engine.run_until(100_000)
    assert len(done) == 1
    req = done[0]
    assert req.finish_time == timing.tRCD + timing.tCL + timing.tBL
    assert req.latency == req.finish_time
    assert mc.stats.reads_completed == 1


def test_row_hit_prioritized_over_older_conflict(setup, timing):
    engine, mapping, mc = setup
    order = []
    # Frames 0 and 16 share bank 0 (16 banks): rows 0 and 1.
    first = read_to(mapping, 0, on_complete=lambda r: order.append("row0"))
    conflict = read_to(mapping, 16, on_complete=lambda r: order.append("row1"))
    hit = read_to(mapping, 0, 5, on_complete=lambda r: order.append("row0hit"))
    mc.enqueue(first)
    mc.enqueue(conflict)
    mc.enqueue(hit)
    engine.run_until(100_000)
    # FR-FCFS: the hit to the open row jumps the older conflict.
    assert order == ["row0", "row0hit", "row1"]


def test_requests_to_different_banks_overlap(setup, timing):
    engine, mapping, mc = setup
    finishes = {}
    for frame in (0, 1):  # banks 0 and 1
        mc.enqueue(
            read_to(
                mapping, frame,
                on_complete=lambda r, f=frame: finishes.__setitem__(f, r.finish_time),
            )
        )
    engine.run_until(100_000)
    serial = 2 * (timing.tRCD + timing.tCL + timing.tBL)
    assert max(finishes.values()) < serial


def test_same_bank_requests_serialize_on_bank(setup, timing):
    engine, mapping, mc = setup
    finishes = []
    for column in (0, 1):
        mc.enqueue(
            read_to(mapping, 0, column,
                    on_complete=lambda r: finishes.append(r.finish_time))
        )
    engine.run_until(100_000)
    assert finishes[1] >= finishes[0] + timing.tBL


def test_write_queue_drain_mode(setup, timing):
    engine, mapping, mc = setup
    # Fill past the high watermark -> drain engages.
    for i in range(mc.write_drain_high):
        mc.enqueue(write_to(mapping, i % 32, i // 32))
    assert mc.drain_mode
    engine.run_until(2_000_000)
    assert not mc.drain_mode
    assert mc.stats.writes_completed == mc.write_drain_high
    assert mc.write_count == 0


def test_drain_prioritizes_writes_over_reads(setup, timing):
    engine, mapping, mc = setup
    order = []
    for i in range(mc.write_drain_high):
        mc.enqueue(write_to(mapping, i % 16))
    assert mc.drain_mode
    mc.enqueue(read_to(mapping, 0, 7, on_complete=lambda r: order.append("read")))
    engine.run_until(3_000_000)
    assert order == ["read"]
    # The read completed but writes on its bank went first while draining.
    assert mc.stats.writes_completed == mc.write_drain_high


def test_opportunistic_write_when_no_reads(setup):
    engine, mapping, mc = setup
    mc.enqueue(write_to(mapping, 3))
    assert not mc.drain_mode
    engine.run_until(100_000)
    assert mc.stats.writes_completed == 1


def test_refresh_bank_blocks_only_that_bank(setup, timing):
    engine, mapping, mc = setup
    end = mc.refresh_bank(0, 0, 0, timing.trfc_pb)
    finishes = {}
    mc.enqueue(read_to(mapping, 0, on_complete=lambda r: finishes.__setitem__(0, r)))
    mc.enqueue(read_to(mapping, 1, on_complete=lambda r: finishes.__setitem__(1, r)))
    engine.run_until(200_000)
    assert finishes[0].start_time >= end  # bank 0 waited
    assert finishes[1].finish_time < end  # bank 1 unaffected
    assert finishes[0].refresh_stall > 0


def test_refresh_rank_blocks_all_banks_in_rank(setup, timing):
    engine, mapping, mc = setup
    end = mc.refresh_rank(0, 0, timing.trfc_ab)
    finishes = {}
    mc.enqueue(read_to(mapping, 0, on_complete=lambda r: finishes.__setitem__("r0", r)))
    # Frame 8 -> rank 1 bank 0 (other rank, unaffected).
    mc.enqueue(read_to(mapping, 8, on_complete=lambda r: finishes.__setitem__("r1", r)))
    engine.run_until(200_000)
    assert finishes["r0"].start_time >= end
    assert finishes["r1"].finish_time < end
    assert mc.stats.rank_refreshes == 1


def test_refresh_waits_for_open_row_precharge(setup, timing):
    engine, mapping, mc = setup
    done = []
    mc.enqueue(read_to(mapping, 0, on_complete=lambda r: done.append(r)))
    engine.run_until(10)  # the read has been scheduled (row open)
    end = mc.refresh_bank(0, 0, 0, timing.trfc_pb)
    # Refresh must start after the in-flight activate's tRAS + tRP.
    assert end >= timing.tRAS + timing.tRP + timing.trfc_pb


def test_queued_requests_per_bank(setup):
    engine, mapping, mc = setup
    for _ in range(3):
        mc.enqueue(read_to(mapping, 2))  # bank 2
    mc.enqueue(write_to(mapping, 5))  # bank 5
    counts = mc.queued_requests_per_bank()
    # One read may already have been issued by the time we look.
    assert counts[2] >= 2
    assert counts[5] >= 0
    assert sum(counts) >= 3


def test_stats_row_hit_rate(setup):
    engine, mapping, mc = setup
    done = []
    mc.enqueue(read_to(mapping, 0, 0, on_complete=lambda r: done.append(r)))
    mc.enqueue(read_to(mapping, 0, 1, on_complete=lambda r: done.append(r)))
    engine.run_until(100_000)
    assert mc.stats.reads_completed == 2
    assert mc.stats.row_hits == 1
    assert mc.stats.row_hit_rate == pytest.approx(0.5)
