"""Unit tests for bank, rank and bus timing, through a bare controller."""

import pytest

from repro.config.system_configs import default_system_config
from repro.dram.timing import DramTiming
from repro.errors import ProtocolError
from tests.conftest import BareDram


@pytest.fixture
def timing():
    return DramTiming.from_config(default_system_config(refresh_scale=1024))


@pytest.fixture
def dram(timing):
    return BareDram(timing)


def data_starts(dram, *accesses):
    """Open row 1 in each bank named by *accesses* (``(rank, bank,
    is_read)`` each), then issue them together at one later cycle as row
    hits, so the data bus alone orders them.  Returns the cycles their
    data bursts start."""
    for rank, bank, _ in accesses:
        dram.access(row=1, rank=rank, bank=bank)
    dram.at(10_000)
    requests = [
        dram.access(row=1, rank=rank, bank=bank, is_read=is_read)
        for rank, bank, is_read in accesses
    ]
    dram.run()
    assert all(r.row_hit for r in requests)
    return [r.finish_time - dram.timing.tBL for r in requests]


class TestDemandAccess:
    def test_cold_access_is_row_miss(self, dram, timing):
        read = dram.access(row=3)
        dram.run()
        assert not read.row_hit
        # ACT at 0, CAS at tRCD, data at +tCL, done at +tBL.
        assert read.start_time == timing.tRCD
        assert read.finish_time == timing.tRCD + timing.tCL + timing.tBL
        assert dram.bank.open_row == 3
        assert dram.bank.stats.row_misses == 1

    def test_second_access_same_row_hits(self, dram):
        first = dram.access(row=3)
        dram.run()
        second = dram.at(first.finish_time).access(row=3, column=5)
        dram.run()
        assert second.row_hit
        assert dram.bank.stats.row_hits == 1

    def test_row_conflict_pays_precharge(self, dram, timing):
        first = dram.access(row=3)
        dram.run()
        t = first.finish_time + timing.tRAS  # safely past tRAS
        conflict = dram.at(t).access(row=9)
        dram.run()
        assert not conflict.row_hit
        assert conflict.start_time >= t + timing.tRP + timing.tRCD
        assert dram.bank.stats.row_conflicts == 1
        assert dram.bank.open_row == 9

    def test_row_hit_faster_than_conflict(self, timing):
        start = 10_000
        hit_dram, conflict_dram = BareDram(timing), BareDram(timing)
        hit_dram.access(row=1)
        conflict_dram.access(row=1)
        hit = hit_dram.at(start).access(row=1)
        conflict = conflict_dram.at(start).access(row=2)
        hit_dram.run()
        conflict_dram.run()
        assert hit.finish_time - start < conflict.finish_time - start

    def test_trc_limits_back_to_back_activates(self, dram, timing):
        dram.access(row=1)
        conflict = dram.at(1).access(row=2)
        dram.run()
        # Second ACT must wait for tRC after the first (plus PRE path).
        assert conflict.start_time >= timing.tRC - timing.tRCD

    def test_write_updates_write_stats_and_recovery(self, dram, timing):
        write = dram.access(row=2, is_read=False)
        dram.run()
        assert dram.bank.stats.writes == 1
        # Write recovery pushes the earliest precharge past data + tWR.
        assert dram.bank.pre_ready >= write.finish_time + timing.tWR


class TestRefresh:
    def test_refresh_blocks_bank(self, timing):
        """A read that arrives inside [start, end) waits for the end;
        one that arrives at the end does not."""
        end = 100 + timing.trfc_pb
        for arrive, stall in ((100, timing.trfc_pb), (end - 1, 1), (end, 0)):
            dram = BareDram(timing)
            assert dram.at(100).refresh(timing.trfc_pb) == end
            read = dram.at(arrive).access(row=1)
            dram.run()
            assert read.refresh_stall == stall
            assert read.start_time == max(arrive, end) + timing.tRCD

    def test_refresh_closes_open_row(self, dram, timing):
        dram.access(row=5)
        dram.run()
        dram.refresh(timing.trfc_pb)
        assert dram.bank.open_row is None

    def test_access_after_refresh_waits(self, dram, timing):
        end = dram.refresh(timing.trfc_pb)
        read = dram.at(10).access(row=1)
        dram.run()
        assert read.start_time >= end
        assert read.refresh_stall == end - 10

    def test_refresh_start_respects_open_row(self, dram, timing):
        dram.access(row=5)
        end = dram.at(1).refresh(timing.trfc_pb)
        # Must precharge first: at least tRAS after ACT plus tRP.
        assert end - timing.trfc_pb >= timing.tRAS + timing.tRP

    def test_refresh_stats(self, dram):
        dram.refresh(100)
        dram.at(200).refresh(100)
        assert dram.bank.stats.refreshes == 2
        assert dram.bank.stats.refresh_busy_cycles == 200

    def test_zero_trfc_rejected(self, dram):
        with pytest.raises(ProtocolError):
            dram.refresh(0)

    def test_refresh_stall_attribution_for_late_arrival(self, dram):
        dram.refresh(1000)
        # Arrives mid-refresh: only the remaining overlap is attributed.
        read = dram.at(600).access(row=1)
        dram.run()
        assert read.refresh_stall == 400


class TestRank:
    def test_trrd_spacing(self, dram, timing):
        dram.access(row=1, bank=0)
        dram.access(row=1, bank=1)
        dram.run()
        assert dram.act_times() == [0, timing.tRRD]

    def test_tfaw_window(self, dram, timing):
        for bank in range(5):
            dram.access(row=1, bank=bank)
        dram.run()
        # The first ACT was at 0 and has left the four-ACT window.
        assert dram.act_times()[:3] == [timing.tRRD, 2 * timing.tRRD, 3 * timing.tRRD]
        assert dram.act_times()[3] >= timing.tFAW  # 5th ACT waits for the window

    def test_no_constraint_when_idle(self, dram):
        dram.at(42).access(row=1)
        dram.run()
        assert dram.act_times() == [42]


class TestChannelBus:
    def test_serializes_bursts(self, dram, timing):
        a, b = data_starts(dram, (0, 0, True), (0, 1, True))
        assert b >= a + timing.tBL

    def test_write_to_read_turnaround(self, dram, timing):
        write, read = data_starts(dram, (0, 0, False), (0, 1, True))
        assert read >= write + timing.tBL + timing.tWTR

    def test_rank_switch_penalty(self, dram, timing):
        a, b = data_starts(dram, (0, 0, True), (1, 0, True))
        assert b >= a + timing.tBL + timing.tRTRS

    def test_utilization(self, dram, timing):
        dram.access(row=1)
        dram.run()
        bus = dram.mc.buses[0]
        assert bus.utilization(timing.tBL) == pytest.approx(1.0)
        assert bus.utilization(0) == 0.0
