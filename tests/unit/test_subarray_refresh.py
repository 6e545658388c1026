"""Unit tests for subarray-granularity refresh (Section 7 extension)."""

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping, DramCoordinate
from repro.dram.bank import Bank, ChannelBus, Rank
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming
from repro.errors import ConfigError


@pytest.fixture
def timing():
    return DramTiming.from_config(default_system_config(refresh_scale=1024))


def make_request(row, arrive=0):
    coord = DramCoordinate(channel=0, rank=0, bank=0, row=row, column=0)
    req = MemoryRequest(RequestType.READ, 0, coord)
    req.arrive_time = arrive
    return req


def make_bank(num_subarrays=4, rows=64):
    return Bank(0, 0, 0, 0, num_subarrays=num_subarrays, rows_per_bank=rows)


class TestSubarrayMapping:
    def test_rows_partition_into_contiguous_subarrays(self):
        bank = make_bank(num_subarrays=4, rows=64)
        assert bank.subarray_of_row(0) == 0
        assert bank.subarray_of_row(15) == 0
        assert bank.subarray_of_row(16) == 1
        assert bank.subarray_of_row(63) == 3

    def test_single_subarray_everything_is_zero(self):
        bank = make_bank(num_subarrays=1, rows=64)
        assert bank.subarray_of_row(63) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DramOrganization(subarrays_per_bank=0).validate()


class TestSubarrayRefreshBlocking:
    def test_blocks_only_the_refreshing_subarray(self, timing):
        bank, rank, bus = make_bank(), Rank(0, 0), ChannelBus()
        end = bank.begin_refresh(0, timing.trfc_pb, subarray=0)
        # Row 5 is in subarray 0 -> blocked.
        blocked = bank.service(make_request(row=5), 0, timing, rank, bus)
        assert blocked.cas_time >= end
        # Row 40 is in subarray 2 -> unaffected (fresh bank for clean timing).
        bank2, rank2, bus2 = make_bank(), Rank(0, 0), ChannelBus()
        bank2.begin_refresh(0, timing.trfc_pb, subarray=0)
        free = bank2.service(make_request(row=40), 0, timing, rank2, bus2)
        assert free.finish < end

    def test_stall_attribution_for_subarray_block(self, timing):
        bank, rank, bus = make_bank(), Rank(0, 0), ChannelBus()
        end = bank.begin_refresh(0, 1000, subarray=1)
        req = make_request(row=20, arrive=100)  # subarray 1
        bank.service(req, 100, timing, rank, bus)
        assert req.refresh_stall == 900

    def test_open_row_in_other_subarray_survives(self, timing):
        bank, rank, bus = make_bank(), Rank(0, 0), ChannelBus()
        bank.service(make_request(row=40), 0, timing, rank, bus)  # subarray 2
        bank.begin_refresh(10_000, 500, subarray=0)
        assert bank.open_row == 40

    def test_open_row_in_refreshing_subarray_closed(self, timing):
        bank, rank, bus = make_bank(), Rank(0, 0), ChannelBus()
        bank.service(make_request(row=5), 0, timing, rank, bus)  # subarray 0
        bank.begin_refresh(10_000, 500, subarray=0)
        assert bank.open_row is None

    def test_full_bank_refresh_still_blocks_everything(self, timing):
        bank, rank, bus = make_bank(), Rank(0, 0), ChannelBus()
        end = bank.begin_refresh(0, timing.trfc_pb)  # no subarray arg
        service = bank.service(make_request(row=40), 0, timing, rank, bus)
        assert service.cas_time >= end


class TestSchedulerIntegration:
    def build(self, scheduler_name):
        from repro.dram.refresh import make_scheduler

        config = default_system_config(
            refresh_scale=1024,
            organization=DramOrganization(subarrays_per_bank=8),
        )
        timing = DramTiming.from_config(config)
        engine = Engine()
        mapping = AddressMapping(config.organization, total_rows_per_bank=64)
        mc = MemoryController(engine, timing, config.organization, mapping)
        sched = make_scheduler(scheduler_name)
        sched.attach(mc, engine, timing)
        return engine, timing, mc, sched

    @pytest.mark.parametrize("name", ["same_bank", "per_bank"])
    def test_subarray_refresh_walks_all_subarrays(self, name):
        engine, timing, mc, sched = self.build(name)
        seen = set()
        original = mc.refresh_bank

        def spy(channel, rank, bank, trfc, subarray=None):
            seen.add(subarray)
            return original(channel, rank, bank, trfc, subarray=subarray)

        mc.refresh_bank = spy
        sched.start()
        engine.run_until(timing.trefw - 1)
        assert None not in seen
        assert seen == set(range(8))

    def test_subarray_mode_reduces_refresh_stalls_end_to_end(self):
        from repro import api

        common = dict(num_windows=1.0, warmup_windows=0.25, refresh_scale=512)
        plain = api.run("WL-1", "per_bank", **common)
        salp = api.run(
            "WL-1",
            "per_bank",
            organization=DramOrganization(subarrays_per_bank=8),
            **common,
        )
        assert salp.refresh_stalled_reads < plain.refresh_stalled_reads
        assert salp.hmean_ipc >= plain.hmean_ipc
