"""Unit tests for subarray-granularity refresh (Section 7 extension)."""

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.timing import DramTiming
from repro.errors import ConfigError
from tests.conftest import BareDram


@pytest.fixture
def timing():
    return DramTiming.from_config(default_system_config(refresh_scale=1024))


def make_bank(timing, num_subarrays=4):
    """Bank 0 of a bare controller: 64 rows per bank."""
    return BareDram(timing, subarrays=num_subarrays).bank


class TestSubarrayMapping:
    def test_rows_partition_into_contiguous_subarrays(self, timing):
        bank = make_bank(timing, num_subarrays=4)
        assert bank.subarray_of_row(0) == 0
        assert bank.subarray_of_row(15) == 0
        assert bank.subarray_of_row(16) == 1
        assert bank.subarray_of_row(63) == 3

    def test_single_subarray_everything_is_zero(self, timing):
        bank = make_bank(timing, num_subarrays=1)
        assert bank.subarray_of_row(63) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DramOrganization(subarrays_per_bank=0).validate()


class TestSubarrayRefreshBlocking:
    """A whole-bank refresh pushes an idle bank's next pick to the
    refresh's end; a subarray refresh does not, so a read that reaches
    the bank during one is picked on arrival and delayed (and charged)
    only if it targets the refreshing subarray."""

    def test_blocks_only_the_refreshing_subarray(self, timing):
        dram = BareDram(timing, subarrays=4)
        blocked = dram.access(row=5)  # Row 5 is in subarray 0 -> blocked.
        end = dram.refresh(timing.trfc_pb, subarray=0)
        dram.run()
        assert blocked.start_time >= end
        # Row 40 is in subarray 2 -> unaffected (fresh bank for clean timing).
        dram2 = BareDram(timing, subarrays=4)
        free = dram2.access(row=40)
        dram2.refresh(timing.trfc_pb, subarray=0)
        dram2.run()
        assert free.finish_time < end

    def test_stall_attribution_for_subarray_block(self, timing):
        dram = BareDram(timing, subarrays=4)
        dram.access(row=40)  # subarray 2, served at once; the bank idles after
        dram.refresh(1000, subarray=1)
        req = dram.at(100).access(row=20)  # subarray 1
        dram.run()
        assert req.refresh_stall == 900

    def test_read_reaching_an_idle_bank_mid_refresh(self, timing):
        dram = BareDram(timing, subarrays=4)
        end = dram.refresh(1000, subarray=1)
        other = dram.access(row=40)  # subarray 2: not blocked
        blocked = dram.at(100).access(row=20)  # subarray 1
        dram.run()
        assert other.start_time < end
        assert blocked.start_time >= end
        # The stall a whole-bank refresh of the same length charges.
        assert blocked.refresh_stall == 900

    def test_open_row_in_other_subarray_survives(self, timing):
        dram = BareDram(timing, subarrays=4)
        dram.access(row=40)  # subarray 2
        dram.at(10_000).refresh(500, subarray=0)
        assert dram.bank.open_row == 40

    def test_open_row_in_refreshing_subarray_closed(self, timing):
        dram = BareDram(timing, subarrays=4)
        dram.access(row=5)  # subarray 0
        dram.at(10_000).refresh(500, subarray=0)
        assert dram.bank.open_row is None

    def test_full_bank_refresh_still_blocks_everything(self, timing):
        dram = BareDram(timing, subarrays=4)
        read = dram.access(row=40)
        end = dram.refresh(timing.trfc_pb)  # no subarray arg
        dram.run()
        assert read.start_time >= end


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
