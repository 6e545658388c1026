"""Unit tests for the row-buffer management policy (open vs closed)."""

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming
from repro.errors import ConfigError, SimulationError


def build(row_policy):
    config = default_system_config(refresh_scale=1024)
    timing = DramTiming.from_config(config)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=64)
    mc = MemoryController(engine, timing, org, mapping, row_policy=row_policy)
    return engine, mapping, mc, timing


def read(mapping, frame, column=0, on_complete=None):
    a = mapping.frame_offset_to_address(frame, column * 64)
    return MemoryRequest(RequestType.READ, a, mapping.address_to_coordinate(a),
                         on_complete=on_complete)


def test_unknown_policy_rejected():
    with pytest.raises(SimulationError):
        build("lru")
    with pytest.raises(ConfigError):
        default_system_config(row_policy="lru")


def test_closed_policy_never_row_hits():
    engine, mapping, mc, timing = build("closed")
    done = []
    mc.enqueue(read(mapping, 0, 0, done.append))
    mc.enqueue(read(mapping, 0, 1, done.append))
    engine.run_until(100_000)
    assert len(done) == 2
    assert mc.stats.row_hits == 0
    assert mc.banks[0].open_row is None


def test_open_policy_hits_same_row():
    engine, mapping, mc, timing = build("open")
    done = []
    mc.enqueue(read(mapping, 0, 0, done.append))
    mc.enqueue(read(mapping, 0, 1, done.append))
    engine.run_until(100_000)
    assert mc.stats.row_hits == 1
    assert mc.banks[0].open_row is not None


def test_closed_policy_next_access_pays_act_not_pre():
    """At bank level, a closed-row access leaves the bank precharged: the
    next access to a *different* row pays ACT+CAS, never the conflict PRE."""
    from repro.dram.bank import Bank, ChannelBus, Rank
    from repro.dram.address import DramCoordinate

    config = default_system_config(refresh_scale=1024)
    timing = DramTiming.from_config(config)

    def one_pass(close_row):
        bank, rank, bus = Bank(0, 0, 0, 0), Rank(0, 0), ChannelBus()
        req0 = MemoryRequest(
            RequestType.READ, 0, DramCoordinate(0, 0, 0, 0, 0)
        )
        req0.arrive_time = 0
        bank.service(req0, 0, timing, rank, bus, close_row=close_row)
        req1 = MemoryRequest(
            RequestType.READ, 0, DramCoordinate(0, 0, 0, 5, 0)
        )
        t = 100_000  # far in the future: all recovery windows elapsed
        req1.arrive_time = t
        service = bank.service(req1, t, timing, rank, bus, close_row=close_row)
        return service.cas_time - t, bank

    closed_delay, closed_bank = one_pass(close_row=True)
    open_delay, open_bank = one_pass(close_row=False)
    assert closed_delay == timing.tRCD  # ACT + CAS
    assert open_delay == timing.tRP + timing.tRCD  # PRE + ACT + CAS
    assert closed_bank.stats.row_misses == 2
    assert open_bank.stats.row_conflicts == 1


def test_end_to_end_open_beats_closed_for_local_workload():
    from repro import api

    common = dict(num_windows=0.5, warmup_windows=0.1, refresh_scale=512)
    open_row = api.run("WL-7", "per_bank", row_policy="open", **common)
    closed = api.run("WL-7", "per_bank", row_policy="closed", **common)
    # WL-7 (stream) has 90% row locality: the open policy must win.
    assert open_row.hmean_ipc > closed.hmean_ipc
    assert open_row.row_hit_rate > 0.5
    assert closed.row_hit_rate == 0.0
