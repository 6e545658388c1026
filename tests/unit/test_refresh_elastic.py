"""Unit tests for Elastic Refresh (Stuecheli et al., MICRO 2010)."""


from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh import make_scheduler
from repro.dram.refresh.elastic import ElasticRefresh
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming


def build(refresh_scale=1024):
    config = default_system_config(refresh_scale=refresh_scale)
    timing = DramTiming.from_config(config)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=16)
    mc = MemoryController(engine, timing, org, mapping)
    sched = make_scheduler("elastic")
    sched.attach(mc, engine, timing)
    return engine, timing, mc, sched


def test_idle_system_refreshes_eagerly():
    engine, timing, mc, sched = build()
    sched.start()
    engine.run_until(timing.trefw - 1)
    # With no demand traffic every obligation is met via idle issues.
    assert sched.idle_refreshes > 0
    assert sched.forced_refreshes == 0
    n = timing.refreshes_per_bank
    for flat in range(16):
        assert sched.stats.per_bank_commands.get(flat, 0) >= n - 1


def test_debt_never_exceeds_jedec_budget():
    # Finer scale: the window must span well over 8 tREFIs so the
    # postponement budget can actually run out.
    engine, timing, mc, sched = build(refresh_scale=256)
    # Constant demand traffic: rank never idle -> refreshes get forced.
    address = mc.mapping.frame_offset_to_address(0, 0)

    def traffic():
        # Heavier than the bus can drain: the ranks are never idle.
        for frame in range(16):
            a = mc.mapping.frame_offset_to_address(frame, 0)
            mc.enqueue(
                MemoryRequest(RequestType.READ, a,
                              mc.mapping.address_to_coordinate(a))
            )
        engine.schedule(100, traffic)

    engine.schedule(0, traffic)
    sched.start()
    max_debt = 0

    def watch():
        nonlocal max_debt
        max_debt = max(max_debt, max(sched._debt.values()))
        engine.schedule(timing.trefi_ab // 4, watch)

    engine.schedule(1, watch)
    engine.run_until(timing.trefw)
    assert max_debt <= ElasticRefresh.MAX_POSTPONED + 1
    assert sched.forced_refreshes > 0


def test_coverage_maintained_under_load():
    engine, timing, mc, sched = build()

    def traffic():
        import random

        rng = random.Random(9)

        def fire():
            frame = rng.randrange(mc.mapping.total_frames)
            a = mc.mapping.frame_offset_to_address(frame, 0)
            mc.enqueue(
                MemoryRequest(RequestType.READ, a,
                              mc.mapping.address_to_coordinate(a))
            )
            engine.schedule(rng.randrange(100, 400), fire)

        fire()

    engine.schedule(0, traffic)
    sched.start()
    engine.run_until(timing.trefw - 1)
    n = timing.refreshes_per_bank
    for flat in range(16):
        # Postponement may defer up to MAX_POSTPONED obligations past the
        # window edge, never more.
        assert sched.stats.per_bank_commands.get(flat, 0) >= n - (
            ElasticRefresh.MAX_POSTPONED + 1
        )


def test_elastic_scenario_runs_end_to_end():
    from repro import api

    result = api.run(
        "WL-9", "elastic", num_windows=0.5, warmup_windows=0.1,
        refresh_scale=512,
    )
    assert result.hmean_ipc > 0
    assert result.refresh_commands > 0
