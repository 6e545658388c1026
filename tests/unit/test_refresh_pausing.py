"""Unit tests for Refresh Pausing (Nair et al., HPCA 2013)."""


from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import default_system_config
from repro.core.engine import Engine
from repro.dram.address import AddressMapping
from repro.dram.controller import MemoryController
from repro.dram.refresh import make_scheduler
from repro.dram.request import MemoryRequest, RequestType
from repro.dram.timing import DramTiming


def build(refresh_scale=1024):
    config = default_system_config(refresh_scale=refresh_scale)
    timing = DramTiming.from_config(config)
    engine = Engine()
    org = DramOrganization()
    mapping = AddressMapping(org, total_rows_per_bank=16)
    mc = MemoryController(engine, timing, org, mapping)
    sched = make_scheduler("pausing")
    sched.attach(mc, engine, timing)
    return engine, timing, mc, sched


def test_idle_system_full_coverage_no_pauses():
    engine, timing, mc, sched = build()
    sched.start()
    engine.run_until(timing.trefw - 1)
    assert sched.pauses == 0
    n = timing.refreshes_per_bank
    for flat in range(16):
        assert sched.stats.per_bank_commands.get(flat, 0) >= n - 1


def test_demand_triggers_pauses():
    engine, timing, mc, sched = build()

    def traffic():
        for frame in range(8):
            a = mc.mapping.frame_offset_to_address(frame, 0)
            mc.enqueue(
                MemoryRequest(RequestType.READ, a,
                              mc.mapping.address_to_coordinate(a))
            )
        engine.schedule(400, traffic)

    engine.schedule(0, traffic)
    sched.start()
    engine.run_until(timing.trefw // 2)
    assert sched.pauses > 0


def test_refresh_work_completes_despite_pauses():
    engine, timing, mc, sched = build()

    def traffic():
        import random

        rng = random.Random(3)

        def fire():
            frame = rng.randrange(mc.mapping.total_frames)
            a = mc.mapping.frame_offset_to_address(frame, 0)
            mc.enqueue(
                MemoryRequest(RequestType.READ, a,
                              mc.mapping.address_to_coordinate(a))
            )
            engine.schedule(rng.randrange(100, 300), fire)

        fire()

    engine.schedule(0, traffic)
    sched.start()
    engine.run_until(timing.trefw - 1)
    n = timing.refreshes_per_bank
    for flat in range(16):
        # A command's segments may slip past the window edge but the
        # deadline rule bounds the slip to one command.
        assert sched.stats.per_bank_commands.get(flat, 0) >= n - 1


def test_pausing_between_allbank_and_norefresh_end_to_end():
    from repro import api

    common = dict(num_windows=1.0, warmup_windows=0.25, refresh_scale=512)
    pausing = api.run("WL-6", "pausing", **common).hmean_ipc
    all_bank = api.run("WL-6", "all_bank", **common).hmean_ipc
    ideal = api.run("WL-6", "no_refresh", **common).hmean_ipc
    assert all_bank - 0.005 <= pausing <= ideal
