"""Integration tests for multi-channel configurations."""


from repro import api
from repro.config.dram_configs import DramOrganization
from repro.core.simulator import build_system

FAST = dict(num_windows=0.5, warmup_windows=0.1, refresh_scale=512)
TWO_CHANNEL = DramOrganization(channels=2)


def test_two_channel_system_runs():
    result = api.run(
        "WL-6", "per_bank", organization=TWO_CHANNEL, **FAST
    )
    assert result.hmean_ipc > 0
    assert result.reads_completed > 0


def test_two_channels_give_more_bandwidth():
    one = api.run("WL-1", "no_refresh", **FAST)
    two = api.run(
        "WL-1", "no_refresh", organization=TWO_CHANNEL, **FAST
    )
    # 8x mcf is memory-bound: doubling channels/banks must help.
    assert two.hmean_ipc > one.hmean_ipc


def test_refresh_covers_both_channels():
    system = build_system(
        "WL-9", "per_bank", organization=TWO_CHANNEL, refresh_scale=512
    )
    system.run(num_windows=1.0, warmup_windows=0.0)
    commands = system.refresh_scheduler.stats.per_bank_commands
    assert set(commands) == set(range(32))  # 2ch x 2rk x 8bk


def test_codesign_on_two_channels():
    system = build_system(
        "WL-6", "codesign", organization=TWO_CHANNEL, refresh_scale=512
    )
    result = system.run(num_windows=1.0, warmup_windows=0.25)
    assert result.hmean_ipc > 0
    # Stretch covers 32 banks; picks stay clean.
    assert result.scheduler_fallback_picks == 0
    assert result.refresh_stall_fraction < 0.02


def test_two_channel_codesign_vs_all_bank():
    ab = api.run(
        "WL-6", "all_bank", organization=TWO_CHANNEL, **FAST
    )
    cd = api.run(
        "WL-6", "codesign", organization=TWO_CHANNEL, **FAST
    )
    assert cd.hmean_ipc > ab.hmean_ipc


def test_tasks_spread_across_channels():
    system = build_system(
        "WL-5", "all_bank", organization=TWO_CHANNEL, refresh_scale=512
    )
    task = system.tasks[0]
    channels = {
        system.mapping.unflatten_bank_index(b)[0] for b in task.pages_per_bank
    }
    assert channels == {0, 1}
