"""Warm starts: machines built from a snapshot, and the store's last entry.

A warm-started run builds its machine from the warm-up prefix's
snapshot (``build_system_from_spec(spec, resume_state=state)``): nothing
is allocated, so the event stream starts at the resume cycle.  The
:class:`~repro.core.checkpoint.CheckpointStore` keeps the last prefix it
wrote or read in memory and hands that one state to every sibling
scenario, which is safe only because a restore copies everything it
reads: one snapshot must survive any number of restores and runs.
"""

import copy
import pickle
import sys

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import CoreConfig, OsConfig
from repro.core.checkpoint import CheckpointStore
from repro.core.simulator import (
    build_system_from_spec,
    prefix_spec_of,
    run_spec,
    sweep_specs,
    warm_start_state,
)
from repro.errors import ConfigError
from repro.serialize import content_hash
from repro.telemetry.events import PageAllocEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.sinks import CallbackSink
from repro.workloads.mixes import scaled_mix

WINDOWS = dict(num_windows=0.25, warmup_windows=0.125, refresh_scale=1024)

#: The scenarios of the benchmark's warm-started sweep.
WARMSTART_SCENARIOS = (
    "all_bank", "per_bank", "codesign", "ooo_per_bank",
    "elastic", "pausing", "same_bank_hw_only", "partition_only",
)

#: Configurations whose snapshots carry page tables, a sampler, or a
#: load balancer and four cores.
CONFIGS = {
    "demand_paged": (
        "WL-6", dict(os=OsConfig(demand_paging=True, prefault=False))
    ),
    "sampled": ("WL-6", dict(sample_windows=4)),
    "quad_core_balanced": (
        scaled_mix("WL-6", 16),
        dict(
            cores=CoreConfig(num_cores=4),
            organization=DramOrganization(ranks_per_channel=4),
            os=OsConfig(load_balance=True),
        ),
    ),
}


def _warm_specs(workload, scenarios, **options):
    return sweep_specs(
        [workload], list(scenarios), warmup_scenario="per_bank",
        **{**WINDOWS, **options},
    )


def _run_to_end(spec, state):
    return build_system_from_spec(spec, resume_state=state).run(
        num_windows=spec.num_windows,
        warmup_windows=spec.warmup_windows,
        sample_windows=spec.sample_windows,
    )


def _prefix_key(spec):
    """The warm-up prefix spec and its store key ``(hash, cycle)``."""
    _, provenance = warm_start_state(spec)
    key, cycle = provenance.split("@")
    return prefix_spec_of(spec), key, int(cycle)


# -- one snapshot, many restores -----------------------------------------------


@pytest.mark.parametrize("workload", ["WL-6", "WL-1"])
def test_one_snapshot_survives_every_warmstart_scenario(workload):
    specs = _warm_specs(workload, WARMSTART_SCENARIOS)
    state, _ = warm_start_state(specs[0])
    pristine = copy.deepcopy(state)
    for spec in specs:
        _run_to_end(spec, state)
    assert state == pristine


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_snapshot_survives_restores_of_every_component_kind(name):
    workload, options = CONFIGS[name]
    specs = _warm_specs(workload, ("per_bank", "codesign"), **options)
    state, _ = warm_start_state(specs[0])
    pristine = copy.deepcopy(state)
    results = [_run_to_end(spec, state) for spec in specs + specs[:1]]
    assert state == pristine
    # The same snapshot restored twice continues identically.
    assert content_hash(results[0].to_dict()) == content_hash(results[-1].to_dict())


# -- construction from a snapshot ------------------------------------------------


def test_a_resumed_build_allocates_nothing_and_emits_nothing_before_resuming():
    (spec,) = sweep_specs(
        ["WL-6"], ["codesign"], warmup_scenario="per_bank",
        num_windows=0.25, warmup_windows=0.5, refresh_scale=1024,
    )
    _, _, resume_cycle = _prefix_key(spec)
    events = []
    telemetry = Telemetry()
    telemetry.subscribe(CallbackSink(events.append))
    result = run_spec(spec, telemetry=telemetry)

    assert events
    assert not [e for e in events if isinstance(e, PageAllocEvent)]
    assert min(e.time for e in events) >= resume_cycle
    # Sinks observe; they never change the result.
    assert content_hash(result.to_dict()) == content_hash(run_spec(spec).to_dict())


def test_a_resumed_system_runs_once_and_does_not_restart_its_components():
    (spec,) = _warm_specs("WL-1", ["elastic"])
    state, _ = warm_start_state(spec)
    system = build_system_from_spec(spec, resume_state=state)
    assert system.engine.now == state["engine"]["now"]
    result = system.run()
    assert content_hash(result.to_dict()) == content_hash(run_spec(spec).to_dict())
    with pytest.raises(ConfigError, match="only be run once"):
        system.run()


# -- the store's last entry ------------------------------------------------------


def test_the_store_answers_its_last_entry_from_memory(tmp_path):
    (spec,) = _warm_specs("WL-9", ["codesign"])
    prefix, key, cycle = _prefix_key(spec)
    store = CheckpointStore(tmp_path)
    state, provenance = warm_start_state(spec, store)
    assert provenance == f"{key}@{cycle}"
    assert (store.hits, store.misses) == (0, 1)

    # Written through to disk, and answered from memory without it.
    path = store.path(key, cycle)
    on_disk = path.read_bytes()
    path.unlink()
    assert store.get(key, cycle) is state
    assert (store.hits, store.misses) == (1, 1)

    # Another entry is read from disk and becomes the one in memory.
    path.write_bytes(on_disk)
    store.put("ab" * 8, prefix, cycle, {"other": True})
    read = store.get(key, cycle)
    assert read == state and read is not state
    path.unlink()
    assert store.get(key, cycle) is read
    assert (store.hits, store.misses) == (3, 1)


def test_discard_drops_the_entry_from_memory_and_disk(tmp_path):
    (spec,) = _warm_specs("WL-9", ["codesign"])
    prefix, key, cycle = _prefix_key(spec)
    store = CheckpointStore(tmp_path)
    store.put(key, prefix, cycle, {"bad": "state"})
    assert store.get(key, cycle) == {"bad": "state"}
    store.discard(key, cycle)
    assert not store.path(key, cycle).exists()
    assert store.get(key, cycle) is None
    assert (store.hits, store.misses) == (0, 1)


def test_a_bad_state_in_memory_is_discarded_and_recomputed(tmp_path):
    (spec,) = _warm_specs("WL-9", ["codesign"])
    expected = content_hash(run_spec(spec).to_dict())
    prefix, key, cycle = _prefix_key(spec)
    state, _ = warm_start_state(spec)
    bad = copy.deepcopy(state)
    del bad["controller"]["banks"][15]

    store = CheckpointStore(tmp_path)
    store.put(key, prefix, cycle, bad)
    result = run_spec(spec, checkpoint_store=store)
    assert content_hash(result.to_dict()) == expected
    assert (store.hits, store.misses) == (0, 1)
    # The recomputed prefix replaced the bad one in memory and on disk.
    assert store.get(key, cycle) == state
    assert CheckpointStore(tmp_path).get(key, cycle) == state


def test_a_prefix_filed_under_another_key_is_a_miss(tmp_path):
    specs = [
        sweep_specs(["WL-9"], ["codesign"], warmup_scenario=warmup, **WINDOWS)[0]
        for warmup in ("per_bank", "all_bank")
    ]
    expected = [content_hash(run_spec(spec).to_dict()) for spec in specs]
    assert expected[0] != expected[1]
    store = CheckpointStore(tmp_path)
    entries = []
    for spec in specs:
        _, provenance = warm_start_state(spec, store)
        key, cycle = provenance.split("@")
        entries.append((key, int(cycle)))
    assert entries[0][1] == entries[1][1]
    # Each key now holds the other warm-up scenario's prefix.
    paths = [store.path(key, cycle) for key, cycle in entries]
    texts = [path.read_bytes() for path in paths]
    for path, text in zip(paths, reversed(texts)):
        path.write_bytes(text)

    for spec, digest, (key, cycle) in zip(specs, expected, entries):
        fresh = CheckpointStore(tmp_path)
        assert content_hash(run_spec(spec, checkpoint_store=fresh).to_dict()) == digest
        assert (fresh.hits, fresh.misses) == (0, 1)
        # The recomputed prefix was written back under its own key.
        assert CheckpointStore(tmp_path).get(key, cycle) is not None


def test_a_pickled_store_carries_its_path_but_not_the_state(tmp_path):
    (spec,) = _warm_specs("WL-9", ["codesign"])
    _, key, cycle = _prefix_key(spec)
    store = CheckpointStore(tmp_path)
    state, _ = warm_start_state(spec, store)

    copied = pickle.loads(pickle.dumps(store))
    assert copied.root == store.root
    assert (copied.hits, copied.misses) == (store.hits, store.misses)
    assert len(pickle.dumps(copied)) < 1024
    store.path(key, cycle).unlink()
    assert copied.get(key, cycle) is None  # reads disk, not the original's memory
    assert store.get(key, cycle) is state


def test_threads_sharing_the_store_memory_restore_identically(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    specs = _warm_specs("WL-6", WARMSTART_SCENARIOS)
    expected = [content_hash(run_spec(spec).to_dict()) for spec in specs]
    store = CheckpointStore(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [
                pool.submit(run_spec, spec, checkpoint_store=store)
                for spec in specs
            ]
            digests = [
                content_hash(f.result(timeout=120).to_dict()) for f in futures
            ]
    finally:
        sys.setswitchinterval(interval)
    assert digests == expected
    # The state the siblings shared is still the prefix's snapshot.
    _, key, cycle = _prefix_key(specs[0])
    assert store.get(key, cycle) == warm_start_state(specs[0])[0]


def _plain_digest(result) -> str:
    payload = result.to_dict()
    payload.pop("monitor_violations", None)
    return content_hash(payload)


#: Scenarios a monitored warm start was checked under: the co-design, the
#: same-bank schedule without the OS, rank refresh, and a postponing policy.
MONITORED_WARM_STARTS = [
    ("WL-6", "codesign"),
    ("WL-6", "same_bank_hw_only"),
    ("WL-6", "all_bank"),
    ("WL-1", "elastic"),
]


@pytest.mark.parametrize("workload,scenario", MONITORED_WARM_STARTS)
def test_a_monitored_warm_start_resumes_the_prefix(workload, scenario):
    """Regression: the monitored path built warm-started specs cold, so
    the warm-up ran under the target scenario and the result was the
    cold run's, not ``run_spec``'s."""
    from repro.obs.monitors import MonitorSuite

    (spec,) = _warm_specs(workload, [scenario])
    cold = spec.with_(warmup_scenario=None)
    expected = _plain_digest(run_spec(spec))
    assert expected != _plain_digest(run_spec(cold))  # the warm start matters here

    result = run_spec(spec, monitors=MonitorSuite(strict=True))
    assert result.monitor_violations == []
    assert _plain_digest(result) == expected


def test_the_service_serves_a_monitored_warm_start_then_the_plain_one(tmp_path):
    import asyncio

    from repro.service import SweepService

    (spec,) = _warm_specs("WL-6", ["codesign"])
    service = SweepService(cache_dir=tmp_path)

    async def sequence():
        monitored = await service.resolve(spec, monitors="strict")
        plain = await service.resolve(spec)
        return monitored, plain

    (monitored, m_src), (plain, p_src) = asyncio.run(sequence())
    assert (m_src, p_src) == ("live", "executed")
    assert monitored.monitor_violations == []
    assert _plain_digest(monitored) == _plain_digest(plain) == _plain_digest(run_spec(spec))


def test_a_monitored_service_job_reads_the_stored_prefix(tmp_path):
    """Regression: the service ran monitored jobs without its checkpoint
    store, so a monitored warm start recomputed a prefix it had stored."""
    import asyncio

    from repro.service import SweepService

    plain_spec, monitored_spec = _warm_specs("WL-1", ["all_bank", "elastic"])
    service = SweepService(cache_dir=tmp_path)
    store = service.checkpoint_store

    async def sequence():
        await service.resolve(plain_spec)
        hits = store.hits
        monitored, source = await service.resolve(monitored_spec, monitors="strict")
        return hits, monitored, source

    hits, monitored, source = asyncio.run(sequence())
    assert source == "live"
    assert store.hits == hits + 1
    assert monitored.monitor_violations == []
    assert _plain_digest(monitored) == _plain_digest(run_spec(monitored_spec))
