"""Malformed checkpoint state fails loudly, and only as a ConfigError.

A seeded fuzzer edits real payloads the three ways a file goes wrong:
it drops a key, shortens or lengthens a list whose length the
configuration fixes, or puts in a value of a JSON type the codec at that
position rejects.  Every edit must raise
:class:`~repro.errors.CheckpointError` (a ``ConfigError``) naming where
the bad value sits, never a builtin exception, and never let the run
finish.  The CLI and the checkpoint store handle the same errors: a
``--resume`` prints it and exits non-zero, and a store entry that does
not restore is a miss.
"""

import asyncio
import copy
import json
import random

import pytest

from repro.__main__ import main
from repro.config.system_configs import OsConfig
from repro.core.checkpoint import CheckpointStore, save_checkpoint
from repro.core.simulator import (
    build_system_from_spec,
    make_run_spec,
    run_spec,
    sweep_specs,
    warm_start_state,
)
from repro.errors import CheckpointError
from repro.serialize import content_hash
from repro.service import SweepService
from repro.tracing import JobTrace, mint_trace_id

WINDOWS = dict(num_windows=0.5, warmup_windows=0.125, refresh_scale=1024)

SPECS = {
    # Refresh-aware, partitioned, demand paged, balanced and sampled:
    # every component kind and reference kind in one payload.
    "codesign": lambda: make_run_spec(
        "WL-6",
        "codesign",
        os=OsConfig(load_balance=True, demand_paging=True, prefault=False),
        sample_windows=4,
        **WINDOWS,
    ),
    # An enum stored by name and no optional components.
    "adaptive": lambda: make_run_spec("WL-1", "adaptive", **WINDOWS),
    # Tuple-keyed refresh debt.
    "elastic": lambda: make_run_spec("WL-1", "elastic", **WINDOWS),
}

#: Keys a payload captured under plain CFS lacks: restoring without
#: them keeps the refresh-aware counters at their constructed values.
ABSENT_OK = {"clean_picks", "fallback_picks", "last_pick_fallback"}

#: Lists whose length the configuration fixes.
SIZED = (
    ("controller", "_read_q"),
    ("controller", "_write_q"),
    ("controller", "_pick_pending"),
    ("controller", "banks"),
    ("controller", "ranks"),
    ("controller", "buses"),
    ("cores",),
    ("tasks",),
    ("scheduler", "runqueues"),
    ("memory", "_owner"),
    ("allocator", "_bank_cache"),
    ("allocator", "buddy", "_free"),
)

EDITS_PER_PAYLOAD = 40


def _payload(name):
    """*name*'s spec and its JSON payload at the third barrier, inside the
    measured interval."""
    spec = SPECS[name]()
    captured = []

    def sink(cycle, state):
        captured.append(json.dumps(state))
        return len(captured) == 3

    system = build_system_from_spec(spec)
    halted = system.run(
        checkpoint_every=1 / 16, checkpoint_sink=sink, **_windows(spec)
    )
    assert halted is None
    return spec, json.loads(captured[-1])


def _windows(spec):
    return dict(
        num_windows=spec.num_windows,
        warmup_windows=spec.warmup_windows,
        sample_windows=spec.sample_windows,
    )


def _walk(value, path=()):
    """Every ``(path, value)`` below *value*, containers included."""
    yield path, value
    if isinstance(value, dict):
        if path and path[-1] == "per_bank_commands":
            return  # a data map: its keys are data, not schema
        for key, item in value.items():
            yield from _walk(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(item, path + (i,))


def _at(state, path):
    for key in path:
        state = state[key]
    return state


def _edits(state, rng):
    """Seeded edits: ``(kind, path)``, each applied to a fresh copy."""
    nodes = [path for path, _ in _walk(state) if path]
    keys = [p for p in nodes if isinstance(p[-1], str) and p[-1] not in ABSENT_OK]
    for _ in range(EDITS_PER_PAYLOAD):
        kind = rng.choice(("drop", "resize", "retype"))
        if kind == "drop":
            yield "drop", rng.choice(keys)
        elif kind == "resize":
            yield rng.choice(("shorten", "lengthen")), rng.choice(SIZED)
        else:
            yield "retype", rng.choice(nodes)


def _apply(state, kind, path):
    state = copy.deepcopy(state)
    parent, key = _at(state, path[:-1]), path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "shorten":
        parent[key].pop()
    elif kind == "lengthen":
        parent[key].append(copy.deepcopy(parent[key][-1]))
    else:
        # Strings become lists and everything else a string: no codec
        # accepts both a string and anything else.
        parent[key] = [] if isinstance(parent[key], str) else "?"
    return state


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_malformed_edit_raises_a_checkpoint_error(name):
    spec, state = _payload(name)
    rng = random.Random(f"malformed-{name}")
    kinds = set()
    for kind, path in _edits(state, rng):
        edited = _apply(state, kind, path)
        with pytest.raises(CheckpointError) as info:
            build_system_from_spec(spec, resume_state=edited)
        reported = tuple(reversed(info.value.path))
        assert path[: len(reported)] == reported, (kind, path, str(info.value))
        if kind == "drop":
            assert reported == path
        kinds.add(kind)
    assert kinds == {"drop", "shorten", "lengthen", "retype"}


def test_a_truncated_bank_list_is_named():
    spec, state = _payload("adaptive")
    del state["controller"]["banks"][15]
    match = r"controller\.banks: expected 16 entries, got 15"
    with pytest.raises(CheckpointError, match=match):
        build_system_from_spec(spec, resume_state=state)


def test_resume_of_a_malformed_file_exits_non_zero(tmp_path, capsys):
    spec, state = _payload("adaptive")
    del state["controller"]["banks"][15]
    path = save_checkpoint(tmp_path / "bad.json", spec, 0, state)
    assert main(["run", "--resume", str(path), "--no-cache"]) == 1
    assert "controller.banks" in capsys.readouterr().err


def test_a_stored_prefix_that_does_not_restore_is_a_miss(tmp_path):
    (spec,) = sweep_specs(
        ["WL-6"], ["codesign"], warmup_scenario="per_bank", **WINDOWS
    )
    expected = content_hash(run_spec(spec).to_dict())

    store = CheckpointStore(tmp_path)
    warm_start_state(spec, store)  # fills the store
    (entry,) = store.root.glob("*/*.json")
    data = json.loads(entry.read_text())
    del data["state"]["controller"]["banks"][15]
    entry.write_text(json.dumps(data))

    store = CheckpointStore(tmp_path)
    assert content_hash(run_spec(spec, checkpoint_store=store).to_dict()) == expected
    assert (store.hits, store.misses) == (0, 1)
    # The recomputed prefix replaced the bad entry and now restores.
    fresh = CheckpointStore(tmp_path)
    assert content_hash(run_spec(spec, checkpoint_store=fresh).to_dict()) == expected
    assert (fresh.hits, fresh.misses) == (1, 0)


def test_a_traced_run_recovers_from_a_stored_prefix_that_does_not_restore(tmp_path):
    (spec,) = sweep_specs(
        ["WL-6"], ["codesign"], warmup_scenario="per_bank", **WINDOWS
    )
    expected = content_hash(run_spec(spec).to_dict())

    store = CheckpointStore(tmp_path)
    warm_start_state(spec, store)  # fills the store
    (entry,) = store.root.glob("*/*.json")
    data = json.loads(entry.read_text())
    del data["state"]["controller"]["banks"][15]
    entry.write_text(json.dumps(data))

    spans = []
    trace = JobTrace(mint_trace_id("bad-prefix", 0), spec.content_hash(), spans.append)
    service = SweepService(cache_dir=tmp_path)
    try:
        result, source = asyncio.run(service.resolve(spec, trace=trace))
    finally:
        service.close()
    payload = result.to_dict()
    assert (source, payload.pop("trace_id")) == ("executed", trace.trace_id)
    assert content_hash(payload) == expected
    store = service.checkpoint_store
    assert (store.hits, store.misses) == (0, 1)
    # One restore span per prefix fetch: the bad read and the recompute.
    assert [s.name for s in spans] == [
        "restore", "restore", "run_spec", "execute", "resolve"
    ]
    # The entry was rewritten and now restores.
    rewritten = json.loads(entry.read_text())
    assert len(rewritten["state"]["controller"]["banks"]) == 16
    fresh = CheckpointStore(tmp_path)
    assert content_hash(run_spec(spec, checkpoint_store=fresh).to_dict()) == expected
    assert (fresh.hits, fresh.misses) == (1, 0)
