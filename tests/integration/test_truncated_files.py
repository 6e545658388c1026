"""Seeded truncation fuzz for the files a run writes: checkpoints, cache
entries and JSONL event shards.

A crash or a full disk can leave any prefix of a file behind.  Real
entries are cut at seeded byte offsets (the empty file and the file one
byte short included), and every cut must fail the documented way, never
with a builtin exception: a store or cache read counts a miss and
deletes the file, and ``load_checkpoint`` (the ``--resume`` path)
raises :class:`~repro.errors.ConfigError`.  The in-memory analogue, a
state cut short held as the checkpoint store's last entry, must be
dropped and recomputed.  A cut JSONL shard reloads as a prefix of its
events or raises ``ConfigError`` naming the file and the torn line.
"""

import copy
import random

import pytest

from repro.__main__ import main
from repro.obs.__main__ import main as obs_main
from repro.core.checkpoint import CheckpointStore, load_checkpoint
from repro.core.simulator import (
    make_run_spec,
    prefix_spec_of,
    run_spec,
    sweep_specs,
    warm_start_state,
)
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.serialize import content_hash
from repro.telemetry import JsonlSink, Telemetry, read_jsonl

FAST = dict(num_windows=0.25, warmup_windows=0.125, refresh_scale=1024)

CUTS = 24


def _cuts(data: bytes, label: str) -> list[int]:
    """Seeded cut offsets into *data*, plus both ends."""
    rng = random.Random(f"truncate-{label}")
    return sorted({0, len(data) - 1, *rng.sample(range(1, len(data) - 1), CUTS)})


@pytest.fixture(scope="module")
def warm_spec():
    (spec,) = sweep_specs(
        ["WL-9"], ["codesign"], warmup_scenario="per_bank", **FAST
    )
    return spec


@pytest.fixture(scope="module")
def checkpoint_entry(warm_spec, tmp_path_factory):
    """A real store entry: ``(key, cycle, file bytes)``."""
    store = CheckpointStore(tmp_path_factory.mktemp("ckpt"))
    _, provenance = warm_start_state(warm_spec, store)
    key, cycle = provenance.split("@")
    return key, int(cycle), store.path(key, cycle).read_bytes()


def test_a_truncated_checkpoint_entry_is_a_miss_and_deleted(tmp_path, checkpoint_entry):
    key, cycle, data = checkpoint_entry
    for cut in _cuts(data, "store"):
        store = CheckpointStore(tmp_path)
        path = store.path(key, cycle)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data[:cut])
        assert store.get(key, cycle) is None, cut
        assert (store.hits, store.misses) == (0, 1)
        assert not path.exists()


def test_a_truncated_checkpoint_file_fails_to_load(tmp_path, checkpoint_entry):
    _, _, data = checkpoint_entry
    path = tmp_path / "ckpt.json"
    cuts = _cuts(data, "load")
    for cut in cuts:
        path.write_bytes(data[:cut])
        with pytest.raises(ConfigError, match="cannot read checkpoint"):
            load_checkpoint(path)
    # The CLI reports the same error and exits non-zero.
    path.write_bytes(data[: cuts[len(cuts) // 2]])
    assert main(["run", "--resume", str(path), "--no-cache"]) == 1


def test_a_truncated_cache_entry_is_a_miss_and_deleted(tmp_path):
    spec = make_run_spec("WL-9", "per_bank", **FAST)
    key = spec.content_hash()
    cache = ResultCache(tmp_path)
    cache.put(key, spec, run_spec(spec))
    data = cache.path(key).read_bytes()
    for cut in _cuts(data, "cache"):
        cache = ResultCache(tmp_path)
        path = cache.path(key)
        path.write_bytes(data[:cut])
        assert cache.get(spec) is None, cut
        assert (cache.hits, cache.misses) == (0, 1)
        assert not path.exists()


def test_a_state_cut_short_in_the_store_memory_is_recomputed(tmp_path, warm_spec):
    expected = content_hash(run_spec(warm_spec).to_dict())
    state, provenance = warm_start_state(warm_spec)
    key, cycle = provenance.split("@")
    cycle = int(cycle)
    prefix = prefix_spec_of(warm_spec)
    rng = random.Random("truncate-memory")
    lists = (("controller", "banks"), ("cores",), ("tasks",), ("memory", "_owner"))
    for path in lists:
        cut = copy.deepcopy(state)
        parent = cut
        for name in path[:-1]:
            parent = parent[name]
        items = parent[path[-1]]
        del items[rng.randrange(len(items)):]
        store = CheckpointStore(tmp_path)
        store.put(key, prefix, cycle, cut)
        assert content_hash(run_spec(warm_spec, checkpoint_store=store).to_dict()) == expected
        assert (store.hits, store.misses) == (0, 1), path
        assert store.get(key, cycle) == state


@pytest.fixture(scope="module")
def jsonl_shard(tmp_path_factory):
    """A real JSONL shard of a short traced run: ``(bytes, events)``."""
    path = tmp_path_factory.mktemp("jsonl") / "events.jsonl"
    spec = make_run_spec("WL-9", "codesign", **FAST)
    telemetry = Telemetry()
    with JsonlSink(path) as sink:
        telemetry.subscribe(sink)
        run_spec(spec, telemetry=telemetry)
    return path.read_bytes(), read_jsonl(path)


def test_a_cut_jsonl_shard_reloads_a_prefix_or_names_the_torn_line(tmp_path, jsonl_shard):
    data, events = jsonl_shard
    path = tmp_path / "cut.jsonl"
    outcomes = set()
    for cut in _cuts(data, "jsonl"):
        path.write_bytes(data[:cut])
        try:
            loaded = read_jsonl(path)
        except ConfigError as exc:
            torn = data[:cut].count(b"\n") + 1
            assert str(exc).startswith(f"{path}: line {torn} "), (cut, str(exc))
            outcomes.add("torn")
        else:
            assert loaded == events[: len(loaded)], cut
            outcomes.add("prefix")
    assert outcomes == {"prefix", "torn"}


def test_a_malformed_jsonl_line_is_named(tmp_path, jsonl_shard):
    data, _ = jsonl_shard
    lines = data.splitlines(keepends=True)
    bad = {
        b'{"kind":"no.such.kind","time":1}\n': "unknown event kind",
        b'{"kind":"dram.cmd","time":1}\n': "malformed payload",
        b"\xff\xfe{}\n": "is not UTF-8",
    }
    for line, message in bad.items():
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"".join(lines[:2]) + line + b"".join(lines[2:4]))
        with pytest.raises(ConfigError, match=f"line 3.*{message}"):
            read_jsonl(path)


def test_replaying_a_torn_shard_exits_1_with_the_message(tmp_path, jsonl_shard, capsys):
    data, _ = jsonl_shard
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(data[: len(data) // 2])
    out = tmp_path / "trace.json"
    assert obs_main(["trace", str(torn), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot replay: {torn}: line ")
    assert "Traceback" not in err
    assert not out.exists()
