"""Integration tests for the disk-backed, process-parallel SweepRunner."""

import json

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentProfile, SweepRunner

TINY = ExperimentProfile(
    name="tiny",
    num_windows=0.25,
    warmup_windows=0.05,
    refresh_scale=1024,
    workloads=("WL-9",),
)


def make_runner(cache_dir, jobs=1):
    return SweepRunner(TINY, jobs=jobs, cache_dir=cache_dir)


def test_disk_cache_hit_across_runners(tmp_path):
    first = make_runner(tmp_path)
    a = first.run("WL-9", "all_bank")
    assert first.runs_executed == 1

    # A brand-new runner (fresh memo) sharing the cache dir never simulates.
    second = make_runner(tmp_path)
    b = second.run("WL-9", "all_bank")
    assert second.runs_executed == 0
    assert second.disk_hits == 1
    assert b == a


def test_cache_invalidated_by_config_change(tmp_path):
    first = make_runner(tmp_path)
    first.run("WL-9", "all_bank")

    second = make_runner(tmp_path)
    second.run("WL-9", "all_bank", density_gbit=16)
    assert second.runs_executed == 1  # different config, different key


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    first = make_runner(tmp_path)
    a = first.run("WL-9", "per_bank")

    # Garble every entry on disk.
    files = list((tmp_path).rglob("*.json"))
    assert files
    for f in files:
        f.write_text("{ not json")

    second = make_runner(tmp_path)
    b = second.run("WL-9", "per_bank")
    assert second.runs_executed == 1  # corrupt entry -> miss -> recompute
    assert b == a
    # The corrupt file was discarded and replaced with a good one.
    (entry,) = tmp_path.rglob("*.json")
    assert json.loads(entry.read_text())["result"]["scenario"] == "per_bank"


def test_stale_schema_entry_is_recomputed(tmp_path):
    first = make_runner(tmp_path)
    first.run("WL-9", "per_bank")
    (entry,) = tmp_path.rglob("*.json")
    payload = json.loads(entry.read_text())
    payload["schema"] = "0.0"
    entry.write_text(json.dumps(payload))

    second = make_runner(tmp_path)
    second.run("WL-9", "per_bank")
    assert second.runs_executed == 1


#: JSON documents that parse but are not an entry object.
NOT_OBJECTS = ["[]", "123", '"x"', "null"]


@pytest.mark.parametrize("text", NOT_OBJECTS)
def test_result_cache_entry_not_an_object_is_a_miss(tmp_path, text):
    cache = ResultCache(tmp_path)
    path = cache.path("abcdef0123456789")
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert cache.get("abcdef0123456789") is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert not path.exists()  # discarded, to be recomputed


@pytest.mark.parametrize("text", NOT_OBJECTS)
def test_checkpoint_entry_not_an_object_is_a_miss(tmp_path, text):
    from repro.core.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path)
    path = store.path("abcdef0123456789", 1000)
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert store.get("abcdef0123456789", 1000) is None
    assert (store.hits, store.misses) == (0, 1)
    assert not path.exists()


def test_cache_layout_is_schema_versioned(tmp_path):
    cache = ResultCache(tmp_path)
    from repro.experiments.cache import CACHE_SCHEMA

    assert cache.root == tmp_path / f"v{CACHE_SCHEMA}"
    assert cache.path("abcdef").parent.name == "ab"


def test_parallel_results_bit_identical_to_sequential(tmp_path):
    points = [
        ("WL-9", "all_bank", {}),
        ("WL-9", "per_bank", {}),
        ("WL-9", "codesign", {}),
        ("WL-9", "all_bank", {"density_gbit": 16}),
    ]

    seq = SweepRunner(TINY, jobs=1, use_cache=False)
    seq.prefetch(seq.spec(w, s, **o) for w, s, o in points)
    seq_results = [seq.run(w, s, **o) for w, s, o in points]
    assert seq.runs_executed == 4

    par = SweepRunner(TINY, jobs=2, use_cache=False)
    executed = par.prefetch(par.spec(w, s, **o) for w, s, o in points)
    assert executed == 4
    par_results = [par.run(w, s, **o) for w, s, o in points]
    assert par.runs_executed == 4  # prefetch covered everything

    for a, b in zip(seq_results, par_results):
        assert a == b  # bit-identical, not approximately equal
        assert a.to_dict() == b.to_dict()


def test_prefetch_dedupes_and_memoizes(tmp_path):
    runner = make_runner(tmp_path)
    spec = runner.spec("WL-9", "all_bank")
    assert runner.prefetch([spec, spec, spec]) == 1
    assert runner.runs_executed == 1
    runner.run("WL-9", "all_bank")
    assert runner.runs_executed == 1  # memo hit
    assert runner.memo_hits == 1


def test_warm_cache_figure_rerun_executes_zero_simulations(tmp_path):
    from repro.experiments import figure11

    cold = make_runner(tmp_path)
    rows_cold = figure11.run(cold)
    assert cold.runs_executed > 0

    warm = make_runner(tmp_path)
    rows_warm = figure11.run(warm)
    assert warm.runs_executed == 0
    assert warm.disk_hits > 0
    assert rows_warm == rows_cold


def test_readonly_cache_degrades_gracefully(tmp_path):
    import os

    if os.getuid() == 0:
        pytest.skip("root ignores file permissions")
    ro = tmp_path / "ro"
    ro.mkdir()
    ro.chmod(0o500)
    runner = make_runner(ro)
    result = runner.run("WL-9", "all_bank")
    assert result.hmean_ipc > 0  # simulation fine, cache write silently skipped
