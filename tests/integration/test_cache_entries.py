"""The disk-cache entry layout: canonical JSON, result first.

A put splices the result's canonical text and the spec's stored text
into ``{"result":...,"schema":...,"spec":...}``; a hit hands back the
result's bytes as stored, which the sweep service serves without
encoding the result again.  An entry in any other layout is stale, and
so is one whose text after the result is not exactly the looked-up
spec's: another run's entry filed under its key, or an edited spec.
"""

import asyncio
import json

import pytest

from repro.core.simulator import make_run_spec, run_spec
from repro.experiments.cache import CACHE_SCHEMA, ResultCache
from repro.experiments.runner import ExperimentProfile, SweepRunner
from repro.serialize import CanonicalJSON, canonical_json
from repro.service import SweepService
from repro.telemetry.wire import encode_frame

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

TINY = ExperimentProfile(
    name="tiny", num_windows=0.25, warmup_windows=0.05, refresh_scale=1024,
    workloads=("WL-9",),
)


@pytest.fixture(scope="module")
def sampled():
    """A spec whose result carries a timeseries (floats in nested lists)."""
    spec = make_run_spec("WL-9", "codesign", sample_windows=4, **FAST)
    result = run_spec(spec)
    assert result.timeseries is not None
    return spec, result


def _assert_canonical_entry(text: str) -> None:
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert text.startswith('{"result":')


def _served(service: SweepService, spec) -> tuple[str, bytes]:
    """Resolve *spec* on *service*: its source and its result frame."""
    result, source = asyncio.run(service.resolve(spec))
    job = spec.content_hash()
    frame = encode_frame({
        "type": "result", "id": 1, "job": job, "source": source,
        "spec": spec.canonical_json(),
        "result": service.result_json(service.job_key(job), result),
    })
    return source, frame


def test_an_old_layout_entry_is_a_miss_deleted_and_rewritten(tmp_path, sampled):
    spec, result = sampled
    key = spec.content_hash()
    path = ResultCache(tmp_path).path(key)
    path.parent.mkdir(parents=True)
    # The layout of earlier versions: one json.dumps, insertion order.
    path.write_text(json.dumps(
        {"schema": CACHE_SCHEMA, "spec": spec.to_dict(), "result": result.to_dict()}
    ))
    cache = ResultCache(tmp_path)
    assert cache.get(spec) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert not path.exists()

    path.write_text(json.dumps(
        {"schema": CACHE_SCHEMA, "spec": spec.to_dict(), "result": result.to_dict()}
    ))
    runner = SweepRunner(TINY, jobs=1, cache_dir=tmp_path)
    assert runner.run_spec(spec) == result
    assert (runner.runs_executed, runner.disk_hits) == (1, 0)
    text = path.read_text()
    _assert_canonical_entry(text)
    assert json.loads(text) == {
        "result": result.to_dict(), "schema": CACHE_SCHEMA, "spec": spec.to_dict(),
    }
    assert SweepRunner(TINY, jobs=1, cache_dir=tmp_path).run_spec(spec) == result


def test_a_hit_serves_the_canonical_text_of_its_result(tmp_path, sampled):
    spec, result = sampled
    key = spec.content_hash()
    ResultCache(tmp_path).put(key, spec, result)
    hit = ResultCache(tmp_path).get(spec)
    assert hit is not None
    assert hit.result == result
    assert isinstance(hit.text, CanonicalJSON)
    assert hit.text == canonical_json(result)

    source, frame = _served(SweepService(cache_dir=tmp_path), spec)
    assert source == "cache"
    assert b'"result":' + canonical_json(result).encode() + b"," in frame


def test_service_and_runner_write_and_serve_the_same_bytes(tmp_path, sampled):
    spec, result = sampled
    key = spec.content_hash()
    by_service, by_runner = tmp_path / "service", tmp_path / "runner"
    source, executed = _served(SweepService(cache_dir=by_service), spec)
    assert source == "executed"
    runner = SweepRunner(TINY, jobs=1, cache_dir=by_runner)
    assert runner.run_spec(spec) == result
    entries = [ResultCache(root).path(key).read_bytes() for root in (by_service, by_runner)]
    assert entries[0] == entries[1]
    _assert_canonical_entry(entries[0].decode("utf-8"))

    # A restart over either directory serves the executed frame's bytes,
    # and a runner over either reads the same result back.
    for root in (by_service, by_runner):
        source, frame = _served(SweepService(cache_dir=root), spec)
        assert source == "cache"
        assert frame == executed.replace(b'"source":"executed"', b'"source":"cache"')
        reader = SweepRunner(TINY, jobs=1, cache_dir=root)
        assert reader.run_spec(spec) == result
        assert (reader.runs_executed, reader.disk_hits) == (0, 1)
        assert ResultCache(root).path(key).read_bytes() == entries[0]


@pytest.fixture(scope="module")
def two_runs():
    specs = [make_run_spec("WL-9", scenario, **FAST) for scenario in ("all_bank", "per_bank")]
    return [(spec, run_spec(spec)) for spec in specs]


def _fill_and_swap(root, runs) -> list:
    """A cache under *root* holding *runs*, with their two entry files
    swapped: each key holds the other run's entry.  Returns the paths."""
    cache = ResultCache(root)
    for spec, result in runs:
        cache.put(spec.content_hash(), spec, result)
    paths = [cache.path(spec.content_hash()) for spec, _ in runs]
    texts = [path.read_bytes() for path in paths]
    for path, text in zip(paths, reversed(texts)):
        path.write_bytes(text)
    return paths


def test_swapped_entries_are_misses_deleted_and_recomputed(tmp_path, two_runs):
    specs, results = [spec for spec, _ in two_runs], [result for _, result in two_runs]
    paths = _fill_and_swap(tmp_path / "cache", two_runs)
    cache = ResultCache(tmp_path / "cache")
    assert [cache.get(spec) for spec in specs] == [None, None]
    assert (cache.hits, cache.misses) == (0, 2)
    assert not any(path.exists() for path in paths)

    _fill_and_swap(tmp_path / "runner", two_runs)
    runner = SweepRunner(TINY, jobs=1, cache_dir=tmp_path / "runner")
    assert [runner.run_spec(spec) for spec in specs] == results
    assert (runner.runs_executed, runner.disk_hits) == (2, 0)

    _fill_and_swap(tmp_path / "service", two_runs)
    service = SweepService(cache_dir=tmp_path / "service")

    async def resolve_all():
        return [await service.resolve(spec) for spec in specs]

    try:
        answers = asyncio.run(resolve_all())
    finally:
        service.close()
    assert answers == [(result, "executed") for result in results]

    # Each recomputed entry was rewritten under its own key and now hits.
    for root in ("runner", "service"):
        cache = ResultCache(tmp_path / root)
        assert [cache.get(spec).result for spec in specs] == results


def test_an_entry_whose_spec_text_was_edited_is_a_miss(tmp_path, sampled):
    spec, result = sampled
    key = spec.content_hash()
    cache = ResultCache(tmp_path)
    cache.put(key, spec, result)
    path = cache.path(key)
    text = path.read_text()
    seed = f'"seed":{spec.config.seed},'
    assert text.count(seed) == 1
    path.write_text(text.replace(seed, f'"seed":{spec.config.seed + 1},'))
    assert json.loads(path.read_text())["spec"]["config"]["seed"] == spec.config.seed + 1
    assert cache.get(spec) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert not path.exists()
