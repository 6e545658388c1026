"""The disk-cache entry layout: canonical JSON, result first.

A put splices the result's canonical text and the spec's stored text
into ``{"result":...,"schema":...,"spec":...}``; a hit hands back the
result's bytes as stored, which the sweep service serves without
encoding the result again.  An entry in any other layout is stale.
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
    assert cache.get(key) is None
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
    hit = ResultCache(tmp_path).get(key)
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
