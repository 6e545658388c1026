"""Where the sweep service runs a plain job, ``SweepService.backend``:
its one worker thread at ``jobs == 1``, a process pool above."""

import asyncio
import threading

import pytest

from repro.core.simulator import run_spec, sweep_specs
from repro.serialize import canonical_json
from repro.service import SweepService

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

#: Backend name -> the ``jobs`` value that selects it.
JOBS = {"thread": 1, "process": 2}


def _resolve_all(service, specs):
    async def sweep():
        return await asyncio.gather(*(service.resolve(spec) for spec in specs))

    return asyncio.run(sweep())


@pytest.mark.parametrize("name", sorted(JOBS))
def test_each_backend_matches_direct_run_spec(tmp_path, name):
    specs = sweep_specs(["WL-9"], ["all_bank", "per_bank"], **FAST)
    service = SweepService(jobs=JOBS[name], cache_dir=tmp_path)
    try:
        outcomes = _resolve_all(service, specs)
    finally:
        service.close()
    assert service.counters()["backend"] == name
    assert [source for _, source in outcomes] == ["executed"] * 2
    for spec, (result, _) in zip(specs, outcomes):
        served = service.result_json(spec.content_hash(), result)
        assert served == canonical_json(run_spec(spec))


def test_thread_backend_close_is_idempotent(tmp_path):
    specs = sweep_specs(["WL-9"], ["per_bank"], **FAST)
    service = SweepService(jobs=1, cache_dir=tmp_path)
    _resolve_all(service, specs)
    service.close()
    service.close()
    workers = [t for t in threading.enumerate() if t.name.startswith("repro-svc")]
    assert workers == []
