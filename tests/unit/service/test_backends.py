"""Unit tests for the worker-backend seam."""

import json

import pytest

from repro.core.simulator import make_run_spec, run_spec
from repro.errors import ServiceError
from repro.service.backends import (
    BACKENDS,
    InlineBackend,
    ThreadBackend,
    make_backend,
)

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)


def _spec(scenario="per_bank"):
    return make_run_spec("WL-9", scenario, **FAST)


def _canon(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_each_backend_matches_direct_run_spec(name):
    spec = _spec()
    backend = make_backend(name, jobs=1)
    try:
        result = backend.submit(spec).result(timeout=120)
    finally:
        backend.close()
    assert _canon(result) == _canon(run_spec(spec))


def test_inline_backend_surfaces_errors_through_future():
    backend = InlineBackend()
    # Anything that blows up inside run_spec must come back through the
    # future, exactly like a process-pool failure would.
    future = backend.submit(object())
    assert future.exception() is not None


def test_thread_backend_close_is_idempotent():
    backend = ThreadBackend(jobs=1)
    backend.submit(_spec()).result(timeout=120)
    backend.close()
    backend.close()


def test_thread_backend_rejects_bad_job_count():
    with pytest.raises(ServiceError):
        ThreadBackend(jobs=0)


def test_make_backend_rejects_unknown_name():
    with pytest.raises(ServiceError, match="unknown backend"):
        make_backend("quantum")
