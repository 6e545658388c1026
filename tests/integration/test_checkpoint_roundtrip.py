"""Seeded-fuzz checkpoint/restore round trips on WL-6.

Snapshots the codesign scenario at random tREFW-aligned barriers
(multiples of tREFW/16, covering both the warm-up and the measured
interval), forces each snapshot through JSON — exactly what a
checkpoint file persists — restores into a freshly built system, and
requires the continuation to be bit-identical to a straight-through
run: same ``events_processed``, same metrics-registry export, same
result digest.
"""

import json
import random

import pytest

from repro.core.simulator import build_system_from_spec, make_run_spec
from repro.serialize import content_hash

WINDOWS = dict(num_windows=1.0, warmup_windows=0.25)
STEP = 1 / 16  # barrier grid: tREFW/16


def _spec():
    return make_run_spec("WL-6", "codesign", refresh_scale=512, **WINDOWS)


def _barriers():
    """Ten distinct random barrier indices on the tREFW/16 grid, strictly
    inside the 1.25-window run.  The measurement boundary itself is not a
    periodic barrier (it is offered only via ``checkpoint_measure_start``),
    so its index is excluded."""
    total = int((WINDOWS["num_windows"] + WINDOWS["warmup_windows"]) / STEP)
    boundary = int(WINDOWS["warmup_windows"] / STEP)
    candidates = [k for k in range(1, total) if k != boundary]
    return sorted(random.Random(0x5EED).sample(candidates, 10))


@pytest.fixture(scope="module")
def baseline():
    system = build_system_from_spec(_spec())
    result = system.run(**WINDOWS)
    return {
        "digest": content_hash(result.to_dict()),
        "events": system.engine.events_processed,
        "metrics": system.metrics().snapshot(),
    }


@pytest.mark.parametrize("k", _barriers())
def test_roundtrip_is_bit_identical_at_barrier(k, baseline):
    spec = _spec()
    system = build_system_from_spec(spec)
    target = k * int(system.window_cycles * STEP)
    captured = {}

    def sink(cycle, state):
        if cycle == target:
            captured["state"] = state
            return True
        return False

    halted = system.run(
        checkpoint_every=STEP, checkpoint_sink=sink, **WINDOWS
    )
    assert halted is None
    assert captured["state"]["engine"]["now"] == target

    state = json.loads(json.dumps(captured["state"]))

    resumed = build_system_from_spec(spec, resume_state=state)
    result = resumed.run(**WINDOWS)
    assert resumed.engine.events_processed == baseline["events"]
    assert resumed.metrics().snapshot() == baseline["metrics"]
    assert content_hash(result.to_dict()) == baseline["digest"]
