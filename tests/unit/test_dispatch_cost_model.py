"""The controller's cycles-per-dispatch cost model and the bench kernels
that export it.

Every quantity in :meth:`MemoryController.dispatch_cost_model` is a pure
function of the workload — no wall clocks — so these tests can assert
exact identities (picks = serviced + dead + deferred, pops partition
into row-hit and FIFO) and exact run-to-run agreement.
"""

import importlib.util
from pathlib import Path

from repro.bench import COST_MODEL_PINNED_FIELDS
from repro.bench.kernels import (
    _drain_storm,
    _request_stream,
    _row_hit_locality,
    controller_cost_models,
)

ROOT = Path(__file__).resolve().parents[2]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_request_stream_model_identities():
    completed, mc = _request_stream()
    model = mc.dispatch_cost_model()
    assert completed == 2000
    assert model["serviced"] == completed
    assert model["picks"] == (
        model["serviced"]
        + model["dead_picks"]
        + model["refresh_deferred_picks"]
    )
    assert model["row_hit_pops"] + model["fifo_pops"] == model["serviced"]
    assert 0.0 <= model["dead_pick_ratio"] < 1.0
    assert 0.0 <= model["row_hit_pop_ratio"] <= 1.0


def test_drain_storm_toggles_drain_once_per_wave():
    """2048 requests in completion-paced waves of 64 (60 writes + 4
    reads): each wave crosses the high watermark on enqueue and empties
    through the low one, so drain mode toggles exactly 2048/64 times."""
    completed, mc = _drain_storm()
    model = mc.dispatch_cost_model()
    assert completed == 2048
    assert model["drain_entries"] == 2048 // 64
    assert model["drain_exits"] == model["drain_entries"]
    assert not mc.drain_mode


def test_row_hit_locality_pops_mostly_from_open_row_index():
    _, random_mc = _request_stream()
    _, burst_mc = _row_hit_locality()
    random_model = random_mc.dispatch_cost_model()
    burst_model = burst_mc.dispatch_cost_model()
    assert burst_model["row_hit_pop_ratio"] > 0.8
    assert burst_model["row_hit_pop_ratio"] > random_model["row_hit_pop_ratio"]


def test_cost_models_are_deterministic():
    first = controller_cost_models()
    second = controller_cost_models()
    assert first == second
    assert set(first) == {
        "controller_request_stream",
        "controller_drain_storm",
        "controller_row_hit_locality",
    }


def test_cost_model_counters_stay_out_of_snapshots():
    """The counters are process-local diagnostics: a snapshot/restore
    round trip must neither serialize them nor disturb them."""
    _, mc = _request_stream()
    state = mc.snapshot_state()
    assert not any("cost" in key or key.startswith("_cm") for key in state)
    before = mc.dispatch_cost_model()
    mc.restore_state(state, {})
    assert mc.dispatch_cost_model() == before


def test_cost_model_carries_every_key_its_readers_use():
    """perfbench's traced ledger sums ``COST_MODEL_FIELDS`` over every
    run (a missing key is a ``KeyError`` there), ``scripts/bench_trend.py``
    gates the ratios in ``COST_MODEL_RATIO_GATES`` and the determinism
    signature pins ``COST_MODEL_PINNED_FIELDS``.  The queues have nothing
    to sweep, so the stale-skip keys stay and read zero."""
    spans = _load(ROOT / "perfbench" / "spans.py", "perfbench_spans")
    trend = _load(ROOT / "scripts" / "bench_trend.py", "bench_trend_gates")
    wanted = (
        set(spans.COST_MODEL_FIELDS)
        | {field for field, *_ in trend.COST_MODEL_RATIO_GATES}
        | set(COST_MODEL_PINNED_FIELDS)
    )
    for name, model in controller_cost_models().items():
        assert wanted <= set(model), (name, wanted - set(model))
        assert model["stale_skips"] == 0
        assert model["stale_skips_per_pop"] == 0.0
