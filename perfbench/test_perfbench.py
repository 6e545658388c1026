"""Self-tests of the benchmark harness.

Run from the checkout root::

    python3 -m pytest perfbench -q

They use shrunken workload sizes and an unpinned seed, so they take
seconds, not the length of a measured run.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import env

env.use_checkout_repro()

import calibrate  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DECLARED = json.loads((env.ROOT / "BENCHMARK.json").read_text())
#: A seed with no pinned digest: the shrunken configs below would not
#: match the pins of the full-size workloads.
SEED = 11


#: Shrunken run lengths; the warm-up stays longer than the window so
#: the warm-started workload still restores a checkpoint.
TINY = {"refresh_scale": 1024, "num_windows": 0.05, "warmup_windows": 0.1}


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in workloads.WORKLOADS.items():
        sweeps = tuple(sweep._replace(options={**sweep.options, **TINY})
                       for sweep in workload.sweeps)
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workload, sweeps=sweeps))
    monkeypatch.setattr(workloads, "MEMO_SUBMITS", 20)
    monkeypatch.setattr(workloads, "MEMO_PER_SWEEP", 5)
    monkeypatch.setattr(workloads, "RESTARTS", 2)


def _empty_summaries():
    reference = {"counts": {}, "run_wall": 0.0, "window_wall": 0.0}
    traced = {"counts": {}, "run_wall": 0.0, "window_wall": 0.0, "calls": {},
              "layer_self": {}, "subsystems": {}, "unattributed": 0.0, "import_s": 0.0}
    return reference, traced


def test_declared_names_follow_the_grammar_and_are_unique():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in DECLARED["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric


def test_emitted_metrics_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in DECLARED["end_to_end"]} == {
        "setup_s", "peak_rss_mb", *workloads.LOOP_METRICS}
    metrics, _table = spans.ledger(*_empty_summaries(), ops=1)
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}


def test_loop_reports_every_end_to_end_metric(tiny, monkeypatch):
    monkeypatch.setattr(workloads, "MEMO_SUBMITS", 1000)
    monkeypatch.setattr(workloads, "MEMO_PER_SWEEP", 50)
    monkeypatch.setattr(workloads, "COLD_SWEEPS", 1)
    checker = workloads.Checker()
    with calibrate.HostSampler() as sampler:
        out = workloads.loop("wl6_codesign_long", SEED, 0, checker, sampler)
    assert checker.failed == 0, checker.errors
    assert set(out["metrics"]) == set(workloads.LOOP_METRICS)


def test_p99_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(1000)), 99) == 989
    assert stats.tail_percentile(list(range(999)), 99) is None
    assert stats.tail_percentile([], 99) is None
    assert stats.tail_percentile(list(range(20)), 50) == 9


def test_host_speed_is_averaged_over_the_sample_or_its_neighbourhood():
    sampler = calibrate.HostSampler()
    sampler.times = [float(t) for t in range(100)]
    sampler.kernel_s = [1.0] * 50 + [3.0] * 50
    assert sampler.host_seconds(10.0, 40.0) == 1.0
    assert sampler.host_seconds(60.0, 90.0) == 3.0
    # A short sample borrows readings on both sides of it.
    assert sampler.host_seconds(49.5, 49.5) == pytest.approx(2.0)


def test_wrong_pinned_digest_is_a_failed_operation(tiny, monkeypatch):
    monkeypatch.setitem(workloads.PINS, "wl6_codesign_long", {str(SEED): "0" * 64})
    checker = workloads.Checker()
    workloads.unit("wl6_codesign_long", SEED, checker)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "digest" in checker.errors[0]


def _unit_summary(name, full=True):
    checker = workloads.Checker()
    tracer = spans.Tracer(full)
    tracer.install()
    try:
        out = workloads.unit(name, SEED, checker, tracer)
    finally:
        tracer.uninstall()
    assert checker.failed == 0, checker.errors
    summary = tracer.summary()
    summary["counts"].update(out["counts"])
    summary["import_s"] = 0.0
    return summary


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_counts_repeat_across_traced_runs(tiny, name):
    from repro.core import simulator

    original = simulator.make_run_spec
    first = _unit_summary(name)
    second = _unit_summary(name)
    untraced = _unit_summary(name, full=False)
    assert simulator.make_run_spec is original  # hooks removed
    assert first["counts"] == second["counts"]
    assert first["counts"]["engine.events"] > 0
    shared = set(untraced["counts"]) & set(first["counts"])
    assert {k: untraced["counts"][k] for k in shared} == {
        k: first["counts"][k] for k in shared}
    reference, _ = _empty_summaries()
    reference["run_wall"] = first["run_wall"]
    reference["window_wall"] = first["window_wall"]
    a, _ = spans.ledger(reference, first, ops=1)
    b, _ = spans.ledger(reference, second, ops=1)
    for key, value in a.items():
        if isinstance(value, int):
            assert b[key] == value, key
