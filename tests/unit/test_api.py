"""Unit tests for the repro.api facade."""

import json
import warnings

import pytest

from repro import api

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def test_facade_exports_are_importable():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_introspection_helpers():
    assert "codesign" in api.available_scenarios()
    assert "WL-6" in api.available_workloads()
    assert "same_bank" in api.available_policies()


def test_api_run_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = api.run("WL-9", "per_bank", **FAST)
    assert result.workload == "WL-9"
    assert result.hmean_ipc > 0


def test_figure_module_import_is_a_plain_submodule():
    import repro.experiments
    import sys

    repro.experiments.__dict__.pop("figure9", None)
    sys.modules.pop("repro.experiments.figure9", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro.experiments import figure9
    assert figure9 is sys.modules["repro.experiments.figure9"]


def test_figure_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown figure"):
        api.figure("figure99")


def test_a_sweep_figure_rejects_arguments_it_does_not_take():
    with pytest.raises(TypeError, match="figure10 takes no arguments"):
        api.figure(10, trace_dir="out")


def test_figure_accepts_every_name_form():
    texts = {api.figure(name, capacity_scale=2048).text for name in (5, "5", "figure5")}
    assert len(texts) == 1
    assert next(iter(texts)).startswith("Figure 5:")


def test_importing_the_package_leaves_the_figure_table_unloaded():
    import subprocess
    import sys

    probe = (
        "import sys, repro.experiments, repro.experiments.cache; "
        "sys.exit('repro.experiments.figures' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


def test_api_sweep_matches_run(tmp_path):
    results = api.sweep(
        ["WL-9"], ["all_bank", "per_bank"], jobs=1, use_cache=False,
        out=tmp_path / "out", **FAST,
    )
    assert len(results) == 2
    direct = api.run("WL-9", "all_bank", **FAST)
    spec = api.make_run_spec("WL-9", "all_bank", **FAST)
    assert _canon(results[spec.content_hash()]) == _canon(direct)
    assert len(list((tmp_path / "out").glob("*.json"))) == 2


def test_api_diff_dispatches_on_path_kind(tmp_path):
    api.sweep(["WL-9"], ["per_bank"], jobs=1, use_cache=False,
              out=tmp_path / "a", **FAST)
    api.sweep(["WL-9"], ["per_bank"], jobs=1, use_cache=False,
              out=tmp_path / "b", **FAST)
    assert api.diff(tmp_path / "a", tmp_path / "b").exit_code == 0
    file_a = next((tmp_path / "a").glob("*.json"))
    with pytest.raises(ValueError, match="not one of each"):
        api.diff(tmp_path / "a", file_a)
    assert api.diff(file_a, file_a).exit_code == 0


def test_api_warm_start_returns_state_and_provenance(tmp_path):
    from repro.core.checkpoint import CheckpointStore
    from repro.core.simulator import sweep_specs

    (spec,) = sweep_specs(
        ["WL-9"], ["codesign"], warmup_scenario="per_bank", **FAST
    )
    state, provenance = api.warm_start(spec, CheckpointStore(tmp_path))
    assert isinstance(state, dict) and state
    key, _, cycle = provenance.partition("@")
    assert len(key) == 16 and int(cycle) > 0


def test_api_submit_round_trip(tmp_path):
    from repro.service import SweepService, serve_in_thread

    service = SweepService(cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    try:
        spec = api.make_run_spec("WL-9", "per_bank", **FAST)
        served = api.submit(spec, port=server.port)
        assert _canon(served) == _canon(api.run_spec(spec))
        outcome = api.submit([spec], port=server.port)
        assert outcome.ok
        assert outcome.sources[spec.content_hash()] == "memo"
    finally:
        server.stop()
        thread.join(timeout=10)
