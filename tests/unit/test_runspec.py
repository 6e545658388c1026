"""Unit tests for the serializable RunSpec pipeline and content hashing."""

import json

import pytest

from repro.config.system_configs import (
    OsConfig,
    SystemConfig,
    default_system_config,
)
from repro.core.results import RunResult, TaskResult
from repro.core.runspec import RunSpec
from repro.core.simulator import make_run_spec, run_spec
from repro.core.system import SCENARIOS, Scenario
from repro.core.results import EnergyBreakdown
from repro.errors import ConfigError
from repro.os.partition import PartitionPolicy
from repro.serialize import (
    canonical_json,
    content_hash,
    dataclass_from_dict,
    to_jsonable,
)


def json_roundtrip(obj):
    return json.loads(json.dumps(obj))


# -- SystemConfig ---------------------------------------------------------------


def test_system_config_roundtrip():
    config = default_system_config(
        density_gbit=16, refresh_scale=512, os=OsConfig(eta_thresh=3)
    )
    data = json_roundtrip(config.to_dict())
    rebuilt = SystemConfig.from_dict(data)
    assert rebuilt == config
    assert rebuilt.content_hash() == config.content_hash()


def test_system_config_hash_changes_with_fields():
    a = default_system_config()
    b = default_system_config(density_gbit=16)
    c = default_system_config(os=OsConfig(eta_thresh=2))
    assert len({a.content_hash(), b.content_hash(), c.content_hash()}) == 3


def test_system_config_from_dict_rejects_unknown_field():
    data = default_system_config().to_dict()
    data["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        SystemConfig.from_dict(data)


def test_unknown_override_is_config_error():
    with pytest.raises(ConfigError, match="invalid config override"):
        default_system_config(bogus_field=1)
    with pytest.raises(ConfigError, match="invalid config override"):
        default_system_config().with_(bogus_field=1)


# -- Scenario -------------------------------------------------------------------


def test_scenario_roundtrip_all_predefined():
    for scenario in SCENARIOS.values():
        data = json_roundtrip(scenario.to_dict())
        assert Scenario.from_dict(data) == scenario


def test_scenario_content_hash_ignores_nothing():
    a = Scenario("alike", "all_bank")
    b = Scenario("alike", "per_bank")
    c = Scenario("alike", "all_bank", partition=PartitionPolicy.SOFT)
    assert len({a.content_hash(), b.content_hash(), c.content_hash()}) == 3
    assert a.content_hash() == Scenario("alike", "all_bank").content_hash()


# -- RunSpec --------------------------------------------------------------------


def test_make_run_spec_resolves_mix():
    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    assert spec.workload_name == "WL-6"
    assert len(spec.specs) == 8
    assert spec.scenario.name == "codesign"
    assert spec.config.refresh_scale == 1024


def test_run_spec_json_roundtrip():
    spec = make_run_spec(
        "WL-6", "codesign", num_windows=0.5, warmup_windows=0.1,
        refresh_scale=1024, density_gbit=16,
    )
    data = json_roundtrip(spec.to_dict())
    rebuilt = RunSpec.from_dict(data)
    assert rebuilt == spec
    assert rebuilt.content_hash() == spec.content_hash()


def test_run_spec_hash_sensitive_to_every_layer():
    base = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    variants = [
        make_run_spec("WL-1", "codesign", refresh_scale=1024),
        make_run_spec("WL-6", "per_bank", refresh_scale=1024),
        make_run_spec("WL-6", "codesign", refresh_scale=512),
        make_run_spec("WL-6", "codesign", refresh_scale=1024, num_windows=1.0),
        make_run_spec("WL-6", "codesign", refresh_scale=1024, banks_per_task=4),
    ]
    hashes = {base.content_hash()} | {v.content_hash() for v in variants}
    assert len(hashes) == len(variants) + 1


def test_run_spec_validate():
    spec = make_run_spec("WL-6", "codesign")
    with pytest.raises(ConfigError):
        spec.with_(specs=()).validate()
    with pytest.raises(ConfigError):
        spec.with_(num_windows=0).validate()
    with pytest.raises(ConfigError):
        spec.with_(banks_per_task=0).validate()


def test_unserializable_config_value_raises_config_error():
    class Opaque:
        def validate(self):
            pass

    spec = make_run_spec("WL-6", "all_bank", dram_timing=Opaque())
    with pytest.raises(ConfigError, match="not JSON-serializable"):
        spec.content_hash()


def test_unserializable_spec_field_raises_config_error():
    from decimal import Decimal

    spec = make_run_spec("WL-6", "all_bank", num_windows=Decimal("1"))
    with pytest.raises(ConfigError, match="not JSON-serializable"):
        spec.content_hash()


# -- RunResult ------------------------------------------------------------------


def make_result(with_energy=True):
    energy = None
    if with_energy:
        energy = EnergyBreakdown(
            background_mj=1.5, activate_mj=0.25, read_mj=0.125,
            write_mj=0.0625, refresh_mj=0.75, elapsed_ns=1e6,
        )
    return RunResult(
        scenario="codesign", workload="WL-6", density_gbit=32, trefw_ms=64.0,
        simulated_cycles=1000,
        tasks=[
            TaskResult(
                task_id=0, name="mcf", instructions=100, scheduled_cycles=400,
                quanta=3, reads_completed=7, avg_read_latency_cycles=212.5,
                refresh_stall_cycles=11,
            )
        ],
        reads_completed=7, writes_completed=2,
        avg_read_latency_cycles=212.5, row_hit_rate=0.625,
        refresh_commands=5, refresh_stall_cycles=11, refresh_stalled_reads=1,
        context_switches=4, bus_utilization=0.375,
        energy=energy,
    )


def test_run_result_json_roundtrip():
    result = make_result()
    rebuilt = RunResult.from_dict(json_roundtrip(result.to_dict()))
    assert rebuilt == result
    assert rebuilt.energy == result.energy
    assert rebuilt.hmean_ipc == result.hmean_ipc


def test_run_result_roundtrip_without_energy():
    result = make_result(with_energy=False)
    rebuilt = RunResult.from_dict(json_roundtrip(result.to_dict()))
    assert rebuilt == result
    assert rebuilt.energy is None


def test_run_result_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        RunResult.from_dict("nope")
    with pytest.raises(ConfigError):
        RunResult.from_dict({"scenario": "s", "unknown_field": 1})


def test_simulated_result_roundtrips():
    spec = make_run_spec(
        "WL-9", "per_bank", num_windows=0.25, warmup_windows=0.05,
        refresh_scale=1024,
    )
    result = run_spec(spec)
    rebuilt = RunResult.from_dict(json_roundtrip(result.to_dict()))
    assert rebuilt == result


def test_run_spec_is_pure_function():
    spec = make_run_spec(
        "WL-9", "per_bank", num_windows=0.25, warmup_windows=0.05,
        refresh_scale=1024,
    )
    assert run_spec(spec) == run_spec(spec)


# -- serialize helpers ----------------------------------------------------------


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert content_hash({"a": 1}) == content_hash({"a": 1})
    assert content_hash({"a": 1}) != content_hash({"a": 2})


def test_to_jsonable_rejects_non_string_keys():
    with pytest.raises(ConfigError, match="keys must be strings"):
        to_jsonable({1: "x"})


_TASK = TaskResult(
    task_id=0, name="t", instructions=10, scheduled_cycles=20, quanta=1,
    reads_completed=2, avg_read_latency_cycles=3.5, refresh_stall_cycles=4,
).to_dict()


@pytest.mark.parametrize("data, error, message", [
    ({**_TASK, "bogus": 1}, ConfigError, "TaskResult: unknown field(s) ['bogus']"),
    ({k: v for k, v in _TASK.items() if k != "name"}, TypeError,
     "missing 1 required positional argument: 'name'"),
    ({**{k: v for k, v in _TASK.items() if k != "name"}, "bogus": 1, "extra": 2},
     ConfigError, "TaskResult: unknown field(s) ['bogus', 'extra']"),
    ([_TASK], ConfigError, "TaskResult: expected a dict, got list"),
], ids=["unknown", "missing", "unknown-and-missing", "not-a-dict"])
def test_dataclass_from_dict_error_paths(data, error, message):
    with pytest.raises(Exception) as exc:
        dataclass_from_dict(TaskResult, data)
    assert exc.type is error
    assert message in str(exc.value)
    assert dataclass_from_dict(TaskResult, _TASK).to_dict() == _TASK


# -- RunSpec identity: the content hash, computed once per instance --------------


#: Content hashes recorded before the hash was memoized and the
#: serializer walked each value once; they pin the canonical JSON of
#: four representative specs byte for byte (every disk-cache and
#: checkpoint key is derived from it).
GOLDEN_HASHES = {
    "wl6_codesign": "a7a249b0b4d58ff3",
    "fig10_cell": "337b3ac957d88267",
    "warm_start": "c695e141165940d8",
    "sampled": "706fc5191c694fd1",
}


def golden_specs():
    from repro.core.simulator import sweep_specs

    (warm,) = sweep_specs(
        ["WL-6"], ["codesign"], refresh_scale=1024, num_windows=1.0,
        warmup_windows=1.5, warmup_scenario="per_bank",
    )
    return {
        "wl6_codesign": make_run_spec("WL-6", "codesign", refresh_scale=64),
        "fig10_cell": make_run_spec(
            "WL-1", "per_bank", density_gbit=24, refresh_scale=1024,
            num_windows=1.0, warmup_windows=0.25,
        ),
        "warm_start": warm,
        "sampled": make_run_spec(
            "WL-9", "all_bank", refresh_scale=1024, num_windows=0.5,
            warmup_windows=0.1, sample_windows=4,
        ),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_content_hash_matches_golden(name):
    spec = golden_specs()[name]
    assert spec.content_hash() == GOLDEN_HASHES[name]
    assert content_hash(spec.to_dict()) == GOLDEN_HASHES[name]
    rebuilt = RunSpec.from_dict(json_roundtrip(spec.to_dict()))
    assert rebuilt.content_hash() == GOLDEN_HASHES[name]


def test_content_hash_is_computed_once_per_instance(hash_calls):
    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    first = spec.content_hash()
    assert spec.content_hash() == first
    assert len(hash_calls) == 1


def test_with_and_from_dict_compute_fresh_hashes():
    import dataclasses

    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    key = spec.content_hash()
    for changed in (
        spec.with_(num_windows=1.0),
        dataclasses.replace(spec, num_windows=1.0),
    ):
        assert "_content_hash" not in vars(changed)
        assert changed.content_hash() == content_hash(changed.to_dict())
        assert changed.content_hash() != key
    same = spec.with_()
    assert "_content_hash" not in vars(same)
    assert same.content_hash() == key
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert "_content_hash" not in vars(rebuilt)
    assert rebuilt.content_hash() == key
    assert rebuilt == spec


def _stored_hash(spec):
    """Runs in a pool worker: the hash the unpickled spec arrived with."""
    return vars(spec).get("_content_hash")


def test_pickled_spec_keeps_its_hash_across_the_process_pool():
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    key = spec.content_hash()
    copy = pickle.loads(pickle.dumps(spec))
    assert vars(copy)["_content_hash"] == key
    assert copy == spec
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(_stored_hash, spec).result() == key


def test_task_list_is_always_a_tuple():
    spec = make_run_spec("WL-6", "codesign", refresh_scale=1024)
    tasks = list(spec.specs)
    direct = RunSpec(
        workload_name=spec.workload_name,
        specs=tasks,
        scenario=spec.scenario,
        config=spec.config,
    )
    replaced = spec.with_(specs=tasks)
    for built in (direct, replaced):
        assert isinstance(built.specs, tuple)
        key = built.content_hash()
        tasks.clear()  # the caller's list no longer reaches the spec
        assert len(built.specs) == 8
        assert built.content_hash() == key == content_hash(built.to_dict())
        tasks.extend(spec.specs)
    assert replaced.content_hash() == spec.content_hash()
