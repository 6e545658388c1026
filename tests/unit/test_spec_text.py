"""Spliced spec text against the generic walk.

``RunSpec.canonical_json`` splices the stored texts of its task list,
scenario and config; each of those is encoded once per instance and
stored on it.  The generic walk, ``serialize.canonical_json`` of a
``to_dict``, stays the reference: every stored text must equal it byte
for byte, over every scenario and Table-2 mix and over overrides that
reach nested dataclasses and enums.  The parts a sweep's cells share
are validated once per instance, and an invalid part fails every spec
built from it.
"""

import dataclasses
import pickle

import pytest

from repro.config.dram_configs import FgrMode
from repro.config.system_configs import OsConfig, SystemConfig, default_system_config
from repro.core.simulator import make_run_spec, sweep_specs
from repro.core.system import SCENARIOS
from repro.errors import ConfigError
from repro.serialize import CanonicalJSON, canonical_json, content_hash
from repro.workloads.benchmark import AccessPattern, BenchmarkSpec
from repro.workloads.mixes import mix_names

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

#: A task list no mix names, with a non-default enum and suite.
CUSTOM = [
    BenchmarkSpec("probe", mpki=12.5, footprint_bytes=3 << 20, mlp=2,
                  pattern=AccessPattern.SEQUENTIAL, suite="custom"),
    BenchmarkSpec("idle", mpki=0.0, footprint_bytes=1 << 20),
]

#: Overrides that reach an enum, a nested dataclass, the density table,
#: and the spec fields emitted only when set.
OVERRIDES = {
    "plain": {},
    "fgr": {"fgr_mode": FgrMode.X4, "density_gbit": 16},
    "nested": {"os": OsConfig(eta_thresh=3), "density_gbit": 24},
    "sampled": {"sample_windows": 4},
    "warm": {"warmup_scenario": "per_bank"},
    "resumed": {"warmup_scenario": "per_bank", "resume_from": "0123456789abcdef@4096"},
}

SPEC_FIELDS = ("sample_windows", "warmup_scenario", "resume_from")


def _spec(workload, scenario, overrides):
    fields = {k: v for k, v in overrides.items() if k in SPEC_FIELDS}
    config = {k: v for k, v in overrides.items() if k not in SPEC_FIELDS}
    spec = make_run_spec(
        workload, scenario, sample_windows=fields.pop("sample_windows", None),
        **FAST, **config,
    )
    return spec.with_(**fields) if fields else spec


def _assert_reference(spec):
    for part in (*spec.specs, spec.scenario, spec.config):
        assert part.canonical_json() == canonical_json(part.to_dict()), part
        assert isinstance(part.canonical_json(), CanonicalJSON)
    text = spec.canonical_json()
    assert text == canonical_json(spec.to_dict())
    assert isinstance(text, CanonicalJSON)
    assert spec.content_hash() == content_hash(spec.to_dict())


@pytest.mark.parametrize("overrides", sorted(OVERRIDES))
def test_spliced_text_matches_the_generic_walk(overrides):
    workloads = [*mix_names(), CUSTOM]
    for workload in workloads:
        for scenario in SCENARIOS:
            _assert_reference(_spec(workload, scenario, OVERRIDES[overrides]))


def test_copies_compute_their_own_text():
    spec = _spec("WL-6", "codesign", OVERRIDES["nested"])
    text = spec.canonical_json()
    config = spec.config
    copies = {
        "spec.with_": spec.with_(num_windows=1.0),
        "spec replace": dataclasses.replace(spec, warmup_scenario="per_bank"),
        "config.with_": spec.with_(config=config.with_(density_gbit=16)),
        "config replace": spec.with_(
            config=dataclasses.replace(config, fgr_mode=FgrMode.X2)
        ),
        "scenario replace": spec.with_(
            scenario=dataclasses.replace(spec.scenario, best_effort=True)
        ),
        "task replace": spec.with_(
            specs=(dataclasses.replace(spec.specs[0], mlp=1), *spec.specs[1:])
        ),
    }
    for label, changed in copies.items():
        assert "_canonical_json" not in vars(changed), label
        _assert_reference(changed)
        assert changed.canonical_json() != text, label
    for part in (config.with_(density_gbit=16),
                 dataclasses.replace(spec.scenario, best_effort=True),
                 dataclasses.replace(spec.specs[0], mlp=1)):
        assert "_canonical_json" not in vars(part)
    assert spec.canonical_json() is text


def test_a_pickled_spec_keeps_its_text_and_hash():
    spec = _spec("WL-6", "codesign", OVERRIDES["fgr"])
    key = spec.content_hash()
    copy = pickle.loads(pickle.dumps(spec))
    assert vars(copy)["_content_hash"] == key
    for original, kept in [(spec, copy), (spec.config, copy.config),
                           (spec.scenario, copy.scenario),
                           *zip(spec.specs, copy.specs)]:
        text = vars(kept)["_canonical_json"]
        assert text == original.canonical_json()
        assert isinstance(text, CanonicalJSON)  # spliced, not quoted
    assert copy.canonical_json() == spec.canonical_json()
    assert copy.content_hash() == key


def test_sweep_specs_share_one_config_per_call():
    specs = sweep_specs(mix_names(), sorted(SCENARIOS), density_gbit=16, **FAST)
    assert len(specs) == len(mix_names()) * len(SCENARIOS)
    assert len({id(spec.config) for spec in specs}) == 1
    base = default_system_config(refresh_scale=1024)
    warm = sweep_specs(["WL-1", "WL-6"], ["all_bank", "codesign"], config=base,
                       warmup_scenario="per_bank", num_windows=0.25,
                       warmup_windows=0.05, density_gbit=24)
    assert len({id(spec.config) for spec in warm}) == 1
    assert warm[0].config == base.with_(density_gbit=24)
    for spec in [*specs, *warm]:
        _assert_reference(spec)


def test_a_sweep_validates_its_shared_config_once(monkeypatch):
    calls = []
    validate = SystemConfig.validate

    def counting(config):
        calls.append(config)
        validate(config)

    monkeypatch.setattr(SystemConfig, "validate", counting)
    specs = sweep_specs(mix_names()[:10], ["all_bank", "per_bank", "codesign"],
                        density_gbit=24, **FAST)
    assert len(specs) == 30
    assert len(calls) == 1


def test_an_invalid_part_raises_on_every_construction():
    task = BenchmarkSpec("bad", mpki=-1.0, footprint_bytes=1 << 20)
    config = dataclasses.replace(default_system_config(), refresh_scale=0)
    for _ in range(3):
        with pytest.raises(ConfigError, match="MPKI"):
            make_run_spec([task], "all_bank", **FAST)
        with pytest.raises(ConfigError, match="scale factors"):
            make_run_spec("WL-9", "all_bank", config=config,
                          num_windows=0.25, warmup_windows=0.05)
    assert "_validated" not in vars(task)
    assert "_validated" not in vars(config)
