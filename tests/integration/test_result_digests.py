"""Golden result digests: the simulator's output, pinned byte for byte.

Each test runs a short, fully seeded simulation and compares the sha256
of its canonical result JSON (``json.dumps(result.to_dict(),
sort_keys=True)``) with a recorded value.  Every scenario runs on a
memory-heavy mix (WL-6) and a light one (WL-1); one run each covers
cold-start demand paging, a warm start from a ``per_bank`` warm-up
prefix and time-series sampling.  A checkpoint payload captured at the
WL-6 codesign warm-up boundary is pinned the same way.

A change that moves one RNG draw or reorders two events within a cycle
changes these digests, so hot-path rewrites that must stay
bit-identical are checked here on every supported Python version.  A
deliberate change of simulated behaviour records new values.
"""

import hashlib
import json

import pytest

from repro.config.system_configs import OsConfig
from repro.core.simulator import (
    available_scenarios,
    build_system_from_spec,
    make_run_spec,
    run_spec,
    sweep_specs,
)

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

SCENARIO_DIGESTS = {
    ("WL-1", "adaptive"): "47cfab753be6e91c41ef7cf2524befd3c1317f50ce36831504b08dfe70cb5c46",
    ("WL-1", "all_bank"): "de270b13e3f7e2351c22d0d59e116af8acb2357893a7e91559ed0b78384e22e5",
    ("WL-1", "codesign"): "a23205678a3daa3a8f81ae721ce705ab0d45f9a3cba251153393338e509f8fa3",
    ("WL-1", "codesign_best_effort"): "64f0eed54c72f8fe42aa357466f2de9dc1363a1272fd451c0fba3ed8cb88de54",
    ("WL-1", "codesign_hard"): "7063566d73e00da5585d6e17614ccff52a9630e9ee566a96c01eca3202152155",
    ("WL-1", "elastic"): "3e72bdbd17d078b5174161dc114734e726759270e2d08938fa48c268cd30ec30",
    ("WL-1", "no_refresh"): "0c0611a23269f2fe4e37e177a5ffbdaead5df1e077f149d540352f0e212ee889",
    ("WL-1", "ooo_per_bank"): "c9d0e51d4bc317e31a362f4783645d64eaf6dcbbe1f45342a556aa3efa8666a8",
    ("WL-1", "partition_only"): "3162f1d2b2372108e069574574d5ae481ac36565871ed84de83af0c1430c689f",
    ("WL-1", "pausing"): "2fad92cfcf720722d6e0b691e0a8efc1b23fb5ae672792425630ba80ff869390",
    ("WL-1", "per_bank"): "c34b4ad2e73f85b3d1f300642f850153743c1036f9b8a48650ba4fff50bbb14c",
    ("WL-1", "same_bank_hw_only"): "43922e9958b2d7a974febda0d179e8e948ddf5e9928f81190ca94eccbe6c30b1",
    ("WL-6", "adaptive"): "a7e08e00df3616ddabc475e20056093119b3765a3d69c2d2c885b1d6adbf4722",
    ("WL-6", "all_bank"): "f589eea5ad57d2d6708316b5c2427722ee1e6077d7326887170d3a9f8e3017de",
    ("WL-6", "codesign"): "84aa84d24262a944d21e99771febcee9c8df5b0fba7cf859e639c96b6f84dd83",
    ("WL-6", "codesign_best_effort"): "a00f4a2a3ac7f0a5082cf2f6bc74d951221e5cf7a1379d848a876cc2729ddb43",
    ("WL-6", "codesign_hard"): "129a325bc45bd67e78ff1c22bbbc96378f015b2409d44853dff3fdbab1624f1f",
    ("WL-6", "elastic"): "462bd396dca31d3dd1724bec76c00295da38ed31d87775d6bf639c52f7d60d5b",
    ("WL-6", "no_refresh"): "ce8b921ab250fb6a807c24cb1973f0465a69842a096e37976ae48cf0f8367f7d",
    ("WL-6", "ooo_per_bank"): "5d83d99fc3296e754ce803246304e89de6288b7ecc0ba5fcd4979f9efc91459b",
    ("WL-6", "partition_only"): "fdc074708f4406da9bd96f770514467096f0823670a4bbb1b567fd1e2c282298",
    ("WL-6", "pausing"): "65be8503a2baca735778b96b589a964707f6602df6df78bdeb04108dd8c41d91",
    ("WL-6", "per_bank"): "4dfbae8f9724eb51290b6356cc23c807ef8149376f96f6d72198b1fd944af384",
    ("WL-6", "same_bank_hw_only"): "dfedd48c090ac8ae3e26892d383f005b15bad427dbb3b36f4ade60158215dc47",
}

VARIANT_DIGESTS = {
    "demand_paging_cold": "522a8b9a431af9220787b5bcc3e18d806f4783e946ee46576c58c61aa8fbae47",
    "sampled": "371c52abeb947b17f8337d996237d991842e40c92fc2ec8aca85b986064d881b",
    "warm_start_per_bank": "4cde1f7c6122ab89637f58b5fb774f51a80b202d1255b446be30db025badb75e",
}

#: sha256 of the WL-6 codesign snapshot at its measurement boundary.
WARMUP_BOUNDARY_SNAPSHOT_DIGEST = (
    "de5835c94827159066750efb561380775bab3cedbb3aec01e635e4f4725ae7fd"
)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _variant_spec(name):
    if name == "demand_paging_cold":
        return make_run_spec(
            "WL-6", "codesign", os=OsConfig(demand_paging=True, prefault=False),
            **FAST,
        )
    if name == "warm_start_per_bank":
        (spec,) = sweep_specs(
            ["WL-6"], ["codesign"], warmup_scenario="per_bank", **FAST
        )
        return spec
    return make_run_spec("WL-6", "codesign", sample_windows=4, **FAST)


def test_every_scenario_is_pinned():
    for workload in ("WL-1", "WL-6"):
        pinned = {s for w, s in SCENARIO_DIGESTS if w == workload}
        assert pinned == set(available_scenarios())


@pytest.mark.parametrize("workload, scenario", sorted(SCENARIO_DIGESTS))
def test_scenario_result_digest(workload, scenario):
    result = run_spec(make_run_spec(workload, scenario, **FAST))
    assert _digest(result.to_dict()) == SCENARIO_DIGESTS[workload, scenario]


@pytest.mark.parametrize("name", sorted(VARIANT_DIGESTS))
def test_variant_result_digest(name):
    result = run_spec(_variant_spec(name))
    assert _digest(result.to_dict()) == VARIANT_DIGESTS[name]


def test_warmup_boundary_snapshot_digest():
    windows = dict(num_windows=1.0, warmup_windows=0.25)
    spec = make_run_spec("WL-6", "codesign", refresh_scale=512, **windows)
    captured = {}

    def capture(cycle, state):
        captured["state"] = state
        return True

    system = build_system_from_spec(spec)
    assert system.run(
        checkpoint_sink=capture, checkpoint_measure_start=True, **windows
    ) is None
    assert _digest(captured["state"]) == WARMUP_BOUNDARY_SNAPSHOT_DIGEST
