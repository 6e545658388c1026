"""Checkpoint payloads, pinned byte for byte and resumed barrier by barrier.

Every spec below runs with a checkpoint barrier every tREFW/16.  Two
checks hold the checkpoint layer to a fixed point:

(a) the sha256 of the exact bytes :func:`save_checkpoint` writes at the
    middle barrier is pinned.  Those bytes are unsorted ``json.dumps``
    output, so the payload's key order is pinned along with its values;

(b) a run resumed from the barrier a third of the way in must produce,
    at every later barrier, the same JSON snapshot as the uninterrupted
    run, and then the same result digest and ``events_processed``.

Check (b) catches restore bugs that a final result digest alone can
miss: an alias rebound instead of updated in place, or a derived view
that is not rebuilt, leaves the resumed machine diverged long before the
diverged state changes a result.
"""

import hashlib
import json

import pytest

from repro.config.dram_configs import DramOrganization
from repro.config.system_configs import CoreConfig, OsConfig
from repro.core.checkpoint import save_checkpoint
from repro.core.simulator import (
    available_scenarios,
    build_system_from_spec,
    make_run_spec,
    sweep_specs,
    warm_start_state,
)
from repro.serialize import content_hash
from repro.workloads.mixes import scaled_mix

WINDOWS = dict(num_windows=0.5, warmup_windows=0.125)
SCALE = 1024
STEP = 1 / 16  # barrier grid: tREFW/16

#: sha256 of the checkpoint file written at each spec's middle barrier.
PAYLOAD_DIGESTS = {
    "WL-1/adaptive": "361cd4557e8ea75761e7f4a12851e3bd9401965d98e06878c0477498efc97555",
    "WL-1/all_bank": "45cae2dc07a70dcd12bd9a39f16fa10bb691a1e82ca6a2e8ae96bbbfea072877",
    "WL-1/codesign": "f36ce5bd33b0d3f8781597a91af5b9a45244ae5c990daa839e04953ced450090",
    "WL-1/codesign_best_effort": "58203426fe19bedce00b87ca28edd9edc7271df71bc262b0b12ed03e81252cc1",
    "WL-1/codesign_hard": "2bb680b0759208bbf44dc612f0b2aad2e2cc9fee28556b0f039f74490e706e0f",
    "WL-1/elastic": "dba8af2bbe9a7685adf61b4832a87765f092b5f2e708a723cae5de8f05ab366b",
    "WL-1/no_refresh": "26c0aee0fd1dedd4b9b46a499f8640db9d8af488f8568897b79c9af891a3eb3e",
    "WL-1/ooo_per_bank": "e1b91dd49239ff91f212fb98eff16f56e2f16c42c453759c800c5546339455ce",
    "WL-1/partition_only": "d1aea14b949a47eb36ccc949f73dad1b3ecfe10aaef6df7278b9729888e0d620",
    "WL-1/pausing": "e7bdf9cf7753b5763349bf3f2fc1cfa6ad0eac2e25558a6e0c59f698166998c2",
    "WL-1/per_bank": "53a3be3f3cb43d4b56bb4e3fef69a67fc73481effeeada21f8a0b2b2f89a0f53",
    "WL-1/same_bank_hw_only": "70d930a17f49b51cdfe1da554a9c61f4110a55c6ca1ab3353dc30f81961c17fd",
    "WL-6/adaptive": "649bdbb91f70f76332920180b193651c5a2947b4ea5c52eb0517500d6c565bdc",
    "WL-6/all_bank": "435afbaf23b18e1502fe58a696a02d9af0fb62451d7453b12379b9eed45c28fb",
    "WL-6/codesign": "0d14102fb922ec40b28c693d0f9469100feddda581ea73155e23f5b6f9497c53",
    "WL-6/codesign_best_effort": "4717201ce4b13b96968e0771d5fefee8d305723fa9515dfdbc05d8fa3282e8b6",
    "WL-6/codesign_hard": "9dcf78f239dc33e9e853f90e5ac422eeeb7df5a31845596dac6ca2115e8a09ca",
    "WL-6/elastic": "f80e4c6050ca05e12505289b131469f03233bd23b9b88a34d78fd0d501f51a51",
    "WL-6/no_refresh": "09d7fe33199eaa1222997af0771afcbb79825cdd5b2807728859012777c6675b",
    "WL-6/ooo_per_bank": "76623ba3100a5cde7eb808156acc3ef2d26fe5b893c18df461837e2b5aaf2dc3",
    "WL-6/partition_only": "41de7f68980b5cf100cc177b8fe7f9a3f8e72ccc82d7fefadb9f1550f5e18082",
    "WL-6/pausing": "5b80fac7f63067e3d25dfc7a35602256925e829ca4024fcbf30161cd78a97e11",
    "WL-6/per_bank": "d492f71b7a662e2a0f437dc5ca922232a3a96e6e59d78b31e3fb54e38ac8982a",
    "WL-6/same_bank_hw_only": "64c4ee0012f81a6975639cef58355af9127a2971a39b51cfa1dfb085d2e5f209",
    "demand_paging_cold": "a743cb25c84ca370dd3a52aa7a760a306254e419e7ed78d8dade47d1db87db69",
    "quad_core_balanced": "e3641843a8c892d9fc858164698342ea98cefc34d717982945efddc85340ffee",
    "sampled": "b6bc665e50294ecb0941560414254c873a79bb139e403d8379e0ad5745f44030",
    "warm_start_per_bank": "ef989b0a85740de366454ec6dab1c9cc3cbe60c5585056cf6845ed6eb76a48c9",
}


def _spec(name):
    if name == "demand_paging_cold":
        return make_run_spec(
            "WL-6", "codesign", os=OsConfig(demand_paging=True, prefault=False),
            refresh_scale=SCALE, **WINDOWS,
        )
    if name == "sampled":
        return make_run_spec(
            "WL-6", "codesign", sample_windows=4, refresh_scale=SCALE, **WINDOWS
        )
    if name == "quad_core_balanced":
        return make_run_spec(
            scaled_mix("WL-6", 16),
            "codesign",
            cores=CoreConfig(num_cores=4),
            organization=DramOrganization(ranks_per_channel=4),
            os=OsConfig(load_balance=True),
            refresh_scale=SCALE,
            **WINDOWS,
        )
    if name == "warm_start_per_bank":
        (spec,) = sweep_specs(
            ["WL-6"], ["codesign"], warmup_scenario="per_bank",
            refresh_scale=SCALE, **WINDOWS,
        )
        return spec
    workload, scenario = name.split("/")
    return make_run_spec(workload, scenario, refresh_scale=SCALE, **WINDOWS)


def _run(spec, resume_state=None):
    """Run *spec* to its end; returns ``(barriers, result, events)`` where
    *barriers* lists ``(cycle, json text)`` of every snapshot offered."""
    barriers = []

    def sink(cycle, state):
        barriers.append((cycle, json.dumps(state)))
        return False

    system = build_system_from_spec(spec)
    result = system.run(
        num_windows=spec.num_windows,
        warmup_windows=spec.warmup_windows,
        sample_windows=spec.sample_windows,
        checkpoint_every=STEP,
        checkpoint_sink=sink,
        resume_state=resume_state,
    )
    return barriers, result, system.engine.events_processed


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_scenario_is_covered():
    pinned = {name.split("/")[1] for name in PAYLOAD_DIGESTS if "/" in name}
    assert pinned == set(available_scenarios())


@pytest.mark.parametrize("name", sorted(PAYLOAD_DIGESTS))
def test_payload_bytes_and_resumed_barriers(name, tmp_path):
    spec = _spec(name)
    start = None
    if spec.warmup_scenario is not None:
        start, _ = warm_start_state(spec)
    barriers, result, events = _run(spec, start)
    assert len(barriers) >= 6

    # (a) the bytes a checkpoint file holds at the middle barrier.
    cycle, text = barriers[len(barriers) // 2]
    path = save_checkpoint(tmp_path / "ckpt.json", spec, cycle, json.loads(text))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PAYLOAD_DIGESTS[name]

    # (b) resume a third of the way in; every later barrier must match.
    third = len(barriers) // 3
    resumed, resumed_result, resumed_events = _run(
        spec, json.loads(barriers[third][1])
    )
    expected = [(c, _sha(t)) for c, t in barriers[third + 1 :]]
    assert [(c, _sha(t)) for c, t in resumed] == expected
    assert resumed_events == events
    assert content_hash(resumed_result.to_dict()) == content_hash(result.to_dict())
