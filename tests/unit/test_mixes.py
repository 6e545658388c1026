"""Unit tests for Table 2 workload mixes."""

import pytest

from repro.errors import ConfigError
from repro.workloads.benchmark import MpkiClass
from repro.workloads.mixes import (
    mix_names,
    scaled_mix,
    workload_mix,
)


def test_all_ten_mixes_present():
    assert mix_names() == [f"WL-{i}" for i in range(1, 11)]


def test_every_mix_has_eight_tasks():
    # Dual-core 1:4 consolidation (Table 2).
    for name in mix_names():
        assert len(workload_mix(name)) == 8, name


def test_wl1_is_eight_mcf():
    specs = workload_mix("WL-1")
    assert all(s.name == "mcf" for s in specs)
    assert all(s.mpki_class is MpkiClass.HIGH for s in specs)


def test_wl4_composition():
    specs = workload_mix("WL-4")
    names = sorted(s.name for s in specs)
    assert names == ["h264ref"] * 4 + ["povray"] * 4


def test_wl10_composition():
    counts = {}
    for s in workload_mix("WL-10"):
        counts[s.name] = counts.get(s.name, 0) + 1
    assert counts == {"mcf": 4, "bwaves": 2, "povray": 2}


def test_mpki_categories_match_table2():
    # Table 2 categories: WL-1 H, WL-2/3/4 L, WL-5 M.
    assert all(s.mpki_class is MpkiClass.LOW for s in workload_mix("WL-2"))
    assert all(s.mpki_class is MpkiClass.LOW for s in workload_mix("WL-3"))
    assert all(s.mpki_class is MpkiClass.MEDIUM for s in workload_mix("WL-5"))


def test_unknown_mix_raises():
    with pytest.raises(ConfigError):
        workload_mix("WL-99")


def test_scaled_mix_preserves_proportions():
    specs = scaled_mix("WL-4", 16)
    counts = {}
    for s in specs:
        counts[s.name] = counts.get(s.name, 0) + 1
    assert counts == {"povray": 8, "h264ref": 8}


def test_scaled_mix_downscale():
    specs = scaled_mix("WL-6", 4)
    counts = {}
    for s in specs:
        counts[s.name] = counts.get(s.name, 0) + 1
    assert counts == {"mcf": 2, "povray": 2}


def test_scaled_mix_rejects_zero():
    with pytest.raises(ConfigError):
        scaled_mix("WL-1", 0)
