"""The uniform *Stats snapshot protocol (StatsBase mixin)."""

import dataclasses

import pytest

from repro.dram.bank import BankStats
from repro.dram.controller import ControllerStats
from repro.dram.refresh.base import RefreshStats
from repro.errors import ConfigError
from repro.os.task import TaskStats
from repro.os.vm import VmStats
from repro.telemetry.stats import StatsBase

ALL_STATS = [
    BankStats,
    ControllerStats,
    RefreshStats,
    TaskStats,
    VmStats,
]


@pytest.mark.parametrize("cls", ALL_STATS)
def test_every_stats_class_opts_into_protocol(cls):
    assert issubclass(cls, StatsBase)
    instance = cls()
    assert hasattr(instance, "snapshot")
    assert hasattr(instance, "to_dict")
    assert hasattr(cls, "from_dict")


@pytest.mark.parametrize("cls", ALL_STATS)
def test_snapshot_keys_follow_declaration_order(cls):
    declared = [f.name for f in dataclasses.fields(cls)]
    assert list(cls().snapshot()) == declared
    assert list(cls().to_dict()) == declared


@pytest.mark.parametrize("cls", ALL_STATS)
def test_default_round_trip(cls):
    instance = cls()
    assert cls.from_dict(instance.to_dict()) == instance


def test_int_dict_keys_survive_json_round_trip():
    stats = RefreshStats()
    stats.record(3)
    stats.record(3)
    stats.record(7)
    import json

    reloaded = RefreshStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert reloaded.per_bank_commands == {3: 2, 7: 1}
    assert reloaded == stats


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown field"):
        TaskStats.from_dict({"instructions": 1, "bogus_counter": 2})


def test_from_dict_rejects_non_dict():
    with pytest.raises(ConfigError, match="expected a dict"):
        BankStats.from_dict([1, 2, 3])


def test_snapshot_reflects_live_values():
    stats = TaskStats()
    stats.instructions = 41
    snap = stats.snapshot()
    assert snap["instructions"] == 41
    stats.instructions += 1
    assert stats.snapshot()["instructions"] == 42
