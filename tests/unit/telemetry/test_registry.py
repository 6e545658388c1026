"""MetricsRegistry: dotted names, flattening, glob queries, export."""

import json

import pytest

from repro.dram.refresh.base import RefreshStats
from repro.errors import ConfigError
from repro.telemetry import MetricsRegistry


def build_registry():
    registry = MetricsRegistry()
    stats = RefreshStats()
    stats.record(3)
    stats.record(5)
    registry.register("dram.refresh", stats)
    registry.register("os.task.0", {"quanta": 7, "instructions": 1000})
    registry.register("os.task.1", {"quanta": 9, "instructions": 900})
    registry.register("sim.elapsed", lambda: 12345)
    return registry


def test_snapshot_flattens_to_dotted_names():
    snap = build_registry().snapshot()
    assert snap["os.task.0.quanta"] == 7
    assert snap["dram.refresh.commands_issued"] == 2
    assert snap["dram.refresh.per_bank_commands.3"] == 1
    assert snap["sim.elapsed"] == 12345
    assert list(snap) == sorted(snap)


def test_snapshot_is_live():
    registry = MetricsRegistry()
    stats = RefreshStats()
    registry.register("r", stats)
    assert registry.value("r.commands_issued") == 0
    stats.record(0)
    assert registry.value("r.commands_issued") == 1


def test_glob_query():
    registry = build_registry()
    quanta = registry.query("os.task.*.quanta")
    assert quanta == {"os.task.0.quanta": 7, "os.task.1.quanta": 9}
    assert registry.query("nothing.*") == {}


def test_value_unknown_name_raises():
    with pytest.raises(ConfigError, match="unknown metric"):
        build_registry().value("os.task.2.quanta")


def test_duplicate_and_invalid_prefixes_rejected():
    registry = MetricsRegistry()
    registry.register("a.b", 1)
    with pytest.raises(ConfigError, match="already registered"):
        registry.register("a.b", 2)
    with pytest.raises(ConfigError, match="invalid metric prefix"):
        registry.register(".a", 1)
    with pytest.raises(ConfigError, match="invalid metric prefix"):
        registry.register("", 1)


def test_json_export_round_trips(tmp_path):
    registry = build_registry()
    path = tmp_path / "metrics.json"
    registry.write(path)
    assert json.loads(path.read_text()) == registry.snapshot()
    assert registry.to_json() == registry.to_json()  # deterministic
