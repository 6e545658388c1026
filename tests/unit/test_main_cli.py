"""Unit tests for the python -m repro run CLI."""

import json

import pytest

from repro.__main__ import main, result_to_dict

FAST = [
    "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
    "--no-cache",
]


def test_basic_run_prints_summary(capsys):
    assert main(["run", "WL-9", "per_bank", *FAST]) == 0
    out = capsys.readouterr().out
    assert "hmean IPC" in out
    assert "WL-9" in out
    assert "energy" in out


def test_json_export(tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main(["run", "WL-9", "all_bank", "--json", str(path), *FAST]) == 0
    data = json.loads(path.read_text())
    assert data["workload"] == "WL-9"
    assert data["scenario"] == "all_bank"
    assert len(data["tasks"]) == 8
    assert data["hmean_ipc"] > 0
    assert data["energy"]["total_mj"] > 0


def test_density_and_retention_flags(capsys):
    assert main(
        ["run", "WL-9", "all_bank", "--density", "16", "--trefw-ms", "32", *FAST]
    ) == 0
    out = capsys.readouterr().out
    assert "16Gb" in out
    assert "32.0ms" in out


def test_unknown_workload_errors():
    with pytest.raises(SystemExit):
        main(["run", "WL-99", "all_bank", *FAST])


def test_unknown_scenario_errors():
    with pytest.raises(SystemExit):
        main(["run", "WL-1", "quantum_refresh", *FAST])


def test_multi_scenario_fanout(tmp_path, capsys):
    path = tmp_path / "results.json"
    args = [
        "run", "WL-9", "all_bank,codesign",
        "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
        "--cache-dir", str(tmp_path / "cache"), "--jobs", "1",
        "--json", str(path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("hmean IPC") == 2
    data = json.loads(path.read_text())
    assert [d["scenario"] for d in data] == ["all_bank", "codesign"]


def test_cli_uses_disk_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = [
        "run", "WL-9", "per_bank",
        "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
        "--cache-dir", str(cache),
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert list(cache.rglob("*.json")), "cache entry written"
    assert main(args) == 0  # second run: served from disk
    assert capsys.readouterr().out == first


def test_result_to_dict_roundtrips_through_json():
    from repro import api

    result = api.run(
        "WL-9", "codesign", num_windows=0.25, warmup_windows=0.05,
        refresh_scale=1024,
    )
    data = json.loads(json.dumps(result_to_dict(result)))
    assert data["scheduler_clean_picks"] == result.scheduler_clean_picks
    assert data["refresh_stall_fraction"] == result.refresh_stall_fraction


def test_monitors_flag_clean_run_exits_zero(tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main(
        ["run", "WL-9", "codesign", "--monitors", "--json", str(path), *FAST]
    ) == 0
    out = capsys.readouterr().out
    assert "monitors" in out
    assert "VIOLATION" not in out
    # Monitored --json payloads carry the (empty) violation list.
    data = json.loads(path.read_text())
    assert data["monitor_violations"] == []


def test_monitors_flag_collect_exits_one_on_violations(capsys, monkeypatch):
    from repro.os.refresh_aware import RefreshAwareScheduler
    from repro.os.scheduler import CfsScheduler

    monkeypatch.setattr(
        RefreshAwareScheduler, "pick_next_task", CfsScheduler.pick_next_task
    )
    assert main(["run", "WL-9", "codesign", "--monitors", *FAST]) == 1
    assert "VIOLATION" in capsys.readouterr().out


def test_monitors_strict_exits_two_on_violations(capsys, monkeypatch):
    from repro.os.refresh_aware import RefreshAwareScheduler
    from repro.os.scheduler import CfsScheduler

    monkeypatch.setattr(
        RefreshAwareScheduler, "pick_next_task", CfsScheduler.pick_next_task
    )
    assert main(["run", "WL-9", "codesign", "--monitors=strict", *FAST]) == 2
    assert "monitor violation" in capsys.readouterr().err


def test_profile_flag_writes_report(tmp_path, capsys):
    path = tmp_path / "profile.json"
    assert main(["run", "WL-9", "per_bank", "--profile", str(path), *FAST]) == 0
    report = json.loads(path.read_text())
    assert report["events_total"] > 0
    assert report["subsystems"]
    owners = {row["owner"] for row in report["callbacks"]}
    assert any("MemoryController" in owner for owner in owners)
    assert "dispatch profile" in capsys.readouterr().out


def test_unmonitored_json_has_no_violation_key(tmp_path):
    path = tmp_path / "result.json"
    assert main(["run", "WL-9", "per_bank", "--json", str(path), *FAST]) == 0
    assert "monitor_violations" not in json.loads(path.read_text())
