"""Unit tests for the python -m repro subcommand CLI."""

import json

import pytest

from repro.__main__ import main

FAST = [
    "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
    "--no-cache",
]


def test_flag_only_invocation_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["WL-9", "per_bank", *FAST])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_resume_flag_continues_a_checkpoint(tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    assert main([
        "run", "WL-9", "per_bank", *FAST,
        "--checkpoint-every", "0.1", "--checkpoint-halt", "1",
        "--checkpoint-dir", str(ckpt_dir),
    ]) == 0
    capsys.readouterr()
    (ckpt,) = ckpt_dir.glob("ckpt-*.json")
    assert main(["run", "--resume", str(ckpt), *FAST]) == 0
    assert "resuming" in capsys.readouterr().out


def test_run_subcommand_does_not_warn(capsys, recwarn):
    assert main(["run", "WL-9", "per_bank", *FAST]) == 0
    assert not [
        w for w in recwarn if issubclass(w.category, DeprecationWarning)
    ]


def test_no_arguments_errors():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_scenario_errors_via_subcommand():
    with pytest.raises(SystemExit):
        main(["run", "WL-9", "quantum_refresh", *FAST])


# -- sweep ---------------------------------------------------------------------


def test_sweep_writes_hash_keyed_entries(tmp_path, capsys):
    out = tmp_path / "out"
    assert main([
        "sweep", "--workloads", "WL-9", "--scenarios", "all_bank,per_bank",
        *FAST, "--out", str(out), "--jobs", "1",
    ]) == 0
    assert capsys.readouterr().out.count("hmean IPC") == 2
    entries = sorted(out.glob("*.json"))
    assert len(entries) == 2
    from repro.core.runspec import RunSpec
    from repro.experiments.cache import read_result_entry

    for path in entries:
        spec_payload, result_payload = read_result_entry(path)
        # Filename is the spec's content hash.
        assert path.stem == RunSpec.from_dict(spec_payload).content_hash()
        assert result_payload["workload"] == "WL-9"


def test_sweep_out_dirs_diff_identical(tmp_path, capsys):
    from repro.obs import __main__ as obs_main

    args = [
        "sweep", "--workloads", "WL-9", "--scenarios", "per_bank",
        *FAST, "--jobs", "1",
    ]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert obs_main.main(
        ["diff", str(tmp_path / "a"), str(tmp_path / "b")]
    ) == 0


def test_sweep_requires_both_axes():
    with pytest.raises(SystemExit):
        main(["sweep", "--workloads", "WL-9", *FAST])


def test_sweep_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        main(["sweep", "--workloads", "WL-99", "--scenarios", "per_bank",
              *FAST])


# -- serve / submit ------------------------------------------------------------


@pytest.fixture
def live_server(tmp_path):
    from repro.service import SweepService, ThreadBackend, serve_in_thread

    service = SweepService(
        backend=ThreadBackend(jobs=2), cache_dir=tmp_path / "svc-cache"
    )
    server, thread = serve_in_thread(service)
    yield server
    server.stop()
    thread.join(timeout=10)
    service.backend.close()


def test_submit_matrix_and_out_entries(live_server, tmp_path, capsys):
    out = tmp_path / "svc-out"
    assert main([
        "submit", "--workloads", "WL-9", "--scenarios", "all_bank,per_bank",
        "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
        "--port", str(live_server.port), "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert printed.count("hmean IPC") == 2
    assert "[executed]" in printed
    assert len(list(out.glob("*.json"))) == 2


def test_submit_positional_spec_and_json(live_server, tmp_path, capsys):
    path = tmp_path / "result.json"
    assert main([
        "submit", "WL-9", "per_bank",
        "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
        "--port", str(live_server.port), "--json", str(path),
    ]) == 0
    data = json.loads(path.read_text())
    assert data["workload"] == "WL-9"
    assert data["hmean_ipc"] > 0


def test_submit_stream_writes_canonical_jsonl(live_server, tmp_path, capsys):
    stream = tmp_path / "events.jsonl"
    assert main([
        "submit", "WL-9", "per_bank",
        "--windows", "0.25", "--warmup", "0.05", "--refresh-scale", "1024",
        "--port", str(live_server.port), "--stream", str(stream),
    ]) == 0
    lines = stream.read_text().splitlines()
    assert lines
    for line in lines[:5]:
        payload = json.loads(line)
        assert "kind" in payload
        # Canonical encoding (sorted keys, tight separators).
        assert line == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )


def test_submit_ping_and_status(live_server, capsys):
    assert main(["submit", "--ping", "--port", str(live_server.port)]) == 0
    hello = json.loads(capsys.readouterr().out)
    assert hello["type"] == "pong"
    assert main(["submit", "--status", "--port", str(live_server.port)]) == 0
    counters = json.loads(capsys.readouterr().out)
    assert "runs_executed" in counters


def test_submit_requires_a_target(live_server):
    with pytest.raises(SystemExit):
        main(["submit", "--port", str(live_server.port)])


def test_submit_unreachable_server_exits_one(capsys):
    # Port 1 is never listening; the CLI reports instead of tracebacking.
    assert main(["submit", "--ping", "--port", "1"]) == 1
    assert "cannot reach" in capsys.readouterr().err
