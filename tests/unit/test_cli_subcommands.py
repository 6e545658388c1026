"""Unit tests for the python -m repro subcommand CLI."""

import json
import re
import socket
import threading
import time
import urllib.request

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


JOBS_COMMANDS = pytest.mark.parametrize("argv", [
    ["run", "WL-9", "per_bank", *FAST],
    ["sweep", "--workloads", "WL-9", "--scenarios", "per_bank", *FAST],
    ["serve", "--no-cache"],
    ["experiments", "figure11", "--no-cache"],
], ids=["run", "sweep", "serve", "experiments"])


def _jobs_command(argv):
    from repro.experiments.__main__ import main as experiments_main

    return (experiments_main, argv[1:]) if argv[0] == "experiments" else (main, argv)


@JOBS_COMMANDS
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(argv, jobs, capsys):
    command, args = _jobs_command(argv)
    with pytest.raises(SystemExit) as exc:
        command([*args, "--jobs", jobs])
    assert exc.value.code == 2
    assert "argument --jobs: must be at least 1" in capsys.readouterr().err


@JOBS_COMMANDS
@pytest.mark.parametrize("value", ["0", "-1", "four"])
def test_a_repro_jobs_that_jobs_would_reject_is_a_usage_error(
    argv, value, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_JOBS", value)
    command, args = _jobs_command(argv)
    with pytest.raises(SystemExit) as exc:
        command(args)
    assert exc.value.code == 2
    assert (
        f"REPRO_JOBS must be a whole number of at least 1, got {value!r}"
        in capsys.readouterr().err
    )


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
    from repro.service import SweepService, serve_in_thread

    service = SweepService(cache_dir=tmp_path / "svc-cache")
    server, thread = serve_in_thread(service)
    yield server
    server.stop()
    thread.join(timeout=10)


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


def test_serve_closes_its_metrics_socket_when_it_stops(monkeypatch, capsys):
    """``serve --metrics-port`` stops the HTTP endpoint with the service:
    once ``serve`` returns, its listening socket is closed and a new
    connection to that port is refused."""
    from repro.service import metrics
    from repro.service.client import ServiceClient

    # Hold on to the endpoint, so its socket outlives the serve call
    # unless serve closes it.
    started = []
    start = metrics.start_metrics_http

    def start_and_keep(*args, **kwargs):
        started.append(start(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(metrics, "start_metrics_http", start_and_keep)
    exit_codes = []
    thread = threading.Thread(target=lambda: exit_codes.append(main([
        "serve", "--port", "0", "--metrics-port", "0", "--no-cache", "--jobs", "1",
    ])))
    thread.start()
    out, deadline = "", time.monotonic() + 60
    while "listening" not in out and time.monotonic() < deadline:
        out += capsys.readouterr().out
        time.sleep(0.01)
    port, metrics_port = map(int, re.search(
        r"listening on [^ ]+:(\d+) .*metrics on :(\d+)", out
    ).groups())
    with urllib.request.urlopen(
        f"http://127.0.0.1:{metrics_port}/metrics", timeout=10
    ) as resp:
        assert resp.status == 200
    with ServiceClient(port=port) as client:
        client.shutdown()
    thread.join(timeout=60)
    assert exit_codes == [0]
    assert [server.socket.fileno() for server in started] == [-1]
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", metrics_port), timeout=10).close()


def test_submit_unreachable_server_exits_one(capsys):
    # Port 1 is never listening; the CLI reports instead of tracebacking.
    assert main(["submit", "--ping", "--port", "1"]) == 1
    assert "cannot reach" in capsys.readouterr().err


def test_front_ends_write_identical_artifacts(live_server, tmp_path, capsys):
    """``run``, ``sweep``, ``submit`` and ``api.sweep`` share one spec
    builder, one resolver and one writer per artifact: the same matrix
    gives byte-identical ``--json`` files and ``--out`` directories."""
    from repro import api

    matrix = ["--workloads", "WL-9", "--scenarios", "all_bank,per_bank"]
    spec_flags = FAST[:-1]  # submit takes no --no-cache
    assert main([
        "run", "WL-9", "all_bank,per_bank", *FAST, "--jobs", "1",
        "--json", str(tmp_path / "run.json"),
    ]) == 0
    assert main([
        "sweep", *matrix, *FAST, "--jobs", "1",
        "--json", str(tmp_path / "sweep.json"), "--out", str(tmp_path / "sweep"),
    ]) == 0
    assert main([
        "submit", *matrix, *spec_flags, "--port", str(live_server.port),
        "--json", str(tmp_path / "submit.json"), "--out", str(tmp_path / "submit"),
    ]) == 0
    api.sweep(
        ["WL-9"], ["all_bank", "per_bank"], jobs=1, use_cache=False,
        out=tmp_path / "api", num_windows=0.25, warmup_windows=0.05,
        refresh_scale=1024,
    )
    capsys.readouterr()

    written = (tmp_path / "run.json").read_bytes()
    assert len(json.loads(written)) == 2
    assert (tmp_path / "sweep.json").read_bytes() == written
    assert (tmp_path / "submit.json").read_bytes() == written

    def entries(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    swept = entries(tmp_path / "sweep")
    assert len(swept) == 2
    assert entries(tmp_path / "submit") == swept
    assert entries(tmp_path / "api") == swept
