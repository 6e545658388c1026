"""The sweep service's wire path: what a client receives, byte for byte.

* **Golden bytes** — the sha256 of every byte a ``ServiceClient``
  receives in a scripted session is pinned.  The digest was recorded
  when every frame was still encoded from dicts, so it proves that
  splicing stored canonical text and coalescing writes left the byte
  stream unchanged.
* **Payload reuse** — a received spec whose canonical text matches a
  memo entry is answered from it; anything else is parsed as new.
* **Robustness** — mangled request lines get ``error`` frames and leave
  the connection usable.
* **Coalescing** — frames leave in one write per event-loop pass, and a
  sweep past the transport's high-water mark still arrives whole.
"""

import asyncio
import hashlib
import json
import random
import socket
from concurrent.futures import Future

import pytest

from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.core.simulator import make_run_spec, run_spec, sweep_specs
from repro.errors import ServiceError
from repro.service import InlineBackend, ServiceClient, SweepService, serve_in_thread
from repro.telemetry.wire import decode_frame, encode_frame

FAST = dict(num_windows=0.25, warmup_windows=0.05, refresh_scale=1024)

#: sha256 of the 23 frames (43,403 bytes) the golden session receives.
GOLDEN_SESSION_SHA256 = (
    "630e8930db0f09e40249b2492761c7b0ad4d7a703997795362a128f2e36b4da6"
)


def _canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class _Recorder:
    """Stands in for a client's socket file and hashes every line read."""

    def __init__(self, file, digest):
        self.file = file
        self.digest = digest
        self.frames = 0

    def readline(self):
        line = self.file.readline()
        self.digest.update(line)
        self.frames += 1
        return line

    def close(self):
        self.file.close()


def test_client_receives_the_golden_byte_stream(tmp_path):
    """A cold 2-run sweep, three memo submits, an explicit ``specs``
    sweep and, on a restarted server, a sweep served from disk."""
    workloads, scenarios = ["WL-9"], ["all_bank", "per_bank"]
    specs = sweep_specs(workloads, scenarios, **FAST)
    digest = hashlib.sha256()
    frames = 0
    sources = []
    for phase in ("first", "restart"):
        service = SweepService(backend=InlineBackend(), cache_dir=tmp_path)
        server, thread = serve_in_thread(service)
        with ServiceClient(port=server.port, timeout=60) as client:
            client._file = recorder = _Recorder(client._file, digest)
            outcome = client.sweep(
                workloads=workloads, scenarios=scenarios, options=FAST
            )
            sources += [outcome.sources[job] for job in outcome.jobs]
            if phase == "first":
                for spec in (specs[0], specs[1], specs[0]):
                    sources.append(client.submit(spec)[1])
                outcome = client.sweep(specs=specs)
                sources += [outcome.sources[job] for job in outcome.jobs]
            client.shutdown()
            frames += recorder.frames
        thread.join(timeout=10)
    assert sources == ["executed"] * 2 + ["memo"] * 5 + ["cache"] * 2
    assert frames == 23
    assert digest.hexdigest() == GOLDEN_SESSION_SHA256


# -- reusing the memoized spec for a received payload ----------------------------


@pytest.fixture
def served(tmp_path):
    service = SweepService(backend=InlineBackend(), cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    with ServiceClient(port=server.port, timeout=60) as client:
        yield client, service
    server.stop()
    thread.join(timeout=10)


def _submit_payload(client, payload):
    """Submit a raw ``spec`` payload; returns ``(job, source, spec echo,
    result)``."""
    outcome = client._submit_frames({"op": "submit", "spec": payload})
    assert outcome.ok, outcome.errors
    (job,) = outcome.jobs
    return job, outcome.sources[job], outcome.specs[job], outcome.results[job]


def _reordered(value):
    """*value* with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return [_reordered(v) for v in value]
    return value


def test_payload_with_reordered_keys_is_answered_from_the_memo(
    served, monkeypatch
):
    client, service = served
    spec = make_run_spec("WL-9", "per_bank", **FAST)
    _result, source = client.submit(spec)
    assert source == "executed"
    parses = []
    original = RunSpec.from_dict.__func__

    def counting(cls, data):
        parses.append(data)
        return original(cls, data)

    monkeypatch.setattr(RunSpec, "from_dict", classmethod(counting))
    payload = _reordered(spec.to_dict())
    assert list(payload) != list(spec.to_dict())
    job, source, echo, result = _submit_payload(client, payload)
    assert (job, source) == (spec.content_hash(), "memo")
    assert parses == []
    assert echo == spec.to_dict()
    assert _canon(result) == _canon(run_spec(spec))


def test_payload_differing_in_seed_is_parsed_and_run(served):
    client, service = served
    spec = make_run_spec("WL-9", "per_bank", **FAST)
    client.submit(spec)
    payload = spec.to_dict()
    payload["config"] = {**payload["config"], "seed": payload["config"]["seed"] + 1}
    other = RunSpec.from_dict(payload)
    job, source, echo, result = _submit_payload(client, payload)
    assert (job, source) == (other.content_hash(), "executed")
    assert job != spec.content_hash()
    assert echo["config"]["seed"] == spec.config.seed + 1
    assert _canon(result) == _canon(run_spec(other))
    assert service.runs_executed == 2


def test_payload_differing_only_in_type_is_parsed_as_its_own_spec(served):
    """``num_windows`` sent as ``2`` is not the memoized ``2.0`` spec:
    its canonical text differs, so it is parsed, and answered exactly as
    a direct run of the parsed spec."""
    client, service = served
    spec = make_run_spec(
        "WL-9", "per_bank", num_windows=2.0, warmup_windows=0.05,
        refresh_scale=1024,
    )
    client.submit(spec)
    payload = {**spec.to_dict(), "num_windows": 2}
    parsed = RunSpec.from_dict(payload)
    job, source, echo, result = _submit_payload(client, payload)
    assert source == "executed"
    assert job == parsed.content_hash() != spec.content_hash()
    assert type(echo["num_windows"]) is int
    assert _canon(result) == _canon(run_spec(parsed))


def test_spec_that_is_not_an_object_gets_an_error_frame(served):
    client, service = served
    spec = make_run_spec("WL-9", "per_bank", **FAST)
    client.submit(spec)
    for payload in ([spec.to_dict()], "spec", 7, None):
        with pytest.raises(ServiceError, match="expected a dict"):
            client._submit_frames({"op": "submit", "spec": payload})
    assert client.ping()["type"] == "pong"


# -- mangled request lines -------------------------------------------------------


class _OnlyBackend(InlineBackend):
    """Simulates one spec; any other gets a job error, so a mutation
    that happens to form a new valid spec costs no simulation."""

    def __init__(self, spec):
        super().__init__()
        self.spec = spec

    def submit(self, spec, trace=None, parent=None):
        if spec == self.spec:
            return super().submit(spec, trace=trace, parent=parent)
        future = Future()
        future.set_exception(ServiceError("not simulated in this test"))
        return future


def _mutations(line: bytes, count: int, rng: random.Random):
    """Random truncations and byte flips of *line* (its newline kept)."""
    body = line[:-1]
    for _ in range(count):
        if rng.random() < 0.5:
            yield body[: rng.randrange(len(body) + 1)] + b"\n"
        else:
            at = rng.randrange(len(body))
            flipped = rng.choice([b for b in range(256) if b != body[at]])
            yield body[:at] + bytes([flipped]) + body[at + 1:] + b"\n"


def test_fuzzed_submit_frames_get_error_frames_or_correct_answers(tmp_path):
    spec = make_run_spec(
        "WL-9", "per_bank", num_windows=0.02, warmup_windows=0.01,
        refresh_scale=1024,
    )
    expected = _canon(run_spec(spec))
    service = SweepService(backend=_OnlyBackend(spec), cache_dir=tmp_path)
    server, thread = serve_in_thread(service)
    line = encode_frame({"id": 1, "op": "submit", "spec": spec.canonical_json()})
    rng = random.Random(20261017)
    answers = []
    try:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock, sock.makefile("rb") as reader:
            sock.sendall(line)  # memoize the original spec first
            while decode_frame(reader.readline())["type"] != "done":
                pass
            # Each mutated line is followed by a ping; a job answered
            # after a suspension may trail into the next round, so the
            # last round's ping is sent alone.
            lines = list(_mutations(line, 200, rng)) + [b""]
            for n, mutated in enumerate(lines):
                ping = 1_000 + n
                sock.sendall(mutated + encode_frame({"id": ping, "op": "ping"}))
                while True:
                    frame = decode_frame(reader.readline())
                    if frame["type"] == "pong" and frame["id"] == ping:
                        break
                    answers.append(frame)
    finally:
        server.stop()
        thread.join(timeout=10)
    kinds = [frame["type"] for frame in answers]
    assert set(kinds) <= {"error", "ack", "result", "done"}
    # Every line is answered: by a request-level error frame, or by a
    # submission's closing ``done``.
    closing = [
        frame for frame in answers
        if frame["type"] == "done"
        or (frame["type"] == "error" and "job" not in frame)
    ]
    assert len(closing) >= 200
    for frame in answers:
        if frame["type"] == "result":
            echo = RunSpec.from_dict(frame["spec"])
            assert echo == spec
            assert frame["job"] == echo.content_hash()
            assert _canon(RunResult.from_dict(frame["result"])) == expected


# -- one socket write per loop pass ----------------------------------------------


def test_memo_submit_is_answered_in_one_socket_write(served, monkeypatch):
    client, _service = served
    spec = make_run_spec("WL-9", "per_bank", **FAST)
    client.submit(spec)
    writes = []
    original = asyncio.StreamWriter.write

    def counting(writer, data):
        writes.append(data)
        return original(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
    for _ in range(3):
        assert client.submit(spec)[1] == "memo"
    assert len(writes) == 3
    types = [
        [json.loads(frame)["type"] for frame in data.splitlines()]
        for data in writes
    ]
    assert types == [["ack", "result", "done"]] * 3


def test_sweep_past_the_high_water_mark_arrives_whole_and_in_order(
    served, monkeypatch
):
    """30 memo answers (~140 KiB) overflow the transport's 64 KiB
    high-water mark mid-pass; every frame still arrives, in order."""
    client, _service = served
    specs = sweep_specs(
        [f"WL-{n}" for n in range(1, 11)],
        ["all_bank", "per_bank", "codesign"],
        num_windows=0.02, warmup_windows=0.01, refresh_scale=1024,
    )
    first = client.sweep(specs=specs)
    assert first.ok
    writes = []
    original = asyncio.StreamWriter.write

    def counting(writer, data):
        writes.append(len(data))
        return original(writer, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
    received = []
    again = client.sweep(
        specs=specs, on_result=lambda job, result, source: received.append(job)
    )
    assert max(writes) > 64 * 1024  # written early, mid-pass
    jobs = [spec.content_hash() for spec in specs]
    assert again.jobs == jobs
    assert received == jobs
    assert [again.sources[job] for job in jobs] == ["memo"] * len(jobs)
    for job in jobs:
        assert _canon(again.results[job]) == _canon(first.results[job])
