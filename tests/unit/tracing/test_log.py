"""Unit tests for the structured JSONL log."""

import io
import json

from repro.tracing import StructuredLog


def _clock():
    state = {"now": 1000}

    def tick():
        state["now"] += 1
        return state["now"]

    return tick


def test_records_carry_level_context_and_sorted_fields():
    log = StructuredLog(clock=_clock())
    record = log.info("served", trace="abc", job="j1", tier="memo", seq=2)
    assert record["level"] == "info"
    assert record["msg"] == "served"
    assert (record["trace"], record["job"]) == ("abc", "j1")
    # Extra fields land in sorted key order after the fixed prefix.
    assert list(record)[-2:] == ["seq", "tier"]
    assert log.warn("w")["level"] == "warn"
    assert log.error("e")["level"] == "error"


def test_stream_gets_one_canonical_json_line_per_record():
    stream = io.StringIO()
    log = StructuredLog(stream=stream, clock=_clock())
    log.info("listening", port=7341)
    log.error("boom", trace="t1")
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        # Canonical form: re-dumping with sorted keys reproduces the line.
        assert json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ) == line
    assert json.loads(lines[0])["port"] == 7341


def test_path_logging_appends_jsonl(tmp_path):
    path = tmp_path / "service.jsonl"
    with StructuredLog(path=str(path), clock=_clock()) as log:
        log.info("one")
        log.info("two")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["msg"] for r in records] == ["one", "two"]
    assert records[0]["ts"] < records[1]["ts"]
