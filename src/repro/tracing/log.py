"""Structured JSONL logging with trace context.

One line per record, canonical key order, so logs diff cleanly and
grep/jq pipelines stay trivial.  The ``ts`` field is wall-clock
microseconds and therefore artifact-only — anything that compares log
files byte-for-byte must drop it (same rule as span wall fields).

The serving layer creates one :class:`StructuredLog` per server and
passes it down; modules never construct their own, which keeps the
"who logs where" decision at the composition root.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Optional, TextIO

from repro.tracing.spans import monotonic_us

#: Record severities, in increasing order.
LEVELS = ("info", "warn", "error")


class StructuredLog:
    """Thread-safe JSONL logger carrying optional trace/job context.

    ``stream`` takes precedence over ``path``; with neither, records
    are only returned to the caller.  ``clock`` is injectable for
    deterministic tests and must return microseconds.
    """

    def __init__(self, path: Optional[str] = None,
                 stream: Optional[TextIO] = None,
                 clock: Callable[[], int] = monotonic_us):
        self._lock = threading.Lock()
        self._clock = clock
        self._stream = stream
        self._owns_stream = False
        if stream is None and path is not None:
            self._stream = open(path, "a", encoding="utf-8")
            self._owns_stream = True

    def _write(self, level: str, msg: str, trace: Optional[str],
               job: Optional[str], fields: dict) -> dict:
        record = {"ts": self._clock(), "level": level, "msg": msg}
        if trace is not None:
            record["trace"] = trace
        if job is not None:
            record["job"] = job
        for key in sorted(fields):
            record[key] = fields[key]
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._stream is not None:
                self._stream.write(line + "\n")
                self._stream.flush()
        return record

    def info(self, msg: str, trace: Optional[str] = None,
             job: Optional[str] = None, **fields) -> dict:
        return self._write("info", msg, trace, job, fields)

    def warn(self, msg: str, trace: Optional[str] = None,
             job: Optional[str] = None, **fields) -> dict:
        return self._write("warn", msg, trace, job, fields)

    def error(self, msg: str, trace: Optional[str] = None,
              job: Optional[str] = None, **fields) -> dict:
        return self._write("error", msg, trace, job, fields)

    def close(self) -> None:
        with self._lock:
            if self._owns_stream and self._stream is not None:
                self._stream.close()
                self._stream = None

    def __enter__(self) -> "StructuredLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
