"""The sweep service: async job API in front of ``run_spec()``.

Two layers, separable for testing:

* :class:`SweepService` — the job engine.  ``await resolve(spec, ...)``
  answers one spec through four tiers: in-memory memo, **future-per-hash
  in-flight dedup** (concurrent identical submissions collapse onto one
  running job), the persistent content-addressed disk cache shared with
  :class:`~repro.experiments.runner.SweepRunner`, and finally execution
  on the service's own worker thread or, with ``jobs > 1``, its process
  pool.  Warm-started specs reuse the service-wide
  :class:`~repro.core.checkpoint.CheckpointStore`.
* :class:`ServiceServer` — the asyncio socket front-end speaking the
  line-oriented frame protocol of :mod:`repro.telemetry.wire`.

Dedup semantics (the concurrent-dedup guarantee)
------------------------------------------------
Submissions are keyed by the spec's content hash (plus the monitor mode
for monitored jobs).  For a given key, at most one simulation is ever
in flight; every other submission observes one of:

``memo``
    already computed this server lifetime (also covers results adopted
    from streamed live runs);
``dedup``
    currently running — the submission awaits the same future;
``cache``
    present in the on-disk result cache (possibly from another process);
``executed`` / ``live``
    this submission started the simulation (a plain run / an in-process
    run with telemetry or monitors attached).

Because ``run_spec`` is a pure function of the spec, every tier returns
the *same* canonical result payload — a served result is byte-identical
to a direct local ``run_spec()`` of the same spec.

Every simulation starts in one place, :meth:`SweepService._execute`,
and where it runs follows from one value, ``jobs``.  A job that runs in
this process runs on the service's one worker thread, one job at a
time, so the event loop keeps answering while it simulates.  With
``jobs == 1`` every job runs there; with ``jobs > 1`` plain jobs run on
a pool of ``jobs`` worker processes instead.  Telemetry streaming and
monitors need a **live** event stream, which a worker process or a
cache entry cannot provide, so a streamed or monitored job always runs
:func:`~repro.core.simulator.run_spec` on the worker thread:

* ``stream=True`` forces a fresh run (events flow to the client through
  a :class:`~repro.telemetry.wire.WireSink`); its result still lands in
  the memo and the disk cache, and concurrent plain submissions of the
  same spec dedup against it.
* monitored jobs run with a :class:`~repro.obs.monitors.MonitorSuite`;
  their results are memoized under a monitor-qualified key and never
  written to the disk cache (the cache stores unmonitored payloads
  only), though a warm-started one shares the service's checkpoint
  store.  Monitored resolutions count under their own ``monitored_*``
  counters so the plain counters stay attributable to plain traffic.

Observability (PR 10)
---------------------
Every resolution is counted once, when its tier is decided, in an
always-on :class:`~repro.service.metrics.ServiceMetrics`: the one tier
ledger, failed resolutions included, that :meth:`SweepService.counters`
reads.  Every completed one also lands in its tier's simulated-cycles
and wall-latency histograms.  When the client opted into tracing (a
``trace`` id on the request frame), the service opens one span per
resolution step — ``resolve`` root, then
``memo``/``dedup``/``cache``/``execute``/``live`` children, with
``run_spec``/``restore`` grandchildren on the worker thread — and stamps
the served result copy with the trace id (the memo and the disk cache
always store the *unstamped* payload, so caching stays byte-identical
with tracing on or off).  A dedup-joined traced submission is stamped
with the trace id of the submission that *started* the execution
(``_trace_ids``), which is the causal truth the spans tell; a memo
answer carries the trace id of the traced execution that produced its
result, and otherwise its own.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from repro import serialize
from repro.core.checkpoint import CheckpointStore
from repro.core.results import RunResult
from repro.core.runspec import RunSpec
from repro.core.simulator import run_spec as execute_run_spec, sweep_specs
from repro.errors import MonitorError, ReproError, ServiceError
from repro.experiments.cache import ResultCache
from repro.serialize import CanonicalJSON, canonical_json
from repro.service.metrics import ServiceMetrics
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.wire import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    WIRE_SCHEMA,
    WireSink,
    decode_frame,
    encode_frame,
    span_frame,
    spec_data,
    spec_text,
)
from repro.tracing import JobTrace, StructuredLog, monotonic_us

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.events import SpanEvent
    from repro.telemetry.hub import Telemetry

#: Closed spans kept in memory for ``metrics``/``obs top`` (newest last).
RECENT_SPANS = 64

#: :meth:`SweepService.resolve`'s default ``cached``: its disk tier
#: reads the entry itself.
_LOOKUP = object()


class _MemoEntry(NamedTuple):
    """One completed job: its spec, its result, and the result's
    canonical JSON, encoded once and spliced into every answer."""

    spec: RunSpec
    result: RunResult
    text: CanonicalJSON


class SweepService:
    """Job table + dedup + cache tiers over ``jobs`` workers.

    ``jobs`` is the one execution value: one worker thread for every job
    when it is 1, and a pool of ``jobs`` processes for plain jobs above
    (see the module docstring).  Each executor is made by the first job
    that needs it and shut down by :meth:`close`, so a service that
    answers only from its memo and the disk cache starts none.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        use_cache: bool = True,
        log: Optional[StructuredLog] = None,
        span_sink=None,
    ):
        if jobs < 1:
            raise ServiceError(f"SweepService: jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if use_cache else None
        #: Shared by every job: the worker thread uses it (and its last
        #: prefix in memory) directly, a worker process gets a pickled
        #: copy that carries only its path.
        self.checkpoint_store = (
            CheckpointStore(cache_dir) if use_cache else None
        )
        #: The worker thread and the process pool, made on first use.
        self._thread: Optional[ThreadPoolExecutor] = None
        self._pool = None
        self.log = log
        #: Optional :class:`~repro.telemetry.sinks.EventSink` receiving
        #: every closed span (``serve --span-jsonl`` / Chrome export).
        self.span_sink = span_sink
        #: The tier ledger (one count per resolution, when its tier is
        #: decided) and the per-tier histograms of completed results.
        self.metrics = ServiceMetrics()
        #: In-flight jobs: job key -> asyncio.Future[RunResult].
        self._jobs: dict[str, asyncio.Future] = {}
        #: Completed jobs this server lifetime: job key -> _MemoEntry.
        self._memo: dict[str, _MemoEntry] = {}
        #: Trace id of the traced execution that produced each memo
        #: entry's result, set or cleared by every execution that
        #: completes (lives as long as the memo entry it annotates).
        self._trace_ids: dict[str, str] = {}
        #: Newest closed spans, for the ``metrics`` op / ``obs top``.
        self.recent_spans = RingBufferSink(RECENT_SPANS)

    # -- introspection ---------------------------------------------------------

    @property
    def backend(self) -> str:
        """Where plain jobs run, as ``pong``, ``status`` and the metrics
        info label report it: ``thread`` for ``jobs == 1``, else
        ``process``."""
        return "thread" if self.jobs == 1 else "process"

    def counters(self) -> dict:
        """Deterministic counter snapshot (the ``status`` frame body).

        Read from the one tier ledger, :attr:`metrics`, which counts a
        resolution when its tier is decided, failed ones included, so
        these values and the ``metrics`` exposition's tiers agree exactly
        (``executed + live == runs_executed`` etc.).  ``runs_executed``
        counts plain simulations started; monitored jobs (keyed
        ``<hash>+monitors:<mode>``) count under ``monitored_*`` so
        per-tier attribution survives mixing plain and monitored traffic.
        """
        tiers = self.metrics.tier_counts()
        return {
            "runs_executed": tiers["executed"] + tiers["live"],
            "dedup_hits": tiers["dedup"],
            "memo_hits": tiers["memo"],
            "disk_hits": self.cache.hits if self.cache is not None else 0,
            "live_runs": tiers["live"],
            "monitored_runs": tiers["monitored_live"],
            "monitored_memo_hits": tiers["monitored_memo"],
            "monitored_dedup_hits": tiers["monitored_dedup"],
            "inflight": len(self._jobs),
            "backend": self.backend,
            "caching": self.cache is not None,
        }

    def record_span(self, event: SpanEvent) -> None:
        """Retain one closed span and forward it to the span sink."""
        self.recent_spans.emit(event)
        if self.span_sink is not None:
            self.span_sink.emit(event)

    @staticmethod
    def job_key(job: str, monitors: Optional[str] = None) -> str:
        """Dedup key of the spec with content hash *job*, qualified by
        the monitor mode.

        Monitored results carry ``monitor_violations`` in their payload,
        so they must never alias (or be served for) a plain submission.
        """
        return job if monitors is None else f"{job}+monitors:{monitors}"

    @staticmethod
    def _tier(source: str, monitors: Optional[str]) -> str:
        """The ledger tier of a resolution answered from *source*."""
        return source if monitors is None else f"monitored_{source}"

    def memo_spec(self, key: str) -> Optional[RunSpec]:
        """The spec of the memo entry under job *key*, if any: validated
        when it was first parsed or built, so received spec text that
        hashes to *key* can reuse it."""
        entry = self._memo.get(key)
        return entry.spec if entry is not None else None

    def result_json(self, key: str, result: RunResult) -> CanonicalJSON:
        """Canonical JSON of *result*, served under job *key*: the memo
        entry's stored text when *result* is that entry's result, else
        encoded now (a trace-stamped copy)."""
        entry = self._memo.get(key)
        if entry is not None and entry.result is result:
            return entry.text
        return canonical_json(result)

    def _remember(
        self, key: str, spec: RunSpec, result: RunResult, text: CanonicalJSON
    ) -> None:
        """Memoize a completed job with its result's canonical JSON:
        encoded once where the job ran, or a disk hit's bytes as stored."""
        self._memo[key] = _MemoEntry(spec, result, text)

    def lookup(self, job: str, spec: RunSpec, monitors: Optional[str] = None):
        """Look *spec* (content hash *job*) up as :meth:`resolve` would,
        in the tiers that answer at once, without waiting.

        Returns ``(now, cached)``: ``now`` is whether ``resolve`` answers
        from the memo or the disk cache, and ``cached`` is the argument
        of that name to hand it, the entry read here (``None`` for a
        miss) once the lookup reached the disk, so no entry is read
        twice.  A job in flight or one that must run waits, and so does
        one whose read raised: ``resolve`` meets the fault again and
        answers it as that job's error.
        """
        key = self.job_key(job, monitors)
        if key in self._memo:
            return True, _LOOKUP
        if key in self._jobs or self.cache is None or monitors is not None:
            return False, _LOOKUP
        try:
            cached = self.cache.get(spec)
        except Exception:
            return False, _LOOKUP
        return cached is not None, cached

    # -- resolution ------------------------------------------------------------

    async def resolve(
        self,
        spec: RunSpec,
        monitors: Optional[str] = None,
        event_cb: Optional[Callable[[dict], None]] = None,
        trace: Optional[JobTrace] = None,
        *,
        cached=_LOOKUP,
    ) -> tuple[RunResult, str]:
        """Answer one spec; returns ``(result, source)``.

        ``monitors`` is ``None``, ``"collect"`` or ``"strict"``;
        ``event_cb`` (when set) receives one telemetry frame dict per
        event of a fresh live run, called on the event loop thread.
        ``trace`` (when set) opens per-tier spans and stamps the served
        result copy with its trace id.  ``cached`` is the disk entry a
        :meth:`lookup` already read (``None`` for a miss); by default the
        disk tier reads it.
        """
        if monitors not in (None, "collect", "strict"):
            raise ServiceError(f"unknown monitor mode {monitors!r}")
        key = self.job_key(spec.content_hash(), monitors)
        t0 = monotonic_us()
        root = trace.span("resolve") if trace is not None else None
        try:
            result, source = await self._resolve_tiers(
                key, spec, monitors, event_cb, trace, root, cached
            )
        except BaseException as exc:
            if root is not None:
                root.set(detail=f"error:{type(exc).__name__}").close()
            if self.log is not None:
                self.log.error(
                    "resolve failed",
                    trace=trace.trace_id if trace is not None else None,
                    job=key,
                    error=str(exc),
                )
            raise
        tier = self._tier(source, monitors)
        self.metrics.observe(
            tier, result.simulated_cycles, max(0, monotonic_us() - t0)
        )
        if root is not None:
            root.set(cycles=result.simulated_cycles, detail=tier).close()
        if self.log is not None:
            self.log.info(
                "served",
                trace=trace.trace_id if trace is not None else None,
                job=key,
                tier=tier,
                cycles=result.simulated_cycles,
            )
        if trace is not None:
            # The stamped copy is what the client sees; the memo and
            # the disk cache keep the unstamped original.  A dedup join
            # inherits the trace id of the execution it attached to, a
            # memo answer that of the execution that produced its result.
            result = dataclasses.replace(
                result, trace_id=self._trace_ids.get(key, trace.trace_id)
            )
        return result, source

    async def _resolve_tiers(
        self,
        key: str,
        spec: RunSpec,
        monitors: Optional[str],
        event_cb: Optional[Callable[[dict], None]],
        trace: Optional[JobTrace],
        root,
        cached,
    ) -> tuple[RunResult, str]:
        if event_cb is not None:
            # Streaming needs the complete event stream of a fresh run;
            # an in-flight job or cached result cannot provide it.
            return await self._execute(
                key, spec, monitors, event_cb, trace, root
            )

        memo = self._memo.get(key)
        if memo is not None:
            self.metrics.count(self._tier("memo", monitors))
            if trace is not None:
                trace.span("memo", parent=root.span_id).set(
                    cycles=memo.result.simulated_cycles, detail=key
                ).close()
            return memo.result, "memo"
        inflight = self._jobs.get(key)
        if inflight is not None:
            self.metrics.count(self._tier("dedup", monitors))
            if trace is None:
                return await inflight, "dedup"
            span = trace.span("dedup", parent=root.span_id)
            try:
                result = await inflight
            except BaseException:
                span.set(detail="error").close()
                raise
            span.set(cycles=result.simulated_cycles, detail=key).close()
            return result, "dedup"
        if self.cache is not None and monitors is None:
            if cached is _LOOKUP:
                cached = self.cache.get(spec)
            if cached is not None:
                self.metrics.count("cache")
                self._remember(key, spec, cached.result, cached.text)
                if trace is not None:
                    trace.span("cache", parent=root.span_id).set(
                        cycles=cached.result.simulated_cycles, detail=key
                    ).close()
                return cached.result, "cache"
        # Miss everywhere: this submission starts the simulation.
        return await self._execute(key, spec, monitors, None, trace, root)

    async def _execute(
        self,
        key: str,
        spec: RunSpec,
        monitors: Optional[str],
        event_cb: Optional[Callable[[dict], None]],
        trace: Optional[JobTrace],
        root,
    ) -> tuple[RunResult, str]:
        """Start one simulation: a plain job (``executed``) on the worker
        thread, or on the process pool when ``jobs > 1``; a streamed or
        monitored one (``live``) needs its live event stream, so it runs
        on the worker thread whatever ``jobs`` is.  The result is encoded
        and, unless the job is monitored, written to the disk cache where
        the job ran, so no file call holds up the event loop."""
        loop = asyncio.get_running_loop()
        telemetry = suite = None
        if event_cb is not None:
            from repro.telemetry.hub import Telemetry  # loads with streaming

            telemetry = Telemetry()
            telemetry.subscribe(WireSink(
                functools.partial(loop.call_soon_threadsafe, event_cb),
                job=spec.content_hash(),
            ))
        if monitors is not None:
            from repro.obs.monitors import MonitorSuite

            suite = MonitorSuite(strict=monitors == "strict")
        live = event_cb is not None or monitors is not None
        source = "live" if live else "executed"
        self.metrics.count(self._tier(source, monitors))
        # Register so concurrent submissions of the same key dedup
        # against this run.  No await between the table checks and this
        # insertion, so submissions on the loop can never double-start;
        # only a streamed run, which skips the checks, can find a job in
        # flight under its key, and it then runs standalone.
        future: Optional[asyncio.Future] = None
        if key not in self._jobs:
            future = self._jobs[key] = loop.create_future()
        cache = self.cache if monitors is None else None
        span = None
        if trace is not None:
            name = "execute" if event_cb is None else "live"
            span = trace.span(name, parent=root.span_id)
        try:
            try:
                if live or self.jobs == 1:
                    if self._thread is None:
                        self._thread = ThreadPoolExecutor(
                            max_workers=1, thread_name_prefix="repro-svc"
                        )
                    executor = self._thread
                    # Only a plain job's run opens worker spans.
                    call = functools.partial(
                        self._run, spec, telemetry, suite,
                        None if live else trace,
                        span.span_id if span is not None else None,
                        cache,
                    )
                else:
                    if self._pool is None:
                        from concurrent.futures import ProcessPoolExecutor

                        self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                    executor = self._pool
                    # A JobTrace holds a live emit callable and does not
                    # pickle, so a worker process opens no spans.
                    call = functools.partial(
                        _run_in_process, spec, self.checkpoint_store, cache
                    )
                result, text = await loop.run_in_executor(executor, call)
            except BaseException:
                if span is not None:
                    span.set(detail="error").close()
                raise
            if span is not None:
                span.set(cycles=result.simulated_cycles, detail=key).close()
            self._remember(key, spec, result, text)
            # Stamped on memo answers and, once the future is set, on
            # dedup joins: the trace id of this run, which produced the
            # memo entry, or none.  A failed run changes neither.
            if trace is not None:
                self._trace_ids[key] = trace.trace_id
            else:
                self._trace_ids.pop(key, None)
            if future is not None:
                future.set_result(result)
            return result, source
        except BaseException as exc:
            if future is not None:
                future.set_exception(exc)
                # Dedup waiters re-raise from the future; retrieving
                # here silences the "exception never retrieved" warning
                # when the starting submission was the only one.
                future.exception()
            raise
        finally:
            if future is not None:
                self._jobs.pop(key, None)

    def _run(
        self,
        spec: RunSpec,
        telemetry: Optional[Telemetry],
        suite,
        trace: Optional[JobTrace],
        parent: Optional[int],
        cache: Optional[ResultCache],
    ) -> tuple[RunResult, CanonicalJSON]:
        """Run *spec* in this process, with the hub and monitor suite of
        a live job; called on the worker thread.  Returns the result and
        its canonical JSON, written to *cache* when one is given.

        With a :class:`~repro.tracing.JobTrace` it opens a ``run_spec``
        span under *parent* (the ``execute`` span) and a ``restore`` span
        around each warm-up prefix fetch.  The run itself is the untraced
        one, so results stay bit-identical with tracing on.
        """
        if trace is None:
            result = execute_run_spec(
                spec, telemetry, self.checkpoint_store, suite
            )
        else:
            with trace.span("run_spec", parent=parent) as root:
                result = execute_run_spec(
                    spec, telemetry, self.checkpoint_store, suite,
                    restore_span=functools.partial(
                        trace.span, "restore", parent=root.span_id
                    ),
                )
                root.set(cycles=result.simulated_cycles,
                         detail=spec.content_hash())
        return result, _store(spec, result, cache)

    def close(self) -> None:
        """Shut down the executors, after the jobs they hold finish, and
        close the span sink and the log.  Idempotent."""
        for executor in (self._thread, self._pool):
            if executor is not None:
                executor.shutdown(wait=True)
        self._thread = self._pool = None
        if self.span_sink is not None:
            self.span_sink.close()
        if self.log is not None:
            self.log.close()


class ServiceServer:
    """Asyncio socket front-end for one :class:`SweepService`.

    One JSON frame per line in both directions (see
    :mod:`repro.telemetry.wire` and ``docs/SERVICE.md``).  Request
    frames carry ``op`` + client-chosen ``id``; every response frame
    echoes the ``id``, so one connection can pipeline requests.  The
    frames bound for one connection go out through its
    :class:`_Outbox`, one socket write per event-loop pass.
    """

    def __init__(
        self,
        service: SweepService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket; ``self.port`` is the bound port."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.service.log is not None:
            self.service.log.info(
                "listening", host=self.host, port=self.port
            )

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`stop`) arrives."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()
        # The closed server's protocol factory holds this object's
        # connection handler; keeping it would make a cycle that holds
        # the service and its memo until the cyclic GC runs.
        self._server = None
        self.service.close()

    def stop(self) -> None:
        """Stop serving; safe to call from any thread."""
        if self._loop is None:
            self._shutdown.set()
        else:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        outbox = _Outbox(writer)
        send = outbox.send
        pending: set[asyncio.Task] = set()
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    await send({
                        "type": "error",
                        "id": None,
                        "error": f"frame exceeds {MAX_FRAME_BYTES} bytes",
                    })
                    continue
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                except ReproError as exc:
                    await send(
                        {"type": "error", "id": None, "error": str(exc)}
                    )
                    continue
                task = asyncio.create_task(self._dispatch(frame, outbox))
                pending.add(task)
                task.add_done_callback(pending.discard)
                if frame.get("op") == "shutdown":
                    break
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            try:
                outbox.flush()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Loop teardown on shutdown cancels the close handshake;
                # the socket is going away either way.
                pass

    async def _dispatch(self, frame: dict, outbox: "_Outbox") -> None:
        send = outbox.send
        rid = frame.get("id")
        op = frame.get("op")
        try:
            if op == "ping":
                await send(self._hello_frame(rid))
            elif op == "status":
                await send(
                    {
                        "type": "status",
                        "id": rid,
                        "counters": self.service.counters(),
                    }
                )
            elif op == "metrics":
                await send(self._metrics_frame(rid))
            elif op == "shutdown":
                await send({"type": "ack", "id": rid, "op": "shutdown"})
                self.stop()
            elif op in ("submit", "sweep"):
                await self._op_submit(frame, rid, outbox)
            else:
                await send(
                    {
                        "type": "error",
                        "id": rid,
                        "error": f"unknown op {op!r}",
                    }
                )
        except ConnectionError:  # pragma: no cover - client went away
            pass

    def _hello_frame(self, rid) -> dict:
        from repro import __version__
        from repro.core.results import RESULT_SCHEMA
        from repro.core.runspec import SPEC_SCHEMA

        return {
            "type": "pong",
            "id": rid,
            "wire": WIRE_SCHEMA,
            "spec_schema": SPEC_SCHEMA,
            "result_schema": RESULT_SCHEMA,
            "version": __version__,
            "backend": self.service.backend,
        }

    def _metrics_frame(self, rid) -> dict:
        """The ``metrics`` op body: structured snapshots + Prometheus
        text.  ``deterministic`` is gate-safe; ``wall`` and the span
        wall fields are artifacts."""
        service = self.service
        counters = service.counters()
        info = {
            "backend": service.backend,
            "caching": str(service.cache is not None).lower(),
        }
        return {
            "type": "metrics",
            "id": rid,
            "counters": counters,
            "deterministic": service.metrics.deterministic_snapshot(),
            "wall": service.metrics.wall_snapshot(),
            "recent_spans": [e.to_dict() for e in service.recent_spans.events()],
            "text": service.metrics.render_prometheus(
                counters=counters, info=info
            ),
        }

    # -- submit / sweep --------------------------------------------------------

    def _specs_from_frame(self, frame: dict) -> list[RunSpec]:
        """Job decomposition of a request frame.

        ``submit`` carries one ``spec`` payload; ``sweep`` carries
        either an explicit ``specs`` list or a ``workloads`` x
        ``scenarios`` matrix with shared ``options`` (forwarded to
        :func:`repro.core.simulator.sweep_specs`).
        """
        if "spec" in frame:
            return [self._received_spec(frame["spec"])]
        if "specs" in frame:
            payloads = frame["specs"]
            if not isinstance(payloads, list) or not payloads:
                raise ServiceError("'specs' must be a non-empty list")
            return [self._received_spec(p) for p in payloads]
        if "workloads" in frame or "scenarios" in frame:
            options = frame.get("options", {})
            if not isinstance(options, dict):
                raise ServiceError("'options' must be an object")
            return sweep_specs(
                frame.get("workloads", []),
                frame.get("scenarios", []),
                **options,
            )
        raise ServiceError(
            "request needs 'spec', 'specs', or 'workloads'/'scenarios'"
        )

    def _received_spec(self, payload) -> RunSpec:
        """The spec a received payload's text describes.

        The text is hashed exactly as received: when it hashes to a memo
        key it is that entry's spec's canonical text, so the entry's spec
        is reused with no parse and no encode.  Any other text (another
        key order included) is parsed and validated as a new spec, keyed
        by its own canonical hash.
        """
        text = spec_text(payload)
        spec = self.service.memo_spec(serialize.text_hash(text))
        return spec if spec is not None else RunSpec.from_dict(spec_data(text))

    async def _op_submit(self, frame: dict, rid, outbox: "_Outbox") -> None:
        send = outbox.send
        try:
            specs = self._specs_from_frame(frame)
        except Exception as exc:
            await send({"type": "error", "id": rid, "error": _error_text(exc)})
            return
        monitors = frame.get("monitors")
        stream = bool(frame.get("stream"))
        trace_id = frame.get("trace")
        if trace_id is not None and not isinstance(trace_id, str):
            await send(
                {"type": "error", "id": rid, "error": "'trace' must be a string"}
            )
            return

        # Streamed events and closed spans join the outbox as they are
        # delivered on the loop, so each reaches the client before the
        # result of its job.
        loop = asyncio.get_running_loop()
        loop_thread = threading.get_ident()

        def event_cb(event_frame: dict) -> None:
            event_frame["id"] = rid
            outbox.post(event_frame)

        def make_trace(job: str) -> Optional[JobTrace]:
            if trace_id is None:
                return None

            def deliver(event: SpanEvent) -> None:
                self.service.record_span(event)
                out = span_frame(event, job=job)
                out["id"] = rid
                outbox.post(out)

            def emit(event: SpanEvent) -> None:
                # Spans may close on worker threads; marshal those onto
                # the loop so queueing and record order stay consistent.
                if threading.get_ident() == loop_thread:
                    deliver(event)
                else:
                    loop.call_soon_threadsafe(deliver, event)

            return JobTrace(trace_id, job, emit)

        jobs = [spec.content_hash() for spec in specs]
        await send({"type": "ack", "id": rid, "jobs": jobs})
        if self.service.log is not None:
            self.service.log.info(
                "submit",
                trace=trace_id,
                op=frame.get("op"),
                jobs=len(jobs),
                stream=stream,
                monitors=monitors,
            )
        sources: dict[str, str] = {}

        async def one(spec: RunSpec, cached) -> None:
            job = spec.content_hash()
            try:
                result, source = await self.service.resolve(
                    spec,
                    monitors=monitors,
                    event_cb=event_cb if stream else None,
                    trace=make_trace(job),
                    cached=cached,
                )
                reply = {
                    "type": "result",
                    "id": rid,
                    "job": job,
                    "source": source,
                    "result": self.service.result_json(
                        self.service.job_key(job, monitors), result
                    ),
                }
            except MonitorError as exc:
                source = "monitor_error"
                reply = {
                    "type": "error",
                    "id": rid,
                    "job": job,
                    "code": "monitor",
                    "error": str(exc),
                }
            except Exception as exc:
                # Whatever a job raises (a worker bug included) answers
                # that job alone: the other jobs and ``done`` still follow.
                source = "error"
                reply = {
                    "type": "error",
                    "id": rid,
                    "job": job,
                    "error": _error_text(exc),
                }
            sources[job] = source
            await send(reply)

        # A memo or disk hit never waits, so it is resolved in this task,
        # in submission order, and its frame posted before the next job
        # is looked up (a memo answer's ``ack``, ``result`` and ``done``
        # then leave in one write).  Only the jobs that wait, for a run
        # in flight or one to start, get a task each.  A repeat of a
        # waiting job is handed its lookup, so no entry is read twice.
        waiting: dict[str, object] = {}
        later: list[tuple[RunSpec, object]] = []
        for spec, job in zip(specs, jobs):
            if not stream and job not in waiting:
                now, cached = self.service.lookup(job, spec, monitors)
                if now:
                    await one(spec, cached)
                    continue
                waiting[job] = cached
            later.append((spec, waiting.get(job, _LOOKUP)))
        if later:
            await asyncio.gather(*(one(spec, cached) for spec, cached in later))
        done = {
            "type": "done",
            "id": rid,
            "jobs": jobs,
            "sources": sources,
            "counters": self.service.counters(),
        }
        if trace_id is not None:
            done["trace"] = trace_id
        await send(done)


class _Outbox:
    """The frames bound for one connection, written once per loop pass.

    Frames posted during one pass of the event loop are joined, in
    order, into one ``transport.write`` at the start of the next pass.
    A buffer past the transport's high-water mark is written at once,
    and :meth:`send` then awaits ``drain()``.  The connection handler
    flushes the rest before it closes the connection.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._loop = asyncio.get_running_loop()
        self._high = writer.transport.get_write_buffer_limits()[1]
        self._drain_lock = asyncio.Lock()
        self._parts: list[bytes] = []
        self._size = 0

    def post(self, frame: dict) -> bool:
        """Queue *frame* for this pass's write; ``True`` when the buffer
        passed the high-water mark and was written early."""
        if not self._parts:
            self._loop.call_soon(self.flush)
        data = encode_frame(frame)
        self._parts.append(data)
        self._size += len(data)
        if self._size <= self._high:
            return False
        self.flush()
        return True

    async def send(self, frame: dict) -> None:
        """Queue *frame*; under backpressure, wait for the transport."""
        if self.post(frame):
            async with self._drain_lock:
                await self._writer.drain()

    def flush(self) -> None:
        if self._parts:
            data = b"".join(self._parts)
            self._parts.clear()
            self._size = 0
            if not self._writer.is_closing():  # else the client went away
                self._writer.write(data)


def _store(
    spec: RunSpec, result: RunResult, cache: Optional[ResultCache]
) -> CanonicalJSON:
    """The canonical JSON of *result*, written under *spec* to *cache*
    when one is given; called where the job ran."""
    text = canonical_json(result)
    if cache is not None:
        cache.put(spec.content_hash(), spec, text)
    return text


def _run_in_process(
    spec: RunSpec,
    checkpoint_store: Optional[CheckpointStore],
    cache: Optional[ResultCache],
) -> tuple[RunResult, CanonicalJSON]:
    """A plain job in a pool process: its result and canonical JSON,
    written to the (pickled) *cache* there."""
    result = execute_run_spec(spec, checkpoint_store=checkpoint_store)
    return result, _store(spec, result, cache)


def _error_text(exc: Exception) -> str:
    """The ``error`` text of a failed request or job; an exception from
    outside the package names its type, since its text alone may not."""
    if isinstance(exc, ReproError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line (``b""`` at EOF), or ``None`` for a line
    over the reader's limit: that line is read through its newline and
    dropped, so the connection stays in step for the next request."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        try:
            await reader.readexactly(consumed)
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


async def _serve(service, host, port, ready=None) -> ServiceServer:
    server = ServiceServer(service, host, port)
    await server.start()
    if ready is not None:
        ready(server)
    await server.serve_until_shutdown()
    return server


def serve_forever(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    on_ready=None,
) -> None:
    """Blocking entry point for the ``serve`` CLI."""
    asyncio.run(_serve(service, host, port, ready=on_ready))


def serve_in_thread(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> tuple[ServiceServer, threading.Thread]:
    """Start a server on a daemon thread; returns once it is listening.

    For tests and embedding: ``server.port`` is the bound port, stop
    with ``server.stop()`` (thread-safe) and join the returned thread.
    """
    started = threading.Event()
    box: dict = {}

    def ready(server: ServiceServer) -> None:
        box["server"] = server
        started.set()

    def runner() -> None:
        try:
            serve_forever(service, host, port, on_ready=ready)
        except Exception as exc:  # pragma: no cover - startup failures
            box["error"] = exc
            started.set()

    thread = threading.Thread(
        target=runner, name="repro-service", daemon=True
    )
    thread.start()
    started.wait()
    if "error" in box:
        raise box["error"]
    return box["server"], thread
