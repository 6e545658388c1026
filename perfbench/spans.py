"""The per-layer ledger: spans around the simulator's public entry points.

Every layer is measured from outside.  :class:`Tracer` wraps public
functions and methods of ``repro`` (see :data:`ENTRY_POINTS`), records
one span per call in memory (name, layer, start, end, parent span,
harness operation id, thread), and installs ``EngineProfiler`` while a
``System`` runs so the simulation kernel splits into engine loop and
per-subsystem callback time.  Nothing under ``src/`` changes.

A tracer also runs in a counts-only mode for the untraced reference
run: it times ``System.run`` with two clock reads per call and reads
the simulator's own counters afterwards, so the reference run's counts
and kernel wall can be compared with the traced run's.

Self time is attributed on one timeline across threads: each instant
inside a measured window goes to the most recently started span that
is still open.  For properly nested calls that is the span's duration
minus its children; it also handles the sweep service, where the
client thread blocks in ``submit`` while the server thread does the
work, and where several ``resolve`` coroutines are suspended at once.
Time inside a window with no open span is the unattributed remainder.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import heapq
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# Span record layout (a list, so ``end`` can fill it in place).
SID, NAME, LAYER, T0, T1, PARENT, OP, TID, NOTE = range(9)

#: Every wrapped entry point: (module, attribute path, layer).
ENTRY_POINTS = (
    ("repro.core.simulator", "make_run_spec", "core.runspec"),
    ("repro.core.simulator", "sweep_specs", "core.runspec"),
    ("repro.core.runspec", "RunSpec.content_hash", "core.runspec"),
    ("repro.core.runspec", "RunSpec.to_dict", "core.runspec"),
    ("repro.core.runspec", "RunSpec.from_dict", "core.runspec"),
    ("repro.core.simulator", "build_system_from_spec", "core.system"),
    ("repro.core.system", "System.run", "sim"),
    ("repro.core.simulator", "warm_start_state", "core.checkpoint"),
    ("repro.core.system", "System.snapshot_state", "core.checkpoint"),
    ("repro.core.system", "System.restore_state", "core.checkpoint"),
    ("repro.core.checkpoint", "CheckpointStore.get", "core.checkpoint"),
    ("repro.core.checkpoint", "CheckpointStore.put", "core.checkpoint"),
    ("repro.experiments.cache", "ResultCache.get", "experiments"),
    ("repro.experiments.cache", "ResultCache.put", "experiments"),
    ("repro.core.results", "RunResult.to_dict", "core.results"),
    ("repro.core.results", "RunResult.from_dict", "core.results"),
    ("repro.service.server", "SweepService.resolve", "service"),
    ("repro.service.client", "ServiceClient.submit", "service"),
    ("repro.service.client", "ServiceClient.sweep", "service"),
    ("repro.telemetry.wire", "encode_frame", "telemetry.wire"),
    ("repro.telemetry.wire", "decode_frame", "telemetry.wire"),
)

#: Ledger rows in report order.  ``sim`` spans are split further into
#: the engine loop and the profiler's per-subsystem callback walls.
LAYERS = (
    "core.engine",
    "dram",
    "cpu",
    "os",
    "core.system",
    "core.runspec",
    "core.results",
    "telemetry.wire",
    "service",
    "experiments",
    "core.checkpoint",
)

#: Profiler subsystem (``repro.<segment>``) -> ledger layer.  Workload
#: generators are called from core callbacks, so they count as ``cpu``.
SUBSYSTEM_LAYER = {"dram": "dram", "cpu": "cpu", "workloads": "cpu", "os": "os"}

#: Simulator counters summed over every ``System.run`` call.
COST_MODEL_FIELDS = ("picks", "serviced", "dead_picks", "row_hit_pops", "stale_skips")


def _note_hit(args, out):
    return "hit" if out is not None else "miss"


def _note_source(args, out):
    return out[1]


def _note_frame(args, out):
    frame = args[0]
    return len(out) if isinstance(frame, dict) and frame.get("type") == "result" else None


def _note_payload(args, out):
    store, key, _spec, cycle = args[:4]
    try:
        return store.path(key, cycle).stat().st_size
    except OSError:
        return None


NOTES = {
    "ResultCache.get": _note_hit,
    "CheckpointStore.get": _note_hit,
    "CheckpointStore.put": _note_payload,
    "SweepService.resolve": _note_source,
    "encode_frame": _note_frame,
}


class Recorder:
    """In-memory span store; written out once, after the unit ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.windows: list[tuple[float, float]] = []
        #: Harness operation id stamped on new spans.  The workloads are
        #: closed loops with one client, so one operation is in flight.
        self.op = None
        self._ids = itertools.count()
        self._parent = contextvars.ContextVar("perfbench_parent", default=None)
        self._tids: dict[int, int] = {}
        self._lock = threading.Lock()

    def begin(self, name: str, layer: str):
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        span = [next(self._ids), name, layer, time.perf_counter(), None,
                self._parent.get(), self.op, tid, None]
        self.spans.append(span)
        return span, self._parent.set(span[SID])

    def end(self, span, token, note=None) -> None:
        span[T1] = time.perf_counter()
        span[NOTE] = note
        self._parent.reset(token)


class Tracer:
    """Hooks for one unit of work.

    ``full=False`` is the reference mode: only ``System.run`` and
    ``System.restore_state`` are hooked, to time the kernel and read its
    counters.  ``full=True`` adds a span around every entry point and
    the engine profiler.
    """

    def __init__(self, full: bool):
        self.full = full
        self.rec = Recorder() if full else None
        self.profiler = None
        if full:
            from repro.obs.profiler import EngineProfiler

            self.profiler = EngineProfiler()
        self.counts: Counter = Counter()
        #: Total wall of ``System.run`` calls and of measured windows.
        self.run_wall = 0.0
        self.window_wall = 0.0
        self._baseline: dict[int, int] = {}
        self._undo: list[tuple] = []

    # -- harness interface ----------------------------------------------------

    def set_op(self, op) -> None:
        if self.rec is not None:
            self.rec.op = op

    @contextlib.contextmanager
    def window(self):
        """A timed region of the workload: the ledger splits its wall."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.window_wall += t1 - t0
            if self.rec is not None:
                self.rec.windows.append((t0, t1))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        from repro.core.system import System

        self._patch(System, "run", self._run_hook)
        self._patch(System, "restore_state", self._restore_hook)
        if self.full:
            for module, path, layer in ENTRY_POINTS:
                self._install_span(module, path, layer)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, cls, attr, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        self._undo.append((cls, attr, raw))

    def _install_span(self, module_name: str, path: str, layer: str) -> None:
        module = importlib.import_module(module_name)
        make = self._span(path, layer, NOTES.get(path))
        if "." in path:
            cls_name, attr = path.split(".")
            self._patch(getattr(module, cls_name), attr, make)
            return
        # A module-level function is bound by name in every module that
        # imported it; replace each binding so every caller is seen.
        original = getattr(module, path)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", None) or ""
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _span(self, name: str, layer: str, note):
        rec = self.rec

        def make(fn):
            if inspect.iscoroutinefunction(fn):

                @functools.wraps(fn)
                async def async_wrapper(*args, **kwargs):
                    span, token = rec.begin(name, layer)
                    try:
                        out = await fn(*args, **kwargs)
                    except BaseException:
                        rec.end(span, token, "error")
                        raise
                    rec.end(span, token)
                    if note is not None:
                        span[NOTE] = note(args, out)
                    return out

                return async_wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span, token = rec.begin(name, layer)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    rec.end(span, token, "error")
                    raise
                rec.end(span, token)
                if note is not None:
                    span[NOTE] = note(args, out)
                return out

            return wrapper

        return make

    def _run_hook(self, run):
        tracer = self

        @functools.wraps(run)
        def hooked(system, *args, **kwargs):
            tracer._baseline[id(system)] = system.engine.events_processed
            if tracer.profiler is not None:
                system.engine.set_profiler(tracer.profiler)
            t0 = time.perf_counter()
            try:
                result = run(system, *args, **kwargs)
            finally:
                tracer.run_wall += time.perf_counter() - t0
                if tracer.profiler is not None:
                    system.engine.set_profiler(None)
            tracer._count_run(system, result)
            return result

        return hooked

    def _restore_hook(self, restore):
        tracer = self

        @functools.wraps(restore)
        def hooked(system, *args, **kwargs):
            out = restore(system, *args, **kwargs)
            # A restored engine resumes the prefix's event counter; count
            # only the events this process dispatches.
            tracer._baseline[id(system)] = system.engine.events_processed
            return out

        return hooked

    def _count_run(self, system, result) -> None:
        counts = self.counts
        counts["system.runs"] += 1
        counts["engine.events"] += (
            system.engine.events_processed - self._baseline.pop(id(system))
        )
        model = system.controller.dispatch_cost_model()
        for field in COST_MODEL_FIELDS:
            counts[f"dram.cm.{field}"] += model[field]
        if result is not None:
            counts["cpu.instructions"] += sum(t.instructions for t in result.tasks)
            counts["dram.refresh_cmds"] += result.refresh_commands
            counts["dram.refresh_stalled_reads"] += result.refresh_stalled_reads
            counts["os.clean_picks"] += result.scheduler_clean_picks
            counts["os.fallback_picks"] += result.scheduler_fallback_picks

    # -- summaries ------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and walls of the unit, JSON-able.

        ``counts`` holds only deterministic quantities; in full mode it
        adds span call counts and profiler event counts.
        """
        out = {
            "counts": dict(self.counts),
            "run_wall": self.run_wall,
            "window_wall": self.window_wall,
        }
        if not self.full:
            return out
        spans = [s for s in self.rec.spans if s[T1] is not None]
        self_time, unattributed = attribute(spans, self.rec.windows)
        layer_self: dict[str, float] = defaultdict(float)
        for span in spans:
            layer_self[span[LAYER]] += self_time.get(span[SID], 0.0)
        calls: dict[str, dict] = {}
        names = {s[SID]: s[NAME] for s in spans}
        for span in spans:
            row = calls.setdefault(
                span[NAME], {"calls": 0, "total_s": 0.0, "outer_s": 0.0,
                             "notes": defaultdict(lambda: [0, 0.0]), "bytes": []}
            )
            duration = span[T1] - span[T0]
            row["calls"] += 1
            row["total_s"] += duration
            if names.get(span[PARENT]) not in ("make_run_spec", "sweep_specs"):
                row["outer_s"] += duration
            note = span[NOTE]
            if isinstance(note, str):
                row["notes"][note][0] += 1
                row["notes"][note][1] += duration
            elif isinstance(note, int):
                row["bytes"].append(note)
        for row in calls.values():
            row["notes"] = {k: list(v) for k, v in row["notes"].items()}
        profile = self.profiler.report()
        subsystems = {
            row["subsystem"]: (row["events"], row["wall_seconds"])
            for row in profile["subsystems"]
        }
        for subsystem, (events, _wall) in subsystems.items():
            out["counts"][f"profile.{subsystem}.events"] = events
        for name, row in calls.items():
            out["counts"][f"calls.{name}"] = row["calls"]
            for note, (count, _total) in row["notes"].items():
                out["counts"][f"calls.{name}.{note}"] = count
        out.update(
            layer_self=dict(layer_self),
            unattributed=unattributed,
            calls=calls,
            subsystems=subsystems,
        )
        return out

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (loads in Perfetto)."""
        spans = [s for s in self.rec.spans if s[T1] is not None]
        starts = [s[T0] for s in spans] + [w[0] for w in self.rec.windows]
        base = min(starts) if starts else 0.0
        events = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
             "args": {"name": "harness" if tid == 0 else f"thread-{tid}"}}
            for tid in sorted(set(s[TID] for s in spans) | {0})
        ]
        for t0, t1 in self.rec.windows:
            events.append({
                "name": "window", "cat": "harness", "ph": "X", "pid": 1,
                "tid": 0, "ts": (t0 - base) * 1e6, "dur": (t1 - t0) * 1e6,
            })
        for span in spans:
            events.append({
                "name": span[NAME], "cat": span[LAYER], "ph": "X", "pid": 1,
                "tid": span[TID], "ts": (span[T0] - base) * 1e6,
                "dur": (span[T1] - span[T0]) * 1e6,
                "args": {"id": span[SID], "parent": span[PARENT],
                         "op": span[OP], "note": span[NOTE]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def attribute(spans, windows) -> tuple[dict[int, float], float]:
    """Split measured-window time between spans on one timeline.

    Returns ``(self seconds per span id, unattributed seconds)``: each
    instant inside a window goes to the open span that started last,
    or to the remainder when none is open.
    """
    events = []
    for span in spans:
        events.append((span[T0], 1, span))
        events.append((span[T1], 0, span))
    for t0, t1 in windows:
        events.append((t0, 1, None))
        events.append((t1, 0, None))
    events.sort(key=lambda e: (e[0], e[1]))
    heap: list[tuple] = []
    closed: set[int] = set()
    self_time: dict[int, float] = defaultdict(float)
    unattributed = 0.0
    open_windows = 0
    prev = None
    for t, starting, span in events:
        if prev is not None and open_windows and t > prev:
            while heap and heap[0][2] in closed:
                heapq.heappop(heap)
            if heap:
                self_time[heap[0][2]] += t - prev
            else:
                unattributed += t - prev
        prev = t
        if span is None:
            open_windows += 1 if starting else -1
        elif starting:
            heapq.heappush(heap, (-span[T0], -span[SID], span[SID]))
        else:
            closed.add(span[SID])
    return dict(self_time), unattributed


def ledger(reference: dict, traced: dict, ops: int) -> tuple[dict, list[str]]:
    """Per-layer metrics and a printable table from one reference
    (counts-mode) and one traced summary of the same unit."""
    calls = traced["calls"]

    def row(name):
        return calls.get(name, {"calls": 0, "total_s": 0.0, "outer_s": 0.0,
                                "notes": {}, "bytes": []})

    def mean_us(name, note=None):
        r = row(name)
        count, total = (r["notes"].get(note, [0, 0.0]) if note else
                        (r["calls"], r["total_s"]))
        return total / count * 1e6 if count else 0.0

    def note_count(name, note):
        return row(name)["notes"].get(note, [0, 0.0])[0]

    counts = traced["counts"]
    # Kernel: the profiled loop is slower than the plain one.  Scale the
    # engine-loop and callback walls so the kernel sums to the untraced
    # run's System.run wall.
    traced_run = row("System.run")["total_s"]
    inflation = traced_run / reference["run_wall"] if reference["run_wall"] else 1.0
    excess = traced_run - reference["run_wall"]
    sim_self = traced["layer_self"].get("sim", 0.0)
    scale = (sim_self - excess) / sim_self if sim_self > 0 else 1.0
    callbacks = {layer: 0.0 for layer in ("dram", "cpu", "os")}
    events = {layer: 0 for layer in ("dram", "cpu", "os")}
    for subsystem, (count, wall) in traced["subsystems"].items():
        layer = SUBSYSTEM_LAYER.get(subsystem)
        if layer is not None:
            callbacks[layer] += wall
            events[layer] += count
    # Callbacks of any other subsystem stay with the engine row.
    self_s = {"core.engine": (sim_self - sum(callbacks.values())) * scale}
    for layer, wall in callbacks.items():
        self_s[layer] = wall * scale
    for layer in LAYERS[4:]:
        self_s[layer] = traced["layer_self"].get(layer, 0.0)
    wall = traced["window_wall"] - (excess if sim_self > 0 else 0.0)
    unattributed = traced["unattributed"]
    picks = counts.get("dram.cm.picks", 0)
    serviced = counts.get("dram.cm.serviced", 0)
    payloads = row("CheckpointStore.put")["bytes"]
    result_frames = row("encode_frame")["bytes"]
    metrics = {
        "import_s": traced["import_s"],
        "engine.events": counts.get("engine.events", 0),
        "engine.loop_s": self_s["core.engine"],
        "dram.events": events["dram"],
        "dram.self_s": self_s["dram"],
        "dram.picks": picks,
        "dram.dead_pick_ratio": counts.get("dram.cm.dead_picks", 0) / picks if picks else 0.0,
        "dram.row_hit_pop_ratio": counts.get("dram.cm.row_hit_pops", 0) / serviced if serviced else 0.0,
        "dram.stale_skips_per_pop": counts.get("dram.cm.stale_skips", 0) / serviced if serviced else 0.0,
        "dram.refresh_cmds": counts.get("dram.refresh_cmds", 0),
        "dram.refresh_stalled_reads": counts.get("dram.refresh_stalled_reads", 0),
        "cpu.events": events["cpu"],
        "cpu.self_s": self_s["cpu"],
        "cpu.instructions": counts.get("cpu.instructions", 0),
        "os.events": events["os"],
        "os.self_s": self_s["os"],
        "os.clean_picks": counts.get("os.clean_picks", 0),
        "os.fallback_picks": counts.get("os.fallback_picks", 0),
        "system.builds": row("build_system_from_spec")["calls"],
        "system.build_ms": mean_us("build_system_from_spec") / 1e3,
        "system.self_s": self_s["core.system"],
        "runspec.hash_calls": row("RunSpec.content_hash")["calls"] / ops,
        "runspec.hash_us": mean_us("RunSpec.content_hash"),
        "runspec.resolve_ms": (row("make_run_spec")["outer_s"]
                               + row("sweep_specs")["outer_s"]) * 1e3,
        "runspec.self_s": self_s["core.runspec"],
        "results.to_dict_us": mean_us("RunResult.to_dict"),
        "results.from_dict_us": mean_us("RunResult.from_dict"),
        "results.self_s": self_s["core.results"],
        "wire.encode_us": mean_us("encode_frame"),
        "wire.decode_us": mean_us("decode_frame"),
        "wire.result_frame_bytes": (sum(result_frames) / len(result_frames)
                                    if result_frames else 0.0),
        "wire.self_s": self_s["telemetry.wire"],
        "service.executed": note_count("SweepService.resolve", "executed"),
        "service.memo": note_count("SweepService.resolve", "memo"),
        "service.cache": note_count("SweepService.resolve", "cache"),
        "service.resolve_us.memo": mean_us("SweepService.resolve", "memo"),
        "service.resolve_us.cache": mean_us("SweepService.resolve", "cache"),
        "service.self_s": self_s["service"],
        "cache.put_ms": mean_us("ResultCache.put") / 1e3,
        "cache.get_ms": mean_us("ResultCache.get") / 1e3,
        "cache.hits": note_count("ResultCache.get", "hit"),
        "cache.misses": note_count("ResultCache.get", "miss"),
        "cache.self_s": self_s["experiments"],
        "checkpoint.prefix_runs": (row("warm_start_state")["calls"]
                                   - note_count("CheckpointStore.get", "hit")),
        "checkpoint.store_hits": note_count("CheckpointStore.get", "hit"),
        "checkpoint.payload_kib": (sum(payloads) / len(payloads) / 1024
                                   if payloads else 0.0),
        # Only the warm-started workload checkpoints, so its time is a
        # share of the wall: a time that reads 0 on every run of the
        # other workloads would look like no measurement at all.
        "checkpoint.share_pct": 100.0 * self_s["core.checkpoint"] / wall if wall else 0.0,
        "trace.wall_s": wall,
        "trace.unattributed_pct": 100.0 * unattributed / wall if wall else 0.0,
        "trace.overhead_pct": (100.0 * (traced["window_wall"] / reference["window_wall"] - 1)
                               if reference["window_wall"] else 0.0),
        "trace.profiler_inflation": inflation,
    }
    lines = [f"  {'layer':<16} {'self s':>9} {'share':>7}"]
    for layer in LAYERS:
        share = self_s[layer] / wall if wall else 0.0
        lines.append(f"  {layer:<16} {self_s[layer]:>9.4f} {share:>7.1%}")
    lines.append(f"  {'unattributed':<16} {unattributed:>9.4f} "
                 f"{(unattributed / wall if wall else 0.0):>7.1%}")
    lines.append(f"  {'wall (untraced kernel)':<16} {wall:>9.4f}")
    if row("System.snapshot_state")["calls"]:
        lines.append(
            f"  checkpoint per call: get {mean_us('CheckpointStore.get') / 1e3:.3f} ms, "
            f"restore {mean_us('System.restore_state') / 1e3:.3f} ms, "
            f"snapshot {mean_us('System.snapshot_state') / 1e3:.3f} ms"
        )
    lines.append(
        f"  profiler inflation x{inflation:.3f} (kernel walls scaled by "
        f"{scale:.3f}); tracing overhead {metrics['trace.overhead_pct']:+.1f}% "
        f"of the untraced windows"
    )
    return metrics, lines
