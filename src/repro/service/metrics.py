"""Latency histograms and Prometheus exposition for the sweep service.

Everything here follows the repo-wide determinism split:

* **deterministic** — per-tier request counts and the *simulated-cycles*
  histogram (how much simulation each served result represents) are
  pure functions of the request stream.  They are what CI compares.
  The request counts are the service's one tier ledger: a resolution is
  counted when its tier is decided, failed ones included, and
  :meth:`SweepService.counters` is read from it.
* **wall-clock** — the *service-latency* histogram (microseconds from
  request arrival to served result) is an artifact for operators and is
  never part of a gated comparison.

Histograms use fixed log2 bucket edges with exact integer counts — no
sampling, no decay — so two identical request streams produce identical
deterministic snapshots byte-for-byte.

:func:`start_metrics_http` serves the Prometheus text format over plain
HTTP (stdlib only) for ``python -m repro serve --metrics-port``; the
same text is available in-band through the wire protocol's ``metrics``
op, so scrapes work even without the side port.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from http.server import ThreadingHTTPServer

#: Bucket edges (inclusive upper bounds) for simulated cycles per served
#: result: 2^10 .. 2^32.  Fixed so snapshots from different runs align.
CYCLE_BUCKETS = tuple(1 << p for p in range(10, 33))

#: Bucket edges for wall service latency in microseconds: 2^0 .. 2^24
#: (1 µs .. ~16.8 s).  Artifact-only.
WALL_BUCKETS_US = tuple(1 << p for p in range(0, 25))

#: Resolution tiers, in stable exposition order.  ``monitored_*`` tiers
#: keep monitored jobs (keyed ``<hash>+monitors:<mode>``) from aliasing
#: the plain counters — satellite fix for ``SweepService.counters()``.
TIERS = (
    "executed",
    "live",
    "memo",
    "dedup",
    "cache",
    "monitored_live",
    "monitored_memo",
    "monitored_dedup",
)


def _check_tier(tier: str) -> None:
    """Reject a tier outside :data:`TIERS`, so a misspelled tier at a call
    site fails instead of going missing from the ledger."""
    if tier not in TIERS:
        raise ServiceError(
            f"unknown service tier {tier!r}; declared: {', '.join(TIERS)}"
        )


class Histogram:
    """Fixed-edge cumulative histogram with exact counts.

    ``edges`` are inclusive upper bounds; one implicit overflow bucket
    (``+Inf``) catches everything beyond the last edge.
    """

    __slots__ = ("edges", "counts", "total", "sum")

    def __init__(self, edges: tuple[int, ...]):
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0
        self.sum = 0

    def observe(self, value: int) -> None:
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum += value

    def snapshot(self) -> dict:
        """Plain-dict view: bucket counts keyed by edge, plus totals."""
        buckets = {str(edge): self.counts[i]
                   for i, edge in enumerate(self.edges)
                   if self.counts[i]}
        if self.counts[-1]:
            buckets["+Inf"] = self.counts[-1]
        return {"buckets": buckets, "count": self.total, "sum": self.sum}


class ServiceMetrics:
    """Thread-safe per-tier request metrics for one :class:`SweepService`.

    One :meth:`count` per resolution, when its tier is decided, and one
    :meth:`observe` per completed result.  All tiers are pre-declared
    (:data:`TIERS`) so the exposition's label set is stable from the
    first scrape; any other tier raises :class:`ServiceError`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._hits = {tier: 0 for tier in TIERS}
        self._cycles = {tier: Histogram(CYCLE_BUCKETS) for tier in TIERS}
        self._wall = {tier: Histogram(WALL_BUCKETS_US) for tier in TIERS}

    def count(self, tier: str) -> None:
        """Count one resolution under *tier*; it stays counted if it
        then fails."""
        _check_tier(tier)
        with self._lock:
            self._hits[tier] += 1

    def observe(self, tier: str, simulated_cycles: int, wall_us: int) -> None:
        """Record one completed result in *tier*'s histograms."""
        _check_tier(tier)
        with self._lock:
            self._cycles[tier].observe(simulated_cycles)
            self._wall[tier].observe(wall_us)

    def tier_counts(self) -> dict[str, int]:
        """The ledger: resolutions counted per tier."""
        with self._lock:
            return dict(self._hits)

    def deterministic_snapshot(self) -> dict:
        """Gate-safe view: tier hit counts and simulated-cycles
        histograms.  No wall-clock field appears anywhere below here."""
        with self._lock:
            return {
                "tiers": dict(self._hits),
                "cycles": {tier: h.snapshot()
                           for tier, h in self._cycles.items()},
            }

    def wall_snapshot(self) -> dict:
        """Artifact-only view: wall service-latency histograms."""
        with self._lock:
            return {tier: h.snapshot() for tier, h in self._wall.items()}

    def render_prometheus(self, counters: Optional[dict] = None,
                          info: Optional[dict] = None) -> str:
        """Prometheus text exposition (version 0.0.4).

        ``counters`` (the :meth:`SweepService.counters` dict) exposes
        the service's lifetime gauges alongside the histograms so one
        scrape carries both; ``info`` renders as a constant
        ``repro_service_info`` gauge with one label per key.
        """
        det = self.deterministic_snapshot()
        wall = self.wall_snapshot()
        lines = []
        if info:
            labels = ",".join(f'{k}="{info[k]}"' for k in sorted(info))
            lines.append("# HELP repro_service_info Static service "
                         "configuration.")
            lines.append("# TYPE repro_service_info gauge")
            lines.append(f"repro_service_info{{{labels}}} 1")
        if counters:
            lines.append("# HELP repro_service_counter Lifetime service "
                         "counters (SweepService.counters()).")
            lines.append("# TYPE repro_service_counter gauge")
            for key in sorted(counters):
                value = counters[key]
                if isinstance(value, bool):
                    value = int(value)
                if isinstance(value, (int, float)):
                    lines.append(
                        f'repro_service_counter{{name="{key}"}} {value}'
                    )
        lines.append("# HELP repro_service_requests_total Resolutions by "
                     "tier, counted when the tier is decided, failed ones "
                     "included (deterministic).")
        lines.append("# TYPE repro_service_requests_total counter")
        for tier in sorted(det["tiers"]):
            lines.append(
                f'repro_service_requests_total{{tier="{tier}"}} '
                f'{det["tiers"][tier]}'
            )
        lines.extend(self._render_histogram(
            "repro_service_simulated_cycles",
            "Simulated cycles per served result (deterministic).",
            det["cycles"],
        ))
        lines.extend(self._render_histogram(
            "repro_service_wall_latency_us",
            "Wall service latency in microseconds (artifact-only; "
            "never gate on this).",
            wall,
        ))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(name: str, help_text: str,
                          per_tier: dict) -> list[str]:
        lines = [f"# HELP {name} {help_text}", f"# TYPE {name} histogram"]
        for tier in sorted(per_tier):
            snap = per_tier[tier]
            if not snap["count"]:
                continue
            cumulative = 0
            for edge, count in snap["buckets"].items():
                cumulative += count
                lines.append(
                    f'{name}_bucket{{tier="{tier}",le="{edge}"}} {cumulative}'
                )
            if "+Inf" not in snap["buckets"]:
                lines.append(
                    f'{name}_bucket{{tier="{tier}",le="+Inf"}} {cumulative}'
                )
            lines.append(f'{name}_sum{{tier="{tier}"}} {snap["sum"]}')
            lines.append(f'{name}_count{{tier="{tier}"}} {snap["count"]}')
        return lines


def start_metrics_http(metrics: ServiceMetrics, counters_fn,
                       info: Optional[dict] = None,
                       host: str = "127.0.0.1",
                       port: int = 0) -> ThreadingHTTPServer:
    """Serve ``GET /metrics`` in a daemon thread; returns the server
    (``.server_address[1]`` has the bound port).  To stop it, call
    ``.shutdown()``, which ends the serving loop, then
    ``.server_close()``, which closes the listening socket.
    ``counters_fn`` is called per scrape so the gauges are live.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - stdlib handler API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_error(404)
                return
            body = metrics.render_prometheus(
                counters=counters_fn(), info=info
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):  # silence per-request stderr
            pass

    server = ThreadingHTTPServer((host, port), _Handler)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-metrics", daemon=True)
    thread.start()
    return server
