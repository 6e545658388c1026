"""Rendering for ``python -m repro.obs top`` — a live service dashboard.

Pure string-building: every function here maps the server's ``status``
and ``metrics`` frames to text, so the renderer is unit-testable without
a socket (the poll/print loop lives in :mod:`repro.obs.__main__`).
"""

from __future__ import annotations

from typing import Optional

from repro.service.metrics import TIERS

#: Eight-level bar glyphs for histogram sparklines.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Slowest recent spans shown.
TOP_SPANS = 5


def sparkline(buckets: dict, width: int = 16) -> str:
    """Histogram bucket counts -> a fixed-width unicode sparkline.

    Buckets arrive keyed by edge in ascending order (``+Inf`` last);
    counts are rescaled to the eight block heights, and the line is
    padded/clipped to *width* so table columns stay aligned.
    """
    counts = list(buckets.values())
    if not counts:
        return "·" * width
    counts = counts[:width]
    peak = max(counts)
    line = "".join(
        SPARK_BLOCKS[min(len(SPARK_BLOCKS) - 1,
                         (count * len(SPARK_BLOCKS)) // (peak + 1))]
        if count else "·"
        for count in counts
    )
    return line.ljust(width, "·")


def _rate(part: int, whole: int) -> str:
    return f"{part / whole:6.1%}" if whole else "     -"


def render_tiers(metrics: dict) -> list[str]:
    """The per-tier table: hits, share of traffic, latency sparklines."""
    det = metrics.get("deterministic", {})
    tiers = det.get("tiers", {})
    cycles = det.get("cycles", {})
    wall = metrics.get("wall", {})
    total = sum(tiers.values())
    lines = [
        f"{'tier':<16} {'hits':>7} {'share':>6}  "
        f"{'cycles histogram':<16}  {'wall-latency':<16}"
    ]
    for tier in TIERS:
        hits = tiers.get(tier, 0)
        if not hits:
            continue
        lines.append(
            f"{tier:<16} {hits:>7} {_rate(hits, total)}  "
            f"{sparkline(cycles.get(tier, {}).get('buckets', {}))}  "
            f"{sparkline(wall.get(tier, {}).get('buckets', {}))}"
        )
    if len(lines) == 1:
        lines.append("(no requests served yet)")
    return lines


def render_spans(metrics: dict) -> list[str]:
    """The slowest recent spans, widest wall duration first."""
    spans = metrics.get("recent_spans", [])
    if not spans:
        return ["(no spans recorded — submit with tracing on)"]
    slowest = sorted(
        spans, key=lambda s: s.get("wall_dur_us", 0), reverse=True
    )[:TOP_SPANS]
    lines = [f"{'span':<10} {'job':<18} {'trace':<18} {'wall':>10}"]
    for span in slowest:
        lines.append(
            f"{span.get('name', '?'):<10} "
            f"{span.get('job', '')[:16]:<18} "
            f"{span.get('trace_id', '')[:16]:<18} "
            f"{span.get('wall_dur_us', 0):>8}us"
        )
    return lines


def render_top(counters: dict, metrics: dict,
               target: Optional[str] = None) -> str:
    """One full dashboard frame (header, counters, tiers, spans)."""
    header = "repro service"
    if target:
        header += f" @ {target}"
    header += (
        f" — backend={counters.get('backend', '?')}"
        f" caching={'on' if counters.get('caching') else 'off'}"
        f" inflight={counters.get('inflight', 0)}"
    )
    totals = (
        f"executed={counters.get('runs_executed', 0)} "
        f"live={counters.get('live_runs', 0)} "
        f"memo={counters.get('memo_hits', 0)} "
        f"dedup={counters.get('dedup_hits', 0)} "
        f"disk={counters.get('disk_hits', 0)} "
        f"monitored={counters.get('monitored_runs', 0)}"
    )
    sections = [
        header,
        totals,
        "",
        *render_tiers(metrics),
        "",
        "slowest recent spans (wall, artifact-only):",
        *render_spans(metrics),
    ]
    return "\n".join(sections)
