"""The determinism signature of a ``BENCH_<date>.json`` report.

One definition for both scripts: ``scripts/bench_report.py`` compares
the signatures of two back-to-back collections (``--check-determinism``)
and ``scripts/bench_trend.py`` gates a fresh report's signature against
the latest checked-in one.
"""

from __future__ import annotations

#: Cost-model fields that are externally pinned behavior (service counts,
#: row-hit outcomes, drain transitions — all visible in timing/results) and
#: therefore belong in the exact determinism signature.  Internal work
#: counters (dead picks, stale skips) are deliberately NOT exact-gated:
#: they may shift under internal-only scheduler changes, and
#: ``scripts/bench_trend.py`` watches them as ratios with tolerance.
COST_MODEL_PINNED_FIELDS = (
    "serviced",
    "completed",
    "row_hit_pops",
    "drain_entries",
    "drain_exits",
)


def determinism_signature(report: dict) -> dict:
    """The gated subset of *report*: per-kernel operation counts, the
    end-to-end ``events_processed`` and result digest, the stream
    digests and the externally pinned cost-model fields."""
    sig = {k["name"]: k["ops"] for k in report["kernels"]}
    end = report.get("end_to_end")
    if end is not None:
        sig["end_to_end.events_processed"] = end["events_processed"]
        sig["end_to_end.result_sha256"] = end["result_sha256"]
    for name, digest in sorted((report.get("streams") or {}).items()):
        sig[f"streams.{name}.sha256"] = digest
    for name, model in sorted((report.get("cost_model") or {}).items()):
        for field in COST_MODEL_PINNED_FIELDS:
            if field in model:
                sig[f"cost_model.{name}.{field}"] = model[field]
    return sig
