"""The per-tier table of ``python -m repro.obs top``."""

from repro.obs.top import render_tiers
from repro.service.metrics import TIERS, ServiceMetrics


def served(metrics, tier, simulated_cycles, wall_us):
    """One completed resolution: counted, then observed."""
    metrics.count(tier)
    metrics.observe(tier, simulated_cycles, wall_us)


def frame(metrics):
    """The parts of a ``metrics`` frame the tier table reads."""
    return {
        "deterministic": metrics.deterministic_snapshot(),
        "wall": metrics.wall_snapshot(),
    }


def test_every_served_tier_gets_a_row_in_service_order():
    metrics = ServiceMetrics()
    for tier in reversed(TIERS):
        served(metrics, tier, simulated_cycles=4096, wall_us=100)
    for _ in range(len(TIERS)):
        served(metrics, "memo", simulated_cycles=4096, wall_us=100)
    header, *rows = render_tiers(frame(metrics))
    assert header.split()[:3] == ["tier", "hits", "share"]
    cells = [row.split() for row in rows]
    assert [cell[0] for cell in cells] == list(TIERS)
    hits = {cell[0]: int(cell[1]) for cell in cells}
    assert hits["memo"] == len(TIERS) + 1
    assert sum(hits.values()) == 2 * len(TIERS)
    assert cells[0][2] == f"{1 / (2 * len(TIERS)):.1%}"


def test_unserved_tiers_are_left_out():
    metrics = ServiceMetrics()
    served(metrics, "cache", simulated_cycles=4096, wall_us=100)
    _, row = render_tiers(frame(metrics))
    assert row.split()[:3] == ["cache", "1", "100.0%"]


def test_no_requests_yet():
    assert render_tiers(frame(ServiceMetrics()))[1:] == ["(no requests served yet)"]
