"""Unit tests for service latency histograms and Prometheus exposition."""

import urllib.request

import pytest

from repro.errors import ServiceError
from repro.service.metrics import (
    CYCLE_BUCKETS,
    TIERS,
    Histogram,
    ServiceMetrics,
    start_metrics_http,
)


def served(metrics, tier, simulated_cycles, wall_us):
    """One completed resolution: counted when its tier is decided, then
    observed."""
    metrics.count(tier)
    metrics.observe(tier, simulated_cycles, wall_us)


def test_histogram_buckets_are_inclusive_upper_bounds():
    hist = Histogram((10, 100, 1000))
    for value in (1, 10, 11, 100, 5000):
        hist.observe(value)
    snap = hist.snapshot()
    # 1 and 10 land in le=10; 11 and 100 in le=100; 5000 overflows.
    assert snap["buckets"] == {"10": 2, "100": 2, "+Inf": 1}
    assert snap["count"] == 5
    assert snap["sum"] == 1 + 10 + 11 + 100 + 5000


def test_empty_buckets_are_omitted_from_snapshots():
    hist = Histogram(CYCLE_BUCKETS)
    hist.observe(20_000)
    snap = hist.snapshot()
    assert snap["buckets"] == {"32768": 1}
    assert snap["count"] == 1


def test_deterministic_snapshot_excludes_wall_everywhere():
    metrics = ServiceMetrics()
    served(metrics, "executed", 20_000, wall_us=123_456)
    served(metrics, "memo", 20_000, wall_us=7)
    det = metrics.deterministic_snapshot()
    assert det["tiers"]["executed"] == 1
    assert det["tiers"]["memo"] == 1
    assert "wall" not in repr(sorted(det))
    flat = str(det)
    assert "123456" not in flat and "wall" not in flat
    # The wall histograms live in their own artifact-only snapshot.
    wall = metrics.wall_snapshot()
    assert wall["memo"]["buckets"] == {"8": 1}


def test_identical_request_streams_render_identical_prometheus_text():
    def build():
        metrics = ServiceMetrics()
        served(metrics, "executed", 20_000, wall_us=999)
        served(metrics, "memo", 20_000, wall_us=1)
        served(metrics, "memo", 40_000, wall_us=2)
        return metrics

    counters = {"runs_executed": 1, "memo_hits": 2, "caching": True}
    a = build().render_prometheus(counters=counters, info={"backend": "thread"})
    # Deterministic sections match exactly even though wall inputs differ
    # run to run — strip the artifact histogram before comparing.
    b = ServiceMetrics()
    served(b, "executed", 20_000, wall_us=123)
    served(b, "memo", 20_000, wall_us=456)
    served(b, "memo", 40_000, wall_us=789)
    b_text = b.render_prometheus(counters=counters, info={"backend": "thread"})

    def deterministic_lines(text):
        return [line for line in text.splitlines()
                if "wall_latency" not in line]

    assert deterministic_lines(a) == deterministic_lines(b_text)
    assert 'repro_service_info{backend="thread"} 1' in a
    assert 'repro_service_counter{name="caching"} 1' in a
    assert 'repro_service_counter{name="runs_executed"} 1' in a
    assert 'repro_service_requests_total{tier="memo"} 2' in a


def test_prometheus_histogram_lines_are_cumulative():
    metrics = ServiceMetrics()
    served(metrics, "memo", 1024, wall_us=1)
    served(metrics, "memo", 20_000, wall_us=1)
    served(metrics, "memo", 1 << 40, wall_us=1)  # overflow bucket
    text = metrics.render_prometheus()
    assert ('repro_service_simulated_cycles_bucket'
            '{tier="memo",le="1024"} 1') in text
    assert ('repro_service_simulated_cycles_bucket'
            '{tier="memo",le="32768"} 2') in text
    assert ('repro_service_simulated_cycles_bucket'
            '{tier="memo",le="+Inf"} 3') in text
    assert 'repro_service_simulated_cycles_count{tier="memo"} 3' in text


def test_a_resolution_that_fails_is_counted_but_not_observed():
    metrics = ServiceMetrics()
    metrics.count("executed")
    assert metrics.tier_counts()["executed"] == 1
    det = metrics.deterministic_snapshot()
    assert det["tiers"]["executed"] == 1
    assert det["cycles"]["executed"]["count"] == 0


def test_an_undeclared_tier_is_rejected_and_counts_nothing():
    metrics = ServiceMetrics()
    served(metrics, "executed", 20_000, wall_us=5)
    before = metrics.deterministic_snapshot()
    with pytest.raises(ServiceError, match="'exectued'"):
        metrics.count("exectued")
    with pytest.raises(ServiceError, match="'exectued'"):
        metrics.observe("exectued", 10, 1)
    assert metrics.tier_counts() == {tier: int(tier == "executed") for tier in TIERS}
    assert metrics.deterministic_snapshot() == before


def test_http_exposition_serves_live_counters():
    metrics = ServiceMetrics()
    served(metrics, "executed", 20_000, wall_us=5)
    counters = {"runs_executed": 1}
    server = start_metrics_http(
        metrics, lambda: counters, info={"backend": "thread"}, port=0
    )
    try:
        port = server.server_address[1]
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as resp:
            body = resp.read().decode("utf-8")
            assert resp.headers["Content-Type"].startswith("text/plain")
        assert body == metrics.render_prometheus(
            counters=counters, info={"backend": "thread"}
        )
        # Scrapes are live: counters_fn is re-read per request.
        counters["runs_executed"] = 5
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as resp:
            assert 'name="runs_executed"} 5' in resp.read().decode("utf-8")
    finally:
        server.shutdown()
        server.server_close()
