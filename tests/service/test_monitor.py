"""Per-route latency histograms: percentiles, merging across workers, labels."""

from __future__ import annotations

import pytest

from repro.service import (
    LatencyHistogram,
    RecommendationService,
    RouteLatencyRegistry,
    ServiceClient,
    merge_route_payloads,
    start_server,
)


class TestLatencyHistogram:
    def test_percentiles_are_monotonic_and_bounded(self):
        hist = LatencyHistogram()
        samples = [0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.5]
        for s in samples:
            hist.record(s)
        assert hist.count == len(samples)
        p50, p95, p99 = (
            hist.percentile(0.50),
            hist.percentile(0.95),
            hist.percentile(0.99),
        )
        assert 0.0 < p50 <= p95 <= p99 <= hist.max_seconds
        assert hist.percentile(1.0) == hist.max_seconds

    def test_merge_equals_combined_recording(self):
        a, b, combined = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for s in (0.001, 0.003, 0.2):
            a.record(s)
            combined.record(s)
        for s in (0.0002, 0.05):
            b.record(s)
            combined.record(s)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.count == combined.count
        assert a.max_seconds == combined.max_seconds
        assert a.as_dict()["p99_ms"] == combined.as_dict()["p99_ms"]

    def test_dict_round_trip_preserves_buckets(self):
        hist = LatencyHistogram()
        for s in (0.001, 0.001, 0.02, 1.5):
            hist.record(s)
        rebuilt = LatencyHistogram.from_dict(hist.as_dict())
        assert rebuilt.counts == hist.counts
        assert rebuilt.count == hist.count
        assert rebuilt.max_seconds == pytest.approx(hist.max_seconds, abs=1e-6)

    def test_junk_paths_leave_every_real_route_label(self):
        """The route table bounds the labels: a path scan cannot push real
        routes out of the latency stats."""
        svc = RecommendationService(datasets=("census",), scale="smoke", result_cache=False)
        server, _ = start_server(svc)
        try:
            with ServiceClient(*server.server_address[:2]) as client:
                for i in range(40):
                    assert client.request("GET", f"/junk{i}")[0] == 404
                client.healthz()
                session = client.create_session(dataset="census")
                client.recommend(session.session_id)
                routes = client.route_stats()
        finally:
            server.graceful_shutdown(timeout=5)
        assert set(routes) == {
            "other",
            "GET /v1/healthz",
            "POST /v1/sessions",
            "POST /v1/sessions/{id}/recommend",
        }
        assert routes["other"]["count"] == 40
        recommend = routes["POST /v1/sessions/{id}/recommend"]
        assert recommend["p99_ms"] >= recommend["p50_ms"] > 0.0

    def test_merge_route_payloads_unions_worker_samples(self):
        a, b = RouteLatencyRegistry(), RouteLatencyRegistry()
        for _ in range(3):
            a.record("POST /v1/sessions", 0.002)
        for _ in range(2):
            b.record("POST /v1/sessions", 0.2)
        b.record("GET /v1/stats", 0.001)
        merged = merge_route_payloads([a.as_dict(), b.as_dict()])
        assert merged["POST /v1/sessions"]["count"] == 5
        assert merged["GET /v1/stats"]["count"] == 1
        # The merged p99 reflects worker b's slow samples, not a's average.
        assert merged["POST /v1/sessions"]["p99_ms"] >= 100.0
