"""Cross-request coalescing: gateway windows, single-flight, latency stats."""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import CoalesceConfig
from repro.exceptions import ReproError
from repro.service import (
    LatencyHistogram,
    RecommendationService,
    RouteLatencyRegistry,
    ServiceClient,
    merge_route_payloads,
    start_server,
)
from repro.service.frontend import _merge_coalesce_blocks


def _make_service(**kwargs):
    defaults = dict(datasets=("census",), scale="smoke", result_cache=False)
    defaults.update(kwargs)
    return RecommendationService(**defaults)


def _response_key(response):
    """A response stripped to the fields that must be bitwise identical."""
    return {
        "dataset": response["dataset"],
        "k": response["k"],
        "strategy": response["strategy"],
        "target": response["target"],
        "views": response["views"],
    }


def _concurrent_recommends(svc, payloads):
    """Fire one recommend per payload from its own thread; return responses.

    Every thread opens its own session (the honest model of concurrent
    analysts) and releases from a barrier so submissions race for real.
    """
    sessions = [
        svc.create_session({"dataset": payload.get("dataset", "census")})
        for payload in payloads
    ]
    barrier = threading.Barrier(len(payloads))
    responses: list[dict | None] = [None] * len(payloads)
    errors: list[BaseException] = []

    def worker(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            request = dict(payloads[index])
            request.pop("dataset", None)
            responses[index] = svc.recommend(
                sessions[index]["session_id"], request
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced via `errors`
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(len(payloads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors, errors[0]
    return responses


# --------------------------------------------------------------------------- #
# single-flight: the thundering herd
# --------------------------------------------------------------------------- #


class TestSingleFlight:
    def test_thundering_herd_executes_once(self):
        herd = 6
        # result_cache=False serves from held cells; True is the service
        # default, which keeps the combined rewrite and executes every miss.
        for result_cache in (False, True):
            svc = _make_service(
                result_cache=result_cache,
                coalesce=CoalesceConfig(
                    enabled=True, max_batch_size=herd, max_wait_ms=500.0
                ),
            )
            plain = _make_service(result_cache=result_cache)
            try:
                responses = _concurrent_recommends(svc, [{"k": 5}] * herd)

                # Exactly one engine execution, which scanned real rows, served
                # all M requests: 1/M of the queries, rows and bytes that M
                # separate executions charge.
                plain.recommend(
                    plain.create_session({"dataset": "census"})["session_id"],
                    {"k": 5},
                )
                solo = plain.stats()["executed"]
                assert svc.stats()["executed"] == solo
                assert set(solo) == {"queries_executed", "rows_scanned", "bytes_scanned"}
                assert all(value > 0 for value in solo.values())

                block = svc.stats()["coalesce"]
                assert block["requests"] == herd
                assert block["singleflight_hits"] == herd - 1

                # M bitwise-identical responses (identity fields aside).
                first = _response_key(responses[0])
                for response in responses[1:]:
                    assert _response_key(response) == first
                    assert response["stats"] == responses[0]["stats"]
            finally:
                svc.close()
                plain.close()

    def test_sequential_identical_requests_fly_separately(self):
        # Single-flight only merges *concurrent* requests: once a flight
        # resolves, the next identical request starts a fresh one.
        svc = _make_service(
            coalesce=CoalesceConfig(enabled=True, max_wait_ms=0.0)
        )
        try:
            session = svc.create_session({"dataset": "census"})
            first = svc.recommend(session["session_id"], {"k": 3})
            second = svc.recommend(session["session_id"], {"k": 3})
            block = svc.stats()["coalesce"]
            assert block["requests"] == 2
            assert block["singleflight_hits"] == 0
            assert block["batches"] == 2
            assert second["views"] == first["views"]
        finally:
            svc.close()


# --------------------------------------------------------------------------- #
# window edges
# --------------------------------------------------------------------------- #


class TestWindowEdges:
    def test_zero_wait_is_pass_through(self):
        svc = _make_service(
            coalesce=CoalesceConfig(
                enabled=True, max_wait_ms=0.0, singleflight=False
            )
        )
        plain = _make_service()
        try:
            session = svc.create_session({"dataset": "census"})
            baseline = plain.create_session({"dataset": "census"})
            for k in (3, 5, 4):
                mine = svc.recommend(session["session_id"], {"k": k})
                theirs = plain.recommend(baseline["session_id"], {"k": k})
                assert _response_key(mine) == _response_key(theirs)
            # What the engine would reject is refused on the handler thread:
            # it never joins a window, so it cannot fail its co-travellers.
            with pytest.raises(ReproError, match="unknown pruner"):
                svc.recommend(
                    session["session_id"], {"strategy": "comb", "pruner": "bogus"}
                )
            block = svc.stats()["coalesce"]
            assert block["requests"] == 3
            assert block["batches"] == 3
            assert block["requests_coalesced"] == 0
            assert block["window_occupancy_max"] == 1
        finally:
            svc.close()
            plain.close()

    @pytest.mark.parametrize("strategy", ["sharing", "comb"])
    def test_full_batch_flushes_before_deadline(self, strategy):
        # Distinct concurrent targets co-batch into one shared union —
        # whatever the strategy: phased requests share each phase's scan —
        # and the full window flushes immediately instead of waiting out a
        # deliberately absurd deadline.
        targets = [
            [{"column": "marital_status", "value": "Unmarried"}],
            [{"column": "marital_status", "value": "Married"}],
            [{"column": "sex", "value": "sex_0"}],
        ]
        svc = _make_service(
            coalesce=CoalesceConfig(
                enabled=True,
                max_batch_size=len(targets),
                max_wait_ms=60_000.0,
                singleflight=False,
            )
        )
        plain = _make_service()
        try:
            started = time.monotonic()
            responses = _concurrent_recommends(
                svc,
                [{"k": 4, "target": target, "strategy": strategy} for target in targets],
            )
            assert time.monotonic() - started < 30.0
            block = svc.stats()["coalesce"]
            assert block["batches"] == 1
            assert block["window_occupancy_max"] == len(targets)
            assert block["requests_coalesced"] == len(targets)
            assert block["unions"] == 1

            # Union-batched results are bitwise identical to solo runs.
            baseline = plain.create_session({"dataset": "census"})
            for target, response in zip(targets, responses):
                solo = plain.recommend(
                    baseline["session_id"],
                    {"k": 4, "target": target, "strategy": strategy},
                )
                assert _response_key(response) == _response_key(solo)
            # And the union executes no more than the same requests one at a
            # time (on held cells, where the solo runs share fills, no less).
            union, one_at_a_time = svc.stats()["executed"], plain.stats()["executed"]
            assert all(union[name] <= one_at_a_time[name] for name in one_at_a_time)
        finally:
            svc.close()
            plain.close()

    def test_mixed_datasets_never_co_batch(self):
        svc = _make_service(
            datasets=("census", "diab"),
            coalesce=CoalesceConfig(
                enabled=True, max_batch_size=2, max_wait_ms=1_000.0
            ),
        )
        try:
            # Warm both engines first so the concurrent phase races inside
            # the gateway, not inside the dataset builders.
            for dataset in ("census", "diab"):
                session = svc.create_session({"dataset": dataset})
                svc.recommend(session["session_id"], {"k": 3})
            _concurrent_recommends(
                svc,
                [
                    {"dataset": "census", "k": 3},
                    {"dataset": "census", "k": 4},
                    {"dataset": "diab", "k": 3},
                    {"dataset": "diab", "k": 4},
                ],
            )
            block = svc.stats()["coalesce"]
            keys = block["keys"]
            assert len(keys) == 2
            for counters in keys.values():
                # 1 warmup + 2 concurrent per dataset; a cross-dataset batch
                # would push some key's max_batch past its own traffic.
                assert counters["requests"] == 3
                assert counters["max_batch"] <= 2
        finally:
            svc.close()

    def test_disabled_config_is_the_plain_path(self):
        svc = _make_service(coalesce=CoalesceConfig(enabled=False))
        plain = _make_service()
        try:
            assert svc.coalesce_config is None
            assert svc._gateway is None
            mine = svc.recommend(
                svc.create_session({"dataset": "census"})["session_id"],
                {"k": 5},
            )
            theirs = plain.recommend(
                plain.create_session({"dataset": "census"})["session_id"],
                {"k": 5},
            )
            assert "coalesced_queries" not in mine["stats"]
            timing = ("wall_seconds",)
            assert {
                k: v for k, v in mine["stats"].items() if k not in timing
            } == {k: v for k, v in theirs["stats"].items() if k not in timing}
            assert _response_key(mine) == _response_key(theirs)
            assert "coalesce" not in svc.stats()
        finally:
            svc.close()
            plain.close()


# --------------------------------------------------------------------------- #
# deterministic shutdown
# --------------------------------------------------------------------------- #


class TestClose:
    def test_close_joins_collectors_and_rejects_late_submissions(self):
        from repro.exceptions import ServiceError
        from repro.service.api import ErrorCode

        class SlowRelease:
            """The gateway's lock, with the gap after a submitter releases
            it held open long enough for ``close()`` to run inside it."""

            def __init__(self, lock):
                self.lock = lock
                self.released = threading.Event()

            def __enter__(self):
                return self.lock.__enter__()

            def __exit__(self, *exc_info):
                self.lock.__exit__(*exc_info)
                if threading.current_thread().name.startswith("racer"):
                    self.released.set()
                    time.sleep(0.05)

        racers = 6
        svc = _make_service(coalesce=CoalesceConfig(enabled=True))
        sessions = [svc.create_session({"dataset": "census"}) for _ in range(racers)]
        session = sessions[0]
        svc.recommend(session["session_id"], {"k": 3})
        assert any(
            t.name.startswith("seedb-coalesce")
            for t in threading.enumerate()
        )

        # N submitters race one close(): each gets its run or shutting_down,
        # none is stranded behind the stop sentinel.
        lock = svc._gateway._lock = SlowRelease(svc._gateway._lock)
        outcomes: list[object] = [None] * racers

        def racer(index: int) -> None:
            try:
                outcomes[index] = svc.recommend(
                    sessions[index]["session_id"], {"k": index + 1}
                )
            except ServiceError as exc:
                outcomes[index] = exc

        threads = [
            threading.Thread(target=racer, args=(i,), name=f"racer-{i}", daemon=True)
            for i in range(racers)
        ]
        for thread in threads:
            thread.start()
        # At least one submitter is past the closed check when close() runs.
        assert lock.released.wait(timeout=10)
        svc.close()
        for thread in threads:
            thread.join(timeout=10)
        assert not [t.name for t in threads if t.is_alive()]
        served = [o for o in outcomes if isinstance(o, dict)]
        rejected = [o for o in outcomes if isinstance(o, ServiceError)]
        assert served and len(served) + len(rejected) == racers
        assert all(o.code == ErrorCode.SHUTTING_DOWN for o in rejected)
        assert all(len(o["views"]) == o["k"] for o in served)

        alive = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("seedb-coalesce") and t.is_alive()
        ]
        assert not alive, alive
        with pytest.raises(ServiceError) as excinfo:
            svc.recommend(session["session_id"], {"k": 3})
        assert excinfo.value.status == 503
        svc.close()  # idempotent


# --------------------------------------------------------------------------- #
# latency histograms
# --------------------------------------------------------------------------- #


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
        svc = _make_service()
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


class TestMergeCoalesceBlocks:
    def test_merges_counters_and_occupancy(self):
        blocks = [
            {
                "enabled": True,
                "max_batch_size": 8,
                "max_wait_ms": 5.0,
                "singleflight": True,
                "requests": 6,
                "batches": 2,
                "unions": 1,
                "requests_coalesced": 4,
                "singleflight_hits": 2,
                "window_occupancy_mean": 2.0,
                "window_occupancy_max": 3,
                "keys": {"census|col|emd": {"batches": 2, "requests": 6, "max_batch": 3}},
            },
            {
                "enabled": True,
                "max_batch_size": 8,
                "max_wait_ms": 5.0,
                "singleflight": True,
                "requests": 2,
                "batches": 2,
                "unions": 0,
                "requests_coalesced": 0,
                "singleflight_hits": 0,
                "window_occupancy_mean": 1.0,
                "window_occupancy_max": 1,
                "keys": {"diab|col|emd": {"batches": 2, "requests": 2, "max_batch": 1}},
            },
        ]
        merged = _merge_coalesce_blocks(blocks)
        assert merged["requests"] == 8
        assert merged["batches"] == 4
        assert merged["singleflight_hits"] == 2
        assert merged["window_occupancy_max"] == 3
        assert merged["window_occupancy_mean"] == pytest.approx(1.5)
        assert set(merged["keys"]) == {"census|col|emd", "diab|col|emd"}


# --------------------------------------------------------------------------- #
# the HTTP surface
# --------------------------------------------------------------------------- #


class TestHTTPSurface:
    @pytest.fixture(scope="class")
    def coalesced_server(self):
        svc = _make_service(
            coalesce=CoalesceConfig(enabled=True, max_wait_ms=5.0)
        )
        server, _ = start_server(svc)
        yield server.server_address[:2]
        server.shutdown()
        server.server_close()
        svc.close()

    def test_stats_expose_routes_and_coalesce_blocks(self, coalesced_server):
        with ServiceClient(*coalesced_server) as client:
            session = client.create_session(dataset="census")
            client.recommend(session.session_id)

            block = client.coalesce_stats()
            assert block is not None
            assert block["enabled"] is True
            assert block["requests"] >= 1

            routes = client.route_stats()
            assert routes is not None
            assert routes["POST /v1/sessions"]["count"] >= 1
            recommend = routes["POST /v1/sessions/{id}/recommend"]
            assert recommend["count"] >= 1
            assert recommend["p99_ms"] >= recommend["p50_ms"] > 0.0

    def test_recommend_response_carries_coalesced_queries(
        self, coalesced_server
    ):
        with ServiceClient(*coalesced_server) as client:
            session = client.create_session(dataset="census")
            response = client.recommend(session.session_id)
            assert response.stats.coalesced_queries == 0  # solo window

    def test_plain_server_has_no_coalesce_block(self):
        svc = _make_service()
        server, _ = start_server(svc)
        try:
            with ServiceClient(*server.server_address[:2]) as client:
                session = client.create_session(dataset="census")
                client.recommend(session.session_id)
                assert client.coalesce_stats() is None
                assert client.route_stats() is not None
        finally:
            server.shutdown()
            server.server_close()
            svc.close()
