"""The recommendation service: core methods, HTTP API, drill-down sessions."""

from __future__ import annotations

import json
import http.client
import threading
import time
from typing import get_args

import pytest

from repro.core.engine import Parallelism
from repro.exceptions import ReproError, ServiceError
from repro.metrics import get_metric, list_metrics
from repro.service import (
    AnalystDrillDown,
    ErrorCode,
    RecommendationService,
    ServiceClient,
    SessionStore,
    clauses_from_payload,
    start_server,
)
from repro.service.api import API_PREFIX


@pytest.fixture(scope="module")
def service():
    svc = RecommendationService(datasets=("census",), scale="smoke")
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def http_service():
    svc = RecommendationService(datasets=("census",), scale="smoke")
    server, _ = start_server(svc)
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()
    svc.close()


def _call(address, method, path, payload=None):
    connection = http.client.HTTPConnection(*address)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        connection.request(
            method,
            API_PREFIX + path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


# --------------------------------------------------------------------------- #
# payload validation
# --------------------------------------------------------------------------- #


class TestClauses:
    def test_single_object_and_list_forms(self):
        single = clauses_from_payload({"column": "sex", "value": "F"})
        listed = clauses_from_payload([{"column": "sex", "value": "F"}])
        assert single == listed == (("sex", "F"),)

    @pytest.mark.parametrize(
        "bad",
        [
            "sex=F",
            [],
            [{"column": "sex"}],
            [{"value": "F"}],
            [{"column": 3, "value": "F"}],
            [{"column": "sex", "value": ["F"]}],
            [{"column": "sex", "value": None}],
        ],
    )
    def test_rejects_bad_shapes(self, bad):
        with pytest.raises(ServiceError):
            clauses_from_payload(bad)


# --------------------------------------------------------------------------- #
# the service core (no HTTP)
# --------------------------------------------------------------------------- #


class TestServiceCore:
    def test_create_session_and_recommend(self, service):
        session = service.create_session({"dataset": "census"})
        assert session["dataset"] == "census"
        assert session["dimensions"] and session["measures"]
        response = service.recommend(session["session_id"], {"k": 3})
        assert len(response["views"]) == 3
        top = response["views"][0]
        assert set(top) == {
            "rank", "dimension", "measure", "func", "utility", "top_group",
        }
        assert response["stats"]["queries_issued"] > 0 or response["stats"]["cache_hits"] > 0
        recorded = service.describe_session(session["session_id"])
        assert len(recorded["steps"]) == 1
        assert recorded["steps"][0]["k"] == 3

    def test_repeat_request_hits_cache(self, service):
        session = service.create_session({"dataset": "census"})
        payload = {"k": 4, "target": [{"column": "marital_status", "value": "Unmarried"}]}
        first = service.recommend(session["session_id"], payload)
        second = service.recommend(session["session_id"], payload)
        assert second["stats"]["cache_misses"] == 0
        assert second["stats"]["cache_hits"] > 0
        assert second["views"] == first["views"]

    def test_engines_are_shared_across_sessions(self, service):
        a = service.create_session({"dataset": "census"})
        engines, locks = len(service._engines), len(service._build_locks)
        b = service.create_session({"dataset": "census", "metric": "kl"})
        assert a["store"] == b["store"] == "col"  # the default store
        assert service._engines[("census", "col")] is service.engine("census", "col")
        assert a["session_id"] != b["session_id"]
        # Every metric shares the one engine.  A metric name is canonicalized
        # before a session records it, and a name no metric answers to is
        # refused without leaving a build lock behind.
        for spelling in ("EMD", "Emd"):
            session = service.create_session({"dataset": "census", "metric": spelling})
            assert session["metric"] == "emd"
            assert service.describe_session(session["session_id"])["metric"] == "emd"
        for unknown in ("nope", "nope2", "nope3"):
            with pytest.raises(ReproError, match="unknown metric"):
                service.create_session({"dataset": "census", "metric": unknown})
        assert (len(service._engines), len(service._build_locks)) == (engines, locks)

    def test_unknown_dataset_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.create_session({"dataset": "nope"})
        assert excinfo.value.status == 404

    def test_unknown_session_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.recommend("missing", {})
        assert excinfo.value.status == 404

    def test_bad_column_k_and_strategy_are_400(self, service):
        session = service.create_session({"dataset": "census"})
        sid = session["session_id"]
        for payload in (
            {"target": [{"column": "bogus", "value": 1}]},
            {"k": 0},
            {"k": "five"},
            {"k": True},
            {"strategy": "magic"},
            {"parallelism": "imaginary"},
            {"parallelism": "process"},
            {"dimensions": 5},
            {"dimensions": "sex"},
            {"measures": {"age": 1}},
            {"measures": ["age", 7]},
        ):
            with pytest.raises(ServiceError) as excinfo:
                service.recommend(sid, payload)
            assert excinfo.value.status == 400

    @pytest.fixture()
    def uncached_service(self):
        svc = RecommendationService(
            datasets=("census",), scale="smoke", result_cache=False
        )
        yield svc
        svc.close()

    @pytest.mark.parametrize("parallelism", get_args(Parallelism))
    def test_every_accepted_parallelism_serves_the_default_views(
        self, uncached_service, parallelism
    ):
        """Each accepted mode executes and ranks as the default request does.

        The chosen mode goes first, on a fresh service, so it runs the
        queries; the default repeat is then served from the held state.
        """
        session = uncached_service.create_session({"dataset": "census"})
        sid = session["session_id"]
        payload = {"k": 3, "target": [{"column": "sex", "value": "F"}]}
        chosen = uncached_service.recommend(sid, {**payload, "parallelism": parallelism})
        default = uncached_service.recommend(sid, payload)
        assert chosen["stats"]["queries_issued"] > 0
        assert chosen["views"] == default["views"]

    def test_stats_and_datasets(self, service):
        stats = service.stats()
        assert stats["result_cache_enabled"] is True
        assert stats["cache"]["hits"] >= 0
        datasets = service.describe_datasets()["datasets"]
        assert [d["name"] for d in datasets] == ["census"]
        assert datasets[0]["loaded"] is True
        assert "dimensions" in datasets[0]

    def test_cache_disabled_service(self):
        svc = RecommendationService(
            datasets=("census",), scale="smoke", result_cache=False
        )
        try:
            session = svc.create_session({"dataset": "census"})
            response = svc.recommend(session["session_id"], {"k": 2})
            assert response["stats"]["result_cache"] is False
            assert response["stats"]["cache_hits"] == 0
            assert svc.stats()["cache"] is None
        finally:
            svc.close()

    def test_serving_defaults_agree_across_the_rewrite(self, service):
        """The service picks the path per engine (``serving_config``): with the
        result cache off the reference side is engine-held state, with the
        default caches it is the combined rewrite — one answer, to the last
        bits the two accumulation orders share."""
        held_svc = RecommendationService(
            datasets=("census",), scale="smoke", result_cache=False
        )
        try:
            assert not held_svc.engine("census", "col").config.combine_target_reference
            assert service.engine("census", "col").config.combine_target_reference
            held, combined = (
                svc.recommend(svc.create_session({"dataset": "census"})["session_id"], {"k": 5})
                for svc in (held_svc, service)
            )
            # A first request fills every cell it reads; the repeat reads them all.
            assert held["stats"]["reference_views_reused"] == 0
            again = held_svc.recommend(
                held_svc.create_session({"dataset": "census"})["session_id"], {"k": 5}
            )
            assert again["stats"]["reference_views_reused"] > 0
            assert again["views"] == held["views"]
            names = [[view[f] for f in ("dimension", "measure", "func")] for view in held["views"]]
            assert names == [
                [view[f] for f in ("dimension", "measure", "func")] for view in combined["views"]
            ]
            for mine, theirs in zip(held["views"], combined["views"]):
                assert mine["utility"] == pytest.approx(theirs["utility"], rel=1e-9)
        finally:
            held_svc.close()


class TestOneEnginePerStore:
    """An engine is its table, store and config: a session on any metric runs
    on the engine an ``emd`` session warmed, reads what that one computed, and
    answers what an engine built for its metric alone answers."""

    @pytest.fixture(scope="class", params=[False, True], ids=["held", "rewrite"])
    def warmed(self, request):
        svc = RecommendationService(
            datasets=("census",), scale="smoke", result_cache=request.param
        )
        svc.recommend(svc.create_session({"dataset": "census"})["session_id"], {"k": 5})
        yield svc
        svc.close()

    @pytest.mark.parametrize("metric", list_metrics())
    def test_a_metric_session_equals_a_dedicated_engine(self, warmed, metric, monkeypatch):
        from repro import SeeDB
        from repro.data import registry

        builds, runs = [], []
        build_info, run_engine = registry.build_info, SeeDB.run_engine
        monkeypatch.setattr(
            registry, "build_info", lambda *a, **kw: builds.append(a) or build_info(*a, **kw)
        )
        monkeypatch.setattr(
            SeeDB, "run_engine", lambda *a, **kw: runs.append(run_engine(*a, **kw)) or runs[-1]
        )
        session = warmed.create_session({"dataset": "census", "metric": metric})
        response = warmed.recommend(session["session_id"], {"k": 5})
        assert (builds, list(warmed._engines)) == ([], [("census", "col")])
        # Held: the emd session filled every cell this one reads.  Rewrite:
        # every query it makes, the emd session made and cached.
        assert response["stats"]["queries_issued"] == 0

        seedb = warmed.engine("census", "col")
        table, spec = build_info("census", scale="smoke", seed=0)
        with SeeDB.over_table(table, store="col", config=seedb.config, metric=metric) as own:
            expected = run_engine(own, spec.target_predicate(), k=5, strategy="sharing",
                                  pruner="none")
        (served,) = runs
        assert served.selected == expected.selected
        assert [v["utility"] for v in response["views"]] == [
            expected.utilities[key] for key in expected.selected
        ]
        assert served.utilities.keys() == expected.utilities.keys()
        for key, utility in expected.utilities.items():
            assert served.utilities[key].hex() == utility.hex()
            mine, theirs = served.distributions[key], expected.distributions[key]
            assert mine.target.tobytes() == theirs.target.tobytes()
            assert mine.reference.tobytes() == theirs.reference.tobytes()
            # And it is this metric's score, not the one the engine was warmed by.
            assert utility == get_metric(metric)(mine.target, mine.reference)


# --------------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------------- #


class TestHTTP:
    def test_full_session_flow(self, http_service):
        status, session = _call(http_service, "POST", "/sessions", {"dataset": "census"})
        assert status == 201
        sid = session["session_id"]
        status, response = _call(
            http_service, "POST", f"/sessions/{sid}/recommend", {"k": 3}
        )
        assert status == 200
        assert len(response["views"]) == 3
        status, recorded = _call(http_service, "GET", f"/sessions/{sid}")
        assert status == 200 and len(recorded["steps"]) == 1
        status, datasets = _call(http_service, "GET", "/datasets")
        assert status == 200 and datasets["datasets"][0]["name"] == "census"
        status, stats = _call(http_service, "GET", "/stats")
        assert status == 200 and stats["sessions"] >= 1

    def test_typed_client_flow(self, http_service):
        from repro.service.api import ROUTES, RecommendRequest

        with ServiceClient(*http_service) as client:
            before = client.route_stats() or {}
            assert client.healthz()["status"] == "ok"
            session = client.create_session(dataset="census")
            assert session.dataset == "census" and session.n_rows > 0
            response = client.recommend(
                session.session_id, RecommendRequest(k=3)
            )
            assert len(response.views) == 3
            assert response.views[0].rank == 1
            assert response.views[0].key == (
                response.views[0].dimension,
                response.views[0].measure,
                response.views[0].func,
            )
            assert response.stats.wall_seconds >= 0
            recorded = client.describe_session(session.session_id)
            assert len(recorded["steps"]) == 1
            datasets = client.datasets()
            assert datasets[0].name == "census" and datasets[0].loaded
            after = client.route_stats()
        # Every endpoint the client called hit a row of the route table.
        grown = {
            label
            for label, hist in after.items()
            if hist["count"] > before.get(label, {}).get("count", 0)
        }
        assert grown and grown <= {route.label for route in ROUTES}

    def test_typed_client_raises_service_error(self, http_service):
        with ServiceClient(*http_service) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.create_session(dataset="nope")
            assert excinfo.value.status == 404
            assert excinfo.value.code == ErrorCode.UNKNOWN_DATASET

    def test_unprefixed_path_is_an_unknown_route(self, http_service):
        connection = http.client.HTTPConnection(*http_service)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 404
        assert body["error"]["code"] == ErrorCode.UNKNOWN_ROUTE
        assert response.headers.get("Deprecation") is None
        assert response.headers.get("Sunset") is None

    @pytest.mark.parametrize("method", ["DELETE", "PUT", "PATCH", "OPTIONS", "HEAD"])
    def test_error_statuses(self, http_service, method):
        status, body = _call(http_service, "GET", "/nope")
        assert status == 404 and body["error"]["code"] == ErrorCode.UNKNOWN_ROUTE
        status, body = _call(http_service, "GET", "/sessions/missing")
        assert status == 404 and body["error"]["code"] == ErrorCode.UNKNOWN_SESSION
        status, body = _call(http_service, "POST", "/sessions", {"dataset": "nope"})
        assert status == 404 and body["error"]["code"] == ErrorCode.UNKNOWN_DATASET
        status, sess = _call(http_service, "POST", "/sessions", {"dataset": "census"})
        sid = sess["session_id"]
        status, body = _call(
            http_service,
            "POST",
            f"/sessions/{sid}/recommend",
            {"target": [{"column": "bogus", "value": 1}]},
        )
        assert status == 400
        assert body["error"]["code"] == ErrorCode.INVALID_REQUEST
        assert "bogus" in body["error"]["message"]
        # A pruner name is checked even where the strategy would not use it.
        status, body = _call(
            http_service, "POST", f"/sessions/{sid}/recommend",
            {"strategy": "sharing", "pruner": "bogus"},
        )
        assert status == 400 and "unknown pruner" in body["error"]["message"]
        # A method no row lists: the 404 envelope (HEAD: its headers only),
        # counted as an error like every other answer.
        errors = _call(http_service, "GET", "/stats")[1]["errors"]
        connection = http.client.HTTPConnection(*http_service)
        try:
            connection.request(method, f"{API_PREFIX}/sessions/abc")
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        assert response.status == 404
        assert response.headers["Content-Type"] == "application/json"
        if method == "HEAD":
            assert raw == b"" and int(response.headers["Content-Length"]) > 0
        else:
            assert json.loads(raw)["error"]["code"] == ErrorCode.UNKNOWN_ROUTE
        assert _call(http_service, "GET", "/stats")[1]["errors"] == errors + 1

    def test_keepalive_survives_unrouted_post_with_body(self, http_service):
        """The body of an unmatched POST must be drained before responding.

        On a keep-alive connection, leftover body bytes would otherwise be
        parsed as the next request line, desyncing every later exchange.
        """
        connection = http.client.HTTPConnection(*http_service)
        try:
            body = json.dumps({"padding": "x" * 256}).encode()
            connection.request(
                "POST", f"{API_PREFIX}/nope", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # Same connection: the next request must parse cleanly.
            connection.request("GET", f"{API_PREFIX}/datasets")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["datasets"]
        finally:
            connection.close()

    def test_concurrent_steps_get_distinct_indices(self, http_service):
        """Racing recommends on one session never duplicate step indices."""
        status, session = _call(
            http_service, "POST", "/sessions", {"dataset": "census"}
        )
        sid = session["session_id"]
        errors: list = []

        def step_worker() -> None:
            try:
                status, _ = _call(
                    http_service, "POST", f"/sessions/{sid}/recommend", {"k": 2}
                )
                assert status == 200
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=step_worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        _, recorded = _call(http_service, "GET", f"/sessions/{sid}")
        indices = [step["index"] for step in recorded["steps"]]
        assert sorted(indices) == [0, 1, 2, 3]

    @pytest.mark.parametrize("bad_length", ["abc", "-1"])
    def test_bad_content_length_is_400_not_a_crash(self, http_service, bad_length):
        """Malformed/negative Content-Length must answer 400, not kill the
        handler thread (or block forever on read(-1))."""
        connection = http.client.HTTPConnection(*http_service)
        try:
            connection.putrequest("POST", f"{API_PREFIX}/sessions")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", bad_length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            error = json.loads(response.read())["error"]
            assert error["code"] == ErrorCode.INVALID_LENGTH
            assert "Content-Length" in error["message"]
        finally:
            connection.close()

    def test_malformed_json_is_400(self, http_service):
        connection = http.client.HTTPConnection(*http_service)
        try:
            connection.request(
                "POST",
                f"{API_PREFIX}/sessions",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            error = json.loads(response.read())["error"]
            assert error["code"] == ErrorCode.BAD_JSON
            assert "JSON" in error["message"]
        finally:
            connection.close()

    def test_concurrent_sessions_identical_views(self, http_service):
        payload = {
            "k": 3,
            "target": [{"column": "marital_status", "value": "Unmarried"}],
        }
        outcomes: list = [None] * 5
        errors: list = []

        def session_worker(index: int) -> None:
            try:
                status, session = _call(
                    http_service, "POST", "/sessions", {"dataset": "census"}
                )
                assert status == 201
                status, response = _call(
                    http_service,
                    "POST",
                    f"/sessions/{session['session_id']}/recommend",
                    payload,
                )
                assert status == 200
                outcomes[index] = response["views"]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=session_worker, args=(i,)) for i in range(5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(views == outcomes[0] for views in outcomes)


# --------------------------------------------------------------------------- #
# the drill-down analyst
# --------------------------------------------------------------------------- #


class TestAnalystDrillDown:
    def test_three_step_script_narrows_target(self, service):
        session = service.create_session({"dataset": "census"})
        analyst = AnalystDrillDown(
            [("marital_status", "Unmarried")], k=5, n_steps=3, seed=1
        )
        request = analyst.first_request()
        targets = []
        while request is not None:
            response = service.recommend(session["session_id"], request)
            targets.append([c["column"] for c in response["target"]])
            request = analyst.next_request(response)
        assert len(targets) == 3
        # Each step adds exactly one new clause on a fresh dimension.
        assert [len(t) for t in targets] == [1, 2, 3]
        assert len(set(targets[-1])) == 3

    def test_script_is_deterministic(self, service):
        def replay() -> list:
            session = service.create_session({"dataset": "census"})
            analyst = AnalystDrillDown(
                [("marital_status", "Unmarried")], k=5, n_steps=3, seed=7
            )
            request = analyst.first_request()
            seen = []
            while request is not None:
                response = service.recommend(session["session_id"], request)
                seen.append(json.dumps(response["views"], sort_keys=True))
                request = analyst.next_request(response)
            return seen

        assert replay() == replay()

    def test_a_target_with_no_rows_offers_no_drill_down(self, service):
        """Every view of an empty target has equal, uniform sides: no group
        deviates, so none is a drill-down handle, and a session ends there —
        on the default service and on a held one."""
        held = RecommendationService(datasets=("census",), scale="smoke", delta_cache=False)
        try:
            for svc in (service, held):
                session = svc.create_session({"dataset": "census"})
                analyst = AnalystDrillDown([("sex", "Nope")], k=5, n_steps=3, seed=1)
                response = svc.recommend(session["session_id"], analyst.first_request())
                assert len(response["views"]) == 5
                assert {view["utility"] for view in response["views"]} == {0.0}
                assert [view["top_group"] for view in response["views"]] == [None] * 5
                assert analyst.next_request(response) is None
            assert held.stats()["reference_state"]["census|col"]["bytes"] > 0
        finally:
            held.close()

    def test_first_request_only_once(self):
        analyst = AnalystDrillDown([("a", 1)])
        analyst.first_request()
        with pytest.raises(ServiceError):
            analyst.first_request()

    def test_session_store_unknown_id(self):
        store = SessionStore()
        with pytest.raises(ServiceError):
            store.get("nope")
        session = store.create("census", "col", "emd")
        assert store.get(session.session_id) is session
        assert len(store) == 1


# --------------------------------------------------------------------------- #
# service hardening: healthz, graceful shutdown, on-disk datasets
# --------------------------------------------------------------------------- #


def _toy_chunk_store(tmp_path, with_split=True):
    import numpy as np

    from repro.db.chunks import write_table
    from repro.db.table import Table
    from repro.db.types import ColumnRole

    rng = np.random.default_rng(0)
    n = 400
    table = Table(
        "toy",
        {
            "region": rng.choice(["n", "s", "e", "w"], n),
            "flavor": rng.choice(["a", "b", "c"], n),
            "sales": rng.gamma(2.0, 10.0, n),
            "segment": rng.choice(["t", "r"], n),
        },
        roles={
            "region": ColumnRole.DIMENSION,
            "flavor": ColumnRole.DIMENSION,
            "sales": ColumnRole.MEASURE,
            "segment": ColumnRole.OTHER,
        },
    )
    write_table(
        table,
        tmp_path / "toy",
        chunk_rows=64,
        split_column="segment" if with_split else None,
        target_value="t" if with_split else None,
        other_value="r" if with_split else None,
    )
    return tmp_path / "toy"


@pytest.fixture()
def clean_registry():
    """Drop any on-disk registrations a test leaves behind."""
    from repro.data import registry

    before = set(registry.on_disk_datasets())
    yield
    for name in set(registry.on_disk_datasets()) - before:
        registry.unregister_on_disk(name)


class TestHealthz:
    def test_http_healthz_is_cheap_and_alive(self, http_service):
        status, payload = _call(http_service, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_healthz_does_not_build_engines(self, clean_registry):
        svc = RecommendationService(datasets=("census",), scale="smoke")
        try:
            assert svc.healthz()["status"] == "ok"
            assert svc.stats()["engines_loaded"] == []  # nothing was built
        finally:
            svc.close()


class TestOnDiskDatasets:
    def test_data_dirs_register_and_serve(self, tmp_path, clean_registry):
        path = _toy_chunk_store(tmp_path)
        svc = RecommendationService(
            datasets=("census",), scale="smoke", data_dirs=(str(path),)
        )
        try:
            names = {d["name"]: d for d in svc.describe_datasets()["datasets"]}
            assert names["toy"]["on_disk"] and not names["census"]["on_disk"]
            assert names["toy"]["n_rows"] == 400
            session = svc.create_session({"dataset": "toy"})
            assert session["n_rows"] == 400
            assert set(session["dimensions"]) == {"region", "flavor"}
            response = svc.recommend(session["session_id"], {"k": 2})
            assert len(response["views"]) == 2
        finally:
            svc.close()

    def test_post_datasets_registers_at_runtime(self, tmp_path, clean_registry):
        path = _toy_chunk_store(tmp_path)
        svc = RecommendationService(datasets=("census",), scale="smoke")
        server, _ = start_server(svc)
        address = server.server_address[:2]
        try:
            status, payload = _call(
                address, "POST", "/datasets", {"path": str(path)}
            )
            assert status == 201 and payload["name"] == "toy"
            assert payload["on_disk"] and payload["chunk_rows"] == 64
            status, sess = _call(address, "POST", "/sessions", {"dataset": "toy"})
            assert status == 201
            status, rec = _call(
                address, "POST", f"/sessions/{sess['session_id']}/recommend", {"k": 1}
            )
            assert status == 200 and rec["views"]
        finally:
            server.graceful_shutdown(timeout=5)

    def test_post_datasets_validates(self, tmp_path, clean_registry):
        svc = RecommendationService(datasets=("census",), scale="smoke")
        try:
            with pytest.raises(ServiceError):
                svc.register_dataset({})
            # A missing-but-well-formed path is an invalid_path 400, not an
            # opaque 500 from the failed manifest read.
            with pytest.raises(ServiceError) as excinfo:
                svc.register_dataset({"path": str(tmp_path / "missing")})
            assert excinfo.value.status == 400
            assert excinfo.value.code == ErrorCode.INVALID_PATH
        finally:
            svc.close()

    @pytest.mark.parametrize(
        "bad", ["relative/toy", "../outside", "/tmp/../etc/passwd"]
    )
    def test_post_datasets_rejects_traversal_and_relative(
        self, bad, clean_registry
    ):
        svc = RecommendationService(datasets=("census",), scale="smoke")
        try:
            with pytest.raises(ServiceError) as excinfo:
                svc.register_dataset({"path": bad})
            assert excinfo.value.status == 400
            assert excinfo.value.code == ErrorCode.INVALID_PATH
        finally:
            svc.close()

    def test_post_datasets_confined_to_data_roots(self, tmp_path, clean_registry):
        inside = _toy_chunk_store(tmp_path)
        svc = RecommendationService(
            datasets=("census",), scale="smoke", data_dirs=(str(inside),)
        )
        server, _ = start_server(svc)
        address = server.server_address[:2]
        try:
            # Outside the configured roots: refused over HTTP with the
            # envelope, before any filesystem access.
            status, body = _call(
                address, "POST", "/datasets", {"path": "/etc/hostname"}
            )
            assert status == 400
            assert body["error"]["code"] == ErrorCode.INVALID_PATH
            assert "data roots" in body["error"]["message"]
            # Under a configured root's parent: accepted.
            status, payload = _call(
                address, "POST", "/datasets", {"path": str(inside)}
            )
            assert status == 201 and payload["name"] == "toy"
        finally:
            server.graceful_shutdown(timeout=5)

    def test_dataset_without_split_requires_explicit_target(
        self, tmp_path, clean_registry
    ):
        path = _toy_chunk_store(tmp_path, with_split=False)
        svc = RecommendationService(
            datasets=("census",), scale="smoke", data_dirs=(str(path),)
        )
        try:
            session = svc.create_session({"dataset": "toy"})
            with pytest.raises(ServiceError, match="no default target"):
                svc.recommend(session["session_id"], {"k": 1})
            response = svc.recommend(
                session["session_id"],
                {"k": 1, "target": [{"column": "segment", "value": "t"}]},
            )
            assert response["views"]
        finally:
            svc.close()


class TestGracefulShutdown:
    def _server(self):
        svc = RecommendationService(datasets=("census",), scale="smoke")
        server, _ = start_server(svc)
        return svc, server

    def test_drain_waits_for_inflight_then_closes(self):
        svc, server = self._server()
        address = server.server_address[:2]
        release = threading.Event()
        original_stats = svc.stats

        def slow_stats():
            release.wait(10)
            return original_stats()

        svc.stats = slow_stats
        inflight_result = {}

        def inflight_request():
            inflight_result["response"] = _call(address, "GET", "/stats")

        request_thread = threading.Thread(target=inflight_request)
        request_thread.start()
        for _ in range(200):  # wait until the request is registered in-flight
            if server._inflight:
                break
            time.sleep(0.005)
        drain_result = {}

        def drain():
            drain_result["drained"] = server.graceful_shutdown(timeout=10)

        drain_thread = threading.Thread(target=drain)
        drain_thread.start()
        time.sleep(0.2)
        # Still draining: the in-flight request holds the shutdown open.
        assert "drained" not in drain_result
        assert server.draining
        release.set()
        drain_thread.join(10)
        request_thread.join(10)
        assert drain_result["drained"] is True
        # The in-flight request completed with a full, valid response.
        assert inflight_result["response"][0] == 200
        # And the listening socket is gone.
        with pytest.raises(OSError):
            _call(address, "GET", "/healthz")

    def test_draining_rejects_new_requests_with_503(self):
        svc, server = self._server()
        # Flip the drain flag directly (the public path also stops the
        # accept loop, which would refuse the connection before routing).
        with server._inflight_cond:
            server._draining = True
        address = server.server_address[:2]
        status, payload = _call(address, "GET", "/healthz")
        assert status == 503
        assert payload["error"]["code"] == ErrorCode.SHUTTING_DOWN
        assert "shutting down" in payload["error"]["message"]
        with server._inflight_cond:
            server._draining = False
        assert _call(address, "GET", "/healthz")[0] == 200
        server.graceful_shutdown(timeout=5)

    def test_graceful_shutdown_is_idempotent(self):
        _, server = self._server()
        assert server.graceful_shutdown(timeout=5) is True
        assert server.graceful_shutdown(timeout=5) is True

    def test_sigterm_handler_drains(self):
        import os
        import signal

        from repro.service import install_sigterm_handler

        svc, server = self._server()
        address = server.server_address[:2]
        assert _call(address, "GET", "/healthz")[0] == 200
        previous = signal.getsignal(signal.SIGTERM)
        try:
            done = install_sigterm_handler(server, timeout=5)
            os.kill(os.getpid(), signal.SIGTERM)
            assert done.wait(10), "SIGTERM drain did not complete"
            with pytest.raises(OSError):
                _call(address, "GET", "/healthz")
        finally:
            signal.signal(signal.SIGTERM, previous)


# --------------------------------------------------------------------------- #
# accounting: responses conserve the executed work
# --------------------------------------------------------------------------- #


class TestConservation:
    #: Per session: a repeat, another target and strategy, a drill-down step.
    STEPS = [
        {"k": 3},
        {"k": 3},
        {"k": 4, "strategy": "comb",
         "target": [{"column": "marital_status", "value": "Unmarried"}]},
        {"k": 5, "target": [{"column": "marital_status", "value": "Married"},
                            {"column": "sex", "value": "sex_0"}]},
    ]

    @pytest.mark.parametrize("result_cache", [True, False], ids=["default", "no_cache"])
    def test_concurrent_sessions_sum_to_the_executed_counters(self, result_cache):
        """Four sessions race the same steps on one service, cold: every
        request is answered once and alike, and the responses'
        ``queries_issued`` and ``rows_scanned`` add up to the change in
        ``/v1/stats`` ``executed`` — whatever the result cache, the delta
        cache or the held cells served, nothing is lost or charged twice."""
        sessions = 4
        svc = RecommendationService(
            datasets=("census",), scale="smoke", result_cache=result_cache
        )
        server, _ = start_server(svc)
        address = server.server_address[:2]
        try:
            ids = [
                _call(address, "POST", "/sessions", {"dataset": "census"})[1]["session_id"]
                for _ in range(sessions)
            ]
            before = _call(address, "GET", "/stats")[1].get("executed", {})
            barrier = threading.Barrier(sessions)
            answers: list[list] = [[] for _ in range(sessions)]

            def analyst(index: int) -> None:
                barrier.wait(timeout=30)
                for step in self.STEPS:
                    answers[index].append(
                        _call(address, "POST", f"/sessions/{ids[index]}/recommend", step)
                    )

            threads = [
                threading.Thread(target=analyst, args=(i,)) for i in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            after = _call(address, "GET", "/stats")[1]["executed"]
            for session_id, mine in zip(ids, answers):
                assert [status for status, _ in mine] == [200] * len(self.STEPS)
                steps = _call(address, "GET", f"/sessions/{session_id}")[1]["steps"]
                assert [step["index"] for step in steps] == list(range(len(self.STEPS)))
        finally:
            server.graceful_shutdown(timeout=5)
        # Every session is answered the same, whoever paid for the scans.
        views = [[body["views"] for _, body in mine] for mine in answers]
        assert views == [views[0]] * sessions
        stats = [body["stats"] for mine in answers for _, body in mine]
        for name, field in (("queries_executed", "queries_issued"), ("rows_scanned", "rows_scanned")):
            assert after[name] - before.get(name, 0) == sum(s[field] for s in stats) > 0, name


# --------------------------------------------------------------------------- #
# the append path: delta-aware maintenance through the service
# --------------------------------------------------------------------------- #


def _toy_batch(n, segment="t"):
    """A small uniform append batch for the toy dataset."""
    return {
        "region": ["n"] * n,
        "flavor": ["a"] * n,
        "sales": [float(i) + 0.5 for i in range(n)],
        "segment": [segment] * n,
    }


class TestSessionDataDiff:
    def test_marker_advances_and_reports_growth(self):
        store = SessionStore()
        session = store.create("toy", "col", "emd", n_rows=100)
        assert session.data_diff(100) == {
            "n_rows": 100, "new_rows": 0, "changed": False,
        }
        assert session.data_diff(120) == {
            "n_rows": 120, "new_rows": 20, "changed": True,
        }
        # The marker advanced: the growth is only reported once.
        assert session.data_diff(120)["changed"] is False
        assert session.as_dict()["last_seen_rows"] == 120


class TestAppendDatasets:
    @pytest.fixture()
    def toy_service(self, tmp_path, clean_registry):
        path = _toy_chunk_store(tmp_path)
        svc = RecommendationService(
            datasets=("census",), scale="smoke", data_dirs=(str(path),)
        )
        yield svc
        svc.close()

    def test_row_and_col_sessions_share_one_table_and_one_append(
        self, toy_service, tmp_path, monkeypatch
    ):
        """A dataset is opened once: its ``row`` and ``col`` engines run over one
        ``Table``, one append refreshes it for both, and each store's next
        answer equals a freshly opened table's bit for bit."""
        from repro import SeeDB
        from repro.data import registry
        from repro.db.chunks import open_table
        from repro.db.expressions import eq

        builds = []
        build_info = registry.build_info
        monkeypatch.setattr(
            registry, "build_info", lambda *a, **kw: builds.append(a) or build_info(*a, **kw)
        )
        svc = toy_service
        sids = {
            store: svc.create_session({"dataset": "toy", "store": store})["session_id"]
            for store in ("col", "row")
        }
        for sid in sids.values():
            svc.recommend(sid, {"k": 2})
        assert len(builds) == 1
        assert svc.engine("toy", "row").table is svc.engine("toy", "col").table

        result = svc.append_dataset("toy", {"rows": _toy_batch(20)})
        assert result["engines_refreshed"] == 2 and len(builds) == 1
        for store, sid in sids.items():
            served = svc.recommend(sid, {"k": 2})
            assert served["data"] == {"n_rows": 420, "new_rows": 20, "changed": True}
            seedb = svc.engine("toy", store)
            assert seedb.store.layout.nrows == seedb.meta.n_rows == 420
            with SeeDB.over_table(
                open_table(tmp_path / "toy"), store=store, config=seedb.config
            ) as fresh:
                run = fresh.run_engine(eq("segment", "t"), k=2, strategy="sharing", pruner="none")
            views = [(v["dimension"], v["measure"], v["utility"].hex()) for v in served["views"]]
            assert views == [
                (key[0], key[1], float(run.utilities[key]).hex()) for key in run.selected
            ], store

    def test_append_refreshes_engines_without_cache_blowaway(self, toy_service):
        svc = toy_service
        session = svc.create_session({"dataset": "toy"})
        sid = session["session_id"]
        first = svc.recommend(sid, {"k": 2})
        assert first["data"] == {"n_rows": 400, "new_rows": 0, "changed": False}

        result = svc.append_dataset("toy", {"rows": _toy_batch(20)})
        assert result["n_rows"] == 420 and result["appended"] == 20
        assert result["engines_refreshed"] == 1 and result["on_disk"]

        second = svc.recommend(sid, {"k": 2})
        # The session diff reports exactly the appended growth, once.
        assert second["data"] == {"n_rows": 420, "new_rows": 20, "changed": True}
        # Delta maintenance: every query carry-merged its cached partial
        # state and scanned only the 20 appended rows — not the 400 base.
        stats = second["stats"]
        assert stats["delta_hits"] == stats["queries_issued"] > 0
        assert stats["rows_scanned"] == stats["queries_issued"] * 20

        # Warm hit-rate stays > 0 across the append: a repeat is pure cache.
        third = svc.recommend(sid, {"k": 2})
        assert third["stats"]["queries_issued"] == 0
        assert third["stats"]["cache_hits"] > 0
        assert third["views"] == second["views"]
        assert svc.stats()["delta_cache"]["hits"] > 0

    def test_append_with_unseen_categories_refreshes_the_catalog_plans_read(
        self, toy_service, tmp_path
    ):
        """One catalog entry, the engine's: after an append that adds categories
        bin packing budgets with today's distinct counts, the kept view spaces
        and plan skeletons went with the old entry, and a ``sharing`` run
        equals a freshly opened engine's bit for bit."""
        from repro import SeeDB
        from repro.db.catalog import TableMeta
        from repro.db.chunks import open_table
        from repro.db.expressions import eq

        svc = toy_service
        sid = svc.create_session({"dataset": "toy", "store": "row"})["session_id"]
        svc.recommend(sid, {"k": 2})
        seedb = svc.engine("toy", "row")
        stale, space = seedb.meta, seedb.view_space()

        # 4 x 3 groups become 164 x 100: past the row store's 10^4 budget, so a
        # packer still reading the old counts would keep one two-attribute query.
        rows = [
            {"region": f"r{i:03d}", "flavor": f"f{i % 97:02d}", "sales": 5.0 + i, "segment": "t"}
            for i in range(160)
        ]
        assert svc.append_dataset("toy", {"rows": rows})["columns_rewritten"] == 2
        assert seedb.engine.meta.distinct_counts == TableMeta.of(seedb.table).distinct_counts
        assert seedb.engine.meta.distinct_counts == {"region": 164, "flavor": 100}
        assert seedb.engine.meta is seedb.meta is not stale
        assert seedb.view_space() is not space and seedb.view_space() is seedb.view_space()
        assert len(seedb.engine._planning[1]) == 0

        served = svc.recommend(sid, {"k": 2})
        with SeeDB.over_table(
            open_table(tmp_path / "toy"), store="row", config=seedb.config
        ) as fresh:
            run = fresh.run_engine(eq("segment", "t"), k=2, strategy="sharing", pruner="none")
        assert run.stats.queries_issued == served["stats"]["queries_issued"] == 2
        assert [(v["dimension"], v["measure"], v["utility"].hex()) for v in served["views"]] == [
            (key[0], key[1], float(run.utilities[key]).hex()) for key in run.selected
        ]

    def test_an_append_keeps_what_was_planned_until_a_category_is_new(
        self, toy_service, tmp_path
    ):
        """The service default (the §4.1 rewrite under a delta cache) over a chunk
        store: an append of known categories keeps the engine's plan skeletons
        and view spaces, and its refresh scans only the appended rows; an append
        bringing an unseen category drops them, and the next answer equals a
        freshly opened engine's bit for bit."""
        from repro import SeeDB
        from repro.db.chunks import open_table
        from repro.db.expressions import eq

        svc = toy_service
        sid = svc.create_session({"dataset": "toy"})["session_id"]
        svc.recommend(sid, {"k": 2})
        seedb = svc.engine("toy", "col")
        kept, space = seedb.engine._planning[1], seedb.view_space()
        assert len(kept) > 0

        svc.append_dataset("toy", {"rows": _toy_batch(20)})
        assert seedb.engine._planning[1] is kept and seedb.view_space() is space
        stats = svc.recommend(sid, {"k": 2})["stats"]
        assert stats["delta_hits"] == stats["queries_issued"] > 0
        assert stats["rows_scanned"] == stats["queries_issued"] * 20

        assert svc.append_dataset("toy", {"rows": {**_toy_batch(5), "flavor": ["z"] * 5}})[
            "columns_rewritten"
        ] == 1
        assert seedb.engine._planning[1] is not kept
        assert len(seedb.engine._planning[1]) == 0 and seedb.view_space() is not space
        served = svc.recommend(sid, {"k": 2})
        with SeeDB.over_table(
            open_table(tmp_path / "toy"), store="col", config=seedb.config
        ) as fresh:
            run = fresh.run_engine(eq("segment", "t"), k=2, strategy="sharing", pruner="none")
        assert [(v["dimension"], v["measure"], v["utility"].hex()) for v in served["views"]] == [
            (key[0], key[1], float(run.utilities[key]).hex()) for key in run.selected
        ]

    def test_a_refresh_with_nothing_to_scan_puts_nothing_back(self, toy_service, monkeypatch):
        """With the result cache cleared, a repeat restores every query's state,
        scans no row and puts no state back.  No result a refresh returns —
        after an append, or with nothing to scan — shares an array with the
        states the delta cache holds (it keeps a refreshed state uncopied)."""
        import numpy as np

        from repro.db.shared_scan import SharedScanExecutor

        results = []
        finish = SharedScanExecutor._finish

        def spy(self, *args):
            outcome = finish(self, *args)
            results.append(outcome[0])
            return outcome

        def assert_unshared(delta):
            held = [
                item
                for state in [entry.state for entry in list(delta._entries.values())]
                for value in state.values()
                for item in (
                    value.values() if isinstance(value, dict)
                    else value if isinstance(value, list) else [value]
                )
                if isinstance(item, np.ndarray)
            ]
            returned = [
                array
                for result in results
                for array in (*result.groups.values(), *result.values.values())
            ]
            assert held and returned
            assert not any(np.shares_memory(a, b) for a in returned for b in held)
            results.clear()

        svc = toy_service
        sid = svc.create_session({"dataset": "toy"})["session_id"]
        svc.recommend(sid, {"k": 2})
        delta = svc.engine("toy", "col").engine.delta_cache
        monkeypatch.setattr(SharedScanExecutor, "_finish", spy)
        svc.append_dataset("toy", {"rows": _toy_batch(20)})
        refreshed = svc.recommend(sid, {"k": 2})["stats"]
        assert refreshed["rows_scanned"] == refreshed["queries_issued"] * 20 > 0
        assert_unshared(delta)

        before = delta.counters()
        svc.cache.clear()
        repeat = svc.recommend(sid, {"k": 2})["stats"]
        assert repeat["delta_hits"] == repeat["queries_issued"] == refreshed["queries_issued"]
        assert repeat["rows_scanned"] == 0
        after = delta.counters()
        assert after["insertions"] == before["insertions"]
        assert after["bytes"] == before["bytes"] and after["hits"] > before["hits"]
        assert_unshared(delta)

    @staticmethod
    def _count_manifest_reads(monkeypatch) -> list[object]:
        """Every ``read_manifest`` call from now on, through each binding."""
        from repro.data import registry
        from repro.db import chunks
        from repro.service import server

        calls: list[object] = []
        read = chunks.read_manifest

        def counted(path):
            calls.append(path)
            return read(path)

        for module in (chunks, registry, server):
            monkeypatch.setattr(module, "read_manifest", counted)
        return calls

    @pytest.mark.parametrize("unseen", [False, True], ids=["known", "unseen"])
    def test_one_append_parses_one_manifest_and_keeps_unchanged_dictionaries(
        self, toy_service, tmp_path, monkeypatch, unseen
    ):
        """A JSON append of known categories parses ``manifest.json`` once,
        runs no ``np.unique`` and its refresh reads no category file; one that
        brings an unseen ``flavor`` re-reads only that dictionary.  Either way
        the refreshed table is a fresh open of the store, and the next answer
        a fresh engine's, bit for bit."""
        import numpy as np

        from repro import SeeDB
        from repro.db import chunks
        from repro.db.expressions import eq

        svc = toy_service
        sid = svc.create_session({"dataset": "toy"})["session_id"]
        svc.recommend(sid, {"k": 2})
        seedb = svc.engine("toy", "col")
        kept = {
            name: seedb.table.categories(name) for name in ("region", "flavor", "segment")
        }

        uniques: list[object] = []
        unique = np.unique

        def counted_unique(*args, **kwargs):
            uniques.append(args[0])
            return unique(*args, **kwargs)

        sidecars: list[str] = []
        read_categories = chunks._read_categories

        def counted_read(root, col, dtype):
            sidecars.append(col.name)
            return read_categories(root, col, dtype)

        batch = _toy_batch(20)
        if unseen:
            batch["flavor"] = ["a"] * 19 + ["d"]
        with monkeypatch.context() as patch:
            manifests = self._count_manifest_reads(patch)
            patch.setattr(np, "unique", counted_unique)
            patch.setattr(chunks, "_read_categories", counted_read)
            result = svc.append_dataset("toy", {"rows": batch})

        assert result["columns_rewritten"] == int(unseen)
        assert len(manifests) == 1
        assert sidecars == (["flavor"] if unseen else [])
        assert len(uniques) == (2 if unseen else 0)  # the union's, for ``flavor``
        for name, categories in kept.items():
            assert (seedb.table.categories(name) is categories) == (
                not unseen or name != "flavor"
            )

        fresh_table = chunks.open_table(tmp_path / "toy")
        table = seedb.table
        assert table.nrows == fresh_table.nrows == 420
        assert table.source_digest == fresh_table.source_digest == result["digest"]
        assert table.fingerprint() == fresh_table.fingerprint()
        for name in kept:
            got, want = table.categories(name), fresh_table.categories(name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

        served = svc.recommend(sid, {"k": 2})
        assert served["stats"]["rows_scanned"] == served["stats"]["queries_issued"] * 20
        with SeeDB.over_table(fresh_table, store="col", config=seedb.config) as fresh:
            run = fresh.run_engine(eq("segment", "t"), k=2, strategy="sharing", pruner="none")
        assert [(v["dimension"], v["measure"], v["utility"].hex()) for v in served["views"]] == [
            (key[0], key[1], float(run.utilities[key]).hex()) for key in run.selected
        ]

    def test_refresh_dataset_hands_one_manifest_to_registry_and_engines(
        self, toy_service, monkeypatch
    ):
        from repro.data import registry
        from repro.db.chunks import append_rows
        from repro.db.table import Table

        svc = toy_service
        svc.create_session({"dataset": "toy"})  # loads the engine
        append_rows(registry.spec("toy").path, _toy_batch(10))  # a sibling's append
        manifests = self._count_manifest_reads(monkeypatch)
        handed: list[object] = []
        refresh_on_disk, refresh_from_disk = registry.refresh_on_disk, Table.refresh_from_disk

        def spy_registry(name, *, manifest=None):
            handed.append(manifest)
            return refresh_on_disk(name, manifest=manifest)

        def spy_table(self, *, manifest=None):
            handed.append(manifest)
            return refresh_from_disk(self, manifest=manifest)

        monkeypatch.setattr(registry, "refresh_on_disk", spy_registry)
        monkeypatch.setattr(Table, "refresh_from_disk", spy_table)
        result = svc.refresh_dataset("toy")
        assert result["n_rows"] == 410 and result["engines_refreshed"] == 1
        assert len(manifests) == 1 and len(handed) == 2
        assert handed[0] is handed[1] and handed[0].n_rows == 410

    def test_append_row_objects_and_csv(self, toy_service):
        svc = toy_service
        rows = [
            {"region": "s", "flavor": "b", "sales": 7.5, "segment": "r"},
            {"region": "w", "flavor": "c", "sales": 8.5, "segment": "t"},
        ]
        assert svc.append_dataset("toy", {"rows": rows})["n_rows"] == 402
        csv_batch = "region,flavor,sales,segment\nn,a,9.25,t\ns,b,,r\n"
        result = svc.append_dataset("toy", {"csv": csv_batch})
        assert result["n_rows"] == 404 and result["appended"] == 2

    def test_csv_append_uses_strict_numeric_parsing(self, toy_service):
        bad = "region,flavor,sales,segment\nn,a,1_0,t\n"
        with pytest.raises(ServiceError, match="csv column 'sales'"):
            toy_service.append_dataset("toy", {"csv": bad})

    def test_append_validation_errors(self, toy_service):
        svc = toy_service
        with pytest.raises(ServiceError) as excinfo:
            svc.append_dataset("nope", {"rows": _toy_batch(1)})
        assert excinfo.value.status == 404
        # Built-in in-memory datasets have no chunk store to extend.
        with pytest.raises(ServiceError, match="on-disk"):
            svc.append_dataset("census", {"rows": {"age": [1]}})
        for bad in (
            {},
            {"rows": _toy_batch(1), "csv": "region\nx\n"},
            {"rows": {name: [] for name in _toy_batch(1)}},
            {"rows": {"region": ["n"], "flavor": ["a", "b"],
                      "sales": [1.0], "segment": ["t"]}},
            {"rows": [{"region": "n"}, {"flavor": "a"}]},
            {"csv": "   "},
            {"csv": "region,flavor,sales,segment\nn,a,1.0\n"},
        ):
            with pytest.raises(ServiceError):
                svc.append_dataset("toy", bad)
        # Schema mismatches are caught by the store and surfaced as 400s.
        with pytest.raises(ServiceError, match="append rejected"):
            svc.append_dataset("toy", {"rows": {"region": ["n"]}})

    @pytest.mark.parametrize("body", ["rows", "csv"])
    def test_a_batch_that_only_widens_a_dictionary_is_counted(self, toy_service, body):
        """``"n\\u0000"`` is ``"n"`` to numpy but two characters wide: it used to
        land as ``"n"`` and rewrite ``region``'s dictionary at ``<U2``.  A JSON
        cell and a CSV cell, the two ways a batch reaches that through the
        service, are now a 400 that changes nothing.  A batch that only widens
        a dictionary — known values in a wider numpy array, which only
        ``append_rows`` takes — still rewrites it, and the next service append
        counts nothing more."""
        import numpy as np

        from repro.data import registry
        from repro.db.chunks import append_rows, read_manifest

        path = registry.spec("toy").path
        before = read_manifest(path)
        batch = {**_toy_batch(2), "region": ["n\x00", "s"]}
        if body == "rows":
            payload = {"rows": batch}
        else:
            lines = [",".join(batch)] + [",".join(map(str, row)) for row in zip(*batch.values())]
            payload = {"csv": "\n".join(lines) + "\n"}
        with pytest.raises(ServiceError, match="ends in NUL") as excinfo:
            toy_service.append_dataset("toy", payload)
        assert excinfo.value.status == 400
        assert read_manifest(path) == before
        wide = {**_toy_batch(2), "region": np.array(["n", "s"], dtype="<U2")}
        after = append_rows(path, wide).column("region")
        assert after.n_categories == before.column("region").n_categories
        assert (before.column("region").dtype, after.dtype) == ("<U1", "<U2")
        assert toy_service.append_dataset("toy", {"rows": _toy_batch(1)})["columns_rewritten"] == 0

    def test_the_cache_keeps_no_superseded_table_version(self, toy_service):
        """An append changes the table's fingerprint: no new request keys the
        old entries again, and the refresh drops them from the cache."""
        svc = toy_service
        sid = svc.create_session({"dataset": "toy"})["session_id"]
        table = next(seedb.table for key, seedb in svc._engines.items() if key[0] == "toy")
        superseded = []
        for _ in range(3):
            svc.recommend(sid, {"k": 2})
            svc.recommend(sid, {"k": 2})
            superseded.append(table.fingerprint())
            svc.append_dataset("toy", {"rows": _toy_batch(10)})
        current = svc.recommend(sid, {"k": 2})
        keys = list(svc.cache._entries)
        assert len(keys) == current["stats"]["queries_issued"] > 0
        assert all(key.startswith(table.fingerprint() + "|") for key in keys)
        assert not any(key.startswith(old) for key in keys for old in superseded)

    def test_rejected_append_is_a_400_that_changes_nothing(self, toy_service, tmp_path):
        """``sales`` refuses its value after ``region`` would have been rewritten."""
        import numpy as np

        from repro.data import registry
        from repro.db.chunks import open_table, read_manifest, write_table
        from repro.db.table import Table

        svc = toy_service
        path = registry.spec("toy").path
        before = read_manifest(path)
        batch = {**_toy_batch(2), "region": ["Zed", "n"]}
        with pytest.raises(ServiceError, match="append rejected") as excinfo:
            svc.append_dataset("toy", {"rows": {**batch, "sales": ["oops", 5.0]}})
        assert excinfo.value.status == 400
        assert read_manifest(path) == before
        base = open_table(path)
        assert base.nrows == 400
        # The same batch with a valid measure lands, reports the one
        # dictionary it had to re-sort, and equals a bulk write.
        result = svc.append_dataset("toy", {"rows": batch})
        assert result["n_rows"] == 402 and result["columns_rewritten"] == 1
        assert svc.append_dataset("toy", {"rows": batch})["columns_rewritten"] == 0
        grown = Table(
            "toy",
            {
                col.name: np.concatenate(
                    [np.asarray(base.column(col.name)), batch[col.name], batch[col.name]]
                )
                for col in base.schema
            },
            roles={col.name: col.role for col in base.schema},
        )
        bulk = write_table(
            grown, tmp_path / "bulk", chunk_rows=64,
            split_column="segment", target_value="t", other_value="r",
        )
        assert read_manifest(path) == bulk

    def test_refresh_dataset_is_idempotent(self, toy_service):
        svc = toy_service
        svc.create_session({"dataset": "toy"})  # loads the engine
        result = svc.refresh_dataset("toy")
        assert result["n_rows"] == 400 and result["engines_refreshed"] == 0
        # Simulate a sibling worker's append landing in the shared store.
        from repro.data import registry
        from repro.db.chunks import append_rows

        append_rows(registry.spec("toy").path, _toy_batch(10))
        result = svc.refresh_dataset("toy")
        assert result["n_rows"] == 410 and result["engines_refreshed"] == 1
        with pytest.raises(ServiceError) as excinfo:
            svc.refresh_dataset("nope")
        assert excinfo.value.status == 404

    def test_http_append_and_typed_client(self, tmp_path, clean_registry):
        from repro.service.api import AppendRequest

        path = _toy_chunk_store(tmp_path)
        svc = RecommendationService(
            datasets=("census",), scale="smoke", data_dirs=(str(path),)
        )
        server, _ = start_server(svc)
        address = server.server_address[:2]
        try:
            status, body = _call(
                address, "POST", "/datasets/toy/append", {"rows": _toy_batch(5)}
            )
            assert status == 200 and body["n_rows"] == 405
            with ServiceClient(*address) as client:
                response = client.append(
                    "toy", AppendRequest(rows=_toy_batch(3))
                )
                assert response.dataset == "toy"
                assert response.n_rows == 408 and response.appended == 3
                assert response.digest and response.columns_rewritten == 0
                refreshed = client.refresh_dataset("toy")
                assert refreshed["n_rows"] == 408
            status, body = _call(
                address, "POST", "/datasets/nope/append", {"rows": _toy_batch(1)}
            )
            assert status == 404
            assert body["error"]["code"] == ErrorCode.UNKNOWN_DATASET
        finally:
            server.graceful_shutdown(timeout=5)

    def test_concurrent_appends_serialize_cleanly(self, toy_service):
        """Racing appenders all land; the store totals every batch."""
        svc = toy_service
        svc.create_session({"dataset": "toy"})
        errors = []

        def appender(i):
            try:
                svc.append_dataset("toy", {"rows": _toy_batch(2)})
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=appender, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors, errors[0]
        assert svc.describe_datasets()["datasets"][-1]["n_rows"] == 412
