"""Contract tests for the typed ``/v1`` wire shapes (`repro.service.api`).

These are pure-Python tests of the route table, the error envelope, and
the request/response dataclasses — no server involved.
The live end-to-end behaviour is covered by ``test_service.py`` and
``test_frontend.py``; this file pins the shapes themselves, which are
stable API.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.exceptions import ServiceError
from repro.service.api import (
    API_PREFIX,
    API_VERSION,
    AppendRequest,
    CreateSessionRequest,
    DatasetInfo,
    ErrorCode,
    ErrorInfo,
    RecommendRequest,
    RecommendResponse,
    RegisterDatasetRequest,
    SessionInfo,
    ROUTES,
    error_envelope,
    match_route,
    raise_for_error,
)


def _route(label):
    return next(route for route in ROUTES if route.label == label)


class TestRouteTable:
    def test_rows_match_with_their_id(self):
        recommend = _route("POST /v1/sessions/{id}/recommend")
        assert match_route("POST", "/v1/sessions/abc/recommend") == (recommend, "abc")
        assert recommend.path("abc") == "/v1/sessions/abc/recommend"
        assert match_route("GET", f"{API_PREFIX}/healthz") == (_route("GET /v1/healthz"), None)

    def test_query_strings_and_empty_segments_drop(self):
        assert match_route("GET", "/v1//stats?verbose=1") == (_route("GET /v1/stats"), None)

    def test_unprefixed_paths_match_nothing(self):
        assert match_route("GET", "/healthz") == (None, None)
        assert match_route("GET", "/") == (None, None)

    def test_version_segment_only_counts_as_prefix(self):
        # "/sessions/v1": the version string as a later segment is no prefix.
        assert match_route("GET", f"/sessions/{API_VERSION}") == (None, None)
        assert match_route("POST", f"/sessions/{API_VERSION}") == (None, None)

    def test_unlisted_methods_match_nothing(self):
        assert match_route("DELETE", "/v1/sessions/abc") == (None, None)
        assert match_route("GET", "/v1/sessions/abc/recommend") == (None, None)

    def test_every_row_is_sent_by_a_typed_client_method(self):
        """Each ``ROUTES`` row has a typed :class:`ServiceClient` method that
        sends that row's method and path, ``{id}`` filled in."""
        from repro.service.client import ServiceClient

        class Sent(Exception):
            pass

        class Recording(ServiceClient):
            def _once(self, method, path, payload):
                raise Sent(method, path)

        sends = {
            "healthz": lambda client: client.healthz(),
            "stats": lambda client: client.route_stats(),
            "describe_datasets": lambda client: client.datasets(),
            "register_dataset": lambda client: client.register_dataset("/data/x"),
            "append_dataset": lambda client: client.append("x", AppendRequest(csv="a\n1\n")),
            "refresh_dataset": lambda client: client.refresh_dataset("x"),
            "create_session": lambda client: client.create_session(),
            "describe_session": lambda client: client.describe_session("x"),
            "recommend": lambda client: client.recommend("x"),
        }
        assert set(sends) == {route.name for route in ROUTES}
        client = Recording("127.0.0.1", 1)
        for route in ROUTES:
            with pytest.raises(Sent) as sent:
                sends[route.name](client)
            assert sent.value.args == (route.method, route.path("x")), route.label

    def test_docs_headings_match_the_route_table(self):
        text = (Path(__file__).parents[2] / "docs" / "api.md").read_text()
        documented = {
            f"{method} {path.replace('<id>', '{id}')}"
            for method, path in re.findall(r"^### `([A-Z]+) (/v1/[^`]*)`", text, re.M)
        }
        assert documented == {route.label for route in ROUTES}


class TestErrorEnvelope:
    def test_shape_is_stable(self):
        payload = error_envelope(ErrorCode.UNKNOWN_DATASET, "no such dataset")
        assert payload == {
            "error": {
                "code": "unknown_dataset",
                "message": "no such dataset",
                "detail": {},
            }
        }

    def test_detail_is_copied_in(self):
        payload = error_envelope(
            ErrorCode.INVALID_REQUEST, "bad k", {"k": -1}
        )
        assert payload["error"]["detail"] == {"k": -1}

    def test_catalogue_is_complete_and_distinct(self):
        assert len(set(ErrorCode.ALL)) == len(ErrorCode.ALL) == 12
        assert ErrorCode.INTERNAL in ErrorCode.ALL
        for code in ErrorCode.ALL:
            assert code == code.lower()

    def test_retryable_codes_are_catalogued(self):
        assert ErrorCode.RETRYABLE <= set(ErrorCode.ALL)
        # The retryable set is wire contract: the server only answers
        # these before executing anything, so clients repeat freely.
        assert ErrorCode.RETRYABLE == {
            ErrorCode.SHUTTING_DOWN,
            ErrorCode.NO_WORKER,
            ErrorCode.DEGRADED,
            ErrorCode.RETRY_LATER,
        }

    def test_error_info_parses_the_envelope(self):
        info = ErrorInfo.from_payload(
            error_envelope(ErrorCode.BAD_JSON, "not json", {"pos": 3})
        )
        assert info.code == ErrorCode.BAD_JSON
        assert info.message == "not json"
        assert info.detail == {"pos": 3}

    def test_error_info_tolerates_legacy_flat_strings(self):
        info = ErrorInfo.from_payload({"error": "something broke"})
        assert info.code == ErrorCode.INTERNAL
        assert info.message == "something broke"

    def test_raise_for_error_carries_the_code(self):
        raise_for_error(200, {})  # 2xx is a no-op
        with pytest.raises(ServiceError) as excinfo:
            raise_for_error(
                404, error_envelope(ErrorCode.UNKNOWN_SESSION, "gone")
            )
        assert excinfo.value.status == 404
        assert excinfo.value.code == ErrorCode.UNKNOWN_SESSION
        assert "gone" in str(excinfo.value)


class TestRequestShapes:
    def test_create_session_omits_unset_fields(self):
        assert CreateSessionRequest("bank").to_payload() == {"dataset": "bank"}
        full = CreateSessionRequest("bank", store="col", metric="kl")
        assert full.to_payload() == {
            "dataset": "bank",
            "store": "col",
            "metric": "kl",
        }

    def test_recommend_omits_none_fields(self):
        assert RecommendRequest().to_payload() == {
            "k": 5,
            "strategy": "sharing",
        }
        full = RecommendRequest(
            target=({"column": "sex", "value": "F"},),
            k=3,
            strategy="comb",
            pruner="ci",
            parallelism="real",
            dimensions=("sex",),
            measures=("capital_gain",),
        )
        payload = full.to_payload()
        assert payload["target"] == [{"column": "sex", "value": "F"}]
        assert payload["parallelism"] == "real"
        assert payload["dimensions"] == ["sex"]

    def test_register_dataset_payload(self):
        assert RegisterDatasetRequest("/data/toy").to_payload() == {
            "path": "/data/toy"
        }
        named = RegisterDatasetRequest("/data/toy", name="toy2")
        assert named.to_payload()["name"] == "toy2"


class TestResponseShapes:
    def test_session_info_roundtrip(self):
        info = SessionInfo.from_payload(
            {
                "session_id": "s1",
                "dataset": "census",
                "store": "col",
                "metric": "kl",
                "n_rows": 100,
                "dimensions": ["sex", "race"],
                "measures": ["capital_gain"],
            }
        )
        assert info.session_id == "s1"
        assert info.n_rows == 100
        assert info.dimensions == ("sex", "race")

    def test_recommend_response_roundtrip(self):
        response = RecommendResponse.from_payload(
            {
                "session_id": "s1",
                "step": 2,
                "dataset": "census",
                "k": 1,
                "strategy": "sharing",
                "target": [{"column": "sex", "value": "F"}],
                "views": [
                    {
                        "rank": 1,
                        "dimension": "race",
                        "measure": "capital_gain",
                        "func": "avg",
                        "utility": 0.25,
                        "top_group": "Other",
                    }
                ],
                "stats": {"queries_issued": 7, "cache_hits": 3},
            }
        )
        assert response.step == 2
        view = response.views[0]
        assert view.key == ("race", "capital_gain", "avg")
        assert view.utility == 0.25
        assert response.stats.queries_issued == 7
        assert response.stats.cache_hits == 3
        # Absent stats fields default rather than KeyError.
        assert response.stats.wall_seconds == 0.0

    def test_recommend_response_tolerates_minimal_payload(self):
        response = RecommendResponse.from_payload(
            {
                "session_id": "s1",
                "step": 1,
                "dataset": "census",
                "k": 5,
                "strategy": "sharing",
            }
        )
        assert response.views == ()
        assert response.target == ()
        assert response.stats.queries_issued == 0

    def test_dataset_info_keeps_extra_keys_in_raw(self):
        info = DatasetInfo.from_payload(
            {
                "name": "toy",
                "loaded": True,
                "on_disk": True,
                "n_rows": 400,
                "chunk_rows": 64,
            }
        )
        assert info.name == "toy" and info.on_disk and info.n_rows == 400
        assert info.raw["chunk_rows"] == 64
        unsized = DatasetInfo.from_payload({"name": "census"})
        assert unsized.n_rows is None and not unsized.loaded
