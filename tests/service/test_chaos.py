"""Chaos tests: the serving tier under deterministic injected faults.

Every fault here comes from `repro.testing.faults` — seeded, counted,
and (for worker kills) budgeted through a cross-process ledger — so
these tests exercise real process death, connection drops, and slow
responses without any of the flakiness of ad-hoc ``kill``/``sleep``
chaos.  The contracts under test are the PR's acceptance criteria:

* a worker killed mid-request is failed over *within the same request*
  (the proxy resurrects the session on a surviving worker), the
  supervisor respawns the slot, and the fleet returns to ``healthz: ok``;
* a slot whose restart budget is exhausted leaves the front-end honestly
  ``degraded`` (503 + envelope + ``Retry-After``) while surviving
  workers keep serving;
* dropped connections and injected delays are absorbed by the client /
  proxy retry layers without surfacing errors.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.exceptions import ServiceError
from repro.service.api import ErrorCode, RecommendRequest
from repro.service.client import ServiceClient
from repro.service.frontend import HashRing, start_frontend
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    """No fault spec leaks into or out of any test in this module."""
    yield
    faults.uninstall()


def _address(server):
    return server.server_address[:2]


def _raw_request(address, method, path, payload=None):
    """One unmanaged HTTP exchange; returns (status, headers, body)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), (
            json.loads(raw) if raw else {}
        )
    finally:
        conn.close()


def _wait_until(predicate, timeout=60.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWorkerKillRecovery:
    def test_kill_mid_request_fails_over_then_respawns(
        self, monkeypatch, tmp_path
    ):
        """The headline chaos scenario, end to end.

        The ring owner of ``census`` is armed to die (``os._exit``) on
        its first recommend.  The very request that kills it must still
        be answered — the proxy notices the death, resurrects the
        session on the survivor, and forwards there.  The supervisor
        then respawns the slot (new generation, new pid), re-syncs it,
        and ``healthz`` returns to ``ok``.  A new session on the respawned
        worker reads the shared L2 tier, since its L1 died with the old
        pid.  The ledger proves the kill fired exactly once fleet-wide:
        the respawned worker inherits the same ``SEEDB_FAULTS`` but does
        not re-die.
        """
        victim = HashRing(2).lookup("census")
        monkeypatch.setenv(
            faults.ENV_SPEC,
            f"kill_worker:on=worker-{victim},route=recommend,times=1",
        )
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "ledger"))
        server, _ = start_frontend(
            n_workers=2,
            datasets=("census",),
            scale="smoke",
            supervise=True,
            restart_backoff=0.1,
            supervisor_poll=0.05,
        )
        try:
            address = _address(server)
            with ServiceClient(*address, retries=5, backoff=0.1) as client:
                session = client.create_session(dataset="census")
                assert (
                    server.worker_for_session(session.session_id).index
                    == victim
                )
                doomed_pid = server.workers[victim].pid

                # This request kills its own worker mid-flight — and is
                # still answered, by failover + session resurrection.
                response = client.recommend(
                    session.session_id, RecommendRequest(k=2), idempotent=True
                )
                assert response.views
                assert response.session_id == session.session_id

                stats = client.stats()
                assert stats["sessions_resurrected"] >= 1
                assert (
                    server.worker_for_session(session.session_id).index
                    != victim
                )

                # The supervisor respawns the slot on a fresh process.
                assert _wait_until(
                    lambda: server.slot_up(victim)
                    and server.workers[victim].generation == 1
                )
                assert server.workers[victim].pid != doomed_pid

                health = client.healthz()  # rides through any residue
                assert health["status"] == "ok"
                row = health["workers"][victim]
                assert row["generation"] == 1
                assert row["restarts"] == 1
                assert row["supervisor_state"] == "up"

                # The resurrected session keeps answering, same external id.
                followup = client.recommend(
                    session.session_id, RecommendRequest(k=2), idempotent=True
                )
                assert followup.session_id == session.session_id
                assert followup.views

                # The respawned worker starts with an empty L1; the shared
                # L2 tier carries what the fleet paid for before the kill.
                fresh = client.create_session(dataset="census")
                assert server.worker_for_session(fresh.session_id).index == victim
                warm = client.recommend(fresh.session_id, RecommendRequest(k=2))
                assert [v.key for v in warm.views] == [v.key for v in response.views]
                respawned = next(
                    row for row in client.stats()["workers"] if row["worker"] == victim
                )
                assert respawned["cache_tiers"]["l2_hits"] > 0

            ledger = (tmp_path / "ledger").read_text()
            assert ledger.count("kill_worker") == 1
        finally:
            server.graceful_shutdown(timeout=30)

    def test_restart_budget_exhaustion_reports_degraded_honestly(
        self, monkeypatch, tmp_path
    ):
        """``max_restarts=0``: the dead slot stays dead and healthz says so.

        The front-end must (a) answer the killing request anyway via
        failover, (b) turn ``healthz`` into a 503 ``degraded`` envelope
        with ``Retry-After``, (c) record the injected exit code, and
        (d) keep serving the dataset from the surviving worker.
        """
        victim = HashRing(2).lookup("census")
        monkeypatch.setenv(
            faults.ENV_SPEC,
            f"kill_worker:on=worker-{victim},route=recommend,times=1",
        )
        monkeypatch.setenv(faults.ENV_STATE, str(tmp_path / "ledger"))
        server, _ = start_frontend(
            n_workers=2,
            datasets=("census",),
            scale="smoke",
            supervise=True,
            max_restarts=0,
            supervisor_poll=0.05,
        )
        try:
            address = _address(server)
            with ServiceClient(*address) as client:
                session = client.create_session(dataset="census")
                # Answered despite the kill (no client retries involved).
                assert client.recommend(
                    session.session_id, RecommendRequest(k=2)
                ).views
            assert _wait_until(lambda: not server.slot_up(victim))
            assert _wait_until(
                lambda: server.supervisor.status()[victim]["state"] == "failed"
            )

            status, headers, payload = _raw_request(
                address, "GET", "/v1/healthz"
            )
            assert status == 503
            assert payload["status"] == "degraded"
            assert payload["error"]["code"] == ErrorCode.DEGRADED
            assert float(headers["Retry-After"]) > 0
            row = payload["workers"][victim]
            assert row["state"] == "down"
            assert row["supervisor_state"] == "failed"
            assert row["last_exitcode"] == faults.KILL_EXIT_CODE

            # A retrying client surfaces the degraded code with honest
            # accounting: every attempt was made, the hint was carried.
            with ServiceClient(*address, retries=2, backoff=0.01) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.healthz()
            assert excinfo.value.status == 503
            assert excinfo.value.code == ErrorCode.DEGRADED
            assert excinfo.value.attempts == 3
            assert excinfo.value.retry_after is not None

            # The surviving worker carries the dataset.
            with ServiceClient(*address) as client:
                session = client.create_session(dataset="census")
                assert (
                    server.worker_for_session(session.session_id).index
                    != victim
                )
                assert client.recommend(
                    session.session_id, RecommendRequest(k=2)
                ).views
        finally:
            server.graceful_shutdown(timeout=30)


class TestConnectionFaults:
    """Drop/delay faults against one in-process service (no fleet boot)."""

    @pytest.fixture(scope="class")
    def inproc(self):
        from repro.service.server import RecommendationService, start_server

        server, _ = start_server(
            RecommendationService(datasets=("census",), scale="smoke")
        )
        yield server
        server.graceful_shutdown(timeout=10)

    def test_dropped_connection_is_transparent_to_the_client(self, inproc):
        """The server closes without replying *before* executing; the
        client's stale-keepalive retry absorbs it without a visible
        error and without a duplicate session step."""
        with ServiceClient(*inproc.server_address[:2]) as client:
            session = client.create_session(dataset="census")
            faults.install("drop_connection:route=recommend,times=1")
            response = client.recommend(
                session.session_id, RecommendRequest(k=2)
            )
            assert response.views
            injector = faults.get_injector()
            assert injector is not None
            assert injector.hits("drop_connection") >= 1
            described = client.describe_session(session.session_id)
            assert len(described["steps"]) == 1

    def test_injected_delay_slows_exactly_one_response(self, inproc):
        with ServiceClient(*inproc.server_address[:2]) as client:
            session = client.create_session(dataset="census")
            request = RecommendRequest(k=1)
            client.recommend(session.session_id, request)  # warm caches
            faults.install("delay_response:arg=0.3,route=recommend,times=1")
            slow_started = time.monotonic()
            client.recommend(session.session_id, request)
            slow = time.monotonic() - slow_started
            fast_started = time.monotonic()
            client.recommend(session.session_id, request)
            fast = time.monotonic() - fast_started
        assert slow >= 0.3  # the sleep is a hard lower bound
        assert fast < slow
