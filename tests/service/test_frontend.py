"""Tests for the sharded multi-worker front-end (`repro.service.frontend`).

Covers the consistent-hash ring, session placement (built-ins by load,
on-disk stores by ring owner) + session affinity, the proxied ``/v1``
surface (typed client end to end), error envelopes originated by the
front-end itself, the shared file-backed L2 cache
surviving a full worker restart, dataset broadcast registration, and
graceful shutdown under concurrent load.

Worker processes are real (spawn context), so the module keeps one
shared 2-worker front-end alive for the routing tests and boots private
ones only where lifecycle is the thing under test.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.exceptions import ServiceError
from repro.service.api import ErrorCode, RecommendRequest
from repro.service.client import ServiceClient
from repro.service.frontend import HashRing, start_frontend


def _toy_chunk_store(tmp_path):
    """A 400-row on-disk chunk store named ``toy`` (mirrors test_service)."""
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
        split_column="segment",
        target_value="t",
        other_value="r",
    )
    return tmp_path / "toy"


@pytest.fixture(scope="module")
def frontend():
    """One shared 2-worker front-end over the smoke-scale datasets."""
    server, _ = start_frontend(
        n_workers=2, datasets=("census", "movies"), scale="smoke"
    )
    yield server
    server.graceful_shutdown(timeout=10)


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


class TestHashRing:
    def test_lookup_is_deterministic_and_in_range(self):
        ring = HashRing(4)
        again = HashRing(4)
        for key in ("census", "movies", "syn", "diab", "bank"):
            assert 0 <= ring.lookup(key) < 4
            assert ring.lookup(key) == again.lookup(key)

    def test_every_worker_owns_some_keys(self):
        ring = HashRing(4)
        owners = {ring.lookup(f"dataset-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_adding_a_worker_moves_a_minority_of_keys(self):
        keys = [f"dataset-{i}" for i in range(400)]
        before = HashRing(3)
        after = HashRing(4)
        moved = sum(
            1 for key in keys if before.lookup(key) != after.lookup(key)
        )
        # Consistent hashing: ~1/4 of keys move when going 3 -> 4 workers,
        # not "almost all" as naive modulo hashing would.
        assert moved / len(keys) < 0.5

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            HashRing(0)


class TestFrontendRouting:
    def test_healthz_reports_live_workers(self, frontend):
        with ServiceClient(*_address(frontend)) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert [w["index"] for w in health["workers"]] == [0, 1]
        assert all(w["alive"] and w["pid"] > 0 for w in health["workers"])

    def test_built_in_sessions_spread_by_load_and_stay_put(self, frontend):
        """Runs first among the session-creating tests: the fleet is idle."""
        n = 3
        with ServiceClient(*_address(frontend)) as client:
            rows = client.stats()["workers"]
            assert [(w["in_flight"], w["sessions_pinned"]) for w in rows] == [
                (0, 0),
                (0, 0),
            ]
            # Nothing to tell the slots apart: the ring's preference decides.
            first = client.create_session(dataset="census")
            owner = HashRing(2).lookup("census")
            assert frontend.worker_for_session(first.session_id).index == owner
            sessions = [first] + [
                client.create_session(dataset="census") for _ in range(2 * n - 1)
            ]
            homes = {
                s.session_id: frontend.worker_for_session(s.session_id)
                for s in sessions
            }
            assert Counter(w.index for w in homes.values()) == {0: n, 1: n}
            rows = client.stats()["workers"]
            assert [w["sessions_pinned"] for w in rows] == [n, n]
            # Affinity: a session id exists in one worker's store only, so
            # the step is recorded where the session was created or nowhere.
            for session_id in homes:
                client.recommend(session_id, RecommendRequest(k=1))
            for worker in frontend.workers:
                with ServiceClient("127.0.0.1", worker.port) as direct:
                    for session_id, home in homes.items():
                        if worker is home:
                            described = direct.describe_session(session_id)
                            assert len(described["steps"]) == 1
                        else:
                            with pytest.raises(ServiceError) as excinfo:
                                direct.describe_session(session_id)
                            assert excinfo.value.code == ErrorCode.UNKNOWN_SESSION

    def test_typed_flow_through_proxy(self, frontend):
        with ServiceClient(*_address(frontend)) as client:
            session = client.create_session(dataset="census")
            response = client.recommend(
                session.session_id, RecommendRequest(k=3)
            )
            assert response.session_id == session.session_id
            assert [view.rank for view in response.views] == [1, 2, 3]
            assert all(len(view.key) == 3 for view in response.views)
            described = client.describe_session(session.session_id)
            assert described["steps"]
            assert described["dataset"] == "census"

    def test_unknown_dataset_error_passes_through(self, frontend):
        with ServiceClient(*_address(frontend)) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.create_session(dataset="nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == ErrorCode.UNKNOWN_DATASET

    def test_unknown_session_rejected_at_the_frontend(self, frontend):
        with ServiceClient(*_address(frontend)) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.recommend("no-such-session")
        assert excinfo.value.status == 404
        assert excinfo.value.code == ErrorCode.UNKNOWN_SESSION

    @pytest.mark.parametrize(
        "method, path",
        [("GET", "/v1/nope")]
        + [(m, "/v1/sessions/abc") for m in ("DELETE", "PUT", "PATCH", "OPTIONS", "HEAD")],
    )
    def test_unknown_route_envelope(self, frontend, method, path):
        with ServiceClient(*_address(frontend)) as client:
            errors = client.stats()["errors"]
            status, headers, payload = _raw_request(_address(frontend), method, path)
            assert client.stats()["errors"] == errors + 1
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        if method == "HEAD":
            assert payload == {} and int(headers["Content-Length"]) > 0
        else:
            assert payload["error"]["code"] == ErrorCode.UNKNOWN_ROUTE

    def test_bad_json_is_the_workers_canonical_error(self, frontend):
        conn = http.client.HTTPConnection(*_address(frontend), timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/sessions",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert payload["error"]["code"] == ErrorCode.BAD_JSON

    def test_unprefixed_path_is_an_unknown_route(self, frontend):
        status, headers, payload = _raw_request(
            _address(frontend), "GET", "/healthz"
        )
        assert status == 404
        assert payload["error"]["code"] == ErrorCode.UNKNOWN_ROUTE
        assert "Deprecation" not in headers
        assert "Sunset" not in headers

    def test_aggregate_stats_merge_workers_and_cache_tiers(self, frontend):
        with ServiceClient(*_address(frontend)) as client:
            session = client.create_session(dataset="census")
            request = RecommendRequest(k=2)
            client.recommend(session.session_id, request)
            repeat = client.recommend(session.session_id, request)
            stats = client.stats()
        assert repeat.stats.cache_hits > 0  # second pass is served from L1
        assert stats["n_workers"] == 2
        assert stats["requests"] > 0
        assert [w["worker"] for w in stats["workers"]] == [0, 1]
        tiers = stats["cache_tiers"]
        assert tiers["l1_hits"] > 0
        assert set(tiers) == {"l1_hits", "l1_misses", "l2_hits", "l2_misses"}

    def test_post_datasets_broadcasts_to_every_worker(self, frontend, tmp_path):
        path = _toy_chunk_store(tmp_path)
        with ServiceClient(*_address(frontend)) as client:
            created = client.register_dataset(str(path))
            assert created["name"] == "toy" and created["on_disk"]
            # Every worker may own "toy" on the ring; whichever does must
            # be able to serve it immediately after the broadcast.
            session = client.create_session(dataset="toy")
            assert session.n_rows == 400
            response = client.recommend(session.session_id, RecommendRequest(k=1))
            assert response.views

    def test_append_routes_to_owner_and_refreshes_every_worker(
        self, frontend, tmp_path
    ):
        from repro.service.api import AppendRequest

        path = _toy_chunk_store(tmp_path)
        batch = {
            "region": ["n"] * 4 + ["up"],
            "flavor": ["a"] * 5,
            "sales": [1.5] * 5,
            "segment": ["t"] * 5,
        }
        with ServiceClient(*_address(frontend)) as client:
            created = client.register_dataset(str(path), name="toyapp")
            assert created["name"] == "toyapp"
            response = client.append("toyapp", AppendRequest(rows=batch))
            assert response.n_rows == 405 and response.appended == 5
            # The owner's body passes through: "up" re-sorted one dictionary.
            assert response.columns_rewritten == 1
            # The ring owner performed the append once against the shared
            # chunk store; the broadcast refresh re-synced the sibling, so
            # no worker serves a stale row count.
            assert response.raw["refreshed_workers"] == [0, 1]
            assert "stale_workers" not in response.raw
            session = client.create_session(dataset="toyapp")
            assert session.n_rows == 405
            refreshed = client.refresh_dataset("toyapp")
            assert refreshed["refreshed_workers"] == [0, 1]
            assert refreshed["n_rows"] == 405

    def test_on_disk_sessions_stay_on_the_ring_owner_and_see_appends(
        self, frontend, tmp_path
    ):
        """A chunk store has one writer and one delta cache: no load placement."""
        from repro.service.api import AppendRequest

        path = _toy_chunk_store(tmp_path)
        batch = {"region": ["n"], "flavor": ["a"], "sales": [1.5], "segment": ["t"]}
        with ServiceClient(*_address(frontend)) as client:
            client.register_dataset(str(path), name="toydisk")
            owner = frontend.worker_for_dataset("toydisk")
            assert owner.index == HashRing(2).lookup("toydisk")
            sessions = [client.create_session(dataset="toydisk") for _ in range(4)]
            for session in sessions:
                home = frontend.worker_for_session(session.session_id)
                assert home.index == owner.index
            client.append("toydisk", AppendRequest(rows=batch))
            client.refresh_dataset("toydisk")
            for session in sessions:
                raw = client.recommend_raw(session.session_id, {"k": 1})
                assert raw["data"] == {"n_rows": 401, "new_rows": 1, "changed": True}

    def test_worker_that_rejects_the_refresh_is_stale_not_refreshed(
        self, frontend, tmp_path
    ):
        from repro.service.api import AppendRequest

        # Registered on the ring owner alone (straight to its port, past the
        # front-end's broadcast): the sibling answers the refresh with 404.
        path = _toy_chunk_store(tmp_path)
        owner = frontend.worker_for_dataset("toysolo")
        status, _, _ = _raw_request(
            ("127.0.0.1", owner.port),
            "POST",
            "/v1/datasets",
            {"path": str(path), "name": "toysolo"},
        )
        assert status == 201
        batch = {"region": ["n"], "flavor": ["a"], "sales": [1.5], "segment": ["t"]}
        with ServiceClient(*_address(frontend)) as client:
            response = client.append("toysolo", AppendRequest(rows=batch))
        assert response.n_rows == 401
        assert response.raw["refreshed_workers"] == [owner.index]
        assert response.raw["stale_workers"] == [1 - owner.index]

    def test_invalid_dataset_path_rejected_through_proxy(self, frontend, tmp_path):
        with ServiceClient(*_address(frontend)) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.register_dataset(str(tmp_path / "missing"))
        assert excinfo.value.status == 400
        assert excinfo.value.code == ErrorCode.INVALID_PATH

    def test_respawned_slot_counts_from_zero_and_nothing_goes_negative(
        self, frontend
    ):
        """Runs last on the shared fleet: it kills one of its workers."""
        with ServiceClient(*_address(frontend), retries=5, backoff=0.1) as client:
            orphan = client.create_session(dataset="census")
            victim = frontend.worker_for_session(orphan.session_id)
            assert victim.sessions_pinned > 0
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while frontend.workers[victim.index] is victim or not frontend.slot_up(
                victim.index
            ):
                assert time.monotonic() < deadline, "the slot was not respawned"
                time.sleep(0.05)
            replacement = frontend.workers[victim.index]
            assert replacement.generation == victim.generation + 1
            row = client.stats()["workers"][victim.index]
            assert (row["in_flight"], row["sessions_pinned"]) == (0, 0)
            # The orphan moves: off the dead handle, onto a live one.
            before = victim.sessions_pinned
            assert client.recommend(
                orphan.session_id, RecommendRequest(k=1), idempotent=True
            ).views
            assert victim.sessions_pinned == before - 1
            home = frontend.worker_for_session(orphan.session_id)
            assert home is not victim and home.sessions_pinned >= 1
            stats = client.stats()
            assert stats["sessions_resurrected"] >= 1
            for handle in (victim, *frontend.workers):
                assert handle.in_flight == 0 and handle.sessions_pinned >= 0
            assert (
                sum(w["sessions_pinned"] for w in stats["workers"])
                <= stats["sessions"]
            )


class TestFrontendLifecycle:
    def test_l2_cache_survives_full_worker_restart(self, tmp_path):
        """View results paid for by one fleet are L2 hits for the next."""
        l2_dir = str(tmp_path / "l2")
        request = RecommendRequest(k=3)

        def one_run():
            server, _ = start_frontend(
                n_workers=1,
                datasets=("census",),
                scale="smoke",
                l2_cache_dir=l2_dir,
            )
            try:
                with ServiceClient(*_address(server)) as client:
                    session = client.create_session(dataset="census")
                    response = client.recommend(session.session_id, request)
                    stats = client.stats()
                return response, stats
            finally:
                server.graceful_shutdown(timeout=10)

        cold, cold_stats = one_run()
        warm, warm_stats = one_run()
        assert cold_stats["cache_tiers"]["l2_hits"] == 0
        assert warm_stats["cache_tiers"]["l2_hits"] > 0
        assert warm.stats.cache_hits > 0
        assert warm.stats.queries_issued < cold.stats.queries_issued
        # Identical recommendations either way: the L2 stores full results.
        assert [v.key for v in warm.views] == [v.key for v in cold.views]
        assert [v.utility for v in warm.views] == [v.utility for v in cold.views]

    def test_graceful_shutdown_under_concurrent_load(self):
        """Drain finishes in-flight proxied work; stragglers get 503s."""
        server, _ = start_frontend(
            n_workers=2, datasets=("census", "movies"), scale="smoke"
        )
        address = _address(server)
        # Warm both shards so the loaded phase measures serving, not builds.
        with ServiceClient(*address) as client:
            warm_sessions = {
                dataset: client.create_session(dataset=dataset).session_id
                for dataset in ("census", "movies")
            }
            for session_id in warm_sessions.values():
                client.recommend(session_id, RecommendRequest(k=2))

        outcomes: list[str] = []
        lock = threading.Lock()
        stop = threading.Event()

        def analyst(dataset: str) -> None:
            with ServiceClient(*address) as client:
                try:
                    session_id = client.create_session(dataset=dataset).session_id
                except (ServiceError, OSError, http.client.HTTPException):
                    with lock:
                        outcomes.append("rejected")
                    return
                while not stop.is_set():
                    try:
                        client.recommend(session_id, RecommendRequest(k=2))
                        result = "ok"
                    except ServiceError as exc:
                        assert exc.status == 503
                        assert exc.code in (
                            ErrorCode.SHUTTING_DOWN,
                            ErrorCode.NO_WORKER,
                        )
                        result = "rejected"
                    except (OSError, http.client.HTTPException):
                        result = "refused"  # listener already closed
                    with lock:
                        outcomes.append(result)
                    if result != "ok":
                        return

        threads = [
            threading.Thread(target=analyst, args=(dataset,))
            for dataset in ("census", "movies", "census", "movies")
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)  # let the load loop reach steady state
        assert server.graceful_shutdown(timeout=30) is True
        stop.set()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        with lock:
            seen = list(outcomes)
        # Concurrent work succeeded before the drain, and nothing escaped
        # the envelope contract: every failure was a 503 or a dead socket.
        assert seen.count("ok") > 0
        assert set(seen) <= {"ok", "rejected", "refused"}
        # The workers were SIGTERMed and joined; the listener is closed.
        assert all(not worker.alive for worker in server.workers)
        with pytest.raises(OSError):
            _raw_request(address, "GET", "/v1/healthz")


# --------------------------------------------------------------------------- #
# supervisor state machine (fakes: no real worker processes)
# --------------------------------------------------------------------------- #


class _FakeWorker:
    """Just the WorkerHandle surface the supervisor reads."""

    def __init__(self, index, alive=True, exitcode=None, generation=0, port=0):
        self.index = index
        self.alive = alive
        self.exitcode = exitcode
        self.generation = generation
        self.port = port
        self.in_flight = 0
        self.sessions_pinned = 0


class _FakeFrontend:
    """Records the supervisor's calls against a controllable worker list."""

    def __init__(self, workers):
        self.workers = workers
        self.draining = False
        self.service_kwargs = {"datasets": ("census",)}
        self.worker_drain_timeout = 1.0
        self.proxy_timeout = 1.0
        self.marked_down: list[int] = []
        self.adopted: list[object] = []
        self._registered: list[dict] = []

    def mark_worker_down(self, index):
        self.marked_down.append(index)

    def adopt_worker(self, handle):
        self.adopted.append(handle)

    def registered_datasets(self):
        return list(self._registered)


class TestWorkerSupervisorEdges:
    """The supervisor's state machine, driven tick by tick without processes."""

    def _supervisor(self, frontend, **kwargs):
        from repro.service.frontend import WorkerSupervisor

        kwargs.setdefault("poll_interval", 0.01)
        kwargs.setdefault("backoff_base", 0.1)
        return WorkerSupervisor(frontend, **kwargs)

    def test_death_schedules_backoff_then_respawn(self, monkeypatch):
        from repro.service import frontend as fe

        dead = _FakeWorker(0, alive=False, exitcode=-9)
        front = _FakeFrontend([dead])
        supervisor = self._supervisor(front)

        supervisor._sweep(now=100.0)
        assert front.marked_down == [0]
        slot = supervisor.status()[0]
        assert slot["state"] == "down"
        assert slot["last_exitcode"] == -9
        assert slot["due"] == pytest.approx(100.1)

        replacement = _FakeWorker(0, generation=1)
        monkeypatch.setattr(
            fe, "spawn_worker", lambda *a, **k: replacement
        )
        monkeypatch.setattr(
            fe.WorkerSupervisor, "_resync", lambda self, handle: None
        )
        supervisor._sweep(now=100.05)  # before the backoff deadline: no-op
        assert front.adopted == []
        supervisor._sweep(now=100.2)
        assert front.adopted == [replacement]
        assert supervisor.status()[0]["state"] == "up"
        assert supervisor.status()[0]["restarts"] == 1

    def test_restart_budget_exhaustion_fails_the_slot(self):
        dead = _FakeWorker(0, alive=False, exitcode=1)
        front = _FakeFrontend([dead])
        supervisor = self._supervisor(front, max_restarts=2)
        with supervisor._lock:
            supervisor._slots[0]["restarts"] = 2
        supervisor._sweep(now=50.0)
        assert supervisor.status()[0]["state"] == "failed"
        # A failed slot is never respawned, however many ticks pass.
        supervisor._sweep(now=1e9)
        assert front.adopted == []

    def test_spawn_failure_backs_off_again_then_gives_up(self, monkeypatch):
        from repro.service import frontend as fe

        dead = _FakeWorker(0, alive=False)
        front = _FakeFrontend([dead])
        supervisor = self._supervisor(front, max_restarts=1)

        def boom(*args, **kwargs):
            raise OSError("spawn failed")

        monkeypatch.setattr(fe, "spawn_worker", boom)
        supervisor._mark_dead(dead, now=10.0)
        supervisor._respawn(dead)  # restarts -> 1, spawn fails -> back off
        slot = supervisor.status()[0]
        assert slot["state"] == "down" and slot["restarts"] == 1
        supervisor._respawn(dead)  # restarts -> 2 > budget: slot fails
        assert supervisor.status()[0]["state"] == "failed"
        assert front.adopted == []

    def test_resync_failure_aborts_readmission(self, monkeypatch):
        from repro.service import frontend as fe

        dead = _FakeWorker(0, alive=False)
        front = _FakeFrontend([dead])
        supervisor = self._supervisor(front, max_restarts=3)
        monkeypatch.setattr(
            fe, "spawn_worker", lambda *a, **k: _FakeWorker(0, generation=1)
        )

        def unhealthy(port, method, path, payload, timeout):
            return {"status": "booting"}

        monkeypatch.setattr(fe, "_worker_http", unhealthy)
        supervisor._mark_dead(dead, now=10.0)
        supervisor._respawn(dead)
        # The liveness probe said not-ok, so the worker was never adopted
        # and the slot went back to waiting instead of serving traffic.
        assert front.adopted == []
        assert supervisor.status()[0]["state"] == "down"

    def test_resync_replays_registrations_and_refreshes(self, monkeypatch):
        from repro.service import frontend as fe

        front = _FakeFrontend([_FakeWorker(0)])
        front._registered = [{"path": "/data/ds", "name": "ds"}]
        supervisor = self._supervisor(front)
        calls = []

        def record(port, method, path, payload, timeout):
            calls.append((method, path))
            if path == "/v1/datasets":
                return {"name": "ds"}
            return {"status": "ok"}

        monkeypatch.setattr(fe, "_worker_http", record)
        supervisor._resync(_FakeWorker(0, generation=1, port=1234))
        assert calls == [
            ("POST", "/v1/datasets"),
            ("POST", "/v1/datasets/ds/refresh"),
            ("GET", "/v1/healthz"),
        ]

    def test_run_loop_skips_sweeps_while_draining_and_survives_errors(
        self, monkeypatch
    ):
        dead = _FakeWorker(0, alive=False)
        front = _FakeFrontend([dead])
        supervisor = self._supervisor(front, poll_interval=0.005)
        sweeps = []

        def flaky_sweep(now):
            sweeps.append(now)
            raise RuntimeError("transient")

        monkeypatch.setattr(supervisor, "_sweep", flaky_sweep)
        front.draining = True
        supervisor.start()
        try:
            time.sleep(0.05)
            assert sweeps == []  # draining: never swept
            front.draining = False
            deadline = time.monotonic() + 2.0
            while len(sweeps) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            # The loop kept ticking through sweep exceptions.
            assert len(sweeps) >= 3
        finally:
            supervisor.stop()
            supervisor.join(timeout=2.0)
        assert not supervisor.is_alive()


class TestFailoverAvoidsDyingWorkers:
    """The session-failover race fix: a worker that failed THIS request is
    never re-resolved, even while ``Process.is_alive`` still says True.
    """

    def _frontend(self, monkeypatch, workers):
        from repro.service.frontend import FrontendServer

        server = FrontendServer(("127.0.0.1", 0), workers)
        return server

    def test_resolve_session_skips_avoided_slots(self, monkeypatch):
        from repro.service import frontend as fe

        # Both workers report alive; worker 0 is actually mid-death.
        workers = [
            _FakeWorker(0, alive=True, port=1),
            _FakeWorker(1, alive=True, port=2),
        ]
        server = self._frontend(monkeypatch, workers)
        try:
            server.record_session("ext-1", workers[0], dataset="census")

            # Healthy path: without avoid, the pinned (dying but
            # alive-looking) worker is returned — the pre-fix behavior
            # that let every failover attempt land on the same corpse.
            worker, internal = server.resolve_session("ext-1")
            assert worker.index == 0 and internal == "ext-1"

            resurrected = []

            def fake_worker_http(port, method, path, payload, timeout):
                resurrected.append((port, path))
                return {"session_id": "int-99"}

            monkeypatch.setattr(fe, "_worker_http", fake_worker_http)
            worker, internal = server.resolve_session("ext-1", avoid={0})
            assert worker.index == 1
            assert internal == "int-99"
            assert resurrected == [(2, "/v1/sessions")]
            # The record moved: later calls go straight to the survivor.
            worker, internal = server.resolve_session("ext-1")
            assert worker.index == 1 and internal == "int-99"
        finally:
            server.server_close()

    def test_all_slots_avoided_is_retry_later(self, monkeypatch):
        workers = [_FakeWorker(0, alive=True, port=1)]
        server = self._frontend(monkeypatch, workers)
        try:
            server.record_session("ext-1", workers[0], dataset="census")
            with pytest.raises(ServiceError) as excinfo:
                server.resolve_session("ext-1", avoid={0})
            assert excinfo.value.status == 503
            assert excinfo.value.code == ErrorCode.RETRY_LATER
        finally:
            server.server_close()


class _StubWorkerHandler(BaseHTTPRequestHandler):
    """Answers session creation at once; holds ``recommend`` on an event."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler contract
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        if self.path == "/v1/sessions":
            status, payload = 201, {"session_id": os.urandom(8).hex()}
        else:
            self.server.entered.set()
            self.server.release.wait(30)
            status, payload = 200, {"views": []}
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def stub_fleet():
    """A front end over two in-process stub workers (no worker processes)."""
    from repro.service.frontend import FrontendServer

    stubs = []
    for _ in range(2):
        stub = ThreadingHTTPServer(("127.0.0.1", 0), _StubWorkerHandler)
        stub.daemon_threads = True
        stub.entered, stub.release = threading.Event(), threading.Event()
        threading.Thread(target=stub.serve_forever, args=(0.02,), daemon=True).start()
        stubs.append(stub)
    workers = [
        _FakeWorker(index, port=stub.server_address[1])
        for index, stub in enumerate(stubs)
    ]
    server = FrontendServer(("127.0.0.1", 0), workers)
    threading.Thread(target=server.serve_forever, args=(0.02,), daemon=True).start()
    yield server, stubs
    for stub in stubs:
        stub.release.set()
    for http_server in (server, *stubs):
        http_server.shutdown()
        http_server.server_close()


class TestPlacementUnderLoad:
    def test_new_session_avoids_the_slot_with_a_request_in_flight(
        self, stub_fleet
    ):
        server, stubs = stub_fleet
        address = _address(server)

        def home(session_id):
            return server.worker_for_session(session_id).index

        def create():
            _, _, body = _raw_request(
                address, "POST", "/v1/sessions", {"dataset": "census"}
            )
            return body["session_id"]

        owner = HashRing(2).lookup("census")
        other = 1 - owner
        a, b, c = create(), create(), create()
        assert [home(a), home(b), home(c)] == [owner, other, owner]
        # Pinned sessions alone would send the next one to ``other``.
        held = threading.Thread(
            target=_raw_request,
            args=(address, "POST", f"/v1/sessions/{b}/recommend", {"k": 1}),
        )
        held.start()
        try:
            assert stubs[other].entered.wait(10)
            assert server.workers[other].in_flight == 1
            assert home(create()) == owner
        finally:
            stubs[other].release.set()
            held.join(10)
        assert not held.is_alive()
        assert [w.in_flight for w in server.workers] == [0, 0]
        # Idle again, the pinned counts decide: 3 on ``owner``, 1 on ``other``.
        assert home(create()) == other


def test_session_maps_keep_the_most_recently_used(monkeypatch):
    """Both session maps are LRU-bounded by the one ``MAX_SESSIONS``."""
    from repro.service import frontend as fe
    from repro.service import sessions

    monkeypatch.setattr(sessions, "MAX_SESSIONS", 3)
    monkeypatch.setattr(fe, "MAX_SESSIONS", 3)

    store = sessions.SessionStore()
    ids = [store.create("census", "col", "emd").session_id for _ in range(3)]
    store.get(ids[0])  # touch: ids[1] is now the least recently used
    ids.append(store.create("census", "col", "emd").session_id)
    assert len(store) == 3
    with pytest.raises(ServiceError) as excinfo:
        store.get(ids[1])
    assert excinfo.value.code == ErrorCode.UNKNOWN_SESSION
    assert store.get(ids[0]).session_id == ids[0]

    workers = [_FakeWorker(0, port=1), _FakeWorker(1, port=2)]
    server = fe.FrontendServer(("127.0.0.1", 0), workers)
    try:
        for i in range(3):
            server.record_session(f"s{i}", workers[i % 2])
        server.resolve_session("s0")  # touch: s1 (on worker 1) is the LRU
        server.record_session("s3", workers[1])
        assert [w.sessions_pinned for w in workers] == [2, 1]
        with pytest.raises(ServiceError) as excinfo:
            server.resolve_session("s1")
        assert (excinfo.value.status, excinfo.value.code) == (
            404,
            ErrorCode.UNKNOWN_SESSION,
        )
        assert server.resolve_session("s0")[0] is workers[0]
    finally:
        server.server_close()
