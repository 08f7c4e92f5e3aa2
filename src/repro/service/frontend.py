"""Sharded multi-worker serving: N service processes behind one front-end.

A single :class:`~repro.service.server.SeeDBHTTPServer` is a threading
server in one interpreter — the GIL caps it near one core of aggregate
recommendation work.  :func:`start_frontend` spawns ``n_workers``
independent **processes**, each running a full
:class:`~repro.service.server.RecommendationService` behind its own HTTP
server on an ephemeral loopback port, and a :class:`FrontendServer` that
proxies the public ``/v1`` API to them.  Its handler is the worker's
:class:`~repro.service.server.RouteHandler` routed by the same table
(:data:`repro.service.api.ROUTES`); what this module adds per endpoint is
the row's proxy policy:

* **session placement** — what is *owned* and what is *replicated*.  An
  on-disk chunk store (``data_dirs``, ``POST /v1/datasets``) is owned by
  one worker, found by consistent hashing of the dataset id
  (:class:`HashRing`, virtual nodes): that worker writes its appends, holds
  its delta cache and gets every session on it.  A registry built-in is
  resident in every worker and never appended to, so a new session on one
  goes to the live worker with the fewest proxied requests in flight, then
  the fewest sessions pinned, then the ring's preference
  (:meth:`FrontendServer.placement`) — two analysts on ``census`` use two
  cores, at the price of the table being built in each worker that serves
  it.  L1 cache entries are per worker; what a sibling's session hits is
  the shared L2 tier;
* **session affinity** — the front-end records which worker answered each
  ``POST /v1/sessions`` and pins the session's later requests to it;
* **shared L2 cache** — every worker gets the same ``l2_cache_dir``
  (:class:`~repro.core.cache.TieredViewResultCache`), so view results paid
  for by worker A's sessions are file-backed hits for worker B;
* **append propagation** — ``POST /v1/datasets/<id>/append`` writes the
  rows exactly once (on the dataset's ring-owner worker; all workers
  share the chunk-store directory) and then broadcasts a bodyless
  ``refresh`` to the other workers, whose tables re-sync via a manifest
  digest compare — an append invalidates no shared L2 entry, and each
  worker drops the superseded version's entries from its own L1;
* **aggregated observability** — ``GET /v1/stats`` fans out and merges
  per-worker counters (including per-tier L1/L2 cache hits);
* **graceful drain** — SIGTERM (or :meth:`FrontendServer.
  graceful_shutdown`) stops accepting, finishes in-flight proxied
  requests (stragglers get 503 with the standard error envelope), then
  SIGTERMs every worker and waits for their own drains.

**Self-healing** (this tier's fault story):

* a :class:`WorkerSupervisor` thread probes worker liveness, respawns a
  dead worker on its original ring slot with exponential backoff and a
  per-slot restart budget, and **re-syncs** the replacement before
  readmitting it to routing (replaying recorded ``POST /v1/datasets``
  registrations and broadcasting ``refresh`` so appends made while the
  slot was down are visible);
* while a slot is down, requests **fail over** to the next live owner on
  the hash ring (bounded retries, per-request deadline); a session whose
  pinned worker died is transparently **resurrected** — re-created from
  its recorded ``POST /v1/sessions`` payload on the failover worker,
  with the original external session id preserved on the wire (recorded
  step history restarts from the resurrection point);
* ``GET /v1/healthz`` answers 503 ``"status": "degraded"`` — with the
  standard error envelope and a ``Retry-After`` header — whenever any
  slot is down, and per-slot supervisor state (restarts, backoff) rides
  along;
* when every candidate worker for a request is down, the front-end
  answers 503 ``retry_later`` with ``Retry-After`` rather than hanging:
  a retrying :class:`~repro.service.client.ServiceClient` rides through
  the whole respawn window without surfacing an error.

Run it from the command line::

    PYTHONPATH=src python -m repro.service.frontend --port 8080 --workers 4

or in-process (tests, benchmarks)::

    from repro.service.frontend import start_frontend
    frontend, thread = start_frontend(n_workers=2, datasets=("census",))
    port = frontend.server_address[1]
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from typing import Any, Iterator, Mapping, Sequence

from repro.data import registry
from repro.exceptions import ServiceError
from repro.service.api import ErrorCode, Route, error_envelope
from repro.service.monitor import merge_route_payloads
from repro.service.server import (
    GracefulHTTPServer,
    RecommendationService,
    RouteHandler,
    SeeDBHTTPServer,
    install_sigterm_handler,
)
from repro.service.sessions import MAX_SESSIONS
from repro.testing import faults

#: Virtual nodes per worker on the hash ring — enough that removing one
#: worker of four moves ~25% of keys, not 0% or 100%.
_VNODES = 64

#: Seconds to wait for a spawned worker to report its port.
_WORKER_BOOT_TIMEOUT = 120.0


class HashRing:
    """Consistent hash ring mapping string keys to worker indices."""

    def __init__(self, n_workers: int, vnodes: int = _VNODES) -> None:
        """Place ``n_workers * vnodes`` virtual nodes on the ring."""
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        points: list[tuple[int, int]] = []
        for worker in range(n_workers):
            for vnode in range(vnodes):
                digest = hashlib.sha256(f"{worker}:{vnode}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), worker))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._workers = [w for _, w in points]

    def lookup(self, key: str) -> int:
        """The worker index owning ``key``."""
        digest = hashlib.sha256(key.encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect.bisect(self._hashes, point) % len(self._hashes)
        return self._workers[index]

    def preference(self, key: str) -> list[int]:
        """Every worker index in ring order starting at ``key``'s owner.

        ``preference(key)[0] == lookup(key)``; the rest is the failover
        order — walking the ring clockwise yields, for each key, a stable
        sequence of distinct fallback owners, so one dead worker's keys
        spread across the survivors instead of piling onto one neighbor.
        """
        digest = hashlib.sha256(key.encode()).digest()
        point = int.from_bytes(digest[:8], "big")
        start = bisect.bisect(self._hashes, point)
        total = len(self._hashes)
        seen: set[int] = set()
        order: list[int] = []
        for offset in range(total):
            worker = self._workers[(start + offset) % total]
            if worker not in seen:
                seen.add(worker)
                order.append(worker)
        return order


def _worker_main(
    index: int, conn, service_kwargs: dict[str, Any], drain_timeout: float
) -> None:
    """Entry point of one worker process (spawn target).

    Builds the service, binds an ephemeral loopback port, reports it back
    through ``conn``, installs its own SIGTERM drain (this *is* the
    child's main thread), and serves until told to stop.
    """
    # Name this process for fault-injection identity filters
    # (``SEEDB_FAULTS="kill_worker:on=worker-1,..."``): spawned children
    # inherit the parent's environment, so the spec arrives automatically.
    faults.set_identity(f"worker-{index}")
    service = RecommendationService(**service_kwargs)
    server = SeeDBHTTPServer(("127.0.0.1", 0), service)
    drained = install_sigterm_handler(server, timeout=drain_timeout)
    conn.send(server.server_address[1])
    conn.close()
    try:
        server.serve_forever()
    finally:
        if server.draining:
            drained.wait(drain_timeout + 5.0)
        server.graceful_shutdown(timeout=drain_timeout)


@dataclass
class WorkerHandle:
    """One spawned worker process and its serving port."""

    index: int
    process: multiprocessing.process.BaseProcess
    port: int
    #: Incremented each time the supervisor respawns this ring slot.  A
    #: session pinned to generation N of a slot must be resurrected when
    #: generation N+1 answers there — the replacement process has no
    #: memory of the old session store.
    generation: int = 0
    #: The front end's load on this process — proxied requests in flight
    #: and sessions pinned here — read by session placement and written
    #: only under ``FrontendServer._sessions_lock``.  They belong to the
    #: handle, not the slot, so a respawned slot starts again from zero
    #: and a request or session still counted on the dead process is
    #: taken off the dead handle.
    in_flight: int = 0
    sessions_pinned: int = 0

    @property
    def pid(self) -> int:
        """The worker's OS pid (for SIGTERM and per-process CPU accounting)."""
        return self.process.pid or -1

    @property
    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.is_alive()

    @property
    def exitcode(self) -> int | None:
        """The process exit code (None while alive)."""
        return self.process.exitcode


def spawn_worker(
    index: int,
    service_kwargs: Mapping[str, Any] | None = None,
    drain_timeout: float = 10.0,
    generation: int = 0,
) -> WorkerHandle:
    """Spawn one service process on ring slot ``index``; block until booted.

    The supervisor's respawn path: one slot at a time, same arguments the
    original fleet booted with.  Raises ``RuntimeError`` when the worker
    fails to report a port within the boot timeout.
    """
    context = multiprocessing.get_context("spawn")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_worker_main,
        args=(index, child_conn, dict(service_kwargs or {}), drain_timeout),
        name=f"seedb-worker-{index}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    try:
        if not parent_conn.poll(_WORKER_BOOT_TIMEOUT):
            raise RuntimeError(f"worker {index} did not report a port")
        port = parent_conn.recv()
    except (RuntimeError, EOFError) as exc:
        if process.is_alive():
            process.terminate()
        raise RuntimeError(f"worker {index} boot failed: {exc}") from exc
    finally:
        parent_conn.close()
    return WorkerHandle(index, process, int(port), generation)


def spawn_workers(
    n_workers: int,
    service_kwargs: Mapping[str, Any] | None = None,
    drain_timeout: float = 10.0,
) -> list[WorkerHandle]:
    """Spawn ``n_workers`` service processes; returns their handles.

    Each worker gets the same ``service_kwargs``
    (:class:`~repro.service.server.RecommendationService` constructor
    arguments — must be picklable).  Raises ``RuntimeError`` if any worker
    fails to report a port within the boot timeout (the stragglers are
    terminated).
    """
    context = multiprocessing.get_context("spawn")
    kwargs = dict(service_kwargs or {})
    pending: list[tuple[int, Any, Any]] = []
    for index in range(n_workers):
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_main,
            args=(index, child_conn, kwargs, drain_timeout),
            name=f"seedb-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        pending.append((index, process, parent_conn))
    handles: list[WorkerHandle] = []
    try:
        for index, process, parent_conn in pending:
            if not parent_conn.poll(_WORKER_BOOT_TIMEOUT):
                raise RuntimeError(f"worker {index} did not report a port")
            port = parent_conn.recv()
            parent_conn.close()
            handles.append(WorkerHandle(index, process, int(port)))
    except (RuntimeError, EOFError) as exc:
        for _, process, _ in pending:
            if process.is_alive():
                process.terminate()
        raise RuntimeError(f"worker boot failed: {exc}") from exc
    return handles


@dataclass
class _SessionRecord:
    """Front-end bookkeeping for one external session id.

    Carries everything needed to transparently re-create the session on
    another worker after its home died: where it lives now (the handle
    it is pinned to — and counted on — plus the worker's internal id) and
    how it was born (dataset and the original ``POST /v1/sessions``
    payload).
    """

    worker: WorkerHandle
    internal_id: str
    dataset: str
    create_payload: dict[str, Any] = field(default_factory=dict)


class WorkerSupervisor(threading.Thread):
    """Detects dead workers and respawns them on their ring slot.

    Liveness comes from the process table (``Process.is_alive`` — an
    exitcode, not a timeout heuristic), so a worker that was SIGKILLed,
    OOM-killed, or ``os._exit``-ed by an injected fault is noticed within
    one poll interval.  Respawns back off exponentially per slot
    (``backoff_base * 2**restarts``, capped) and stop for good once the
    slot's ``max_restarts`` budget is spent — a crash-looping worker must
    not melt the host.  Before a replacement is readmitted to routing it
    is **re-synced**: recorded dataset registrations are replayed and a
    refresh broadcast brings its memmaps to the chunk stores' current
    manifests, then a liveness probe must answer.

    The supervisor never respawns while the front-end is draining, and
    :meth:`stop` (called from ``FrontendServer._on_close``) ends the loop.
    """

    def __init__(
        self,
        frontend: "FrontendServer",
        poll_interval: float = 0.2,
        max_restarts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 8.0,
    ) -> None:
        """Supervise ``frontend``'s workers; see the class docstring."""
        super().__init__(name="seedb-supervisor", daemon=True)
        self.frontend = frontend
        self.poll_interval = poll_interval
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self._slots: dict[int, dict[str, Any]] = {
            worker.index: {
                "state": "up",
                "restarts": 0,
                "due": 0.0,
                "last_exitcode": None,
            }
            for worker in frontend.workers
        }

    def stop(self) -> None:
        """End the supervision loop (idempotent; joins are the caller's)."""
        self._stop_event.set()

    def status(self) -> dict[int, dict[str, Any]]:
        """Per-slot supervision state (for healthz and tests)."""
        with self._lock:
            return {index: dict(slot) for index, slot in self._slots.items()}

    # -------------------------------------------------------------- #
    # the loop
    # -------------------------------------------------------------- #

    def run(self) -> None:
        """Poll liveness until stopped; respawn dead slots when due."""
        while not self._stop_event.wait(self.poll_interval):
            if self.frontend.draining:
                continue
            try:
                self._sweep(time.monotonic())
            except Exception:  # noqa: BLE001 - supervision must not die
                # A failed sweep (e.g. transient spawn error) is retried
                # on the next tick; crashing the supervisor would turn
                # every later worker death into a permanent outage.
                continue

    def _sweep(self, now: float) -> None:
        for worker in list(self.frontend.workers):
            with self._lock:
                slot = self._slots[worker.index]
                state = slot["state"]
            if state == "up" and not worker.alive:
                self._mark_dead(worker, now)
            elif state == "down":
                with self._lock:
                    due = slot["due"]
                if now >= due:
                    self._respawn(worker)

    def _mark_dead(self, worker: WorkerHandle, now: float) -> None:
        """Record a detected death; schedule the respawn or give up."""
        self.frontend.mark_worker_down(worker.index)
        with self._lock:
            slot = self._slots[worker.index]
            slot["last_exitcode"] = worker.exitcode
            if slot["restarts"] >= self.max_restarts:
                slot["state"] = "failed"
            else:
                delay = min(
                    self.backoff_base * (2 ** slot["restarts"]),
                    self.backoff_cap,
                )
                slot["state"] = "down"
                slot["due"] = now + delay

    def _respawn(self, dead: WorkerHandle) -> None:
        """Spawn a replacement for ``dead``'s slot, re-sync, readmit."""
        with self._lock:
            slot = self._slots[dead.index]
            slot["restarts"] += 1
            slot["state"] = "respawning"
        try:
            handle = spawn_worker(
                dead.index,
                self.frontend.service_kwargs,
                self.frontend.worker_drain_timeout,
                generation=dead.generation + 1,
            )
            self._resync(handle)
        except Exception:  # noqa: BLE001 - a failed respawn retries/backs off
            with self._lock:
                slot = self._slots[dead.index]
                if slot["restarts"] > self.max_restarts:
                    slot["state"] = "failed"
                else:
                    delay = min(
                        self.backoff_base * (2 ** slot["restarts"]),
                        self.backoff_cap,
                    )
                    slot["state"] = "down"
                    slot["due"] = time.monotonic() + delay
            return
        self.frontend.adopt_worker(handle)
        with self._lock:
            self._slots[dead.index]["state"] = "up"

    def _resync(self, handle: WorkerHandle) -> None:
        """Bring a fresh worker up to date before it takes traffic.

        Replays every recorded ``POST /v1/datasets`` registration (the
        replacement's registry starts from only the boot-time
        ``service_kwargs``), then refreshes each so appends that landed
        while the slot was down are memmapped in, and finally demands a
        healthz answer.  Any failure aborts the readmission — a worker
        that cannot re-sync must not serve traffic.
        """
        for payload in self.frontend.registered_datasets():
            body = _worker_http(
                handle.port, "POST", "/v1/datasets", payload,
                timeout=self.frontend.proxy_timeout,
            )
            name = body.get("name")
            if isinstance(name, str) and name:
                _worker_http(
                    handle.port, "POST", f"/v1/datasets/{name}/refresh", None,
                    timeout=self.frontend.proxy_timeout,
                )
        health = _worker_http(
            handle.port, "GET", "/v1/healthz", None,
            timeout=self.frontend.proxy_timeout,
        )
        if health.get("status") != "ok":
            raise RuntimeError(
                f"respawned worker {handle.index} failed its liveness probe"
            )


def _worker_http(
    port: int,
    method: str,
    path: str,
    payload: Mapping[str, Any] | None,
    timeout: float = 30.0,
) -> dict[str, Any]:
    """One out-of-band JSON request to a worker; raises on any failure."""
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        parsed = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise RuntimeError(
                f"worker on port {port} answered {response.status} for "
                f"{method} {path}"
            )
        return parsed
    finally:
        conn.close()


class _FrontendHandler(RouteHandler):
    """The front-end tier: a row runs its proxy policy, ``_<route.proxy>``."""

    server: "FrontendServer"

    #: Per-thread cache of connections to workers (keyed by port) so each
    #: proxy thread reuses TCP connections instead of reconnecting.
    _local = threading.local()

    def _serve(self, route: Route, ident: str | None) -> tuple[Any, ...]:
        """Run the row's proxy policy."""
        return getattr(self, f"_{route.proxy}")(route, ident)

    def _forward(
        self, worker: WorkerHandle, route: Route, ident: str | None
    ) -> tuple[int, dict[str, Any]]:
        """Proxy this request to ``worker`` as ``route``; returns ``(status, body)``.

        ``ident`` fills the row's ``{id}`` (the worker's own id of a
        session).  A connection the worker closed between requests is
        retried once on a fresh one; a dead worker surfaces as
        :class:`ServiceError` with code ``no_worker``.
        """
        path = route.path(ident)
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = self._local.conns = {}
        with self.server.in_flight_on(worker):
            for attempt in (0, 1):
                conn = conns.get(worker.port)
                if conn is None:
                    conn = conns[worker.port] = HTTPConnection(
                        "127.0.0.1", worker.port, timeout=self.server.proxy_timeout
                    )
                try:
                    conn.request(
                        route.method,
                        path,
                        body=self._body or None,
                        headers={"Content-Type": "application/json"}
                        if self._body
                        else {},
                    )
                    response = conn.getresponse()
                    raw = response.read()
                    return response.status, (json.loads(raw) if raw else {})
                except (HTTPException, ConnectionError, OSError, ValueError):
                    try:
                        conn.close()
                    finally:
                        conns.pop(worker.port, None)
                    if attempt == 0 and worker.alive:
                        continue
                    raise ServiceError(
                        f"worker {worker.index} is unavailable",
                        status=503,
                        code=ErrorCode.NO_WORKER,
                    ) from None
        raise AssertionError("unreachable")  # pragma: no cover

    def _healthz(self, route: Route, ident: str | None) -> tuple[Any, ...]:
        """The front end's own liveness: 503 ``degraded`` while a slot is down."""
        payload = self.server.healthz()
        if payload.get("status") == "ok":
            return 200, payload
        # Degraded is reported with the standard envelope so clients branch
        # on the stable code, while the full health payload rides along for
        # operators.
        body = error_envelope(ErrorCode.DEGRADED, "one or more worker slots are down")
        body.update(payload)
        return 503, body, self.server.retry_after_hint

    def _aggregate_stats(self, route: Route, ident: str | None) -> tuple[Any, ...]:
        return 200, self.server.aggregate_stats()

    def _first_live_worker(self, route: Route, ident: str | None) -> tuple[Any, ...]:
        return self._forward(self.server.first_live_worker(), route, ident)

    def _broadcast(
        self, route: Route, ident: str | None, refusal: str
    ) -> tuple[int, dict[str, Any], list[int], list[int]]:
        """Forward this request to every live worker; the first answer wins.

        Returns ``(status, body, reached, missed)``: the first live
        worker's answer, the slots that answered and the slots skipped —
        down, or dead mid-broadcast.  A *rejection* (4xx from a live
        worker) comes back at once, verbatim.  With no live worker at all
        the answer is 503 ``retry_later`` saying ``refusal``.
        """
        server = self.server
        first: tuple[int, dict[str, Any]] | None = None
        reached: list[int] = []
        missed: list[int] = []
        for worker in server.workers:
            if not server.slot_up(worker.index):
                missed.append(worker.index)
                continue
            try:
                status, body = self._forward(worker, route, ident)
            except ServiceError as exc:
                if exc.code != ErrorCode.NO_WORKER:
                    raise
                server.note_worker_failure(worker)
                missed.append(worker.index)
                continue
            if status >= 400:
                return status, body, reached, missed
            reached.append(worker.index)
            if first is None:
                first = (status, body)
        if first is None:
            raise ServiceError(
                f"{refusal}; retry shortly",
                status=503,
                code=ErrorCode.RETRY_LATER,
                retry_after=server.retry_after_hint,
            )
        return (*first, reached, missed)

    def _broadcast_datasets(self, route: Route, ident: None) -> tuple[Any, ...]:
        """``POST /v1/datasets``: register on every live worker.

        Every worker must know the dataset — any of them may own it on
        the ring.  A slot that is down or dies mid-broadcast is listed in
        ``deferred_workers`` rather than failing the whole registration:
        the accepted payload is recorded, and the supervisor replays it
        into the slot's replacement.
        """
        status, body, _, deferred = self._broadcast(
            route, None, "no live worker accepted the registration"
        )
        if status >= 400:
            return status, body
        with self.server._registered_lock:
            self.server._registered.append(self._json_body())
        if deferred:
            body["deferred_workers"] = sorted(deferred)
        return status, body

    def _append_dataset(self, route: Route, dataset: str) -> tuple[Any, ...]:
        """``POST /v1/datasets/<id>/append``: write once, refresh everywhere.

        The rows are appended exactly once, by the dataset's (live)
        ring-owner worker (all workers share the chunk-store directory,
        so broadcasting the append verb itself would duplicate the rows);
        the other workers then get a bodyless ``refresh`` broadcast — a
        manifest digest compare plus memmap re-sync — so every worker
        serves the extended table without the rows crossing the wire
        again.  Workers that fail to refresh — unreachable, or answering
        the broadcast with a 4xx/5xx (a draining 503, a 404 for a dataset
        they never registered) — are reported in
        ``stale_workers``; they re-sync on the next append or refresh
        (and a supervisor-respawned worker re-opens the current manifest
        anyway).
        """
        server = self.server
        owner = server.worker_for_dataset(dataset)
        status, body = self._forward(owner, route, dataset)
        if status >= 400:
            return status, body
        refreshed: list[int] = [owner.index]
        stale: list[int] = []
        for worker in server.workers:
            if worker.index == owner.index:
                continue
            if not server.slot_up(worker.index):
                stale.append(worker.index)
                continue
            try:
                _worker_http(
                    worker.port, "POST", f"/v1/datasets/{dataset}/refresh", None,
                    timeout=server.proxy_timeout,
                )
                refreshed.append(worker.index)
            except (RuntimeError, HTTPException, ConnectionError, OSError, ValueError):
                stale.append(worker.index)
        body["refreshed_workers"] = sorted(refreshed)
        if stale:
            body["stale_workers"] = sorted(stale)
        return status, body

    def _broadcast_refresh(self, route: Route, dataset: str) -> tuple[Any, ...]:
        """``POST /v1/datasets/<id>/refresh``: re-sync every live worker."""
        status, body, refreshed, stale = self._broadcast(
            route, dataset, "no live worker to refresh"
        )
        if status < 400:
            body["refreshed_workers"] = refreshed
            if stale:
                body["stale_workers"] = sorted(stale)
        return status, body

    def _create_session(self, route: Route, ident: None) -> tuple[Any, ...]:
        """Create a session on the worker :meth:`FrontendServer.placement` picks.

        Fails over down the placement order when that worker turns out to
        be dead — a new session has no worker state yet, so any live
        worker serves it equally well.
        """
        server = self.server
        payload = self._json_body()
        dataset = str(payload.get("dataset", "census"))
        deadline = time.monotonic() + server.request_deadline
        for worker in server.placement(dataset):
            try:
                status, body = self._forward(worker, route, None)
            except ServiceError as exc:
                if exc.code != ErrorCode.NO_WORKER:
                    raise
                server.note_worker_failure(worker)
                if time.monotonic() >= deadline:
                    break
                continue
            if status == 201 and isinstance(body, dict) and "session_id" in body:
                server.record_session(
                    str(body["session_id"]),
                    worker,
                    dataset=dataset,
                    create_payload=payload,
                )
            return status, body
        raise ServiceError(
            f"no live worker for dataset {dataset!r}; retry shortly",
            status=503,
            code=ErrorCode.RETRY_LATER,
            retry_after=server.retry_after_hint,
        )

    def _forward_session(self, route: Route, external: str) -> tuple[Any, ...]:
        """Forward a session-pinned request, resurrecting if needed.

        The external session id is rewritten to the worker's internal id
        on the way in and back to the external id on the way out, so a
        resurrection (new internal id on a failover worker) is invisible
        to the client.
        """
        server = self.server
        deadline = time.monotonic() + server.request_deadline
        last_error: ServiceError | None = None
        # Workers that already failed THIS request.  ``note_worker_failure``
        # only derates a slot once the process table agrees it is dead, and
        # ``Process.is_alive`` can lag the actual death by longer than a
        # few connection-refused round-trips take — so without this memory
        # every failover attempt can re-resolve to the same dying worker
        # and exhaust the loop before the slot is marked down.
        failed: set[int] = set()
        for _ in range(server.failover_attempts + 1):
            worker, internal = server.resolve_session(external, avoid=failed)
            try:
                status, body = self._forward(worker, route, internal)
            except ServiceError as exc:
                if exc.code != ErrorCode.NO_WORKER:
                    raise
                failed.add(worker.index)
                server.note_worker_failure(worker)
                last_error = exc
                if time.monotonic() >= deadline:
                    break
                continue
            if (
                isinstance(body, dict)
                and internal != external
                and body.get("session_id") == internal
            ):
                body["session_id"] = external
            return status, body
        raise ServiceError(
            f"session {external!r} temporarily unroutable; retry shortly",
            status=503,
            code=ErrorCode.RETRY_LATER,
            retry_after=server.retry_after_hint,
        ) from last_error


class FrontendServer(GracefulHTTPServer):
    """The public-facing router over a set of worker processes.

    Owns the hash ring, the session→worker affinity map (bounded: the
    :data:`~repro.service.sessions.MAX_SESSIONS` most recently used), and
    the worker handles; on :meth:`graceful_shutdown` it drains its own
    in-flight proxied requests first (inherited), then SIGTERMs every
    worker and joins them — each worker runs its own graceful drain.

    Fault-tolerance state lives here too: the down-slot set the
    supervisor and handlers maintain, the recorded dataset registrations
    replayed into respawned workers, and the session records that make
    resurrection possible (see the module docstring).
    """

    def __init__(
        self,
        address: tuple[str, int],
        workers: Sequence[WorkerHandle],
        verbose: bool = False,
        proxy_timeout: float = 120.0,
        worker_drain_timeout: float = 10.0,
        service_kwargs: Mapping[str, Any] | None = None,
        request_deadline: float = 30.0,
        failover_attempts: int = 2,
        retry_after_hint: float = 1.0,
    ) -> None:
        """Bind to ``address`` and route over ``workers``.

        ``service_kwargs`` are kept for the supervisor's respawns;
        ``request_deadline`` bounds one proxied request's total failover
        time; ``failover_attempts`` bounds how many *additional* workers
        a session request may try; ``retry_after_hint`` is the
        ``Retry-After`` value (seconds) sent with 503 ``retry_later`` /
        ``degraded`` answers — tune it to the supervisor's backoff base.
        """
        if not workers:
            raise ValueError("FrontendServer needs at least one worker")
        super().__init__(address, _FrontendHandler, verbose)
        self.workers = list(workers)
        self.proxy_timeout = proxy_timeout
        self.worker_drain_timeout = worker_drain_timeout
        self.service_kwargs = dict(service_kwargs or {})
        self.request_deadline = request_deadline
        self.failover_attempts = failover_attempts
        self.retry_after_hint = retry_after_hint
        self.supervisor: WorkerSupervisor | None = None
        self._ring = HashRing(len(self.workers))
        #: Least recently used first.  The lock also guards every worker
        #: handle's ``in_flight`` / ``sessions_pinned``.
        self._sessions: OrderedDict[str, _SessionRecord] = OrderedDict()
        self._sessions_lock = threading.Lock()
        self._down: set[int] = set()
        self._down_lock = threading.Lock()
        self._registered: list[dict[str, Any]] = []
        self._registered_lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._resurrections = 0
        self._counter_lock = threading.Lock()
        self._started_unix = time.time()

    # -------------------------------------------------------------- #
    # routing state
    # -------------------------------------------------------------- #

    def slot_up(self, index: int) -> bool:
        """Whether ring slot ``index`` should receive traffic."""
        with self._down_lock:
            if index in self._down:
                return False
        return self.workers[index].alive

    def mark_worker_down(self, index: int) -> None:
        """Exclude a slot from routing until a replacement is adopted."""
        with self._down_lock:
            self._down.add(index)

    def adopt_worker(self, handle: WorkerHandle) -> None:
        """Swap a (re-synced) replacement into its slot and readmit it.

        The fresh handle's load counters start at zero: sessions pinned to
        the dead process stay counted on the dead handle until they move.
        """
        self.workers[handle.index] = handle
        with self._down_lock:
            self._down.discard(handle.index)

    def note_worker_failure(self, worker: WorkerHandle) -> None:
        """A proxy attempt found ``worker`` unusable; derate if it died.

        Only an actually-dead process is marked down here — a slow or
        momentarily-unreachable worker is the supervisor's call, not one
        failed proxy's.
        """
        if not worker.alive:
            self.mark_worker_down(worker.index)

    def placement(self, dataset: str) -> list[WorkerHandle]:
        """Live workers to try for a new session on ``dataset``, best first.

        A registry built-in is resident in every worker and never appended
        to, so its sessions go where there is room: fewest proxied
        requests in flight, then fewest sessions pinned, then the ring's
        preference (an idle fleet still opens a dataset's first session on
        its ring owner).  Anything else is an on-disk chunk store, or
        unknown, and keeps the ring's order: one worker holds its delta
        cache and writes its appends (:meth:`worker_for_dataset`).
        Bounded by ``failover_attempts``.
        """
        order = [
            self.workers[index]
            for index in self._ring.preference(dataset)
            if self.slot_up(index)
        ]
        if dataset in registry.DATASETS:
            with self._sessions_lock:
                order.sort(key=lambda w: (w.in_flight, w.sessions_pinned))
        return order[: self.failover_attempts + 1]

    @contextmanager
    def in_flight_on(self, worker: WorkerHandle) -> Iterator[None]:
        """Count one proxied request against ``worker`` while it runs."""
        with self._sessions_lock:
            worker.in_flight += 1
        try:
            yield
        finally:
            with self._sessions_lock:
                worker.in_flight -= 1

    def first_live_worker(self) -> WorkerHandle:
        """Any live worker (for worker-agnostic reads like the registry)."""
        for worker in self.workers:
            if self.slot_up(worker.index):
                return worker
        raise ServiceError(
            "no live workers; retry shortly",
            status=503,
            code=ErrorCode.RETRY_LATER,
            retry_after=self.retry_after_hint,
        )

    def worker_for_dataset(self, dataset: str) -> WorkerHandle:
        """The preferred live worker for ``dataset`` (ring owner if up)."""
        for index in self._ring.preference(dataset):
            if self.slot_up(index):
                return self.workers[index]
        raise ServiceError(
            f"no live worker for dataset {dataset!r}; retry shortly",
            status=503,
            code=ErrorCode.RETRY_LATER,
            retry_after=self.retry_after_hint,
        )

    def worker_for_session(self, session_id: str) -> WorkerHandle:
        """The worker a session is currently pinned to (404 if unknown)."""
        with self._sessions_lock:
            record = self._sessions.get(session_id)
        if record is None:
            raise ServiceError(
                f"unknown session {session_id!r}",
                status=404,
                code=ErrorCode.UNKNOWN_SESSION,
            )
        return self.workers[record.worker.index]

    def resolve_session(
        self, session_id: str, avoid: "set[int] | frozenset[int]" = frozenset()
    ) -> tuple[WorkerHandle, str]:
        """Where to send a session request: ``(worker, internal id)``.

        The healthy path is a dict lookup (which also marks the session
        most recently used).  When the pinned slot is down — or its
        process was respawned (another handle sits in the slot), which
        means the in-memory session store is gone — the session is
        resurrected: re-created from its recorded create payload on the
        first live worker in the dataset's ring preference, under a fresh
        internal id, with the external id unchanged.  Recorded step
        history restarts from the resurrection point (worker-local state
        died with the worker).

        ``avoid`` lists slots the caller already watched fail on this very
        request; they are skipped even if the process table still calls
        them alive (a just-killed worker can answer ``is_alive`` for a
        beat after its socket went away).
        """
        with self._sessions_lock:
            record = self._sessions.get(session_id)
            if record is not None:
                self._sessions.move_to_end(session_id)
        if record is None:
            raise ServiceError(
                f"unknown session {session_id!r}",
                status=404,
                code=ErrorCode.UNKNOWN_SESSION,
            )
        pinned = record.worker
        if (
            pinned.index not in avoid
            and self.slot_up(pinned.index)
            and self.workers[pinned.index] is pinned
        ):
            return pinned, record.internal_id
        for index in self._ring.preference(record.dataset):
            if index in avoid or not self.slot_up(index):
                continue
            worker = self.workers[index]
            try:
                body = _worker_http(
                    worker.port,
                    "POST",
                    "/v1/sessions",
                    record.create_payload or {"dataset": record.dataset},
                    timeout=self.proxy_timeout,
                )
                internal = str(body["session_id"])
            except (RuntimeError, HTTPException, ConnectionError, OSError,
                    ValueError, KeyError):
                self.note_worker_failure(worker)
                continue
            with self._sessions_lock:
                # An evicted record is counted nowhere: keep it that way.
                if self._sessions.get(session_id) is record:
                    record.worker.sessions_pinned -= 1
                    worker.sessions_pinned += 1
                record.worker = worker
                record.internal_id = internal
            with self._counter_lock:
                self._resurrections += 1
            return worker, internal
        raise ServiceError(
            f"session {session_id!r} temporarily unroutable; retry shortly",
            status=503,
            code=ErrorCode.RETRY_LATER,
            retry_after=self.retry_after_hint,
        )

    def record_session(
        self,
        session_id: str,
        worker: WorkerHandle | int,
        dataset: str = "census",
        create_payload: Mapping[str, Any] | None = None,
    ) -> None:
        """Pin ``session_id`` to the worker that created it.

        Also records how the session was created so it can be resurrected
        elsewhere if that worker dies.  Past
        :data:`~repro.service.sessions.MAX_SESSIONS` records the least
        recently used one is dropped — its id answers 404
        ``unknown_session`` from then on.
        """
        if isinstance(worker, int):
            worker = self.workers[worker]
        record = _SessionRecord(
            worker=worker,
            internal_id=session_id,
            dataset=dataset,
            create_payload=dict(create_payload or {}),
        )
        with self._sessions_lock:
            self._sessions[session_id] = record
            worker.sessions_pinned += 1
            if len(self._sessions) > MAX_SESSIONS:
                _, dropped = self._sessions.popitem(last=False)
                dropped.worker.sessions_pinned -= 1

    def registered_datasets(self) -> list[dict[str, Any]]:
        """Recorded ``POST /v1/datasets`` payloads (for respawn re-sync)."""
        with self._registered_lock:
            return [dict(payload) for payload in self._registered]

    def count_request(self, ok: bool) -> None:
        """Tally one routed request (``ok=False`` for 4xx/5xx answers)."""
        with self._counter_lock:
            self._requests += 1
            if not ok:
                self._errors += 1

    # -------------------------------------------------------------- #
    # aggregate endpoints
    # -------------------------------------------------------------- #

    def healthz(self) -> dict[str, Any]:
        """Front-end liveness plus per-worker liveness flags.

        ``status`` is ``"ok"`` only when every ring slot is up; any dead
        or derated slot makes the whole answer ``"degraded"`` (the HTTP
        layer maps that to 503) — an orchestrator probing this endpoint
        must see partial outages, not a reassuring lie.
        """
        supervision = self.supervisor.status() if self.supervisor else {}
        rows: list[dict[str, Any]] = []
        degraded = False
        for worker in self.workers:
            up = self.slot_up(worker.index)
            degraded = degraded or not up
            row: dict[str, Any] = {
                "index": worker.index,
                "pid": worker.pid,
                "alive": worker.alive,
                "generation": worker.generation,
                "state": "up" if up else "down",
            }
            slot = supervision.get(worker.index)
            if slot is not None:
                row["restarts"] = slot["restarts"]
                row["supervisor_state"] = slot["state"]
                if slot["last_exitcode"] is not None:
                    row["last_exitcode"] = slot["last_exitcode"]
            rows.append(row)
        return {
            "status": "degraded" if degraded else "ok",
            "uptime_seconds": time.time() - self._started_unix,
            "supervised": self.supervisor is not None,
            "workers": rows,
        }

    def aggregate_stats(self) -> dict[str, Any]:
        """``GET /v1/stats``: front-end counters + merged worker stats."""
        with self._counter_lock:
            requests, errors = self._requests, self._errors
            resurrections = self._resurrections
        with self._sessions_lock:
            sessions = len(self._sessions)
        per_worker: list[dict[str, Any]] = []
        unreachable = 0
        tier_totals = {"l1_hits": 0, "l1_misses": 0, "l2_hits": 0, "l2_misses": 0}
        tiered = False
        delta_totals: dict[str, int] = {}
        executed_totals: dict[str, int] = {}
        route_payloads: list[dict[str, Any]] = []
        for worker in self.workers:
            try:
                stats = _worker_http(
                    worker.port, "GET", "/v1/stats", None, timeout=self.proxy_timeout
                )
            except (RuntimeError, HTTPException, ConnectionError, OSError, ValueError):
                stats = {"unreachable": True}
                unreachable += 1
            stats["worker"] = worker.index
            stats["pid"] = worker.pid
            stats["in_flight"] = worker.in_flight
            stats["sessions_pinned"] = worker.sessions_pinned
            per_worker.append(stats)
            tiers = stats.get("cache_tiers")
            if isinstance(tiers, dict):
                tiered = True
                for key in tier_totals:
                    tier_totals[key] += int(tiers.get(key, 0))
            delta = stats.get("delta_cache")
            if isinstance(delta, dict):
                for key, value in delta.items():
                    delta_totals[key] = delta_totals.get(key, 0) + int(value)
            executed = stats.get("executed")
            if isinstance(executed, dict):
                for key, value in executed.items():
                    executed_totals[key] = executed_totals.get(key, 0) + int(value)
            routes = stats.get("routes")
            if isinstance(routes, dict):
                route_payloads.append(routes)
        payload: dict[str, Any] = {
            "uptime_seconds": time.time() - self._started_unix,
            "requests": requests,
            "errors": errors,
            "sessions": sessions,
            "sessions_resurrected": resurrections,
            "n_workers": len(self.workers),
            "workers_unreachable": unreachable,
            "workers": per_worker,
        }
        if tiered:
            payload["cache_tiers"] = tier_totals
        if delta_totals:
            payload["delta_cache"] = delta_totals
        if executed_totals:
            payload["executed"] = executed_totals
        if route_payloads:
            # Exact bucket-level merge: percentiles reflect the union of
            # every worker's samples, not an average of averages.
            payload["routes"] = merge_route_payloads(route_payloads)
        return payload

    # -------------------------------------------------------------- #
    # shutdown
    # -------------------------------------------------------------- #

    def _on_close(self) -> None:
        """Stop supervision, SIGTERM every worker, join (kill stragglers)."""
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor.join(timeout=5.0)
        for worker in self.workers:
            if worker.alive:
                try:
                    os.kill(worker.pid, signal.SIGTERM)
                except OSError:  # pragma: no cover - already gone
                    pass
        deadline = time.monotonic() + self.worker_drain_timeout + 5.0
        for worker in self.workers:
            worker.process.join(max(0.1, deadline - time.monotonic()))
            if worker.alive:  # pragma: no cover - drain timeout
                worker.process.terminate()
                worker.process.join(5.0)


def start_frontend(
    n_workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    service_kwargs: Mapping[str, Any] | None = None,
    l2_cache_dir: str | None = None,
    verbose: bool = False,
    drain_timeout: float = 10.0,
    supervise: bool = True,
    max_restarts: int = 3,
    restart_backoff: float = 0.5,
    supervisor_poll: float = 0.2,
    **extra_service_kwargs: Any,
) -> tuple[FrontendServer, threading.Thread]:
    """Spawn workers and serve the front-end on a daemon thread.

    ``service_kwargs`` / ``extra_service_kwargs`` are passed to every
    worker's :class:`~repro.service.server.RecommendationService`.  Unless
    overridden, a shared ``l2_cache_dir`` is created under the system temp
    dir so the workers form one two-tier cache.  ``supervise=True`` (the
    default) starts a :class:`WorkerSupervisor` that respawns dead workers
    with exponential backoff starting at ``restart_backoff`` seconds,
    giving up after ``max_restarts`` respawns per slot.  Returns
    ``(frontend, thread)``; stop with ``frontend.graceful_shutdown()``
    (which also stops the supervisor and the workers).
    """
    kwargs = dict(service_kwargs or {})
    kwargs.update(extra_service_kwargs)
    if l2_cache_dir is None and kwargs.get("result_cache", True):
        l2_cache_dir = tempfile.mkdtemp(prefix="seedb-l2-")
    if l2_cache_dir is not None:
        kwargs.setdefault("l2_cache_dir", l2_cache_dir)
    workers = spawn_workers(n_workers, kwargs, drain_timeout)
    frontend = FrontendServer(
        (host, port),
        workers,
        verbose=verbose,
        worker_drain_timeout=drain_timeout,
        service_kwargs=kwargs,
        retry_after_hint=max(restart_backoff, 0.1),
    )
    if supervise:
        supervisor = WorkerSupervisor(
            frontend,
            poll_interval=supervisor_poll,
            max_restarts=max_restarts,
            backoff_base=restart_backoff,
        )
        frontend.supervisor = supervisor
        supervisor.start()
    thread = threading.Thread(
        target=frontend.serve_forever, name="seedb-frontend", daemon=True
    )
    thread.start()
    return frontend, thread


def main(argv: Sequence[str] | None = None) -> None:
    """Command-line entry point: serve the sharded front-end."""
    parser = argparse.ArgumentParser(
        description="SeeDB sharded recommendation front-end"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated allowlist (default: every registry dataset)",
    )
    parser.add_argument(
        "--scale", default=None, help="dataset build scale (smoke|small|full)"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cross-session view-result cache",
    )
    parser.add_argument(
        "--data-dir",
        action="append",
        default=[],
        metavar="DIR",
        help="on-disk chunked dataset directory to serve (repeatable)",
    )
    parser.add_argument(
        "--l2-cache-dir",
        default=None,
        help="shared L2 cache directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests on SIGTERM",
    )
    parser.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable worker supervision (dead workers stay dead)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="respawns allowed per worker slot before it is given up on",
    )
    args = parser.parse_args(argv)
    datasets = (
        tuple(name.strip() for name in args.datasets.split(",") if name.strip())
        if args.datasets
        else None
    )
    frontend, _ = start_frontend(
        n_workers=args.workers,
        host=args.host,
        port=args.port,
        l2_cache_dir=args.l2_cache_dir,
        verbose=True,
        drain_timeout=args.drain_timeout,
        supervise=not args.no_supervise,
        max_restarts=args.max_restarts,
        datasets=datasets,
        scale=args.scale,
        result_cache=not args.no_cache,
        data_dirs=tuple(args.data_dir),
    )
    drained = install_sigterm_handler(frontend, timeout=args.drain_timeout)
    host, port = frontend.server_address[:2]
    print(
        f"SeeDB front-end on http://{host}:{port} "
        f"({len(frontend.workers)} workers)"
    )
    try:
        while not frontend.draining:
            time.sleep(0.5)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        if frontend.draining:
            drained.wait(args.drain_timeout + 5.0)
        frontend.graceful_shutdown(timeout=args.drain_timeout)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    main()
