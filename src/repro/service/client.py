"""Typed HTTP client for the recommendation service's ``/v1`` API.

:class:`ServiceClient` is the one place raw JSON-over-HTTP handling lives:
examples, benchmarks, the load harness, and the service tests all talk to
the server through it.  It keeps one ``http.client`` connection alive
(session replays reuse a single TCP connection, matching the latency the
benchmarks measure), sends bodies as bytes in one write (Nagle-friendly),
transparently reconnects once when a kept-alive connection was closed
under it, parses error envelopes into
:class:`~repro.exceptions.ServiceError` (carrying the stable machine
``code``), and returns the typed shapes from :mod:`repro.service.api`.

Example::

    with ServiceClient("127.0.0.1", port) as client:
        session = client.create_session(dataset="census")
        response = client.recommend(session.session_id, RecommendRequest(k=5))
        for view in response.views:
            print(view.rank, view.dimension, view.utility)
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Mapping

from repro.exceptions import ServiceError
from repro.service.api import (
    API_PREFIX,
    ROUTES,
    AppendRequest,
    AppendResponse,
    CreateSessionRequest,
    DatasetInfo,
    ErrorCode,
    ErrorInfo,
    RecommendRequest,
    RecommendResponse,
    RegisterDatasetRequest,
    SessionInfo,
    raise_for_error,
)

#: Transport-level failures worth one fresh-connection retry (the server
#: closed a kept-alive connection under us, or a worker died mid-request).
_TRANSPORT_ERRORS = (
    http.client.HTTPException,
    ConnectionError,
    BrokenPipeError,
)


#: The route table's rows by ``Route.name``: each typed method sends its row.
_ROUTES = {route.name: route for route in ROUTES}


class _Outcome:
    """Retry accounting for one logical request (attempts, last hint)."""

    __slots__ = ("attempts", "retry_after")

    def __init__(self, attempts: int, retry_after: float | None) -> None:
        self.attempts = attempts
        self.retry_after = retry_after


class ServiceClient:
    """A keep-alive JSON client bound to one server address.

    Not thread-safe: one client wraps one connection.  Concurrent load
    generators open one client per simulated analyst, which is also the
    honest model of production traffic.

    **Retries** (``retries > 0``; default 0 keeps the legacy
    fail-fast behavior): transport errors on *idempotent* requests and
    any response whose error code is in :data:`ErrorCode.RETRYABLE`
    (``shutting_down``, ``no_worker``, ``degraded``, ``retry_later`` —
    codes the server only sends *before* executing anything, so a repeat
    cannot double-apply) are retried with exponential backoff plus seeded
    jitter, honoring the server's ``Retry-After`` header when present.
    GETs count as idempotent automatically; POSTs only when the caller
    passes ``idempotent=True``.  When the budget runs out the last error
    surfaces as-is, with :attr:`ServiceError.attempts` recording the
    tries made.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter_seed: int = 0,
    ) -> None:
        """Bind to ``host:port``; the connection opens lazily.

        ``retries`` is the number of *extra* attempts after the first;
        delays grow as ``backoff * 2**n`` capped at ``backoff_cap``, each
        scaled by a deterministic jitter factor in [0.5, 1.0] drawn from
        ``jitter_seed`` (so many clients created with distinct seeds
        de-synchronize, while one client's behavior stays reproducible).
        """
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(int(retries), 0)
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self._jitter = random.Random(jitter_seed)
        self._conn: http.client.HTTPConnection | None = None

    # -------------------------------------------------------------- #
    # transport
    # -------------------------------------------------------------- #

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _once(
        self, method: str, path: str, payload: Mapping[str, Any] | None
    ) -> tuple[int, dict[str, Any], float | None]:
        conn = self._connection()
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        retry_after: float | None = None
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        return response.status, (json.loads(raw) if raw else {}), retry_after

    def _delay(self, attempt: int, retry_after: float | None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.backoff * (2 ** (attempt - 1)), self.backoff_cap)
        delay = base * (0.5 + 0.5 * self._jitter.random())
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        idempotent: bool | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """One request/response cycle; returns ``(status, parsed body)``.

        ``path`` is relative to the ``/v1`` prefix.  A connection the
        server closed between requests (keep-alive timeout, worker
        recycle) is always retried once on a fresh connection; beyond
        that, the ``retries`` budget applies to idempotent transport
        failures and retryable-coded responses (see the class docstring).
        Errors are NOT raised for non-2xx here — use :meth:`call`.
        """
        status, body, _ = self._request_full(method, path, payload, idempotent)
        return status, body

    def _request_full(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None,
        idempotent: bool | None = None,
    ) -> tuple[int, dict[str, Any], "_Outcome"]:
        full = API_PREFIX + path
        if idempotent is None:
            idempotent = method == "GET"
        attempts = 0
        while True:
            attempts += 1
            try:
                try:
                    status, body, retry_after = self._once(method, full, payload)
                except _TRANSPORT_ERRORS:
                    # Stale keep-alive: the server closed the connection
                    # between our requests.  One fresh-connection retry is
                    # always safe (the request never reached a handler).
                    self.close()
                    status, body, retry_after = self._once(method, full, payload)
            except _TRANSPORT_ERRORS:
                self.close()
                if not idempotent or attempts > self.retries:
                    raise
                time.sleep(self._delay(attempts, None))
                continue
            if (
                status >= 500
                and attempts <= self.retries
                and ErrorInfo.from_payload(body).code in ErrorCode.RETRYABLE
            ):
                time.sleep(self._delay(attempts, retry_after))
                continue
            return status, body, _Outcome(attempts, retry_after)

    def call(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        idempotent: bool | None = None,
    ) -> dict[str, Any]:
        """Like :meth:`request` but raises :class:`ServiceError` on non-2xx.

        The raised error carries the retry accounting: ``attempts`` made
        and the last ``Retry-After`` suggestion, if any.
        """
        status, body, outcome = self._request_full(
            method, path, payload, idempotent
        )
        raise_for_error(
            status,
            body,
            retry_after=outcome.retry_after,
            attempts=outcome.attempts,
        )
        return body

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -------------------------------------------------------------- #
    # typed endpoints
    # -------------------------------------------------------------- #

    def _send(
        self,
        name: str,
        ident: str | None = None,
        payload: Mapping[str, Any] | None = None,
        idempotent: bool | None = None,
    ) -> dict[str, Any]:
        """:meth:`call` the ``ROUTES`` row named ``name``: its method, and its
        path with ``ident`` in the ``{id}`` segment."""
        route = _ROUTES[name]
        path = route.template if ident is None else route.template.replace("{id}", ident)
        return self.call(route.method, path, payload, idempotent)

    def healthz(self) -> dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._send("healthz")

    def create_session(
        self,
        dataset: str = "census",
        store: str | None = None,
        metric: str | None = None,
    ) -> SessionInfo:
        """``POST /v1/sessions`` — open a session; returns its info."""
        body = self._send(
            "create_session", payload=CreateSessionRequest(dataset, store, metric).to_payload()
        )
        return SessionInfo.from_payload(body)

    def recommend(
        self,
        session_id: str,
        request: RecommendRequest | None = None,
        idempotent: bool | None = None,
    ) -> RecommendResponse:
        """``POST /v1/sessions/<id>/recommend`` — one typed step."""
        payload = (request or RecommendRequest()).to_payload()
        return RecommendResponse.from_payload(
            self.recommend_raw(session_id, payload, idempotent=idempotent)
        )

    def recommend_raw(
        self,
        session_id: str,
        payload: Mapping[str, Any],
        idempotent: bool | None = None,
    ) -> dict[str, Any]:
        """Recommend with a raw request body; returns the raw response.

        The drill-down replayer (:class:`~repro.service.sessions.
        AnalystDrillDown`) produces request dicts and consumes response
        dicts — this is its transport.  Pass ``idempotent=True`` to let a
        retrying client repeat the POST on transport failures too (a
        recommend only records an extra session step when re-run — the
        right trade for load generators riding through worker respawns).
        """
        return self._send("recommend", session_id, payload, idempotent)

    def describe_session(self, session_id: str) -> dict[str, Any]:
        """``GET /v1/sessions/<id>`` — the session's recorded steps."""
        return self._send("describe_session", session_id)

    def datasets(self) -> list[DatasetInfo]:
        """``GET /v1/datasets`` — typed registry rows."""
        body = self._send("describe_datasets")
        return [DatasetInfo.from_payload(row) for row in body["datasets"]]

    def register_dataset(
        self, path: str, name: str | None = None
    ) -> dict[str, Any]:
        """``POST /v1/datasets`` — register an on-disk chunk store."""
        return self._send(
            "register_dataset", payload=RegisterDatasetRequest(path, name).to_payload()
        )

    def append(
        self, dataset: str, request: AppendRequest
    ) -> AppendResponse:
        """``POST /v1/datasets/<id>/append`` — append rows to a dataset.

        ``AppendRequest`` carries either columnar JSON rows or a headered
        CSV batch; the response reports the new row count and digest.
        """
        body = self._send("append_dataset", dataset, request.to_payload())
        return AppendResponse.from_payload(body)

    def refresh_dataset(self, dataset: str) -> dict[str, Any]:
        """``POST /v1/datasets/<id>/refresh`` — re-sync from the chunk store."""
        return self._send("refresh_dataset", dataset)

    def stats(self) -> dict[str, Any]:
        """``GET /v1/stats`` — service counters and cache snapshot."""
        return self._send("stats")

    def route_stats(self) -> dict[str, Any] | None:
        """The per-route latency-histogram block, or ``None`` if absent."""
        block = self.stats().get("routes")
        return dict(block) if isinstance(block, Mapping) else None


__all__ = ["ServiceClient", "ServiceError"]
