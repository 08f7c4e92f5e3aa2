"""The SeeDB serving layer: sessions, HTTP API, cross-session result cache.

SeeDB is middleware between analysts and the DBMS (paper §1); this package
is the middleware made long-running.  A
:class:`~repro.service.server.RecommendationService` keeps one engine per
``(dataset, store)`` alive across analyst sessions, whatever their metric,
over one table per dataset, and routes every view query through
a shared :class:`~repro.core.cache.ViewResultCache`, so the repeated work
of interactive drill-down exploration — the dominant workload shape — is
served from memory.  :func:`~repro.service.server.start_server` wraps it
in a stdlib ``ThreadingHTTPServer`` JSON API.

The HTTP surface is versioned under ``/v1`` with one error envelope and a
typed wire contract (:mod:`repro.service.api`), consumed through
:class:`~repro.service.client.ServiceClient`.  For scale-out,
:func:`~repro.service.frontend.start_frontend` runs N service *processes*
behind a consistent-hashing front-end with a shared file-backed L2 cache
tier (:class:`~repro.core.cache.TieredViewResultCache`).

Quickstart (in-process)::

    from repro.service import RecommendationService, ServiceClient, start_server

    server, thread = start_server(
        RecommendationService(datasets=("census",), scale="smoke")
    )
    with ServiceClient(*server.server_address[:2]) as client:
        session = client.create_session(dataset="census")
        response = client.recommend(session.session_id)
    server.shutdown()

See ``docs/api.md`` for the endpoint reference and client examples, and
``examples/service_session.py`` for a full three-step drill-down session.
"""

from repro.core.cache import (
    CacheEntry,
    CacheStats,
    TieredViewResultCache,
    ViewResultCache,
)
from repro.service.api import (
    ErrorCode,
    RecommendRequest,
    RecommendResponse,
    SessionInfo,
    error_envelope,
)
from repro.service.client import ServiceClient
from repro.service.frontend import (
    FrontendServer,
    WorkerSupervisor,
    start_frontend,
)
from repro.service.monitor import (
    LatencyHistogram,
    RouteLatencyRegistry,
    merge_route_payloads,
)
from repro.service.server import (
    GracefulHTTPServer,
    RecommendationService,
    SeeDBHTTPServer,
    install_sigterm_handler,
    start_server,
)
from repro.service.sessions import (
    AnalystDrillDown,
    Session,
    SessionStep,
    SessionStore,
    clauses_from_payload,
)

__all__ = [
    "AnalystDrillDown",
    "CacheEntry",
    "CacheStats",
    "ErrorCode",
    "FrontendServer",
    "GracefulHTTPServer",
    "LatencyHistogram",
    "RecommendRequest",
    "RecommendResponse",
    "RecommendationService",
    "RouteLatencyRegistry",
    "SeeDBHTTPServer",
    "ServiceClient",
    "Session",
    "SessionInfo",
    "SessionStep",
    "SessionStore",
    "TieredViewResultCache",
    "ViewResultCache",
    "WorkerSupervisor",
    "clauses_from_payload",
    "error_envelope",
    "install_sigterm_handler",
    "merge_route_payloads",
    "start_frontend",
    "start_server",
]
