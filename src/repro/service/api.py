"""Typed wire contract for the versioned ``/v1`` recommendation API.

This module is the single place where the HTTP surface's shapes live:

* the route table (:data:`ROUTES`), the one place routes live: every
  endpoint under :data:`API_PREFIX` is one :class:`Route` row.  Both HTTP
  tiers dispatch through it (:func:`match_route`) — the worker in
  :mod:`repro.service.server` calls the service method the row names, the
  front end in :mod:`repro.service.frontend` applies the row's proxy
  policy — the worker's latency labels are the rows' labels, and a test
  holds ``docs/api.md``'s endpoint headings to it;
* the machine-readable error-code catalogue (:class:`ErrorCode`) and the
  one error envelope every non-2xx response uses
  (:func:`error_envelope` / :class:`ErrorInfo`);
* typed request/response dataclasses used by
  :class:`repro.service.client.ServiceClient` so raw-dict JSON handling
  lives in exactly one place.

Every error response has the shape::

    {"error": {"code": "<stable id>", "message": "<human text>", "detail": {}}}

Codes are stable API: clients branch on ``code``, never on message text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.exceptions import ServiceError

#: Current (only) API version segment.
API_VERSION = "v1"
#: Path prefix every endpoint lives under.
API_PREFIX = f"/{API_VERSION}"


class ErrorCode:
    """Stable machine-readable error codes (the ``error.code`` field).

    These are API: once shipped, a code's meaning never changes.  Clients
    should branch on codes, not on message text.
    """

    #: Malformed payload, parameter out of range, unknown enum value.
    INVALID_REQUEST = "invalid_request"
    #: Request body was not a JSON object.
    BAD_JSON = "bad_json"
    #: Missing/negative/garbled ``Content-Length`` header.
    INVALID_LENGTH = "invalid_length"
    #: Dataset name not in the service's allowlist/registry.
    UNKNOWN_DATASET = "unknown_dataset"
    #: Session id does not exist (expired or never created).
    UNKNOWN_SESSION = "unknown_session"
    #: No route matches the method + path.
    UNKNOWN_ROUTE = "unknown_route"
    #: ``POST /v1/datasets`` path rejected (relative, traversal, outside roots).
    INVALID_PATH = "invalid_path"
    #: Server is draining for shutdown; retry against another instance.
    SHUTTING_DOWN = "shutting_down"
    #: No live worker can serve the request (front-end only).
    NO_WORKER = "no_worker"
    #: The serving tier is partially down (a worker slot awaiting respawn);
    #: surfaced by ``GET /v1/healthz`` while degraded, never by data routes.
    DEGRADED = "degraded"
    #: Transient refusal — the request hit a worker slot that is mid-respawn;
    #: retry after the ``Retry-After`` header's delay (seconds).
    RETRY_LATER = "retry_later"
    #: Unexpected server-side failure (the 500 catch-all).
    INTERNAL = "internal"

    #: Catalogue for docs and the contract tests.
    ALL: tuple[str, ...] = (
        INVALID_REQUEST,
        BAD_JSON,
        INVALID_LENGTH,
        UNKNOWN_DATASET,
        UNKNOWN_SESSION,
        UNKNOWN_ROUTE,
        INVALID_PATH,
        SHUTTING_DOWN,
        NO_WORKER,
        DEGRADED,
        RETRY_LATER,
        INTERNAL,
    )

    #: Codes a client may safely retry: the server refused the request (or
    #: was mid-shutdown/mid-respawn) *before* executing it, so a repeat
    #: cannot double-apply anything.  Part of the wire contract —
    #: :class:`repro.service.client.ServiceClient` retries exactly these.
    RETRYABLE: frozenset[str] = frozenset(
        {SHUTTING_DOWN, NO_WORKER, DEGRADED, RETRY_LATER}
    )


def error_envelope(
    code: str, message: str, detail: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Build the one error payload shape used by every non-2xx response."""
    return {
        "error": {
            "code": code,
            "message": message,
            "detail": dict(detail) if detail else {},
        }
    }


@dataclass(frozen=True)
class ErrorInfo:
    """Parsed error envelope (the value of the ``"error"`` key)."""

    code: str
    message: str
    detail: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ErrorInfo":
        """Parse a response body; tolerates the legacy flat-string shape."""
        raw = payload.get("error")
        if isinstance(raw, Mapping):
            return cls(
                code=str(raw.get("code", ErrorCode.INTERNAL)),
                message=str(raw.get("message", "")),
                detail=dict(raw.get("detail") or {}),
            )
        return cls(code=ErrorCode.INTERNAL, message=str(raw))


# ------------------------------------------------------------------ #
# request shapes
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class CreateSessionRequest:
    """Body of ``POST /v1/sessions``."""

    dataset: str = "census"
    store: str | None = None
    metric: str | None = None

    def to_payload(self) -> dict[str, Any]:
        """The JSON body (defaults omitted so the server chooses)."""
        payload: dict[str, Any] = {"dataset": self.dataset}
        if self.store is not None:
            payload["store"] = self.store
        if self.metric is not None:
            payload["metric"] = self.metric
        return payload


@dataclass(frozen=True)
class RecommendRequest:
    """Body of ``POST /v1/sessions/<id>/recommend``."""

    target: Sequence[Mapping[str, Any]] | None = None
    k: int = 5
    strategy: str = "sharing"
    pruner: str | None = None
    parallelism: str | None = None
    dimensions: Sequence[str] | None = None
    measures: Sequence[str] | None = None

    def to_payload(self) -> dict[str, Any]:
        """The JSON body (None fields omitted so the server defaults)."""
        payload: dict[str, Any] = {"k": self.k, "strategy": self.strategy}
        if self.target is not None:
            payload["target"] = [dict(clause) for clause in self.target]
        if self.pruner is not None:
            payload["pruner"] = self.pruner
        if self.parallelism is not None:
            payload["parallelism"] = self.parallelism
        if self.dimensions is not None:
            payload["dimensions"] = list(self.dimensions)
        if self.measures is not None:
            payload["measures"] = list(self.measures)
        return payload


@dataclass(frozen=True)
class AppendRequest:
    """Body of ``POST /v1/datasets/<id>/append``.

    Exactly one of ``rows`` (columnar JSON: column name → list of values,
    or a list of row objects) or ``csv`` (a headered CSV batch) must be
    given.
    """

    rows: Mapping[str, Sequence[Any]] | Sequence[Mapping[str, Any]] | None = None
    csv: str | None = None

    def to_payload(self) -> dict[str, Any]:
        """The JSON body."""
        if (self.rows is None) == (self.csv is None):
            raise ServiceError("AppendRequest needs exactly one of rows/csv")
        if self.csv is not None:
            return {"csv": self.csv}
        if isinstance(self.rows, Mapping):
            return {"rows": {name: list(vals) for name, vals in self.rows.items()}}
        return {"rows": [dict(row) for row in self.rows or ()]}


@dataclass(frozen=True)
class AppendResponse:
    """Response of ``POST /v1/datasets/<id>/append``."""

    dataset: str
    n_rows: int
    appended: int
    digest: str
    engines_refreshed: int = 0
    #: Dictionary columns whose code file the append had to remap.
    columns_rewritten: int = 0
    raw: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "AppendResponse":
        """Parse the append response body (extra keys kept in ``raw``)."""
        return cls(
            dataset=str(payload["dataset"]),
            n_rows=int(payload["n_rows"]),
            appended=int(payload["appended"]),
            digest=str(payload.get("digest", "")),
            engines_refreshed=int(payload.get("engines_refreshed", 0)),
            columns_rewritten=int(payload.get("columns_rewritten", 0)),
            raw=dict(payload),
        )


@dataclass(frozen=True)
class RegisterDatasetRequest:
    """Body of ``POST /v1/datasets``."""

    path: str
    name: str | None = None

    def to_payload(self) -> dict[str, Any]:
        """The JSON body."""
        payload: dict[str, Any] = {"path": self.path}
        if self.name is not None:
            payload["name"] = self.name
        return payload


# ------------------------------------------------------------------ #
# the route table
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class Route:
    """One row of the route table: one endpoint.

    ``template`` is the path under :data:`API_PREFIX`; a ``{id}`` segment
    is the endpoint's one path parameter.  ``name`` is the
    :class:`~repro.service.server.RecommendationService` method a worker
    calls, with the ``{id}`` and then the body as arguments; ``proxy`` is
    the front end's policy for the row (its handler runs ``_<proxy>``);
    ``status`` is the success status; ``request`` is the body's dataclass,
    or None when the endpoint reads no body.
    """

    method: str
    template: str
    name: str
    proxy: str
    status: int = 200
    request: type | None = None

    @property
    def label(self) -> str:
        """The latency-histogram label, e.g. ``POST /v1/sessions/{id}/recommend``."""
        return f"{self.method} {API_PREFIX}{self.template}"

    def path(self, ident: str | None = None) -> str:
        """The request path, with ``ident`` in the ``{id}`` segment."""
        return API_PREFIX + self.template.replace("{id}", ident or "")


#: Every endpoint, for both HTTP tiers.  ``docs/api.md`` documents each
#: row under a ``### `METHOD /v1/...``` heading (``<id>`` for ``{id}``).
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", "healthz", "healthz"),
    Route("GET", "/stats", "stats", "aggregate_stats"),
    Route("GET", "/datasets", "describe_datasets", "first_live_worker"),
    Route(
        "POST", "/datasets", "register_dataset", "broadcast_datasets", 201,
        RegisterDatasetRequest,
    ),
    Route(
        "POST", "/datasets/{id}/append", "append_dataset", "append_dataset", 200,
        AppendRequest,
    ),
    Route("POST", "/datasets/{id}/refresh", "refresh_dataset", "broadcast_refresh"),
    Route("POST", "/sessions", "create_session", "create_session", 201, CreateSessionRequest),
    Route("GET", "/sessions/{id}", "describe_session", "forward_session"),
    Route(
        "POST", "/sessions/{id}/recommend", "recommend", "forward_session", 200,
        RecommendRequest,
    ),
)

#: The rows by (method, segment count): a request compares only its shape's.
_BY_SHAPE: dict[tuple[str, int], list[tuple[Route, list[str]]]] = {}
for _route in ROUTES:
    _segments = _route.template.strip("/").split("/")
    _BY_SHAPE.setdefault((_route.method, len(_segments)), []).append((_route, _segments))


def match_route(method: str, path: str) -> tuple[Route | None, str | None]:
    """The row answering ``method path``, and its ``{id}``.

    The query string and empty segments are ignored.  A path outside
    :data:`API_PREFIX`, or a method no row lists for the path, matches
    nothing: ``(None, None)``.
    """
    parts = [part for part in path.split("?", 1)[0].split("/") if part]
    if parts[:1] != [API_VERSION]:
        return None, None
    parts = parts[1:]
    for route, segments in _BY_SHAPE.get((method, len(parts)), ()):
        ident = None
        for segment, part in zip(segments, parts):
            if segment == "{id}":
                ident = part
            elif segment != part:
                break
        else:
            return route, ident
    return None, None


# ------------------------------------------------------------------ #
# response shapes
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class SessionInfo:
    """Response of ``POST /v1/sessions``."""

    session_id: str
    dataset: str
    store: str
    metric: str
    n_rows: int
    dimensions: tuple[str, ...]
    measures: tuple[str, ...]

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SessionInfo":
        """Parse the create-session response body."""
        return cls(
            session_id=str(payload["session_id"]),
            dataset=str(payload["dataset"]),
            store=str(payload["store"]),
            metric=str(payload["metric"]),
            n_rows=int(payload["n_rows"]),
            dimensions=tuple(payload.get("dimensions") or ()),
            measures=tuple(payload.get("measures") or ()),
        )


@dataclass(frozen=True)
class ViewInfo:
    """One ranked view in a recommend response."""

    rank: int
    dimension: str
    measure: str
    func: str
    utility: float
    top_group: Any

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ViewInfo":
        """Parse one entry of the response's ``views`` list."""
        return cls(
            rank=int(payload["rank"]),
            dimension=str(payload["dimension"]),
            measure=str(payload["measure"]),
            func=str(payload["func"]),
            utility=float(payload["utility"]),
            top_group=payload.get("top_group"),
        )

    @property
    def key(self) -> tuple[str, str, str]:
        """The engine's view key ``(dimension, measure, func)``."""
        return (self.dimension, self.measure, self.func)


@dataclass(frozen=True)
class StepStats:
    """Per-step execution statistics in a recommend response."""

    queries_issued: int
    result_cache: bool
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    cache_bytes_saved: int
    wall_seconds: float
    modeled_latency_seconds: float
    #: (view, row range) reference rows read from engine state, not computed.
    reference_views_reused: int = 0
    #: (view, row range) target rows of a conjunction of one-category clauses
    #: read from engine state, not computed.
    target_views_reused: int = 0

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "StepStats":
        """Parse the response's ``stats`` object."""
        return cls(
            queries_issued=int(payload.get("queries_issued", 0)),
            result_cache=bool(payload.get("result_cache", False)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            cache_hit_rate=float(payload.get("cache_hit_rate", 0.0)),
            cache_bytes_saved=int(payload.get("cache_bytes_saved", 0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            modeled_latency_seconds=float(
                payload.get("modeled_latency_seconds", 0.0)
            ),
            reference_views_reused=int(payload.get("reference_views_reused", 0)),
            target_views_reused=int(payload.get("target_views_reused", 0)),
        )


@dataclass(frozen=True)
class RecommendResponse:
    """Response of ``POST /v1/sessions/<id>/recommend``."""

    session_id: str
    step: int
    dataset: str
    k: int
    strategy: str
    target: tuple[dict[str, Any], ...]
    views: tuple[ViewInfo, ...]
    stats: StepStats

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RecommendResponse":
        """Parse the recommend response body."""
        return cls(
            session_id=str(payload["session_id"]),
            step=int(payload["step"]),
            dataset=str(payload["dataset"]),
            k=int(payload["k"]),
            strategy=str(payload["strategy"]),
            target=tuple(dict(c) for c in payload.get("target") or ()),
            views=tuple(
                ViewInfo.from_payload(v) for v in payload.get("views") or ()
            ),
            stats=StepStats.from_payload(payload.get("stats") or {}),
        )


@dataclass(frozen=True)
class DatasetInfo:
    """One dataset row in ``GET /v1/datasets``."""

    name: str
    description: str
    loaded: bool
    on_disk: bool
    n_rows: int | None = None
    raw: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "DatasetInfo":
        """Parse one dataset entry (extra keys kept in ``raw``)."""
        n_rows = payload.get("n_rows")
        return cls(
            name=str(payload["name"]),
            description=str(payload.get("description", "")),
            loaded=bool(payload.get("loaded", False)),
            on_disk=bool(payload.get("on_disk", False)),
            n_rows=int(n_rows) if n_rows is not None else None,
            raw=dict(payload),
        )


def raise_for_error(
    status: int,
    payload: Mapping[str, Any],
    retry_after: float | None = None,
    attempts: int = 1,
) -> None:
    """Raise :class:`~repro.exceptions.ServiceError` for a non-2xx response.

    The raised error carries the envelope's stable ``code`` so callers can
    branch without string matching, plus — when the caller is a retrying
    client — the server's ``Retry-After`` suggestion and how many attempts
    were made before giving up.
    """
    if 200 <= status < 300:
        return
    info = ErrorInfo.from_payload(payload)
    raise ServiceError(
        info.message,
        status=status,
        code=info.code,
        retry_after=retry_after,
        attempts=attempts,
    )
