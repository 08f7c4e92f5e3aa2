"""Typed wire contract for the versioned ``/v1`` recommendation API.

This module is the single place where the HTTP surface's shapes live:

* the version prefix (:data:`API_PREFIX`) and the path-splitting helper
  (:func:`split_path`) shared by :mod:`repro.service.server` and the
  front-end router in :mod:`repro.service.frontend`;
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
#: Path prefix every current endpoint lives under.
API_PREFIX = f"/{API_VERSION}"

#: When the unprefixed legacy paths were declared deprecated
#: (2026-08-01T00:00:00Z, the release that shipped the ``/v1`` prefix).
LEGACY_DEPRECATED_UNIX = 1_785_542_400
#: When the legacy paths stop answering (2026-12-01T00:00:00Z).
LEGACY_SUNSET_UNIX = 1_796_083_200
#: RFC 9745 ``Deprecation`` header value: ``@`` + a Unix timestamp.
LEGACY_DEPRECATION_VALUE = f"@{LEGACY_DEPRECATED_UNIX}"
#: RFC 8594 ``Sunset`` header value: an HTTP-date.
LEGACY_SUNSET_VALUE = "Tue, 01 Dec 2026 00:00:00 GMT"


def legacy_deprecation_headers() -> list[tuple[str, str]]:
    """Response headers for the deprecated unprefixed legacy paths.

    RFC 9745 requires ``Deprecation`` to carry an ``@<unix-timestamp>``
    date (the boolean ``true`` shipped previously is non-conformant), RFC
    8594's ``Sunset`` announces when the paths stop answering, and the
    ``Link`` relation points clients at the successor surface.  Shared by
    the single-process server and the sharded front-end so both emit
    byte-identical headers.
    """
    return [
        ("Deprecation", LEGACY_DEPRECATION_VALUE),
        ("Sunset", LEGACY_SUNSET_VALUE),
        ("Link", '</v1>; rel="successor-version"'),
    ]


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

    #: Catalogue for docs and the deprecation/contract tests.
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


def split_path(path: str) -> tuple[list[str], bool]:
    """Split a request path into segments, handling the version prefix.

    Returns ``(parts, versioned)`` where ``parts`` excludes the ``v1``
    segment and any query string, and ``versioned`` says whether the
    request used the current ``/v1`` prefix.  Unprefixed paths are the
    deprecated legacy surface — the server still answers them (with a
    ``Deprecation`` header) for one release.
    """
    parts = [part for part in path.split("?")[0].split("/") if part]
    if parts and parts[0] == API_VERSION:
        return parts[1:], True
    return parts, False


def route_label(method: str, parts: Sequence[str]) -> str:
    """The normalized label latency histograms aggregate a request under.

    Path parameters collapse to ``{id}`` — ``("POST", ["sessions", "abc",
    "recommend"])`` becomes ``"POST /v1/sessions/{id}/recommend"`` — so
    every session/dataset shares one histogram per endpoint instead of
    fanning out per identifier.
    """
    if not parts:
        return f"{method} /"
    normalized = list(parts)
    if len(normalized) >= 2 and normalized[0] in ("sessions", "datasets"):
        normalized[1] = "{id}"
    return f"{method} {API_PREFIX}/" + "/".join(normalized)


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
    #: Queries this step shared with a co-batched request (coalescing
    #: gateway only; absent — 0 — on uncoalesced services).
    coalesced_queries: int = 0
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
            coalesced_queries=int(payload.get("coalesced_queries", 0)),
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
