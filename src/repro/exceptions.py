"""Error hierarchy for the SeeDB reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Sub-hierarchies mirror the package layout: schema/storage/query
errors from the DBMS substrate, backend errors from the execution backends,
and recommendation errors from the SeeDB core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A table schema is malformed or a referenced column does not exist."""


class StorageError(ReproError):
    """A physical storage engine was asked to do something it cannot."""


class QueryError(ReproError):
    """A logical query is invalid (bad aggregate, bad group-by, type error)."""


class BackendError(ReproError):
    """An execution backend cannot serve a table or query faithfully."""


class DatasetError(ReproError):
    """A dataset generator was misconfigured or a dataset name is unknown."""


class MetricError(ReproError):
    """A distance function was misused (bad distribution, unknown name)."""


class RecommendationError(ReproError):
    """The recommendation engine was misconfigured (bad k, empty view space)."""


class PruningError(ReproError):
    """A pruning strategy was misconfigured or driven out of protocol."""


class ServiceError(ReproError):
    """A recommendation-service request is invalid (bad payload, unknown id).

    Carries the HTTP status the JSON API should answer with and a stable
    machine-readable ``code`` for the ``/v1`` error envelope (see
    :mod:`repro.service.api` for the catalogue).
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        code: str = "invalid_request",
        retry_after: float | None = None,
        attempts: int = 1,
    ) -> None:
        """Record ``message``, the HTTP ``status``, and the envelope ``code``.

        ``retry_after`` carries a server-suggested backoff (the
        ``Retry-After`` header, seconds) when one was sent; ``attempts``
        is how many tries a retrying client made before surfacing this
        error (1 = no retries).
        """
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after
        self.attempts = attempts
