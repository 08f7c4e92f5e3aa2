"""The execution-backend protocol and registry.

SEEDB is middleware: the optimizer plans logical
:class:`~repro.db.query.AggregateQuery` objects and an underlying engine
executes them.  A :class:`Backend` is that underlying engine.  The engine
(:mod:`repro.core.engine`) and the parallel dispatcher
(:mod:`repro.core.parallel`) only ever see this interface, so every
strategy (NO_OPT / SHARING / COMB / COMB_EARLY) and both parallelism modes
run unchanged on any backend.

The contract every backend must honour (what the differential suite
enforces):

* groups are returned sorted ascending by group value, column by column, in
  ``group_by`` order — the native executor's composite-key order;
* ``values`` carries one float64 array per aggregate alias plus the hidden
  ``"__group_count__"`` per-group row count the phased AVG merge needs;
* AVG/MIN/MAX over zero qualifying rows produce *no* group (grouped query)
  or an empty result (global aggregate), never a NULL-ish placeholder row;
* derived CASE flag columns may appear in ``group_by`` and come back as
  their computed values.

Backends must be safe for concurrent :meth:`Backend.execute` calls when
their :class:`BackendCapabilities` say ``parallel_safe`` — the dispatcher
will call from many threads in ``parallelism="real"`` runs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import TracebackType
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from repro.config import ExecutionStats
from repro.db.query import AggregateQuery, QueryResult
from repro.exceptions import BackendError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.shared_scan import Fanout
    from repro.db.storage import StorageEngine


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can model, beyond executing queries correctly.

    These are *accounting* capabilities: every backend returns identical
    query results, but only some can attribute I/O to a buffer pool or
    simulate the group-by memory cliff the cost model charges for.
    """

    #: Simulates the distinct-group memory budget (spill passes in stats).
    supports_group_budget: bool = False
    #: Fills byte/page counters so the cost model's latency is meaningful.
    accounts_io: bool = False
    #: Safe for concurrent execute() calls from the real-parallel dispatcher.
    parallel_safe: bool = True
    #: Versioned identity of this backend's result *semantics*, embedded in
    #: every :class:`~repro.core.cache.ViewResultCache` key: results cached
    #: under one fingerprint are never replayed for a backend with another.
    #: Bump the suffix whenever a change could alter result values or the
    #: accounting stored alongside them.  Empty = "unversioned" (cache keys
    #: still include the backend name).
    result_fingerprint: str = ""
    notes: str = ""


class Backend(abc.ABC):
    """One query-execution engine behind the SeeDB middleware.

    Subclasses implement :meth:`execute` (one logical query in, a
    result-contract-conforming :class:`~repro.db.query.QueryResult` plus
    per-query :class:`~repro.config.ExecutionStats` out) and
    :meth:`capabilities`; they may override :meth:`execute_batch` when
    they can genuinely share work across a phase batch, and
    :meth:`close` as appropriate.

    Example — registering a custom backend (see also "Adding a backend"
    in ``docs/architecture.md``)::

        from repro.db.backends import Backend, BackendCapabilities, register_backend

        class EchoBackend(Backend):
            name = "echo"

            def __init__(self, store):
                self.inner = NativeBackend(store)

            def execute(self, query):
                print(generate_sql(query))
                return self.inner.execute(query)

            def capabilities(self):
                return BackendCapabilities(result_fingerprint="echo-v1")

        register_backend("echo", EchoBackend)
        # now reachable via EngineConfig(backend="echo"); run the
        # differential suite against it before trusting it.
    """

    #: Registry name; also recorded on :class:`~repro.core.engine.EngineRun`.
    name: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def execute(self, query: AggregateQuery) -> tuple[QueryResult, ExecutionStats]:
        """Run one logical query; return its result and per-query accounting."""

    def execute_batch(
        self,
        queries: Sequence[AggregateQuery],
        fanout: "Fanout | None" = None,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Run a whole phase batch; results in submission order.

        The default is a per-query loop over :meth:`execute` (fanned out
        over the dispatcher's pool when ``fanout`` is given), so backends
        that cannot share work across queries — SQLite ships each statement
        independently — need not override anything.  Backends that *can*
        share (the native backend serves the batch from one shared scan,
        see :mod:`repro.db.shared_scan`) override this.

        ``fanout(fn, items)`` must run ``fn`` over ``items`` concurrently
        and return results in item order.
        """
        queries = list(queries)
        if fanout is not None and len(queries) > 1:
            return fanout(self.execute, queries)  # type: ignore[arg-type]
        return [self.execute(query) for query in queries]

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Static description of what this backend models."""

    def close(self) -> None:
        """Release backend resources (connections, pools).  Idempotent."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


BackendFactory = Callable[["StorageEngine"], Backend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend factory under ``name`` (see README's how-to guide)."""
    if not name:
        raise BackendError("backend name must be non-empty")
    _REGISTRY[name] = factory


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`make_backend` / ``EngineConfig.backend``."""
    return tuple(sorted(_REGISTRY))


def make_backend(name: str, store: "StorageEngine") -> Backend:
    """Build the backend registered under ``name`` over ``store``'s table."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(store)
