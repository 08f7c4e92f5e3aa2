"""The native backend: this package's own columnar executor.

A thin :class:`~repro.db.backends.base.Backend` adapter around the chunk
pipeline (:class:`~repro.db.shared_scan.SharedScanExecutor`) — the storage
engine, buffer pool, spill simulation, and cost accounting all live below
it, so this is the only backend whose :class:`ExecutionStats` drive a
meaningful modeled latency.

It is also the only backend that shares work across a batch:
:meth:`NativeBackend.execute_batch` serves every query of a row range from
**one** scan (shared pages charged once, shared expressions evaluated once)
and fans only the per-query aggregation — each query's last fold into its
:class:`~repro.db.streaming.StreamingGroupAggregator` and the finalize —
out to the dispatcher's pool.  ``execute`` is the same pipeline on a batch
of one — the query pays for its whole scan — which is how NO_OPT's batches
of one stay an exact no-sharing baseline.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import ExecutionStats
from repro.db.backends.base import Backend, BackendCapabilities, register_backend
from repro.db.query import AggregateQuery, QueryResult
from repro.db.shared_scan import Fanout, SharedScanExecutor
from repro.db.storage import StorageEngine

_CAPABILITIES = BackendCapabilities(
    supports_group_budget=True,
    accounts_io=True,
    parallel_safe=True,
    result_fingerprint="native-v2",
    notes="in-process numpy executor; stats feed the paper's cost model",
)


class NativeBackend(Backend):
    """Executes queries with the in-process numpy engine."""

    name = "native"

    def __init__(self, store: StorageEngine) -> None:
        self.store = store
        self.pipeline = SharedScanExecutor(store)

    def execute(self, query: AggregateQuery) -> tuple[QueryResult, ExecutionStats]:
        return self.pipeline.execute_batch([query])[0]

    def execute_batch(
        self,
        queries: Sequence[AggregateQuery],
        fanout: Fanout | None = None,
        delta_keys: Sequence[str] | None = None,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        if delta_keys is None:
            return self.pipeline.execute_batch(queries, fanout=fanout)
        return self.pipeline.execute_batch(queries, fanout=fanout, delta_keys=delta_keys)

    def capabilities(self) -> BackendCapabilities:
        return _CAPABILITIES


register_backend(NativeBackend.name, NativeBackend)
