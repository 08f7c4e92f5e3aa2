"""Real parallel batch execution (paper §4.1 "Parallel Query Execution").

The paper finds that issuing view queries concurrently — up to roughly the
number of cores — is one of the two biggest levers on latency.  The cost
model has always *modeled* that effect (:meth:`CostModelConfig.
effective_parallelism`); this module makes it real: a
:class:`ParallelDispatcher` hands each batch of planned queries to the
backend's ``execute_batch`` in one call, with a ``fanout`` onto its thread
pool.  Dispatch is backend-agnostic — anything satisfying the
:class:`~repro.db.backends.Backend` batch contract works, including a bare
:class:`~repro.db.shared_scan.SharedScanExecutor`.  The native backend
scans shared ranges on the calling thread and fans out each query's
aggregation, whose hot paths (``np.bincount``, ``np.unique``, fancy
indexing) release the GIL; the sqlite backend fans out whole queries on one
connection per worker thread, so both deliver genuine concurrency.

Determinism is a hard requirement: a run with any worker count must produce
byte-identical ``selected`` views and utilities within 1e-9 of a serial run.
The dispatcher guarantees this by construction —

* each job a backend fans out is stateless-per-call and computes its
  result independently of every other in-flight job (sqlite workers use
  per-thread connections to one read-only shared-cache database);
* results are gathered **in submission order** at a batch barrier, so the
  engine routes per-view updates and merges per-query
  :class:`~repro.config.ExecutionStats` in exactly the serial order, keeping
  every floating-point accumulation sequence identical;
* the native backend's shared :class:`~repro.db.buffer.BufferPool` is
  internally locked, so hit/miss bookkeeping stays consistent (totals remain
  exact; the hit/miss *split* may differ from a serial run once eviction
  kicks in, which is faithful to a real buffer pool under concurrency).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from types import TracebackType
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from repro.config import ExecutionStats
from repro.db.query import AggregateQuery, QueryResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ViewResultCache


class ExecutesQueries(Protocol):
    """Structural type the dispatcher drives: the
    :class:`~repro.db.backends.Backend` batch contract.

    A batch that comes with delta-state keys hands them on as
    ``delta_keys=`` (the native backend's, whose pipeline seeds from a
    delta cache).
    """

    def execute_batch(
        self, queries: Sequence[AggregateQuery], fanout: Callable | None = None
    ) -> list[tuple[QueryResult, ExecutionStats]]: ...


class ParallelDispatcher:
    """Runs batches of logical queries concurrently on a thread pool.

    One dispatcher serves one engine run.  ``n_workers <= 1`` degrades to
    inline serial execution with no pool at all, so the serial path stays
    allocation-free.  Use as a context manager (or call :meth:`close`) to
    release the worker threads.

    Every batch is routed to the executor's ``execute_batch`` in one call:
    the backend does its shared work (the native backend's single scan) on
    the calling thread and fans the per-query remainder back out through
    the dispatcher's pool via the ``fanout`` callable.  Submission-order
    gathering — the determinism barrier — is the backend's contract.
    """

    def __init__(self, executor: ExecutesQueries, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.executor = executor
        self.n_workers = n_workers
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "ParallelDispatcher":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="seedb-query"
            )
        return self._pool

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run_batch(
        self,
        queries: Sequence[AggregateQuery],
        cache: "ViewResultCache | None" = None,
        cache_keys: Sequence[str] | None = None,
        delta_keys: Sequence[str] | None = None,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Execute ``queries`` concurrently; results in submission order.

        The returned list is index-aligned with ``queries`` regardless of
        completion order — the deterministic barrier the engine relies on.
        The first worker exception (if any) propagates in submission order.

        With ``cache`` (and per-query ``cache_keys``, index-aligned), every
        query whose key hits the :class:`~repro.core.cache.ViewResultCache`
        is **excluded from dispatch before shared-scan batching**: only the
        misses reach the backend (so a shared scan reads just the columns
        the misses need), their results are inserted into the cache, and
        hits are spliced back in at their original positions.  A hit's
        outcome carries the memoized :class:`QueryResult` and a fresh stats
        record whose only nonzero counters are ``cache_hits=1`` and
        ``cache_bytes_saved`` — hits cost nothing in the cost model.

        ``delta_keys`` (index-aligned, the engine's under a delta cache) go
        with the queries that reach the backend; the key of a cache hit is
        never read (the engine renders each key on read).
        """
        if cache is not None and cache_keys is not None:
            return self._run_batch_cached(queries, cache, cache_keys, delta_keys)
        return self._run_batch_uncached(queries, delta_keys)

    def _run_batch_cached(
        self,
        queries: Sequence[AggregateQuery],
        cache: "ViewResultCache",
        cache_keys: Sequence[str],
        delta_keys: Sequence[str] | None = None,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Serve hits from ``cache``; dispatch and memoize only the misses."""
        if len(cache_keys) != len(queries):
            raise ValueError(
                f"cache_keys length {len(cache_keys)} != batch size {len(queries)}"
            )
        outcomes: list[tuple[QueryResult, ExecutionStats] | None] = [None] * len(queries)
        miss_indices: list[int] = []
        miss_queries: list[AggregateQuery] = []
        for index, (query, key) in enumerate(zip(queries, cache_keys)):
            entry = cache.get(key)
            if entry is not None:
                outcomes[index] = (
                    entry.result,
                    ExecutionStats(
                        cache_hits=1, cache_bytes_saved=entry.bytes_saved()
                    ),
                )
            else:
                miss_indices.append(index)
                miss_queries.append(query)
        if miss_queries:
            executed = self._run_batch_uncached(
                miss_queries, delta_keys and [delta_keys[i] for i in miss_indices]
            )
            for index, outcome in zip(miss_indices, executed):
                result, stats = outcome
                entry = cache.put(cache_keys[index], result, stats)
                # Route the frozen (read-only) arrays so a first run and a
                # warm rerun hand consumers the exact same objects.
                outcomes[index] = (entry.result, stats)
        return outcomes  # type: ignore[return-value]

    def _run_batch_uncached(
        self, queries: Sequence[AggregateQuery], delta_keys: Sequence[str] | None = None
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """The pre-cache dispatch path: one ``execute_batch`` call, fanned
        out onto the pool when there is more than one worker and query."""
        fanout = self._fanout if self.n_workers > 1 and len(queries) > 1 else None
        if delta_keys:
            return self.executor.execute_batch(
                list(queries), fanout=fanout, delta_keys=delta_keys
            )
        return self.executor.execute_batch(list(queries), fanout=fanout)

    def _fanout(self, fn: Callable, items: Sequence) -> list:
        """Run ``fn`` over ``items`` on the pool; results in item order."""
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]


def make_dispatcher(
    executor: ExecutesQueries, mode: str, n_workers: int
) -> ParallelDispatcher:
    """Dispatcher factory for the engine's ``parallelism`` mode.

    "modeled" pins one worker — queries run inline on the calling thread
    and parallel speedup exists only inside the cost model; a modeled run
    still shares the scan, it just runs the per-query grouping inline.
    "real" runs ``n_workers`` threads.  Any other mode is a ``ValueError``.
    """
    if mode == "real":
        return ParallelDispatcher(executor, max(n_workers, 1))
    if mode == "modeled":
        return ParallelDispatcher(executor, 1)
    raise ValueError(f"unknown parallelism mode {mode!r}")
