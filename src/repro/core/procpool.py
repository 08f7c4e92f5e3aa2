"""Process-parallel query execution over an on-disk chunk store.

``parallelism="real"`` runs each phase's queries on a thread pool — real
concurrency on the native backend's GIL-releasing hot paths, but still one
interpreter.  This module adds ``parallelism="process"``: a
:class:`ProcessPoolDispatcher` fans the phase's planned queries out to a
persistent ``ProcessPoolExecutor`` whose workers re-open the dataset's
chunk store via ``np.memmap`` (:func:`repro.db.chunks.open_table`).  Only
``(store_path, store_kind, query plan)`` tuples cross the process
boundary on the way out and small per-group aggregate arrays on the way
back — column data is never pickled.

**Bitwise identity** (the hard requirement shared with the thread
dispatcher) is preserved by fanning out *whole queries*, not chunk
partials.  Each worker executes complete :class:`AggregateQuery` objects
with the chunk pipeline (:mod:`repro.db.shared_scan`), which streams
chunk-at-a-time through the carry-seeded
:class:`~repro.db.streaming.StreamingGroupAggregator` —
so its per-query result is the exact one-shot left-to-right accumulation,
byte-identical to serial execution no matter which process runs it.
Merging *independently computed* chunk partials instead would
re-parenthesize the floating-point sums and drift in the last ulp (see
:mod:`repro.db.streaming`).  The parent gathers results in submission
order, the same determinism barrier the thread dispatcher uses.

There is one worker entry point, a slice of the batch: shared-scan batches
are split into contiguous per-worker slices, each served by one shared scan
inside its worker, and per-query dispatch ships slices of one.  Results are
independent of batch composition (every query owns its aggregator; the
scan is shared, the grouping is not), so slicing changes only the I/O
accounting: each slice pays for its own scan, so ``bytes_scanned`` /
``rows_scanned`` exceed a single-process shared scan while results stay
identical.

The pool is process-global and persistent (spawn context — safe under
threaded servers), sized to the largest worker count requested so far;
worker processes cache one open backend per ``(store_path, kind)`` so a
session's second phase pays no re-open cost.  Call :func:`shutdown_pool`
to reclaim the workers (tests do; the service relies on process exit).
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Sequence

from repro.config import ExecutionStats
from repro.db.query import AggregateQuery, QueryResult
from repro.exceptions import RecommendationError
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.parallel import ExecutesQueries

# Deferred import: parallel.py imports nothing from here, so this module
# importing ParallelDispatcher at the top level is cycle-free.
from repro.core.parallel import ParallelDispatcher

# --------------------------------------------------------------------------- #
# the persistent pool (parent side)
# --------------------------------------------------------------------------- #

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def get_pool(n_workers: int) -> ProcessPoolExecutor:
    """The shared ``ProcessPoolExecutor``, grown to ``n_workers`` if needed.

    Spawn (not fork) context: the parent may be a threaded HTTP server,
    where forking risks duplicating held locks.  The pool persists across
    engine runs so workers amortize interpreter + numpy start-up and keep
    their memmap-backed tables open.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers < n_workers:
            old = _pool
            _pool = ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=multiprocessing.get_context("spawn"),
            )
            _pool_workers = n_workers
            if old is not None:
                old.shutdown(wait=False)
        return _pool


def shutdown_pool() -> None:
    """Shut down the shared pool (idempotent; it is rebuilt on demand)."""
    global _pool, _pool_workers
    with _pool_lock:
        pool, _pool, _pool_workers = _pool, None, 0
    if pool is not None:
        pool.shutdown(wait=True)


def _rebuild_pool(broken: ProcessPoolExecutor, n_workers: int) -> ProcessPoolExecutor:
    """Replace a broken pool with a fresh one (thread-safe, idempotent).

    A ``BrokenProcessPool`` poisons the executor permanently — every
    later submit raises.  Concurrent phases may hit the same breakage;
    whichever arrives first swaps the global, the rest see the swap
    already happened (``_pool is not broken``) and just use the new pool.
    """
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is broken or _pool is None:
            _pool = ProcessPoolExecutor(
                max_workers=max(n_workers, _pool_workers, 1),
                mp_context=multiprocessing.get_context("spawn"),
            )
            _pool_workers = max(n_workers, _pool_workers, 1)
        current = _pool
    broken.shutdown(wait=False)
    return current


atexit.register(shutdown_pool)


# --------------------------------------------------------------------------- #
# recovery accounting (parent side)
# --------------------------------------------------------------------------- #

_recovery_lock = threading.Lock()
_recovery = {"broken_pools": 0, "batches_rerun": 0, "degraded_batches": 0}


def _count_recovery(key: str) -> None:
    with _recovery_lock:
        _recovery[key] += 1


def recovery_counters() -> dict[str, int]:
    """Lifetime pool-recovery counters for this process.

    ``broken_pools`` — times a phase batch hit ``BrokenProcessPool``;
    ``batches_rerun`` — batches that succeeded on the rebuilt pool;
    ``degraded_batches`` — batches that fell back to inline (thread-path)
    execution because the rebuilt pool broke again.
    """
    with _recovery_lock:
        return dict(_recovery)


def reset_recovery_counters() -> None:
    """Zero the recovery counters (test isolation)."""
    with _recovery_lock:
        for key in _recovery:
            _recovery[key] = 0


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #

#: Per-worker-process cache of open backends, keyed by (store_path, kind).
_worker_backends: dict[tuple[str, str], object] = {}


def _worker_backend(store_path: str, store_kind: str):
    """The worker's (cached) native backend over the memmap-opened store.

    On every reuse the cached table re-checks the on-disk manifest digest
    (:meth:`Table.refresh_from_disk` — one small JSON read): the store may
    have been appended to since this worker opened it, and serving the old
    memmaps would silently drop the new rows.
    """
    key = (store_path, store_kind)
    backend = _worker_backends.get(key)
    if backend is None:
        from repro.db.backends.native import NativeBackend
        from repro.db.chunks import open_table
        from repro.db.storage import make_store

        table = open_table(store_path)
        backend = NativeBackend(make_store(store_kind, table))  # type: ignore[arg-type]
        _worker_backends[key] = backend
    elif backend.store.table.refresh_from_disk():
        backend.store.sync_layout()
    return backend


def _worker_execute_batch(
    store_path: str,
    store_kind: str,
    queries: list[AggregateQuery],
    stream_chunk_rows: int | None = None,
) -> list[tuple[QueryResult, ExecutionStats]]:
    """Execute one slice of a batch in the worker (module-level for pickling).

    One scan per slice; per-query fan-out ships slices of one.  The worker
    re-opens the store, so every task ships the parent store's streaming
    granularity and applies it unconditionally (``None`` resets a reused
    worker); granularity never changes a result bit.
    """
    faults.maybe_exit("break_pool_worker", store_path)
    backend = _worker_backend(store_path, store_kind)
    backend.store.stream_chunk_rows = stream_chunk_rows
    return backend.execute_batch(queries, fanout=None)


# --------------------------------------------------------------------------- #
# dispatcher (parent side)
# --------------------------------------------------------------------------- #


def _partition(queries: list[AggregateQuery], n_slices: int) -> list[list[AggregateQuery]]:
    """Split ``queries`` into up to ``n_slices`` contiguous non-empty slices."""
    n_slices = min(n_slices, len(queries))
    base, extra = divmod(len(queries), n_slices)
    slices: list[list[AggregateQuery]] = []
    start = 0
    for index in range(n_slices):
        stop = start + base + (1 if index < extra else 0)
        slices.append(queries[start:stop])
        start = stop
    return slices


class ProcessPoolDispatcher(ParallelDispatcher):
    """A :class:`ParallelDispatcher` that fans out to worker *processes*.

    Inherits the cache-probe/splice logic unchanged (the view-result cache
    lives in the parent; only misses are dispatched) and overrides the
    uncached path: slices of the batch go to the shared process pool — one
    query each, or for shared-scan batches one contiguous slice per worker,
    served by one scan inside it.  Results are gathered in submission order.

    ``close()`` intentionally does **not** shut the process pool down: the
    pool is shared and persistent (see :func:`get_pool`); use
    :func:`shutdown_pool` to reclaim it.

    **Crash recovery**: a worker dying mid-phase — OOM kill, segfaulting
    native code, an injected ``break_pool_worker`` fault — poisons the
    whole executor with ``BrokenProcessPool``.  The dispatcher then rebuilds the pool once and
    re-runs the failed phase batch from scratch; whole-query fan-out means
    the re-run is bitwise identical to an undisturbed run (each query is a
    complete left-to-right accumulation wherever it executes).  If the
    rebuilt pool breaks again on the same batch, the batch degrades to
    inline execution on the parent's own backend — same executor code,
    same store bytes, still bitwise identical, just without process
    parallelism.  See :func:`recovery_counters` for the accounting.
    """

    def __init__(
        self,
        executor: "ExecutesQueries",
        n_workers: int,
        use_batch: bool = False,
        *,
        store_path: str,
        store_kind: str,
    ) -> None:
        """Wrap ``executor``; workers re-open ``store_path`` as ``store_kind``."""
        super().__init__(executor, n_workers, use_batch)
        self._store_path = store_path
        self._store_kind = store_kind

    def _fan_out(
        self, pool: ProcessPoolExecutor, batch: list[AggregateQuery]
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Submit ``batch`` to ``pool``; gather in submission order."""
        # The engine sets the parent store's streaming granularity from its
        # config; workers opened their own copies of the store without it.
        store = getattr(self.executor, "store", None)
        chunk_rows = getattr(store, "stream_chunk_rows", None)
        # Shared-scan batches go out as one contiguous slice per worker;
        # per-query dispatch is the same call on slices of one.
        n_slices = self.n_workers if self.use_batch else len(batch)
        futures = [
            pool.submit(
                _worker_execute_batch,
                self._store_path,
                self._store_kind,
                part,
                chunk_rows,
            )
            for part in _partition(batch, n_slices)
        ]
        outcomes: list[tuple[QueryResult, ExecutionStats]] = []
        for future in futures:
            outcomes.extend(future.result())
        return outcomes

    def _run_batch_uncached(
        self, queries: Sequence[AggregateQuery], delta_keys: Sequence[str] | None = None
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Dispatch misses to worker processes (submission-order gather).
        Workers keep no delta state: ``delta_keys`` serve the inline paths."""
        batch = list(queries)
        if self.n_workers <= 1 or len(batch) <= 1:
            # Inline on the parent's own backend: same executor code over
            # the same store bytes, so results are identical and the
            # single-query case skips a pickle round-trip.
            return super()._run_batch_uncached(batch, delta_keys)
        pool = get_pool(self.n_workers)
        try:
            return self._fan_out(pool, batch)
        except BrokenProcessPool:
            _count_recovery("broken_pools")
            fresh = _rebuild_pool(pool, self.n_workers)
            try:
                outcomes = self._fan_out(fresh, batch)
            except BrokenProcessPool:
                # Rebuild didn't hold (e.g. a deterministic crasher in the
                # data path): give up on process parallelism for this
                # batch and run it inline — correctness over speed.
                _count_recovery("degraded_batches")
                return super()._run_batch_uncached(batch, delta_keys)
            _count_recovery("batches_rerun")
            return outcomes


def process_dispatcher(
    executor: "ExecutesQueries",
    n_workers: int,
    use_batch: bool = False,
) -> ProcessPoolDispatcher:
    """Build a :class:`ProcessPoolDispatcher` for ``executor`` or fail clearly.

    Requirements: the executor must be a backend over a storage engine
    (``.store``) whose table carries a ``source_path`` — i.e. the native
    backend over a table opened from an on-disk chunk store
    (:func:`repro.db.chunks.open_table`).  In-memory tables have no path a
    worker process could re-open, and pickling their columns is exactly
    what this mode exists to avoid.
    """
    store = getattr(executor, "store", None)
    table = getattr(store, "table", None)
    source_path = getattr(table, "source_path", None)
    if store is None or not getattr(executor, "name", "") == "native":
        raise RecommendationError(
            "process parallelism requires the native backend "
            f"(got {type(executor).__name__})"
        )
    if not source_path:
        raise RecommendationError(
            "process parallelism requires a table opened from an on-disk "
            "chunk store (repro.db.chunks.open_table); in-memory table "
            f"{getattr(table, 'name', '?')!r} has no source_path for "
            "worker processes to re-open"
        )
    return ProcessPoolDispatcher(
        executor,
        max(n_workers, 1),
        use_batch=use_batch,
        store_path=str(source_path),
        store_kind=str(getattr(store, "kind", "col")),
    )


__all__ = [
    "ProcessPoolDispatcher",
    "get_pool",
    "process_dispatcher",
    "recovery_counters",
    "reset_recovery_counters",
    "shutdown_pool",
]
