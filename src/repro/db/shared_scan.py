"""The chunk pipeline: one loop behind every native aggregate query.

SeeDB's core contribution (§4.1) is sharing work across the view space.
:meth:`SharedScanExecutor.execute_batch` is the one physical pipeline that
does it — scan → derive → filter → key → aggregate over *(row-range groups
× query batch × optional seed state)* — and every way the middleware runs a
query is a parameter value of it, not a path of its own (the table is in
``docs/architecture.md``, "The chunk pipeline"): a phase batch, a batch of
one (:meth:`~repro.db.executor.QueryExecutor.execute`,
NO_OPT's per-query baseline), a range that streams chunk by chunk, a
query seeded from the delta cache.

The batch is grouped by row range and each group's rows are read once:

* each distinct base column is scanned **once** per ``(column, start,
  stop)`` — the buffer pool is charged once for pages the group shares and
  the charge is split over the group's queries, so summed
  :class:`~repro.config.ExecutionStats` reflect what a shared scan actually
  reads (a group of one charges its scan to its one consumer);
* each distinct derived / predicate / aggregate-argument expression is
  evaluated once, and its selector, filtered code slices, filtered value
  arrays, and factorized derived group keys are cached and shared by every
  query in the group that uses them;
* grouping and aggregation — the only genuinely per-query work — run over
  the shared arrays in each query's
  :class:`~repro.db.streaming.StreamingGroupAggregator`, the one group-by
  kernel, optionally fanned out onto the parallel dispatcher's thread pool.

A range is scanned as the chunk-aligned sub-ranges the store streams
(``StorageEngine.stream_ranges``; a resident range is one): each goes
through that preparation and is folded, in row order, into the queries'
aggregators, so peak memory is O(chunk + groups) and the result the same
bits at any chunking.  Every sub-range but the last is folded on the
calling thread; the last one's fold and the finalize are the query's job,
so a resident range's aggregation is what fans out.  With a delta cache attached, a
query over the whole table starts from a copy of its cached aggregator state
and scans only the rows past it; it reads a range of its own, so it is a group
of one.  The refreshed state goes back to the cache as it is — the one copy is
the restore's — and a refresh that scanned nothing puts nothing back.  The
pipeline renders no cache key: a batch brings its queries' delta-state keys,
or the delta cache keys a query that came without one.

``execute_batch`` is **stateless per call**: it keeps no mutable state on
the instance and touches only shared structures that are themselves
thread-safe (the locked buffer pool, dictionary cache and delta cache), so
any number of calls may run concurrently on one executor — the parallel
dispatcher and the serving tier both do.  Scans of shared groups run on the
calling thread; the jobs handed to ``fanout`` only read what they prepared.
The differential suite (`tests/test_backends_differential.py`) holds every
parameter value to the others bit for bit, and to the SQLite oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.config import ExecutionStats
from repro.db.executor import (
    aggregate_inputs_of,
    build_query_result,
    dict_key_only_columns,
    group_key_columns,
    shareable,
    tally_aggregation,
)
from repro.db.expressions import Expression
from repro.db.groupby import GroupKeyColumn
from repro.db.query import AggregateQuery, QueryResult
from repro.db.storage import StorageEngine
from repro.db.streaming import StreamingGroupAggregator
from repro.exceptions import QueryError

Outcome = tuple[QueryResult, ExecutionStats]

#: Runs ``fn`` over ``items`` concurrently, preserving order — the shape the
#: parallel dispatcher hands in so grouping fans out onto its pool.
Fanout = Callable[[Callable[[object], object], Sequence[object]], list[object]]


def _spread_scan_stats(scan: ExecutionStats, targets: list[ExecutionStats]) -> None:
    """Split one shared scan's accounting evenly over its consumers.

    Sum over ``targets`` equals ``scan`` exactly (remainders go to the first
    consumer), so the batch as a whole charges every shared page once; the
    even split keeps the cost model's batch latency formula treating the
    scan as pipelined across the batch instead of serialized into one
    query.  Preparation wall time lands on the first consumer.
    """
    n = len(targets)
    for name in (
        "bytes_scanned_miss",
        "bytes_scanned_hit",
        "pages_hit",
        "pages_missed",
        "rows_scanned",
    ):
        total = getattr(scan, name)
        share, remainder = divmod(total, n)
        for j, stats in enumerate(targets):
            setattr(
                stats,
                name,
                getattr(stats, name) + share + (remainder if j == 0 else 0),
            )
    targets[0].wall_seconds += scan.wall_seconds


def _run_job(job: Callable[[], Outcome]) -> Outcome:
    return job()


#: One range's row-aligned ``(key columns, aggregate inputs)`` for one query.
_Prepared = tuple[list[GroupKeyColumn], list[tuple[object, np.ndarray | None]]]


@dataclass
class _Pending:
    """One query between its group's scan and its result."""

    query: AggregateQuery
    #: Its delta-state key, if its batch brought one.
    delta_key: str | None = None
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: The running state each sub-range is folded into: a fresh one, or one
    #: restored from the delta cache.
    aggregator: StreamingGroupAggregator | None = None
    #: Filtered rows a restored aggregator had folded before this execution.
    restored_rows: int = 0


class SharedScanExecutor:
    """Executes query batches against one storage engine: the chunk pipeline.

    Every piece of work two queries of a batch have in common is done once
    (see module docstring); a batch of one is the per-query baseline.
    ``delta_cache`` (a :class:`~repro.core.cache.DeltaStateCache`, attached
    by the engine when ``EngineConfig.delta_cache`` is on) makes prefix
    queries append-aware.  Safe for concurrent ``execute_batch`` calls.

    Example::

        executor = SharedScanExecutor(make_store("col", table))
        outcomes = executor.execute_batch([query_a, query_b])
        (result_a, stats_a), (result_b, stats_b) = outcomes
        # stats_a + stats_b charge each page the batch shares exactly once

    Engines reach this through the dispatcher →
    :meth:`NativeBackend.execute_batch` (whole phase batches; NO_OPT's
    batches of one).
    """

    def __init__(self, store: StorageEngine, delta_cache=None) -> None:
        self.store = store
        self.delta_cache = delta_cache

    def execute_batch(
        self,
        queries: Sequence[AggregateQuery],
        fanout: Fanout | None = None,
        delta_keys: Sequence[str] | None = None,
    ) -> list[Outcome]:
        """Run ``queries``; results in submission order.

        Queries are grouped by row range (one shared scan per distinct
        range); each group's scan I/O is split evenly over its queries'
        stats, so summing the batch's stats charges every shared page
        exactly once while the cost model still sees the scan as pipelined
        across its consumers (not serialized into one query's cost).  A
        batch of one charges its query the whole scan.  ``delta_keys``
        (index-aligned) are the queries' delta-state keys, where the caller
        rendered them.
        """
        queries = list(queries)
        table_name = self.store.table.name
        # Under a delta cache a full-table query scans from its cached prefix
        # and snapshots for the next append: a group of one, keyed by position.
        # A shorter prefix (phase 0) is never snapshotted: it keeps its group.
        groups: dict[tuple[int, int, int], list[int]] = {}
        for i, query in enumerate(queries):
            if query.table != table_name:
                raise QueryError(
                    f"query targets table {query.table!r} but executor holds "
                    f"{table_name!r}"
                )
            start, stop = query.row_range or (0, self.store.nrows)
            seeded = self.delta_cache is not None and 0 == start < stop == self.store.nrows
            groups.setdefault((start, stop, i if seeded else -1), []).append(i)

        # Shared groups scan here, on the calling thread, leaving each query's
        # last fold and its finalize to fan out; a seeded group of one is a
        # whole-query job.
        pending = [
            _Pending(query, delta_keys[i] if delta_keys else None)
            for i, query in enumerate(queries)
        ]
        jobs: list[Callable[[], Outcome]] = [None] * len(pending)  # type: ignore[list-item]
        for (start, stop, own), indices in groups.items():
            if own >= 0:
                jobs[own] = partial(self._run_seeded, pending[own], stop)
                continue
            tails = self._scan_group([pending[i] for i in indices], start, stop)
            for i, tail in zip(indices, tails):
                jobs[i] = partial(self._finish, pending[i], tail)
        if fanout is not None and len(jobs) > 1:
            return fanout(_run_job, jobs)  # type: ignore[return-value]
        return [job() for job in jobs]

    def _run_seeded(self, entry: _Pending, stop: int) -> Outcome:
        """A seeded group of one, whole: restore, scan the tail, fold, put back."""
        (tail,) = self._scan_group([entry], 0, stop, seeded=True)
        return self._finish(entry, tail)

    def _scan_group(
        self, group: list[_Pending], start: int, stop: int, seeded: bool = False
    ) -> list[_Prepared | None]:
        """Read rows ``[start, stop)`` once for every query of ``group``.

        Every chunk-aligned sub-range goes through the same shared
        preparation.  All but the last are folded here, in row order, into
        each query's aggregator — a fresh one, or for a ``seeded`` group of
        one the state the delta cache holds for a prefix of the range, in
        which case only the rows past that prefix are scanned: the
        carry-seeded continuation, bitwise-identical to a scan from row 0.
        The last sub-range's prepared inputs are returned, one per query,
        for :meth:`_finish` to fold; ``None`` where nothing is left to fold.
        A seeded scan (its whole job already) folds the last sub-range too,
        ends at the table's last row and hands its state to the delta cache
        for the next append — unless it scanned nothing, which leaves the
        cached one.
        """
        started = time.perf_counter()
        scan_stats = ExecutionStats()
        queries = [entry.query for entry in group]
        if seeded:
            cache_key, start = self._restore(group[0], stop)
        for entry in group:
            if entry.aggregator is None:
                entry.aggregator = StreamingGroupAggregator(
                    [spec.func for spec in entry.query.aggregates],
                    entry.query.group_budget,
                )
        tails: list[_Prepared | None] = [None] * len(group)
        if not (seeded and start == stop):  # else the restored state covers it
            *head, last = self.store.stream_ranges(start, stop)
            for sub_start, sub_stop in head:
                for entry, prepared in zip(
                    group, self._prepare_range(queries, sub_start, sub_stop, scan_stats)
                ):
                    entry.aggregator.update(*prepared)
            tails = self._prepare_range(queries, *last, scan_stats)
            if seeded:
                # Fed no more rows from here: its own state is the snapshot.
                aggregator = group[0].aggregator
                aggregator.update(*tails[0])
                tails = [None]
                self.delta_cache.put(
                    cache_key,
                    aggregator.release(),
                    stop,
                    self.store.table.fingerprint(),
                    aggregator.snapshot_nbytes(),
                )
        scan_stats.wall_seconds = time.perf_counter() - started
        _spread_scan_stats(scan_stats, [entry.stats for entry in group])
        return tails

    def _restore(self, entry: _Pending, stop: int) -> tuple[str, int]:
        """Seed ``entry`` from a copy of its cached state; ``(cache key, rows
        covered)``.

        A cached state is usable when the current table either *is* the
        table it was captured over or append-extends it (checked via
        :attr:`~repro.db.table.Table.append_lineage`).
        """
        table = self.store.table
        key = entry.delta_key or self.delta_cache.key(self.store, entry.query)
        cached = self.delta_cache.get(key)
        if cached is not None and cached.rows <= stop:
            current = cached.fingerprint == table.fingerprint() and cached.rows <= table.nrows
            extends = table.append_lineage.get(cached.fingerprint) == cached.rows
            if current or extends:
                entry.aggregator = StreamingGroupAggregator.from_snapshot(cached.state)
                entry.restored_rows = entry.aggregator.total_rows
                entry.stats.delta_hits += 1
                return key, cached.rows
        return key, 0

    def _finish(self, entry: _Pending, tail: _Prepared | None) -> Outcome:
        """Fold the scan's last sub-range into ``entry``'s aggregator, finalize,
        tally it and adapt the result.

        ``agg_rows_processed`` and spill bytes charge the rows folded in
        *this* execution; ``QueryResult.input_rows`` stays cumulative.
        """
        query, stats, aggregator = entry.query, entry.stats, entry.aggregator
        started = time.perf_counter()
        if tail is not None:
            aggregator.update(*tail)
        result = aggregator.finalize()
        tally_aggregation(
            stats,
            self.store.table.schema,
            query,
            result,
            aggregator.total_rows - entry.restored_rows,
        )
        stats.wall_seconds += time.perf_counter() - started
        return build_query_result(query, result, aggregator.total_rows), stats

    def _prepare_range(
        self,
        queries: list[AggregateQuery],
        start: int,
        stop: int,
        stats: ExecutionStats,
    ) -> list[_Prepared]:
        """Scan once, evaluate shared expressions once, prepare each query."""
        base_columns = sorted(
            set().union(*(query.base_columns_needed() for query in queries))
        )
        # Literal tests on dictionary-backed columns run on these codes: a
        # column read no other way is charged for its pages but never decoded.
        dictionaries = self.store.table.dictionaries(base_columns, start, stop)
        value_columns = frozenset().union(
            *(query.value_columns_needed(dictionaries) for query in queries)
        )
        skip = dict_key_only_columns(self.store.table, base_columns, value_columns)
        arrays = self.store.scan(base_columns, start, stop, stats, skip_materialize=skip)
        # Skipped dict-encoded key columns still count as base names: they
        # were scanned (codes), just never decoded into value arrays.  A scan
        # with one consumer has nothing to share: no names, no cache keys.
        base_names = frozenset(arrays) | skip if len(queries) > 1 else frozenset()

        derived_values: dict[Expression, np.ndarray] = {}
        arg_values: dict[Expression, np.ndarray] = {}
        selectors: dict[object, np.ndarray] = {}
        filtered_codes: dict[tuple[str, object], np.ndarray] = {}
        derived_keys: dict[tuple[object, object], tuple[np.ndarray, np.ndarray]] = {}
        filtered_args: dict[tuple[object, object], np.ndarray] = {}

        prepared: list[_Prepared] = []
        for query in queries:
            # Names that are genuinely *base* for THIS query: its derived
            # aliases never count, even when they collide with a base column
            # another query in the batch had scanned — treating such a
            # reference as shareable would evaluate it against raw base data
            # instead of the query's derived values.
            q_base = (
                base_names - query.derived_aliases if query.derived else base_names
            )
            q_dictionaries = query.base_dictionaries(dictionaries)

            # Derived columns: one evaluation per distinct expression over
            # base columns; expressions chaining off derived aliases (or
            # carrying unhashable literals) stay private to the query and
            # are evaluated in declaration order, shadowing included.
            q_arrays = arrays
            shared_exprs: dict[str, Expression] = {}
            if query.derived:
                q_arrays = dict(arrays)
                for derived in query.derived:
                    expr = derived.expression
                    if shareable(expr, q_base):
                        values = derived_values.get(expr)
                        if values is None:
                            values = np.asarray(expr.evaluate(arrays, dictionaries))
                            derived_values[expr] = values
                        shared_exprs[derived.alias] = expr
                    else:
                        values = np.asarray(expr.evaluate(q_arrays, q_dictionaries))
                    q_arrays[derived.alias] = values

            # WHERE selector: one evaluation per distinct base-only predicate.
            predicate = query.predicate
            if predicate is None:
                selector = None
                pred_token: object = None
            elif shareable(predicate, q_base):
                pred_token = predicate
                selector = selectors.get(predicate)
                if selector is None:
                    mask = predicate.evaluate(arrays, dictionaries).astype(bool)
                    selector = np.flatnonzero(mask)
                    selectors[predicate] = selector
            else:
                pred_token = object()  # unique token: no cross-query sharing
                mask = predicate.evaluate(q_arrays, q_dictionaries).astype(bool)
                selector = np.flatnonzero(mask)

            key_columns = group_key_columns(
                self.store,
                query,
                q_arrays,
                dictionaries,
                start,
                stop,
                selector,
                shared_exprs,
                pred_token,
                filtered_codes,
                derived_keys,
            )
            aggregate_inputs = aggregate_inputs_of(
                query,
                q_arrays,
                q_base,
                q_dictionaries,
                shared_exprs,
                selector,
                pred_token,
                arg_values,
                filtered_args,
            )
            prepared.append((key_columns, aggregate_inputs))
        return prepared
