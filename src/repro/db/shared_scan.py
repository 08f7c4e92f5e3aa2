"""Shared-scan batch execution: one pass serves a whole phase batch.

SeeDB's core contribution (§4.1) is sharing work across the view space, but
the per-query :class:`~repro.db.executor.QueryExecutor` still re-did the
*physical* share of that work once per query: every ``execute`` call
re-charged the same pages to the buffer pool, re-evaluated the same derived
``CASE WHEN <target>`` flag and WHERE predicate over the same rows,
re-sliced the same dictionary codes, and re-copied the same filtered
measure arrays.  :class:`SharedScanExecutor` hoists all of it to batch
scope:

* each distinct base column is scanned **once** per ``(column, start,
  stop)`` — the buffer pool is charged once for pages the whole batch
  shares, so :class:`~repro.config.ExecutionStats` reflect what a shared
  scan actually reads (the charge lands on the batch's first query);
* each distinct derived / predicate / aggregate-argument expression is
  evaluated once, and its selector, filtered code slices, filtered value
  arrays, and factorized derived group keys are cached and shared by every
  query in the batch that uses them;
* per-query grouping and aggregation — the only genuinely per-query work —
  run over the shared arrays, optionally fanned out onto the parallel
  dispatcher's thread pool.

Preparation is eager and single-threaded (it runs on the dispatching
thread); the per-query jobs only *read* the prepared state, so fanning them
out needs no locking.  Results and per-query accounting match the
per-query executor exactly — group order, float64 aggregate arrays, the
hidden ``__group_count__`` column, spill charging — which the differential
suite (`tests/test_backends_differential.py`) enforces against both the
per-query path and the SQLite oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.config import ExecutionStats
from repro.db.executor import (
    aggregate_inputs_of,
    build_query_result,
    dict_key_only_columns,
    group_key_columns,
    hashable,
    tally_aggregation,
)
from repro.db.expressions import Expression
from repro.db.groupby import GroupKeyColumn, group_aggregate
from repro.db.query import AggregateQuery, QueryResult
from repro.db.storage import StorageEngine
from repro.db.streaming import StreamingGroupAggregator
from repro.exceptions import QueryError

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
    for field in (
        "bytes_scanned_miss",
        "bytes_scanned_hit",
        "pages_hit",
        "pages_missed",
        "rows_scanned",
    ):
        total = getattr(scan, field)
        share, remainder = divmod(total, n)
        for j, stats in enumerate(targets):
            setattr(
                stats,
                field,
                getattr(stats, field) + share + (remainder if j == 0 else 0),
            )
    targets[0].wall_seconds += scan.wall_seconds


@dataclass
class _PreparedQuery:
    """Everything one query needs after the shared preparation pass."""

    query: AggregateQuery
    key_columns: list[GroupKeyColumn]
    aggregate_inputs: list[tuple[object, np.ndarray | None]]
    n_filtered: int


class SharedScanExecutor:
    """Executes whole query batches against one storage engine.

    Semantically equivalent to looping :meth:`QueryExecutor.execute`, but
    every piece of work two queries in the batch have in common is done
    once (see module docstring).  Safe for one ``execute_batch`` call at a
    time per instance; the per-query jobs it hands to ``fanout`` are
    read-only over shared state and may run concurrently.

    Example::

        executor = SharedScanExecutor(make_store("col", table))
        outcomes = executor.execute_batch([query_a, query_b])
        (result_a, stats_a), (result_b, stats_b) = outcomes
        # stats_a + stats_b charge each page the batch shares exactly once

    Engines normally reach this through
    ``EngineConfig(shared_scan=True)`` → the dispatcher's batch path →
    :meth:`NativeBackend.execute_batch`, not directly.
    """

    def __init__(self, store: StorageEngine) -> None:
        self.store = store

    def execute_batch(
        self,
        queries: Sequence[AggregateQuery],
        fanout: Fanout | None = None,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Run ``queries``; results in submission order.

        Queries are grouped by row range (one shared scan per distinct
        range); each range's scan I/O is split evenly over its queries'
        stats, so summing the batch's stats charges every shared page
        exactly once while the cost model still sees the scan as pipelined
        across its consumers (not serialized into one query's cost).
        """
        queries = list(queries)
        if not queries:
            return []
        table_name = self.store.table.name
        for query in queries:
            if query.table != table_name:
                raise QueryError(
                    f"query targets table {query.table!r} but executor holds "
                    f"{table_name!r}"
                )

        by_range: dict[tuple[int, int], list[int]] = {}
        for i, query in enumerate(queries):
            by_range.setdefault(query.row_range or (0, self.store.nrows), []).append(i)

        prepared: list[_PreparedQuery | None] = [None] * len(queries)
        streamed: dict[int, tuple[QueryResult, ExecutionStats]] = {}
        shared_stats: list[tuple[list[int], ExecutionStats]] = []
        for (start, stop), indices in by_range.items():
            ranges = self.store.stream_ranges(start, stop)
            prep_started = time.perf_counter()
            scan_stats = ExecutionStats()
            if len(ranges) > 1:
                for i, outcome in zip(
                    indices,
                    self._execute_streaming_range(queries, indices, ranges, scan_stats),
                ):
                    streamed[i] = outcome
            else:
                self._prepare_range(queries, indices, start, stop, scan_stats, prepared)
            scan_stats.wall_seconds = time.perf_counter() - prep_started
            shared_stats.append((indices, scan_stats))

        pending = [i for i in range(len(queries)) if i not in streamed]
        if fanout is not None and len(pending) > 1:
            ran = fanout(self._run_prepared, [prepared[i] for i in pending])
        else:
            ran = [self._run_prepared(prepared[i]) for i in pending]
        outcomes: list[tuple[QueryResult, ExecutionStats]] = [None] * len(queries)  # type: ignore[list-item]
        for i, outcome in zip(pending, ran):
            outcomes[i] = outcome
        for i, outcome in streamed.items():
            outcomes[i] = outcome
        for indices, scan_stats in shared_stats:
            _spread_scan_stats(scan_stats, [outcomes[i][1] for i in indices])
        return outcomes

    def _execute_streaming_range(
        self,
        queries: list[AggregateQuery],
        indices: list[int],
        ranges: Sequence[tuple[int, int]],
        scan_stats: ExecutionStats,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Serve one row range's batch by streaming chunk-aligned subranges.

        Each subrange goes through the *same* shared preparation as the
        one-shot path — union scan charged once into ``scan_stats``, shared
        derived/predicate/argument expressions evaluated once per chunk —
        and every query folds its chunk-local prepared state into a
        :class:`~repro.db.streaming.StreamingGroupAggregator`.  Peak memory
        is O(chunk + per-query groups); finalized results are
        value-identical to the one-shot batch (and therefore to the
        per-query executor), which the differential oracle enforces.
        Returns outcomes aligned with ``indices``.
        """
        aggregators = {
            i: StreamingGroupAggregator(
                [spec.func for spec in queries[i].aggregates],
                queries[i].group_budget,
                self.store.dense_group_limit,
            )
            for i in indices
        }
        for sub_start, sub_stop in ranges:
            chunk_prepared: list[_PreparedQuery | None] = [None] * len(queries)
            self._prepare_range(
                queries, indices, sub_start, sub_stop, scan_stats, chunk_prepared
            )
            for i in indices:
                prep = chunk_prepared[i]
                assert prep is not None
                aggregators[i].update(prep.key_columns, prep.aggregate_inputs)
        outcomes: list[tuple[QueryResult, ExecutionStats]] = []
        for i in indices:
            stats = ExecutionStats()
            started = time.perf_counter()
            aggregator = aggregators[i]
            result = aggregator.finalize()
            tally_aggregation(
                stats, self.store.table.schema, queries[i], result, aggregator.total_rows
            )
            stats.wall_seconds = time.perf_counter() - started
            outcomes.append(
                (build_query_result(queries[i], result, aggregator.total_rows), stats)
            )
        return outcomes

    # ------------------------------------------------------------------ #
    # shared preparation (single-threaded, on the dispatching thread)
    # ------------------------------------------------------------------ #

    def _prepare_range(
        self,
        queries: list[AggregateQuery],
        indices: list[int],
        start: int,
        stop: int,
        stats: ExecutionStats,
        prepared: list[_PreparedQuery | None],
    ) -> None:
        """Scan once, evaluate shared expressions once, prepare each query."""
        base_columns = sorted(
            set().union(*(queries[i].base_columns_needed() for i in indices))
        )
        # Literal tests on dictionary-backed columns run on these codes: a
        # column read no other way is charged for its pages but never decoded.
        dictionaries = self.store.table.dictionaries(base_columns, start, stop)
        value_columns = frozenset().union(
            *(queries[i].value_columns_needed(dictionaries) for i in indices)
        )
        skip = dict_key_only_columns(self.store.table, base_columns, value_columns)
        arrays = self.store.scan(base_columns, start, stop, stats, skip_materialize=skip)
        # Skipped dict-encoded key columns still count as base names: they
        # were scanned (codes), just never decoded into value arrays.
        base_names = frozenset(arrays) | skip

        derived_values: dict[Expression, np.ndarray] = {}
        arg_values: dict[Expression, np.ndarray] = {}
        selectors: dict[object, np.ndarray] = {}
        filtered_codes: dict[tuple[str, object], np.ndarray] = {}
        derived_keys: dict[tuple[object, object], tuple[np.ndarray, np.ndarray]] = {}
        filtered_args: dict[tuple[object, object], np.ndarray] = {}

        for i in indices:
            query = queries[i]
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
                    shareable = (
                        expr.referenced_columns() <= q_base and hashable(expr)
                    )
                    if shareable:
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
            elif predicate.referenced_columns() <= q_base and hashable(predicate):
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
            n_filtered = len(selector) if selector is not None else (stop - start)

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
            prepared[i] = _PreparedQuery(query, key_columns, aggregate_inputs, n_filtered)

    # ------------------------------------------------------------------ #
    # per-query job (read-only over shared state; safe to fan out)
    # ------------------------------------------------------------------ #

    def _run_prepared(
        self, prep: _PreparedQuery
    ) -> tuple[QueryResult, ExecutionStats]:
        query = prep.query
        stats = ExecutionStats()
        started = time.perf_counter()
        result = group_aggregate(
            prep.key_columns,
            prep.aggregate_inputs,
            query.group_budget,
            dense_limit=self.store.dense_group_limit,
        )
        tally_aggregation(
            stats, self.store.table.schema, query, result, prep.n_filtered
        )
        stats.wall_seconds = time.perf_counter() - started
        return build_query_result(query, result, prep.n_filtered), stats
