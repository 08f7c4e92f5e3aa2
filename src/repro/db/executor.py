"""The query executor: scan → derive → filter → group → aggregate.

One :class:`QueryExecutor` wraps one storage engine.  Each
:meth:`~QueryExecutor.execute` call runs a single logical
:class:`~repro.db.query.AggregateQuery` and returns the result together with
a fresh :class:`~repro.config.ExecutionStats` describing exactly the work
that query did — callers (the SeeDB engine) merge those into run-level stats
and group them into parallel batches for the cost model.

``execute`` is **stateless per call**: it keeps no mutable state on the
instance, allocates its working arrays and stats record locally, and only
touches shared structures that are themselves thread-safe (the storage
engine's locked buffer pool and the table's locked dictionary cache).  The
parallel dispatcher (:mod:`repro.core.parallel`) relies on this to run many
``execute`` calls concurrently against one executor.
"""

from __future__ import annotations

import time

import numpy as np

from repro.config import ExecutionStats
from repro.db.expressions import Dictionaries, Expression
from repro.db.groupby import GroupKeyColumn, GroupResult, group_aggregate
from repro.db.query import AggregateQuery, QueryResult
from repro.db.storage import StorageEngine
from repro.db.streaming import StreamingGroupAggregator
from repro.db.types import Schema
from repro.exceptions import QueryError


def spill_bytes(
    schema: Schema, query: AggregateQuery, n_filtered: int, result: GroupResult
) -> int:
    """Bytes charged for re-reading spilled partitions.

    Each extra pass re-reads the filtered rows' group-by and aggregate
    columns once (spill files bypass the buffer pool, so these are charged
    at miss rate).  Shared by the per-query and shared-scan executors.
    """
    width = 0
    for name in query.group_by:
        width += schema[name].byte_width if name in schema else 4
    for spec in query.aggregates:
        for col in spec.referenced_columns():
            if col in schema:
                width += schema[col].byte_width
    return result.spill_passes * n_filtered * max(width, 1)


def tally_aggregation(
    stats: ExecutionStats,
    schema: Schema,
    query: AggregateQuery,
    result: GroupResult,
    n_filtered: int,
) -> None:
    """Fold one query's grouping work into its stats record.

    Shared by the per-query and shared-scan executors so the two paths stay
    in accounting lockstep (the differential oracle compares them).
    """
    stats.queries_issued += 1
    stats.agg_rows_processed += n_filtered * len(query.aggregates)
    stats.groups_maintained += result.n_groups
    stats.spill_passes += result.spill_passes
    if result.spill_passes:
        stats.bytes_scanned_miss += spill_bytes(schema, query, n_filtered, result)


def build_query_result(
    query: AggregateQuery, result: GroupResult, n_filtered: int
) -> QueryResult:
    """Adapt a :class:`GroupResult` into the backend result contract.

    Per-aggregate arrays keyed by alias plus the hidden ``__group_count__``
    per-group row count the phased AVG merge needs.  Shared by both
    executors.
    """
    values = {
        spec.alias: result.aggregate_values[i]
        for i, spec in enumerate(query.aggregates)
    }
    values["__group_count__"] = result.group_counts
    return QueryResult(
        groups=dict(result.key_values),
        values=values,
        n_groups=result.n_groups,
        input_rows=n_filtered,
    )


def global_group_key(n_rows: int) -> GroupKeyColumn:
    """The single synthetic group a global (no GROUP BY) aggregate uses."""
    return GroupKeyColumn(
        "__all__", np.zeros(n_rows, dtype=np.int32), np.asarray(["all"])
    )


#: Largest flag value :func:`factorize_key` remaps without sorting.
_FACTORIZE_DENSE_LIMIT = 1 << 10


def factorize_key(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` as ``(int32 codes, categories)``.

    A derived group-by key is nearly always the 0/1(/2/3) target/reference
    flag, which a presence count remaps in O(n) where ``np.unique`` sorts
    every row; anything but small non-negative integers takes the sort.
    """
    if values.dtype.kind in "bi" and values.ndim == 1 and values.size:
        small = values.view(np.uint8) if values.dtype.kind == "b" else values
        if small.min() >= 0 and small.max() < _FACTORIZE_DENSE_LIMIT:
            present = np.bincount(small) > 0
            remap = (np.cumsum(present) - 1).astype(np.int32)
            return remap[small], np.flatnonzero(present).astype(values.dtype)
    categories, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int32), categories


def group_key_columns(
    store: StorageEngine,
    query: AggregateQuery,
    arrays: dict[str, np.ndarray],
    dictionaries: dict[str, tuple[np.ndarray, np.ndarray]],
    start: int,
    stop: int,
    selector: np.ndarray | None,
    shared_exprs: dict[str, Expression],
    pred_token: object,
    filtered_codes: dict[tuple[str, object], np.ndarray],
    derived_keys: dict[tuple[object, object], tuple[np.ndarray, np.ndarray]],
) -> list[GroupKeyColumn]:
    """Dictionary-encoded key columns, filtered to the selected rows.

    Physical dimension columns reuse the table's global dictionary (codes
    are stable across phases, so partial results merge on category values);
    derived columns are factorized on the fly.  The last four arguments are
    the shared-scan batch's caches; the per-query executor passes empty ones.
    """
    key_columns: list[GroupKeyColumn] = []
    for name in query.group_by:
        if name in query.derived_aliases:
            expr = shared_exprs.get(name)
            cache_key = (expr, pred_token) if expr is not None else None
            cached = derived_keys.get(cache_key) if cache_key else None
            if cached is None:
                values = arrays[name]
                if selector is not None:
                    values = values[selector]
                cached = factorize_key(values)
                if cache_key is not None:
                    derived_keys[cache_key] = cached
            key_columns.append(GroupKeyColumn(name, *cached))
        else:
            codes, categories = dictionaries.get(name) or store.dictionary_slice(
                name, start, stop, values=arrays.get(name)
            )
            if selector is not None:
                filtered = filtered_codes.get((name, pred_token))
                if filtered is None:
                    filtered = filtered_codes[(name, pred_token)] = codes[selector]
                codes = filtered
            key_columns.append(GroupKeyColumn(name, codes, categories))
    if not key_columns:
        # Global aggregate: a single synthetic group.
        n = len(selector) if selector is not None else (stop - start)
        key_columns.append(global_group_key(n))
    return key_columns


def hashable(obj: object) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def aggregate_inputs_of(
    query: AggregateQuery,
    arrays: dict[str, np.ndarray],
    q_base: frozenset[str],
    dictionaries: Dictionaries,
    shared_exprs: dict[str, Expression],
    selector: np.ndarray | None,
    pred_token: object,
    arg_values: dict[Expression, np.ndarray],
    filtered_args: dict[tuple[object, object], np.ndarray],
) -> list[tuple[object, np.ndarray | None]]:
    """Row-aligned ``(func, values)`` aggregate inputs, filtered to the selection.

    Like :func:`group_key_columns`, takes the shared-scan batch's caches
    (evaluated expression arguments, filtered arrays); the per-query
    executor passes empty ones and an empty ``q_base``: nothing is shared.
    """
    # Cache tokens are type-tagged: a bare column, a derived alias (keyed
    # by its *expression* — two queries may reuse one alias for different
    # expressions), and an expression argument (cached as float64) must
    # never share a filtered-array cache slot.  ``None`` = private.
    # ``q_base`` excludes this query's derived aliases, so an alias
    # shadowing a base column is routed to its expression token, never to
    # the base column's slot.
    inputs: list[tuple[object, np.ndarray | None]] = []
    for spec in query.aggregates:
        token: object = None
        if spec.argument is None:
            inputs.append((spec.func, None))
            continue
        if isinstance(spec.argument, str):
            values = arrays[spec.argument]
            if spec.argument in query.derived_aliases:
                shared = shared_exprs.get(spec.argument)
                if shared is not None:
                    token = ("derived", shared)
            elif spec.argument in q_base:
                token = ("col", spec.argument)
        else:
            expr = spec.argument
            if expr.referenced_columns() <= q_base and hashable(expr):
                values = arg_values.get(expr)
                if values is None:
                    values = np.asarray(expr.evaluate(arrays, dictionaries), dtype=np.float64)
                    arg_values[expr] = values
                token = ("expr", expr)
            else:
                values = np.asarray(expr.evaluate(arrays, dictionaries), dtype=np.float64)
        if selector is not None:
            if token is not None:
                filtered = filtered_args.get((token, pred_token))
                if filtered is None:
                    filtered = filtered_args[(token, pred_token)] = values[selector]
                values = filtered
            else:
                values = values[selector]
        inputs.append((spec.func, values))
    return inputs


def dict_key_only_columns(
    table, base_columns, value_columns
) -> frozenset[str]:
    """Dictionary-encoded columns never read as values: group-by keys and
    columns only tested against literals.

    These are scanned (pages charged — the physical read *is* the 4-byte
    codes) but never decoded: the executors fetch their codes via
    ``dictionary_slice``, so materializing string values would be pure
    waste.  Shared by the per-query and shared-scan executors.
    """
    return frozenset(
        name
        for name in base_columns
        if name not in value_columns
        and table.chunked_column(name).is_dict_encoded
    )


class QueryExecutor:
    """Executes logical aggregate queries against one storage engine.

    Safe for concurrent use from multiple threads: every call works on
    locals only (see module docstring).
    """

    def __init__(self, store: StorageEngine, delta_cache=None) -> None:
        self.store = store
        #: Optional :class:`~repro.core.cache.DeltaStateCache` enabling the
        #: append-aware execution path (attached by the engine when
        #: ``EngineConfig.delta_cache`` is on).
        self.delta_cache = delta_cache

    @property
    def table_name(self) -> str:
        return self.store.table.name

    def execute(self, query: AggregateQuery) -> tuple[QueryResult, ExecutionStats]:
        """Run ``query``; return its result and per-query accounting."""
        if query.table != self.store.table.name:
            raise QueryError(
                f"query targets table {query.table!r} but executor holds "
                f"{self.store.table.name!r}"
            )
        stats = ExecutionStats()
        started = time.perf_counter()

        start, stop = query.row_range or (0, self.store.nrows)
        ranges = self.store.stream_ranges(start, stop)
        if self.delta_cache is not None and start == 0 and stop > 0:
            result, n_filtered = self._execute_delta(query, stop, stats)
        elif len(ranges) > 1:
            # Chunk-at-a-time: O(chunk + groups) memory, and the exact
            # one-shot result (see :mod:`repro.db.streaming`).
            aggregator = self._new_aggregator(query)
            for sub_start, sub_stop in ranges:
                aggregator.update(*self._prepare(query, sub_start, sub_stop, stats))
            result, n_filtered = aggregator.finalize(), aggregator.total_rows
        else:
            key_columns, aggregate_inputs = self._prepare(query, start, stop, stats)
            result = group_aggregate(
                key_columns,
                aggregate_inputs,
                query.group_budget,
                dense_limit=self.store.dense_group_limit,
            )
            n_filtered = len(key_columns[0].codes)

        tally_aggregation(stats, self.store.table.schema, query, result, n_filtered)
        stats.wall_seconds = time.perf_counter() - started
        return build_query_result(query, result, n_filtered), stats

    def _new_aggregator(self, query: AggregateQuery) -> StreamingGroupAggregator:
        return StreamingGroupAggregator(
            [spec.func for spec in query.aggregates],
            query.group_budget,
            self.store.dense_group_limit,
        )

    def _prepare(
        self, query: AggregateQuery, start: int, stop: int, stats: ExecutionStats
    ) -> tuple[list[GroupKeyColumn], list]:
        """Scan → derive → filter rows ``[start, stop)`` into the row-aligned
        key columns and aggregate inputs that grouping takes."""
        base_columns = sorted(query.base_columns_needed())
        dictionaries = query.base_dictionaries(
            self.store.table.dictionaries(base_columns, start, stop)
        )
        skip = dict_key_only_columns(
            self.store.table, base_columns, query.value_columns_needed(dictionaries)
        )
        arrays = self.store.scan(base_columns, start, stop, stats, skip_materialize=skip)
        for derived in query.derived:
            arrays[derived.alias] = np.asarray(derived.expression.evaluate(arrays, dictionaries))
        selector = None
        if query.predicate is not None:
            mask = query.predicate.evaluate(arrays, dictionaries).astype(bool)
            selector = np.flatnonzero(mask)
        # Same builders as a shared-scan batch, with nothing to share.
        key_columns = group_key_columns(
            self.store, query, arrays, dictionaries, start, stop, selector, {}, None, {}, {}
        )
        inputs = aggregate_inputs_of(
            query, arrays, frozenset(), dictionaries, {}, selector, None, {}, {}
        )
        return key_columns, inputs

    def _execute_delta(
        self, query: AggregateQuery, stop: int, stats: ExecutionStats
    ) -> tuple[GroupResult, int]:
        """Append-aware execution: seed from cached state, scan the delta.

        Looks up the query's partial-aggregation state in the delta cache.
        A cached entry is usable when the current table either *is* the
        table it was captured over or append-extends it (checked via
        :attr:`~repro.db.table.Table.append_lineage`) — then the
        aggregator restores the snapshot and streams only rows past the
        cached prefix, which is exactly the carry-seeded continuation of
        the one-shot accumulation (bitwise-identical results; the oracle's
        append leg enforces this).  Otherwise the full range streams into
        a fresh aggregator.  Full-table executions snapshot their final
        state back into the cache for the next append.
        """
        from repro.core.cache import delta_state_key

        table = self.store.table
        key = delta_state_key(self.store, query)
        entry = self.delta_cache.get(key)
        aggregator: StreamingGroupAggregator | None = None
        scan_from = 0
        if entry is not None and entry.rows <= stop:
            current = entry.fingerprint == table.fingerprint() and entry.rows <= table.nrows
            extends = table.append_lineage.get(entry.fingerprint) == entry.rows
            if current or extends:
                aggregator = StreamingGroupAggregator.from_snapshot(entry.state)
                scan_from = entry.rows
                stats.delta_hits += 1
        if aggregator is None:
            aggregator = self._new_aggregator(query)
        if scan_from < stop:
            for sub_start, sub_stop in self.store.stream_ranges(scan_from, stop):
                aggregator.update(*self._prepare(query, sub_start, sub_stop, stats))
        if stop == self.store.nrows:
            self.delta_cache.put(
                key,
                aggregator.snapshot(),
                stop,
                table.fingerprint(),
                aggregator.snapshot_nbytes(),
            )
        return aggregator.finalize(), aggregator.total_rows
