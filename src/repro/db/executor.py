"""The operators of the chunk pipeline, and its per-query entry point.

The pipeline itself — scan → derive → filter → key → aggregate over a query
batch — is :meth:`repro.db.shared_scan.SharedScanExecutor.execute_batch`,
and its one group-by kernel is
:class:`~repro.db.streaming.StreamingGroupAggregator`.  This module holds
the steps between them (key columns, aggregate inputs, the accounting
tally, the result adapter) and
:class:`QueryExecutor`, which runs one logical
:class:`~repro.db.query.AggregateQuery` as a batch of one and returns the
result together with a fresh :class:`~repro.config.ExecutionStats`
describing exactly the work that query did — callers (the SeeDB engine)
merge those into run-level stats and group them into parallel batches for
the cost model.

``execute`` is **stateless per call**, like the pipeline under it: the
parallel dispatcher (:mod:`repro.core.parallel`) relies on this to run many
``execute`` calls concurrently against one executor.
"""

from __future__ import annotations

import numpy as np

from repro.config import ExecutionStats
from repro.db.expressions import Dictionaries, Expression
from repro.db.groupby import GroupKeyColumn, GroupResult, factorize_key
from repro.db.query import AggregateQuery, QueryResult
from repro.db.storage import StorageEngine
from repro.db.types import Schema


def spill_bytes(
    schema: Schema, query: AggregateQuery, n_filtered: int, result: GroupResult
) -> int:
    """Bytes charged for re-reading spilled partitions.

    Each extra pass re-reads the filtered rows' group-by and aggregate
    columns once (spill files bypass the buffer pool, so these are charged
    at miss rate).
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

    ``n_filtered`` is the rows aggregated in this execution: a query seeded
    from the delta cache is not charged again for the rows its restored
    state had already folded.
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
    per-group row count the phased AVG merge needs.
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
    the caches the queries sharing this scan have in common.
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


def shareable(expr: Expression, q_base: frozenset[str]) -> bool:
    """Whether queries sharing a scan may share one evaluation of ``expr``.

    It must read base columns only (``q_base``: none of the query's derived
    aliases) and be hashable, to key the scan's caches.  An empty ``q_base``
    — a scan with a single consumer — shares nothing and hashes nothing.
    """
    if not q_base or not expr.referenced_columns() <= q_base:
        return False
    try:
        hash(expr)
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

    Like :func:`group_key_columns`, takes the caches of the queries sharing
    this scan (evaluated expression arguments, filtered arrays).
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
            if shareable(expr, q_base):
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
    codes) but never decoded: the pipeline fetches their codes via
    ``dictionary_slice``, so materializing string values would be pure
    waste.
    """
    return frozenset(
        name
        for name in base_columns
        if name not in value_columns
        and table.chunked_column(name).is_dict_encoded
    )


class QueryExecutor:
    """Executes logical aggregate queries, one at a time, on one storage engine.

    A batch of one through the chunk pipeline: nothing is shared, so the
    query's stats charge its whole scan — the per-query baseline NO_OPT
    measures.  Safe for concurrent use from multiple threads (see module
    docstring).
    """

    def __init__(self, store: StorageEngine, delta_cache=None) -> None:
        # Deferred import: the pipeline is built from this module's operators.
        from repro.db.shared_scan import SharedScanExecutor

        self.store = store
        self._pipeline = SharedScanExecutor(store, delta_cache)

    def execute(self, query: AggregateQuery) -> tuple[QueryResult, ExecutionStats]:
        """Run ``query``; return its result and per-query accounting."""
        return self._pipeline.execute_batch([query])[0]
