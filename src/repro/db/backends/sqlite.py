"""A real second engine: stdlib ``sqlite3`` executing our generated SQL.

This backend is the differential-testing oracle the tier-1 suite runs the
whole optimizer stack against.  It materializes the storage engine's
:class:`~repro.db.table.Table` **once** into an in-memory SQLite database,
ships :func:`~repro.db.sql.generate_sql` text to it verbatim, and adapts
the returned rows into the :class:`~repro.db.query.QueryResult` shape the
engine routes — so a disagreement between this backend and the native one
localizes a bug in the planner, the SQL generator, or the executor.

Semantics matched to the native executor:

* **Dimension ordering** — every statement carries ``ORDER BY`` over the
  group columns; SQLite's BINARY collation over TEXT equals numpy's
  code-point sort for the UTF-8 strings we store, so groups come back in
  the native composite-key order.
* **Row ranges** — the phased framework's ``row_range`` becomes a WHERE
  range over an explicit ``__seedb_row__ INTEGER PRIMARY KEY`` column
  (0-based insertion index, also the rowid, so range scans are index
  scans).
* **Empty groups** — a hidden ``COUNT(*)`` column is added to every
  statement; a global aggregate over zero qualifying rows (where SQL
  still returns one NULL-ish row) is collapsed to the native executor's
  zero-group result, and any NULL aggregate becomes NaN.
* **Derived flag columns** — CASE expressions are grouped by alias, which
  SQLite resolves natively.

Concurrency: the database lives in SQLite shared-cache memory
(``file:...?mode=memory&cache=shared``).  A keeper connection pins it
alive; every thread that calls :meth:`execute` lazily opens its own
connection to the same URI, so ``parallelism="real"`` runs concurrent
SELECTs without sharing a connection across threads.

Known, documented limits (see ``capabilities().notes``): float columns
containing NaN are rejected at materialization (SQLite binds NaN as NULL,
which would silently change AVG), and ``/`` between two integer operands
is integer division in SQLite where numpy division is true division.
"""

from __future__ import annotations

import itertools
import re
import sqlite3
import threading
import time

import numpy as np

from repro.config import ExecutionStats
from repro.db.backends.base import Backend, BackendCapabilities, register_backend
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    QueryResult,
)
from repro.db.sql import generate_sql
from repro.db.storage import StorageEngine
from repro.db.table import Table
from repro.db.types import ColumnType
from repro.exceptions import BackendError, QueryError, StorageError

#: Explicit row-number column (also the rowid) used for row_range scans.
ROW_COLUMN = "__seedb_row__"
#: Hidden per-group row count appended to every shipped statement.
COUNT_ALIAS = "__seedb_count__"

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
#: The keywords of the SQL subset :func:`generate_sql` writes.
KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND", "OR", "NOT", "IN",
    "CASE", "WHEN", "THEN", "ELSE", "END", "TRUE", "FALSE", "ORDER", "ASC",
    "DESC", "LIMIT", "NULL",
}
#: Words SQLite would misread as keywords if our generator emitted them
#: bare as column/table names: the SQL subset's keyword list, plus
#: aggregate function names and SQLite extras.
_RESERVED = frozenset(
    {keyword.lower() for keyword in KEYWORDS}
    | {f.value.lower() for f in AggregateFunction}
    | {"distinct", "having"}
)

_SQLITE_TYPES = {
    ColumnType.INT: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.STR: "TEXT",
    ColumnType.BOOL: "INTEGER",
}

_CAPABILITIES = BackendCapabilities(
    supports_group_budget=False,
    accounts_io=False,
    parallel_safe=True,
    result_fingerprint="sqlite-v1",
    notes=(
        "independent SQL engine (stdlib sqlite3, in-memory shared cache); "
        "no buffer-pool/spill accounting; NaN column values rejected; "
        "integer '/' is integer division"
    ),
)

_uri_counter = itertools.count()


def _check_identifier(kind: str, name: str) -> None:
    if name in (ROW_COLUMN, COUNT_ALIAS):
        raise BackendError(
            f"{kind} name {name!r} is reserved by the sqlite backend"
        )
    if not _IDENTIFIER.match(name) or name.lower() in _RESERVED:
        raise BackendError(
            f"sqlite backend requires identifier-safe {kind} names "
            f"(generated SQL ships them unquoted); got {name!r}"
        )


class SQLiteBackend(Backend):
    """Executes generated SQL text on an in-memory SQLite database."""

    name = "sqlite"

    def __init__(self, store: StorageEngine) -> None:
        self.store = store
        self.table = store.table
        self._uri = f"file:seedb_backend_{next(_uri_counter)}?mode=memory&cache=shared"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._closed = False
        # The keeper pins the shared-cache database alive for the backend's
        # lifetime; per-thread reader connections attach to the same URI.
        # Each entry records the owning thread so connections left behind by
        # finished dispatcher workers can be reclaimed (see _connection).
        self._keeper = sqlite3.connect(self._uri, uri=True, check_same_thread=False)
        self._connections: list[tuple[threading.Thread | None, sqlite3.Connection]] = [
            (None, self._keeper)
        ]
        try:
            self._materialize(self._keeper, self.table)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _materialize(self, conn: sqlite3.Connection, table: Table) -> None:
        _check_identifier("table", table.name)
        for column in table.schema:
            _check_identifier("column", column.name)
        for column in table.schema:
            if column.ctype is ColumnType.FLOAT:
                values = table.column(column.name)
                if np.isnan(values).any():
                    raise BackendError(
                        f"column {column.name!r} contains NaN, which sqlite3 "
                        "binds as NULL and would silently change aggregate "
                        "semantics; clean the data or use the native backend"
                    )
        decls = [f'"{ROW_COLUMN}" INTEGER PRIMARY KEY'] + [
            f'"{c.name}" {_SQLITE_TYPES[c.ctype]}' for c in table.schema
        ]
        conn.execute(f'CREATE TABLE "{table.name}" ({", ".join(decls)})')
        columns = [table.column(name).tolist() for name in table.column_names]
        placeholders = ", ".join("?" for _ in range(len(columns) + 1))
        conn.executemany(
            f'INSERT INTO "{table.name}" VALUES ({placeholders})',
            zip(range(table.nrows), *columns),
        )
        conn.commit()

    def _connection(self) -> sqlite3.Connection:
        """This thread's reader connection to the shared-cache database."""
        conn: sqlite3.Connection | None = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        # The closed check, connect, and registration happen under one lock
        # so a connection can never be opened concurrently with close() and
        # escape it.
        with self._lock:
            if self._closed:
                raise BackendError("sqlite backend is closed")
            # Reclaim connections whose dispatcher worker thread has exited
            # (thread-local storage died with the thread, so nothing else
            # can reach them); keeps long-lived engines from accumulating
            # one connection per worker per run.
            live: list[tuple[threading.Thread | None, sqlite3.Connection]] = []
            for thread, registered in self._connections:
                if thread is not None and not thread.is_alive():
                    registered.close()
                else:
                    live.append((thread, registered))
            self._connections = live
            conn = sqlite3.connect(self._uri, uri=True, check_same_thread=False)
            conn.execute("PRAGMA query_only=ON")
            self._connections.append((threading.current_thread(), conn))
        self._local.conn = conn
        return conn

    def close(self) -> None:
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for _, conn in connections:
            conn.close()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(self, query: AggregateQuery) -> tuple[QueryResult, ExecutionStats]:
        if self._closed:
            raise BackendError("sqlite backend is closed")
        if query.table != self.table.name:
            raise QueryError(
                f"query targets table {query.table!r} but backend holds "
                f"{self.table.name!r}"
            )
        start, stop = query.row_range or (0, self.table.nrows)
        if start < 0 or stop > self.table.nrows or start > stop:
            # Mirror StorageEngine.scan's validation so both backends fail
            # identically on bad ranges (error parity for the oracle).
            raise StorageError(
                f"bad scan range [{start}, {stop}) for table of "
                f"{self.table.nrows} rows"
            )
        stats = ExecutionStats()
        started = time.perf_counter()

        rows = self._connection().execute(self._render(query)).fetchall()
        if not query.group_by and rows and rows[0][-1] == 0:
            # SQL returns one row for a global aggregate even over zero
            # qualifying rows; the native executor returns zero groups.
            rows = []
        result = self._adapt(query, rows)

        stats.queries_issued += 1
        stats.rows_scanned += stop - start
        stats.agg_rows_processed += result.input_rows * len(query.aggregates)
        stats.groups_maintained += result.n_groups
        stats.wall_seconds = time.perf_counter() - started
        return result, stats

    def _render(self, query: AggregateQuery) -> str:
        """The SQL text shipped for ``query`` (count column + ordering)."""
        for spec in query.aggregates:
            _check_identifier("aggregate alias", spec.alias)
        for derived in query.derived:
            _check_identifier("derived alias", derived.alias)
        for derived in query.derived:
            if derived.alias in self.table.schema:
                # SQLite resolves a bare GROUP BY/ORDER BY name to the real
                # column, the native executor to the derived alias — the
                # results would silently diverge, so refuse the ambiguity.
                raise BackendError(
                    f"derived alias {derived.alias!r} shadows a physical "
                    f"column of table {self.table.name!r}; rename the alias "
                    "or the column for the sqlite backend"
                )
        augmented = AggregateQuery(
            table=query.table,
            group_by=query.group_by,
            aggregates=query.aggregates
            + (AggregateSpec(AggregateFunction.COUNT, None, COUNT_ALIAS),),
            predicate=query.predicate,
            derived=query.derived,
            row_range=query.row_range,
        )
        return generate_sql(
            augmented, row_bounds_column=ROW_COLUMN, order_by_groups=True
        )

    def _adapt(
        self, query: AggregateQuery, rows: list[tuple[object, ...]]
    ) -> QueryResult:
        """Rows → the native executor's QueryResult shape."""
        n_keys = len(query.group_by)
        groups: dict[str, np.ndarray] = {}
        for i, name in enumerate(query.group_by):
            raw = [row[i] for row in rows]
            if name in query.derived_aliases:
                groups[name] = np.asarray(raw)
            else:
                column = self.table.column(name)
                groups[name] = np.asarray(raw, dtype=column.dtype)
        if not query.group_by:
            # Native synthesizes a single "all" group for global aggregates.
            groups["__all__"] = np.asarray(["all"] if rows else [], dtype=str)
        values: dict[str, np.ndarray] = {}
        for j, spec in enumerate(query.aggregates):
            raw = [row[n_keys + j] for row in rows]
            values[spec.alias] = np.asarray(
                [np.nan if v is None else float(v) for v in raw], dtype=np.float64
            )
        counts = np.asarray([row[-1] for row in rows], dtype=np.int64)
        values["__group_count__"] = counts
        return QueryResult(
            groups=groups,
            values=values,
            n_groups=len(rows),
            input_rows=int(counts.sum()),
        )

    # ------------------------------------------------------------------ #
    # protocol
    # ------------------------------------------------------------------ #

    def capabilities(self) -> BackendCapabilities:
        return _CAPABILITIES


register_backend(SQLiteBackend.name, SQLiteBackend)
