"""In-memory DBMS substrate.

SeeDB is middleware over "any SQL-compliant DBMS"; this subpackage supplies
that DBMS: typed tables (:mod:`repro.db.table`), two physical storage engines
with paged I/O accounting (:mod:`repro.db.storage`), a buffer pool
(:mod:`repro.db.buffer`), vectorized expression evaluation
(:mod:`repro.db.expressions`), hash aggregation with a memory budget and
a charged spill (:mod:`repro.db.groupby`), one chunk pipeline serving
whole phase batches from one pass (:mod:`repro.db.shared_scan`) with a
per-query entry point (:mod:`repro.db.executor`), the SQL text a
deployment would send (:mod:`repro.db.sql`), pluggable execution backends
including a real second SQL engine that runs that text
(:mod:`repro.db.backends`), and a deterministic cost model
(:mod:`repro.db.cost`) that converts I/O and CPU accounting into simulated
latencies.
"""

from repro.db.types import ColumnRole, ColumnType, Column, Schema
from repro.db.table import Table
from repro.db.chunks import (
    ChunkStore,
    ChunkedColumn,
    ResidencyTracker,
    open_table,
    write_table,
)
from repro.db.buffer import BufferPool
from repro.db.storage import ColumnStore, RowStore, StorageEngine, make_store
from repro.db.query import AggregateFunction, AggregateQuery, AggregateSpec
from repro.db.executor import QueryExecutor, QueryResult
from repro.db.shared_scan import SharedScanExecutor
from repro.db.database import Database, SnowflakeJoin
from repro.db.catalog import TableMeta
from repro.db.cost import CostModel
from repro.db.backends import (
    Backend,
    BackendCapabilities,
    NativeBackend,
    SQLiteBackend,
    available_backends,
    make_backend,
    register_backend,
)

__all__ = [
    "AggregateFunction",
    "AggregateQuery",
    "AggregateSpec",
    "Backend",
    "BackendCapabilities",
    "BufferPool",
    "Column",
    "ColumnRole",
    "ColumnStore",
    "ColumnType",
    "CostModel",
    "Database",
    "NativeBackend",
    "QueryExecutor",
    "QueryResult",
    "RowStore",
    "SQLiteBackend",
    "Schema",
    "SharedScanExecutor",
    "SnowflakeJoin",
    "StorageEngine",
    "ChunkStore",
    "ChunkedColumn",
    "ResidencyTracker",
    "Table",
    "TableMeta",
    "available_backends",
    "make_backend",
    "make_store",
    "open_table",
    "register_backend",
    "write_table",
]
