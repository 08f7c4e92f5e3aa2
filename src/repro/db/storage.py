"""Physical storage engines: row store and column store.

Both engines serve column slices out of the same in-memory :class:`Table`
(zero-copy numpy views) but differ in the pages they charge to the buffer
pool: the row store touches full-row pages for any scan, the column store
touches only the requested columns' pages.  That difference, fed through the
cost model, reproduces the paper's ROW/COL behaviour without shipping an
actual Postgres and Vertica.
"""

from __future__ import annotations

import abc
from typing import Collection, Sequence

import numpy as np

from repro.config import DEFAULT_PAGE_ROWS, ExecutionStats, StoreKind
from repro.db.buffer import BufferPool
from repro.db.pages import PageLayout
from repro.db.table import Table
from repro.exceptions import StorageError


class StorageEngine(abc.ABC):
    """Base class: paged scans over one table with I/O accounting."""

    kind: StoreKind

    def __init__(
        self,
        table: Table,
        buffer_pool: BufferPool | None = None,
        page_rows: int = DEFAULT_PAGE_ROWS,
    ) -> None:
        self.table = table
        self.buffer_pool = buffer_pool or BufferPool()
        self.layout = PageLayout(
            table_name=table.name,
            schema=table.schema,
            nrows=table.nrows,
            columnar=self._columnar(),
            page_rows=page_rows,
        )
        #: Streaming granularity override in rows (set by the execution
        #: engine from ``EngineConfig.stream_chunk_rows`` /
        #: ``memory_budget_bytes``); ``None`` defers to the table's own
        #: chunk layout.  See :meth:`stream_ranges`.
        self.stream_chunk_rows: int | None = None

    @abc.abstractmethod
    def _columnar(self) -> bool:
        """Whether pages are per-column (True) or per-row (False)."""

    @property
    def nrows(self) -> int:
        return self.table.nrows

    def sync_layout(self) -> None:
        """Rebuild the page layout after the table grew (append/refresh).

        The layout caches the row count at construction; callers that
        append to the table in place (:meth:`Table.append`) or re-sync it
        from disk (:meth:`Table.refresh_from_disk`) call this so page
        accounting covers the new rows.  No-op when the count is current.
        """
        if self.layout.nrows != self.table.nrows:
            self.layout = PageLayout(
                table_name=self.table.name,
                schema=self.table.schema,
                nrows=self.table.nrows,
                columnar=self._columnar(),
                page_rows=self.layout.page_rows,
            )

    def scan(
        self,
        columns: Sequence[str],
        start: int = 0,
        stop: int | None = None,
        stats: ExecutionStats | None = None,
        skip_materialize: Collection[str] = (),
    ) -> dict[str, np.ndarray]:
        """Return value arrays for ``columns`` over rows ``[start, stop)``.

        Charges the touched pages to the buffer pool and records bytes/rows
        into ``stats``.  Raises :class:`StorageError` for bad ranges or
        unknown columns.  Columns listed in ``skip_materialize`` are
        charged but omitted from the returned dict — the pipeline names
        dictionary-encoded pure group-by keys here, whose codes it fetches
        via :meth:`dictionary_slice` instead of ever decoding values (the
        read the pages charge for *is* the 4-byte-code read).
        """
        stop = self.table.nrows if stop is None else stop
        if start < 0 or stop > self.table.nrows or start > stop:
            raise StorageError(
                f"bad scan range [{start}, {stop}) for table of {self.table.nrows} rows"
            )
        self.table.schema.validate_columns(columns)
        for page_range in self.layout.pages_for_scan(columns, start, stop):
            for key, nbytes in page_range:
                self.buffer_pool.access(key, nbytes, stats)
        if stats is not None:
            stats.rows_scanned += stop - start
        return {
            name: self.table.materialize_range(name, start, stop)
            for name in columns
            if name not in skip_materialize
        }

    def effective_stream_chunk_rows(self) -> int | None:
        """The streaming grid: min of the engine override and table chunks.

        The single source of truth shared by :meth:`stream_ranges` and the
        engine's chunk-aligned phase partitioning, so phase boundaries land
        on the same grid the scans actually stream on.
        """
        candidates = [
            rows
            for rows in (self.stream_chunk_rows, self.table.chunk_rows)
            if rows is not None
        ]
        return min(candidates) if candidates else None

    def stream_ranges(self, start: int = 0, stop: int | None = None) -> list[tuple[int, int]]:
        """Chunk-aligned subranges the chunk pipeline scans one at a time.

        The effective granularity is the smaller of :attr:`stream_chunk_rows`
        (the engine's memory-budget-derived override) and the table's own
        chunk size; a single-element list means "aggregate in one shot" —
        which is what every in-memory single-chunk table without an
        override gets, keeping the resident fast path byte-for-byte intact.
        """
        stop = self.table.nrows if stop is None else stop
        effective = self.effective_stream_chunk_rows()
        if effective is None or effective >= stop - start:
            return [(start, stop)]
        return list(self.table.chunk_ranges(start, stop, chunk_rows=effective))

    def dictionary_slice(
        self,
        column: str,
        start: int = 0,
        stop: int | None = None,
        values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(codes[start:stop], categories)`` with **no I/O accounting**.

        For callers that already charged a value scan of ``column`` — the
        pipeline scans a query's base columns first and then groups on the
        table's global dictionary, so charging the codes again would
        double-count the page.  ``values`` optionally passes the
        already-scanned value slice so chunked tables encode it directly
        instead of re-touching the backing memmap.
        """
        stop = self.table.nrows if stop is None else stop
        return self.table.codes_range(column, start, stop, values=values)

    def scan_bytes(self, columns: Sequence[str], start: int = 0, stop: int | None = None) -> int:
        """Bytes a scan would touch (for planning, no side effects)."""
        stop = self.table.nrows if stop is None else stop
        return self.layout.scan_bytes(columns, start, stop)


class RowStore(StorageEngine):
    """N-ary (row-major) storage: any scan touches full rows."""

    kind: StoreKind = "row"

    def _columnar(self) -> bool:
        return False


class ColumnStore(StorageEngine):
    """Decomposed (column-major) storage: scans touch only named columns."""

    kind: StoreKind = "col"

    def _columnar(self) -> bool:
        return True


def make_store(
    kind: StoreKind,
    table: Table,
    buffer_pool: BufferPool | None = None,
    page_rows: int = DEFAULT_PAGE_ROWS,
) -> StorageEngine:
    """Factory: build a storage engine of the requested kind."""
    if kind == "row":
        return RowStore(table, buffer_pool, page_rows)
    if kind == "col":
        return ColumnStore(table, buffer_pool, page_rows)
    raise StorageError(f"unknown store kind: {kind!r}")
