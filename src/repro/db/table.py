"""The logical table: named, schema'd, chunked-column-backed.

A :class:`Table` is a facade over one
:class:`~repro.db.chunks.ChunkedColumn` per column plus a lazily-built
dictionary encoding (codes + categories) for dimension columns, which the
group-by executor uses for fast factorization.  In-memory tables are the
single-chunk special case (the backing arrays are resident numpy and every
accessor is zero-copy); tables opened from an on-disk chunk store
(:func:`repro.db.chunks.open_table`) are backed by ``np.memmap`` columns
sliced into fixed-size row chunks, which the streaming executors
materialize one chunk at a time.  Tables are immutable after construction;
row subsets are produced as new (resident) tables.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.db.chunks import (
    ChunkedColumn,
    ChunkManifest,
    DictEncodedColumn,
    DictEncodedValues,
    ResidencyTracker,
    appended_columns,
    chunk_ranges,
)
from repro.db.groupby import factorize_key
from repro.db.types import (
    DIMENSION_DISTINCT_THRESHOLD,
    Column,
    ColumnRole,
    ColumnType,
    Schema,
)
from repro.exceptions import SchemaError

#: How many append ancestors a table remembers (see Table.append_lineage).
_LINEAGE_DEPTH = 8


def _coerce_array(name: str, values: object) -> np.ndarray:
    """Convert ``values`` to a 1-D numpy array of a supported dtype."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise SchemaError(f"column {name!r} must be 1-dimensional, got shape {arr.shape}")
    ctype = ColumnType.from_numpy(arr.dtype)
    if ctype is ColumnType.INT:
        arr = arr.astype(np.int64, copy=False)
    elif ctype is ColumnType.FLOAT:
        arr = arr.astype(np.float64, copy=False)
    elif ctype is ColumnType.STR and arr.dtype.kind == "O":
        arr = arr.astype(str)
    return arr


def _infer_role(name: str, arr: np.ndarray, ctype: ColumnType) -> ColumnRole:
    """Heuristic role inference used when the caller does not declare roles."""
    if ctype in (ColumnType.STR, ColumnType.BOOL):
        return ColumnRole.DIMENSION
    if ctype is ColumnType.FLOAT:
        return ColumnRole.MEASURE
    distinct = len(np.unique(arr[: min(len(arr), 100_000)]))
    if distinct <= DIMENSION_DISTINCT_THRESHOLD:
        return ColumnRole.DIMENSION
    return ColumnRole.MEASURE


def _role(column: str, role: ColumnRole | str) -> ColumnRole:
    """``role`` as a :class:`ColumnRole`, given one or its value."""
    try:
        return ColumnRole(role)
    except ValueError:
        known = [member.value for member in ColumnRole]
        raise SchemaError(f"column {column!r}: unknown role {role!r}; known: {known}") from None


class Table:
    """An immutable relational table over chunked columns.

    Parameters
    ----------
    name:
        Table name used in SQL text and the database catalog.
    data:
        Mapping of column name to 1-D array-like.  All columns must have the
        same length.  Arrays may be resident numpy or ``np.memmap``.
    roles:
        Optional mapping of column name to :class:`ColumnRole` or its value
        (``"dimension"``, ``"measure"``, ``"other"``).  Columns not
        mentioned get a heuristic role (strings/bools and low-cardinality
        ints are dimensions; floats and high-cardinality ints are measures).
    chunk_rows:
        Logical chunk size for out-of-core streaming.  ``None`` (the
        default, and the right choice for in-memory tables) means a single
        chunk spanning the whole table.
    source_digest:
        Content digest of the on-disk manifest this table was opened from.
        When set, :meth:`fingerprint` hashes the digest instead of the raw
        column bytes, so cache identity is stable across processes without
        re-reading the data.
    source_path:
        Filesystem path of the chunk-store directory this table was opened
        from (set by :func:`repro.db.chunks.open_table`).
        :meth:`refresh_from_disk` re-reads its manifest, the service
        refreshes only disk-backed datasets after an append, and the delta
        cache anchors its keys on it
        (:func:`repro.core.cache.delta_state_key`).
    tracker:
        :class:`~repro.db.chunks.ResidencyTracker` charged by chunk
        materializations (attached by :func:`repro.db.chunks.open_table`).
    """

    def __init__(
        self,
        name: str,
        data: Mapping[str, object],
        roles: Mapping[str, ColumnRole | str] | None = None,
        *,
        chunk_rows: int | None = None,
        source_digest: str | None = None,
        source_path: str | None = None,
        tracker: ResidencyTracker | None = None,
    ) -> None:
        if not data:
            raise SchemaError("table must have at least one column")
        if chunk_rows is not None and chunk_rows <= 0:
            raise SchemaError(f"chunk_rows must be positive, got {chunk_rows}")
        roles = {column: _role(column, role) for column, role in (roles or {}).items()}
        chunked: dict[str, ChunkedColumn] = {}
        columns: list[Column] = []
        nrows: int | None = None
        for col_name, values in data.items():
            if isinstance(values, DictEncodedValues):
                column = DictEncodedColumn(
                    col_name, values.codes, values.categories, chunk_rows, tracker
                )
                ctype = ColumnType.from_numpy(column.value_dtype)
                role = roles.pop(col_name, None)
                if role is None:
                    raise SchemaError(
                        f"dict-encoded column {col_name!r} requires an explicit role"
                    )
            else:
                arr = _coerce_array(col_name, values)
                ctype = ColumnType.from_numpy(arr.dtype)
                role = roles.pop(col_name, None) or _infer_role(col_name, arr, ctype)
                column = ChunkedColumn(col_name, arr, chunk_rows, tracker)
            if nrows is None:
                nrows = column.nrows
            elif column.nrows != nrows:
                raise SchemaError(
                    f"column {col_name!r} has {column.nrows} rows, expected {nrows}"
                )
            columns.append(Column(col_name, ctype, role))
            chunked[col_name] = column
        if roles:
            raise SchemaError(f"roles given for unknown columns: {sorted(roles)}")
        self.name = name
        self.schema = Schema.of(columns)
        self._columns = chunked
        self._nrows = int(nrows or 0)
        self._chunk_rows = chunk_rows
        self._source_digest = source_digest
        self._source_path = source_path
        self._tracker = tracker
        self._dictionaries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._categories: dict[str, np.ndarray] = {}
        self._dictionary_lock = threading.Lock()
        self._version = 0
        self._fingerprint: str | None = None
        # fingerprint -> n_rows at that fingerprint, for ancestors this
        # table was append-extended from (see append_lineage).
        self._lineage: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def nrows(self) -> int:
        return self._nrows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names

    def column(self, name: str) -> np.ndarray:
        """The logical value array for ``name`` (read-only view).

        For memmap-backed tables this is the lazily-paged memmap itself —
        slicing it stays cheap; use :meth:`materialize_range` when a
        resident copy (with residency accounting) is wanted.  For
        dictionary-encoded columns this **decodes the whole column**
        (O(table) memory) — chunked callers use :meth:`codes_range` /
        :meth:`materialize_range` instead.
        """
        if name not in self._columns:
            raise SchemaError(f"no such column: {name!r}")
        chunked = self._columns[name]
        if isinstance(chunked, DictEncodedColumn):
            return chunked.decode_all()
        return chunked.values

    def chunked_column(self, name: str) -> ChunkedColumn:
        """The :class:`~repro.db.chunks.ChunkedColumn` behind ``name``."""
        if name not in self._columns:
            raise SchemaError(f"no such column: {name!r}")
        return self._columns[name]

    def columns(self, names: Iterable[str]) -> dict[str, np.ndarray]:
        return {name: self.column(name) for name in names}

    def materialize_range(self, name: str, start: int, stop: int) -> np.ndarray:
        """Resident values of rows ``[start, stop)`` of one column.

        Zero-copy for resident columns; a tracked RAM copy for
        memmap-backed ones (see :meth:`ChunkedColumn.materialize`).
        """
        return self.chunked_column(name).materialize(start, stop)

    def dimension_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema.dimensions())

    def measure_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema.measures())

    def __len__(self) -> int:
        return self._nrows

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self._nrows}, "
            f"dims={len(self.schema.dimensions())}, "
            f"measures={len(self.schema.measures())})"
        )

    # ------------------------------------------------------------------ #
    # chunk layout
    # ------------------------------------------------------------------ #

    @property
    def chunk_rows(self) -> int | None:
        """Rows per chunk, or ``None`` for single-chunk in-memory tables."""
        return self._chunk_rows

    @property
    def source_path(self) -> str | None:
        """Chunk-store directory this table was opened from, or ``None``."""
        return self._source_path

    @property
    def is_chunked(self) -> bool:
        """Whether the table has more than one chunk (streaming candidates)."""
        return self._chunk_rows is not None and self._chunk_rows < self._nrows

    @property
    def n_chunks(self) -> int:
        if not self.is_chunked:
            return 1
        return -(-self._nrows // self._chunk_rows)  # type: ignore[operator]

    @property
    def residency(self) -> ResidencyTracker | None:
        """The residency tracker charged by chunk materializations, if any."""
        return self._tracker

    @property
    def source_digest(self) -> str | None:
        """Manifest content digest for disk-backed tables (else ``None``)."""
        return self._source_digest

    def chunk_ranges(
        self, start: int = 0, stop: int | None = None, chunk_rows: int | None = None
    ) -> Iterator[tuple[int, int]]:
        """Chunk-grid-aligned subranges of ``[start, stop)``.

        ``chunk_rows`` overrides the table's own chunk size (the streaming
        executors pass the engine's effective streaming granularity).  A
        single-chunk table yields the range itself.
        """
        rows = chunk_rows or self._chunk_rows or max(self._nrows, 1)
        return chunk_ranges(self._nrows, rows, start, stop)

    def physical_row_bytes(self) -> int:
        """Actual bytes per row across the backing arrays (dtype itemsizes).

        Unlike :meth:`Schema.row_byte_width` (the cost model's logical
        widths, strings charged as 32-bit codes), this is what a
        materialized chunk really occupies in RAM — the unit
        ``EngineConfig.memory_budget_bytes`` divides by.  Dict-encoded
        columns count their decoded value width (materialization decodes).
        """
        return sum(col.value_dtype.itemsize for col in self._columns.values())

    # ------------------------------------------------------------------ #
    # identity and versioning (result-cache keys)
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Monotonic mutation counter embedded in :meth:`fingerprint`.

        Starts at 0 and only moves via :meth:`bump_version`; two tables
        with identical contents but different versions fingerprint
        differently, so version bumps act as cache invalidation tokens.
        """
        return self._version

    def bump_version(self) -> int:
        """Declare the table's contents changed; returns the new version.

        Tables are immutable by convention, but callers that mutate the
        backing arrays in place (or reload a dataset under the same
        object) must call this so :meth:`fingerprint` — and therefore
        every :class:`~repro.core.cache.ViewResultCache` key derived from
        it — treats the table as new.  Cached dictionary encodings and
        streamed category sets are dropped too, since they were computed
        over the old contents.
        """
        with self._dictionary_lock:
            self._version += 1
            self._fingerprint = None
            self._dictionaries.clear()
            self._categories.clear()
        return self._version

    def fingerprint(self) -> str:
        """Stable content+version identity used in result-cache keys.

        A blake2b hash over the table name, schema (names, types, roles),
        current :attr:`version`, and the content — every column's raw
        bytes for in-memory tables, or the on-disk manifest's digest for
        chunk-store-backed tables (so identity is O(1) to compute, stable
        across processes, and never forces gigabytes of memmap pages in).
        Computed once per version and cached.  Two distinct Table objects
        built from equal data (or opened from the same dataset directory)
        share a fingerprint, which is exactly what a cross-session cache
        wants.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        with self._dictionary_lock:
            if self._fingerprint is None:
                digest = hashlib.blake2b(digest_size=16)
                digest.update(self.name.encode())
                digest.update(str(self._version).encode())
                digest.update(str(self._nrows).encode())
                for column in self.schema:
                    chunked = self._columns[column.name]
                    digest.update(
                        f"{column.name}:{column.ctype.name}:{column.role.name}:"
                        f"{chunked.value_dtype.str}".encode()
                    )
                    if self._source_digest is None:
                        digest.update(np.ascontiguousarray(chunked.values).tobytes())
                        if isinstance(chunked, DictEncodedColumn):
                            digest.update(
                                np.ascontiguousarray(chunked.categories).tobytes()
                            )
                if self._source_digest is not None:
                    digest.update(b"manifest:")
                    digest.update(self._source_digest.encode())
                self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------ #
    # append path (delta-aware maintenance)
    # ------------------------------------------------------------------ #

    @property
    def append_lineage(self) -> dict[str, int]:
        """Fingerprints this table is an append-extension of.

        Maps each recorded ancestor fingerprint to the row count the table
        had under it: every row below that count holds the same logical
        value now as it did then (appends only add rows at the end, and
        category remaps preserve decoded values).  The delta cache uses
        this to decide whether a partial-aggregation snapshot taken at an
        older fingerprint can be carry-merged instead of recomputed.
        Bounded to the most recent :data:`_LINEAGE_DEPTH` ancestors.
        """
        return dict(self._lineage)

    def _record_lineage(self) -> None:
        """Remember the current (fingerprint, nrows) before an append."""
        if self._nrows:
            self._lineage[self.fingerprint()] = self._nrows
            while len(self._lineage) > _LINEAGE_DEPTH:
                self._lineage.pop(next(iter(self._lineage)))

    def append(self, data: Mapping[str, object]) -> int:
        """Append rows to an in-memory table; returns the new row count.

        ``data`` must supply every column (same names, same lengths).
        Existing rows keep their values — dictionary-encoded columns union
        their category sets and remap codes, raw columns concatenate (with
        dtype widening for strings) — and the version/fingerprint bump so
        every cache key derived from the old contents stops matching.  The
        old identity is recorded in :attr:`append_lineage` so delta-aware
        consumers can recognize this table as an extension rather than a
        replacement.  Disk-backed tables append through
        :func:`repro.db.chunks.append_rows` + :meth:`refresh_from_disk`
        instead (the backing memmaps here are read-only).
        """
        if self._source_path is not None:
            raise SchemaError(
                "disk-backed table: append via repro.db.chunks.append_rows on "
                f"{self._source_path!r}, then refresh_from_disk()"
            )
        stored = {name: column.value_dtype for name, column in self._columns.items()}
        incoming = appended_columns(data, stored, SchemaError)
        self._record_lineage()
        extended: dict[str, object] = {}
        for name, cells in incoming.items():
            vals = np.asarray(cells)
            chunked = self._columns[name]
            if isinstance(chunked, DictEncodedColumn):
                union = np.unique(
                    np.concatenate([chunked.categories, np.unique(vals)])
                )
                remap = np.searchsorted(union, chunked.categories).astype(np.int32)
                codes = np.concatenate(
                    [
                        remap[np.asarray(chunked.values, dtype=np.int32)],
                        np.searchsorted(union, vals).astype(np.int32),
                    ]
                )
                extended[name] = DictEncodedValues(codes, union)
            else:
                extended[name] = np.concatenate([np.asarray(chunked.values), vals])
        roles = {c.name: c.role for c in self.schema}
        rebuilt = Table(
            self.name,
            extended,
            roles=roles,
            chunk_rows=self._chunk_rows,
            tracker=self._tracker,
        )
        self.schema = rebuilt.schema
        self._columns = rebuilt._columns
        self._nrows = rebuilt._nrows
        self.bump_version()
        return self._nrows

    def refresh_from_disk(self, *, manifest: ChunkManifest | None = None) -> bool:
        """Re-sync a disk-backed table after its chunk store was appended to.

        Compares the store's manifest with the table's digest; if the
        digest is unchanged this is a no-op returning ``False``.
        ``manifest`` is that manifest when the caller already parsed it (the
        service hands every engine the one its append returned); otherwise
        it is read from :attr:`source_path`.  On a new digest the column
        files are re-memmapped under the new manifest (the same
        :class:`ResidencyTracker` keeps accounting continuity), and each
        dictionary whose manifest entry keeps its count and dtype is kept
        as it is — only a column that gained a category re-reads its
        sidecar (see :func:`~repro.db.chunks.open_table`).  The old identity
        is pushed onto :attr:`append_lineage`, and the table adopts the
        fresh open's identity wholesale — including its version — so a
        worker that refreshed in place and one that re-opened the store
        fingerprint identically and share every cache key (the manifest
        digest alone reroutes stale entries).  Returns ``True``.  Readers
        holding the old arrays are unaffected — the old memmaps stay valid
        over the old inodes.
        """
        if self._source_path is None:
            raise SchemaError("refresh_from_disk requires a disk-backed table")
        from repro.db.chunks import open_table, read_manifest

        if manifest is None:
            manifest = read_manifest(self._source_path)
        if manifest.digest == self._source_digest:
            return False
        fresh = open_table(
            self._source_path,
            name=self.name,
            tracker=self._tracker,
            manifest=manifest,
            categories={
                name: column.categories
                for name, column in self._columns.items()
                if isinstance(column, DictEncodedColumn)
            },
        )
        self._record_lineage()
        self.schema = fresh.schema
        self._columns = fresh._columns
        self._nrows = fresh._nrows
        self._chunk_rows = fresh._chunk_rows
        self._source_digest = fresh._source_digest
        with self._dictionary_lock:
            self._version = fresh._version
            self._fingerprint = None
            self._dictionaries.clear()
            self._categories.clear()
        return True

    # ------------------------------------------------------------------ #
    # dictionary encoding
    # ------------------------------------------------------------------ #

    def dictionary(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary encoding ``(codes, categories)`` for a column.

        ``codes`` is an int32 array over all rows with values in
        ``range(len(categories))``; ``categories`` is sorted ascending: what
        :func:`~repro.db.groupby.factorize_key` builds — a string column by
        hashing, sorting only its distinct values.  Computed once per table
        object (a derived table builds its own) and cached; the fill is
        locked so concurrent query workers share one encoding.

        The full codes array is O(table) resident memory; out-of-core
        callers use :meth:`categories` + :meth:`codes_range` instead, which
        never hold more than one range's codes.
        """
        chunked = self.chunked_column(name)
        if isinstance(chunked, DictEncodedColumn):
            # Already dictionary-encoded on disk; materialize the codes
            # (uncached: they are O(table) and this path is discouraged).
            return np.asarray(chunked.values, dtype=np.int32), chunked.categories
        cached = self._dictionaries.get(name)
        if cached is not None:
            return cached
        with self._dictionary_lock:
            cached = self._dictionaries.get(name)
            if cached is None:
                cached = factorize_key(chunked.values)
                self._dictionaries[name] = cached
                self._categories[name] = cached[1]
        return cached

    def categories(self, name: str) -> np.ndarray:
        """Sorted distinct values of a column (the dictionary's categories).

        For chunked tables the set is computed by streaming per-chunk
        uniques — peak memory O(chunk + distinct) — and cached; codes are
        *not* materialized (see :meth:`codes_range`).  For in-memory tables
        this is exactly ``dictionary(name)[1]``.
        """
        chunked = self.chunked_column(name)
        if isinstance(chunked, DictEncodedColumn):
            return chunked.categories
        cached = self._categories.get(name)
        if cached is not None:
            return cached
        if not self.is_chunked:
            return self.dictionary(name)[1]
        with self._dictionary_lock:
            cached = self._categories.get(name)
            if cached is None:
                cached = chunked.values[:0]
                for start, stop in self.chunk_ranges():
                    chunk = factorize_key(chunked.values[start:stop])[1]
                    cached = np.union1d(cached, chunk)
                self._categories[name] = cached
        return cached

    def codes_range(
        self, name: str, start: int, stop: int, values: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary codes for rows ``[start, stop)`` plus the categories.

        Identical codes to ``dictionary(name)[0][start:stop]`` — categories
        are global, so codes are stable across ranges and partial results
        merge on them — but for chunked tables the codes are computed for
        just this range (``np.searchsorted`` against the streamed category
        set) so nothing O(table) is ever resident.  ``values`` optionally
        supplies the already-materialized value slice to avoid re-touching
        the backing column.
        """
        chunked = self.chunked_column(name)
        if isinstance(chunked, DictEncodedColumn):
            # The on-disk layout *is* the dictionary: slice codes directly.
            return chunked.codes_range(start, stop), chunked.categories
        cached = self._dictionaries.get(name)
        if cached is not None:
            return cached[0][start:stop], cached[1]
        if not self.is_chunked:
            codes, categories = self.dictionary(name)
            return codes[start:stop], categories
        categories = self.categories(name)
        if values is None:
            values = chunked.slice(start, stop)
        codes = np.searchsorted(categories, values).astype(np.int32, copy=False)
        return codes, categories

    def dictionaries(
        self, names: Iterable[str], start: int, stop: int
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """:meth:`codes_range` of each *dictionary-backed* column in ``names``:
        stored as codes, or its global dictionary already cached — a slice,
        not an encoding.  Expressions test literals on these, not on values."""
        return {
            name: self.codes_range(name, start, stop)
            for name in names
            if name in self._dictionaries
            or (name in self._columns and self._columns[name].is_dict_encoded)
        }

    def distinct_count(self, name: str) -> int:
        """Number of distinct values in a column (via the dictionary)."""
        return len(self.categories(name))

    # ------------------------------------------------------------------ #
    # derived tables
    # ------------------------------------------------------------------ #

    def take(self, indices: np.ndarray, name: str | None = None) -> "Table":
        """New resident table containing the rows at ``indices`` (in order)."""
        data = {col: chunked.gather(indices) for col, chunked in self._columns.items()}
        roles = {c.name: c.role for c in self.schema}
        return Table(name or self.name, data, roles=roles)

    def where(self, mask: np.ndarray, name: str | None = None) -> "Table":
        """New table containing rows where the boolean ``mask`` is True."""
        if mask.dtype != bool or len(mask) != self._nrows:
            raise SchemaError("mask must be a boolean array of table length")
        return self.take(np.flatnonzero(mask), name=name)

    def slice_rows(self, start: int, stop: int, name: str | None = None) -> "Table":
        """New resident table containing rows ``start:stop``.

        Memmap-backed columns are copied into RAM (a derived table is a
        new, independent, resident object) and dict-encoded columns are
        decoded; resident raw columns stay views.
        """
        data = {
            col: chunked.materialize(start, stop)
            for col, chunked in self._columns.items()
        }
        roles = {c.name: c.role for c in self.schema}
        return Table(name or self.name, data, roles=roles)

    def shuffled(self, seed: int, name: str | None = None) -> "Table":
        """New table with rows in a seeded-random order.

        The paper randomizes data order between pruning runs (§5.4); this is
        the hook benchmarks use for that.
        """
        rng = np.random.default_rng(seed)
        return self.take(rng.permutation(self._nrows), name=name)

    def head(self, n: int = 5) -> list[dict[str, object]]:
        """First ``n`` rows as dictionaries (debugging/doc convenience)."""
        n = min(n, self._nrows)
        arrays = {
            col: chunked.materialize(0, n) for col, chunked in self._columns.items()
        }
        return [
            {col: arrays[col][i].item() if hasattr(arrays[col][i], "item")
             else arrays[col][i] for col in self.column_names}
            for i in range(n)
        ]

    # ------------------------------------------------------------------ #
    # sizing
    # ------------------------------------------------------------------ #

    def logical_size_bytes(self) -> int:
        """Logical size charged by the cost model (Table 1's "Size (MB)")."""
        return self._nrows * self.schema.row_byte_width()

    @staticmethod
    def concat(name: str, tables: Sequence["Table"]) -> "Table":
        """Row-concatenate tables with identical schemas."""
        if not tables:
            raise SchemaError("concat of zero tables")
        first = tables[0]
        for other in tables[1:]:
            if other.schema.names != first.schema.names:
                raise SchemaError("concat requires identical column names")
        data = {
            col: np.concatenate([t.column(col) for t in tables])
            for col in first.column_names
        }
        roles = {c.name: c.role for c in first.schema}
        return Table(name, data, roles=roles)
