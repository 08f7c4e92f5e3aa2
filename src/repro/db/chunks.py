"""Chunked, memory-mapped columnar storage: the out-of-core substrate.

Every :class:`~repro.db.table.Table` is a facade over one
:class:`ChunkedColumn` per column.  A column is a single backing array —
resident numpy for in-memory tables, ``np.memmap`` for tables opened from
an on-disk dataset directory — sliced into fixed-size row chunks.  The
chunk pipeline (:mod:`repro.db.shared_scan`) materializes one chunk at a
time and merges per-chunk partial aggregation state, so peak memory is
O(chunk + groups) instead of O(table); in-memory tables are the
single-chunk special case, which keeps every existing caller working
unchanged.

The on-disk layout (a *chunk store*) is deliberately boring::

    dataset_dir/
      manifest.json          # schema, roles, chunking, per-chunk sha256s, digest
      columns/<name>.bin     # raw little-endian C-order values, one per column

``manifest.json`` lists, per column, one sha256 for every ``chunk_rows``
stored values (``chunk_sha256``; the last entry covers the partial tail)
and a column ``sha256`` over those digests (plus the category sidecar for
dictionary columns), all cut by :class:`_ChunkDigests` while the bytes are
written.  The store ``digest`` is a hash of the canonical manifest;
:meth:`Table.fingerprint` hashes that digest instead of re-reading
gigabytes of column data, so result-cache identity survives process
restarts (two processes opening the same dataset directory agree on every
cache key).

Stores are append-only: :func:`append_rows` / :func:`append_table` extend
the column files in place and land a fresh ``manifest.json`` (with a new
digest) atomically via tmp+rename as the *last* step.  Readers that opened
the store earlier keep a consistent view — their memmaps were sized by the
old manifest — while new opens see the extended table.  An append hashes
from the first chunk that has no valid recorded digest — the partial tail
chunk plus the new rows, O(chunk + delta) — and carries every earlier
digest over, so ``k`` sequential appends produce byte-identical files and
the same manifest as one bulk write of all rows and content-addressed
cache keys stay honest.  (A column whose dictionary grew, or one from a
``seedb-chunks-v1`` manifest, which records no chunk digests, is hashed
from chunk 0 by the same rule.)

:class:`ResidencyTracker` measures what the streaming path actually
materializes: every chunk copied out of a memmap registers its bytes and
releases them when the array is garbage-collected, giving an exact
current/peak resident-bytes curve that the streaming tests hold under the
configured memory budget.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import weakref
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

from repro.db.types import ColumnRole, ColumnType
from repro.exceptions import ReproError, StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.table import Table

#: Default rows per chunk for on-disk datasets: 64K rows keeps a chunk of a
#: typical 10-column table in the single-digit-MB range — small enough that
#: a handful of resident chunks fit any sane memory budget, large enough
#: that per-chunk numpy dispatch overhead is negligible.
DEFAULT_CHUNK_ROWS = 1 << 16

#: Manifest format identifier; bump on incompatible layout changes.
MANIFEST_FORMAT = "seedb-chunks-v2"
#: Formats :func:`read_manifest` accepts: v1 records no per-chunk digests
#: and becomes v2 on its first append.
_READABLE_FORMATS = (MANIFEST_FORMAT, "seedb-chunks-v1")

_MANIFEST_NAME = "manifest.json"
_COLUMN_DIR = "columns"

#: Bytes per write when streaming a column to disk.
_WRITE_CHUNK_BYTES = 8 << 20


class ResidencyTracker:
    """Accounts bytes of chunk data currently materialized in RAM.

    Chunk materializations (:meth:`ChunkedColumn.materialize`) register
    their byte size; a ``weakref.finalize`` on the materialized array
    releases it the moment the array is garbage-collected, so
    ``current_bytes`` tracks what is genuinely simultaneously resident and
    ``peak_bytes`` its high-water mark.  ``budget_bytes`` is a *measured*
    cap, not an enforcing one: the streaming executors keep under it by
    sizing their chunks (see ``EngineConfig.memory_budget_bytes``), and
    ``over_budget_events`` counts any moment the cap was exceeded anyway
    — benchmarks assert it stays zero.

    Thread-safe; one tracker is shared by all of a table's columns.
    """

    def __init__(self, budget_bytes: int | None = None) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise StorageError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._current = 0
        self._peak = 0
        self._over_budget = 0

    def register(self, array: np.ndarray) -> np.ndarray:
        """Charge ``array``'s bytes until the array is garbage-collected."""
        nbytes = int(array.nbytes)
        with self._lock:
            self._current += nbytes
            if self._current > self._peak:
                self._peak = self._current
            if self.budget_bytes is not None and self._current > self.budget_bytes:
                self._over_budget += 1
        weakref.finalize(array, self._release, nbytes)
        return array

    def _release(self, nbytes: int) -> None:
        with self._lock:
            self._current -= nbytes

    @property
    def current_bytes(self) -> int:
        """Bytes of materialized chunk data currently alive."""
        with self._lock:
            return self._current

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`current_bytes` since the tracker was made."""
        with self._lock:
            return self._peak

    @property
    def over_budget_events(self) -> int:
        """How many registrations pushed residency past the budget."""
        with self._lock:
            return self._over_budget


def _is_memmap_backed(array: np.ndarray) -> bool:
    """True when ``array`` is (a view chain over) an ``np.memmap``."""
    node: object = array
    while isinstance(node, np.ndarray):
        if isinstance(node, np.memmap):
            return True
        node = node.base
    return False


class ChunkedColumn:
    """One table column as a sequence of fixed-size row chunks.

    The backing is a single 1-D array — resident numpy or a lazily-paged
    ``np.memmap`` — and chunking is logical: chunk ``i`` covers rows
    ``[i * chunk_rows, min((i + 1) * chunk_rows, nrows))``.  Resident
    in-memory columns are the single-chunk special case
    (``chunk_rows == nrows``), for which every accessor below is zero-copy.
    """

    __slots__ = ("name", "values", "chunk_rows", "tracker", "_memmap_backed")

    def __init__(
        self,
        name: str,
        values: np.ndarray,
        chunk_rows: int | None = None,
        tracker: ResidencyTracker | None = None,
    ) -> None:
        if values.ndim != 1:
            raise StorageError(f"column {name!r} must be 1-D, got shape {values.shape}")
        self.name = name
        self.values = values
        rows = len(values)
        self.chunk_rows = int(chunk_rows) if chunk_rows else max(rows, 1)
        if self.chunk_rows <= 0:
            raise StorageError(f"chunk_rows must be positive, got {chunk_rows}")
        self.tracker = tracker
        self._memmap_backed = _is_memmap_backed(values)

    @property
    def nrows(self) -> int:
        return len(self.values)

    @property
    def is_memmap(self) -> bool:
        """Whether the backing array is disk-backed (pages in lazily)."""
        return self._memmap_backed

    @property
    def is_dict_encoded(self) -> bool:
        """Whether the backing stores dictionary codes, not values."""
        return False

    @property
    def value_dtype(self) -> np.dtype:
        """Dtype of the *logical* values (== backing dtype for raw columns)."""
        return self.values.dtype

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Logical values at ``indices`` (materialized)."""
        return self.values[indices]

    @property
    def n_chunks(self) -> int:
        return max(1, -(-self.nrows // self.chunk_rows)) if self.nrows else 1

    def chunk_bounds(self, index: int) -> tuple[int, int]:
        """Row range ``[start, stop)`` of chunk ``index``."""
        if not 0 <= index < self.n_chunks:
            raise StorageError(f"chunk {index} out of range for {self.n_chunks} chunks")
        start = index * self.chunk_rows
        return start, min(start + self.chunk_rows, self.nrows)

    def chunk(self, index: int) -> np.ndarray:
        """Materialize chunk ``index`` (resident copy for memmap backings)."""
        start, stop = self.chunk_bounds(index)
        return self.materialize(start, stop)

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Raw zero-copy view of rows ``[start, stop)`` (lazy for memmaps)."""
        return self.values[start:stop]

    def materialize(self, start: int, stop: int) -> np.ndarray:
        """Resident value array for rows ``[start, stop)``.

        Resident columns return a zero-copy view.  Memmap-backed columns
        copy the range into RAM — the one deliberate copy of the streaming
        path — and register the bytes with the residency tracker, which
        releases them when the chunk array is garbage-collected.
        """
        view = self.values[start:stop]
        if not self._memmap_backed:
            return view
        resident = np.array(view, copy=True)
        if self.tracker is not None:
            self.tracker.register(resident)
        return resident


@dataclass(frozen=True)
class DictEncodedValues:
    """Constructor payload for a dictionary-encoded column.

    ``codes`` is a row-aligned int32 array (memmap for on-disk datasets)
    with values in ``range(len(categories))``; ``categories`` is the
    sorted, resident value array.  Pass one of these as a column's data
    when building a :class:`~repro.db.table.Table` and the table serves
    dictionary codes straight from it — no per-chunk re-encoding, the big
    win of the on-disk format for string dimensions.
    """

    codes: np.ndarray
    categories: np.ndarray


class DictEncodedColumn(ChunkedColumn):
    """A chunked column whose backing array holds dictionary codes.

    ``values`` (the inherited backing) is the int32 code array; logical
    values are ``categories[codes]``, decoded chunk-at-a-time on
    materialization.  :meth:`codes_range` exposes the codes directly —
    the group-by executors consume those without touching the decoded
    strings at all.
    """

    __slots__ = ("categories",)

    def __init__(
        self,
        name: str,
        codes: np.ndarray,
        categories: np.ndarray,
        chunk_rows: int | None = None,
        tracker: ResidencyTracker | None = None,
    ) -> None:
        codes = np.asarray(codes)
        if codes.dtype != np.int32:
            codes = codes.astype(np.int32)
        super().__init__(name, codes, chunk_rows, tracker)
        self.categories = np.asarray(categories)

    @property
    def is_dict_encoded(self) -> bool:
        return True

    @property
    def value_dtype(self) -> np.dtype:
        return self.categories.dtype

    def materialize(self, start: int, stop: int) -> np.ndarray:
        """Decoded (logical) values for rows ``[start, stop)``, tracked."""
        decoded = self.categories[self.values[start:stop]]
        if self.tracker is not None:
            self.tracker.register(decoded)
        return decoded

    def codes_range(self, start: int, stop: int) -> np.ndarray:
        """Resident int32 codes for rows ``[start, stop)`` (tracked copy)."""
        view = self.values[start:stop]
        if not self.is_memmap:
            return view
        resident = np.array(view, copy=True)
        if self.tracker is not None:
            self.tracker.register(resident)
        return resident

    def gather(self, indices: np.ndarray) -> np.ndarray:
        return self.categories[self.values[indices]]

    def decode_all(self) -> np.ndarray:
        """The full decoded value array — O(table) memory, use sparingly."""
        return self.categories[np.asarray(self.values)]


# --------------------------------------------------------------------------- #
# on-disk chunk stores
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ColumnManifest:
    """Manifest entry for one on-disk column file.

    ``encoding`` is ``"raw"`` (values stored verbatim) or ``"dict32"``
    (int32 dictionary codes in ``file`` plus a sorted category sidecar in
    ``categories_file`` — the layout used for string columns, matching the
    cost model's premise that strings are dictionary-encoded and charged
    32-bit codes).  ``dtype`` is always the *logical* value dtype.
    ``chunk_sha256`` holds one digest per chunk of stored values and
    ``sha256`` hashes those digests, then the categories (see
    :class:`_ChunkDigests`).
    """

    name: str
    dtype: str
    role: str
    file: str
    nbytes: int
    sha256: str
    encoding: str = "raw"
    categories_file: str | None = None
    n_categories: int = 0
    chunk_sha256: tuple[str, ...] = ()


@dataclass(frozen=True)
class ChunkManifest:
    """Parsed ``manifest.json`` of one dataset directory."""

    name: str
    n_rows: int
    chunk_rows: int
    columns: tuple[ColumnManifest, ...]
    digest: str
    description: str = ""
    #: Optional analyst-query defaults (the registry's split attribute).
    split_column: str | None = None
    target_value: str | None = None
    other_value: str | None = None
    extra: Mapping[str, object] = field(default_factory=dict)

    def column(self, name: str) -> ColumnManifest:
        for col in self.columns:
            if col.name == name:
                return col
        raise StorageError(f"dataset has no column {name!r}")

    @property
    def dataset_bytes(self) -> int:
        """Total on-disk bytes of the column files."""
        return sum(col.nbytes for col in self.columns)


def _canonical_manifest_payload(payload: dict[str, object]) -> bytes:
    """Deterministic JSON rendering used for the content digest."""
    scrubbed = {k: v for k, v in payload.items() if k != "digest"}
    return json.dumps(scrubbed, sort_keys=True, separators=(",", ":")).encode()


def _manifest_payload(
    meta: ChunkStoreWriter | ChunkManifest, n_rows: int, columns: list[ColumnManifest]
) -> dict[str, object]:
    """The ``manifest.json`` body for ``columns``, content digest included."""
    payload: dict[str, object] = {
        "format": MANIFEST_FORMAT,
        "name": meta.name,
        "n_rows": n_rows,
        "chunk_rows": meta.chunk_rows,
        "description": meta.description,
        "split_column": meta.split_column,
        "target_value": meta.target_value,
        "other_value": meta.other_value,
        "columns": [vars(col) for col in columns],
    }
    payload["digest"] = hashlib.sha256(
        _canonical_manifest_payload(payload)
    ).hexdigest()
    return payload


def _column_filename(name: str) -> str:
    return f"{name}.bin"


def _write_manifest_atomic(root: Path, payload: dict[str, object]) -> None:
    """Land ``manifest.json`` via tmp + :func:`os.replace`.

    Readers opening the store concurrently see either the old or the new
    manifest, never a torn one — the append path relies on this so an
    in-flight append is invisible until its last step.  Written compact:
    with a digest per chunk an indented manifest is what an append to a
    large store spends its time encoding (``python -m json.tool`` reads it).
    """
    target = root / _MANIFEST_NAME
    tmp = target.with_name(f"{_MANIFEST_NAME}.tmp-{os.getpid()}")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, target)


class _ChunkDigests:
    """Cuts a column's stored bytes into one sha256 per chunk.

    The one place chunk digests are made.  Feed it the column's bytes in
    order from the first chunk that has no valid recorded digest, seeded
    with the digests of the complete chunks before it: the bulk writer
    starts at row 0 with none, an append carries ``old_rows // chunk_rows``
    digests over and feeds the partial tail chunk plus the new rows, and a
    dictionary rewrite (or a v1 column, which recorded none) starts at 0
    again.  Cuts fall on the chunk grid whatever the batch sizes.
    """

    def __init__(self, chunk_bytes: int, carried: tuple[str, ...] = ()) -> None:
        self._digests = list(carried)
        self._chunk_bytes = chunk_bytes
        self._sha = hashlib.sha256()
        self._room = chunk_bytes

    def update(self, blob: bytes) -> None:
        view = memoryview(blob)
        while len(view):
            head, view = view[: self._room], view[self._room :]
            self._sha.update(head)
            self._room -= len(head)
            if not self._room:
                self._cut()

    def _cut(self) -> None:
        self._digests.append(self._sha.hexdigest())
        self._sha = hashlib.sha256()
        self._room = self._chunk_bytes

    def finish(self, categories_blob: bytes = b"") -> tuple[tuple[str, ...], str]:
        """``(chunk digests, column sha256)``; closes the partial tail chunk.

        The column digest hashes the chunk digests, then the category
        sidecar — it covers codes AND categories.
        """
        if self._room < self._chunk_bytes:
            self._cut()
        column = hashlib.sha256("".join(self._digests).encode() + categories_blob)
        return tuple(self._digests), column.hexdigest()


class ColumnStreamWriter:
    """Appends value batches to one column file, hashing as it goes.

    With ``categories`` given the column is written dictionary-encoded:
    :meth:`append` then expects int32 *codes* into the sorted category
    array (encode with ``np.searchsorted(categories, values)``), the code
    stream lands in the main file, and :meth:`finish` writes the category
    sidecar.  ``dtype`` always names the logical value dtype.
    """

    def __init__(
        self,
        root: Path,
        name: str,
        dtype: np.dtype,
        role: ColumnRole,
        chunk_rows: int,
        categories: np.ndarray | None = None,
    ) -> None:
        if np.dtype(dtype).hasobject:
            raise StorageError(
                f"column {name!r} has an object dtype that cannot be memmapped"
            )
        ColumnType.from_numpy(dtype)  # fail fast on unsupported dtypes
        self.name = name
        self.dtype = np.dtype(dtype)
        self.role = role
        self.categories = (
            np.ascontiguousarray(categories) if categories is not None else None
        )
        self.rows_written = 0
        self._root = root
        self._filename = _column_filename(name)
        self._digests = _ChunkDigests(chunk_rows * self._storage_dtype.itemsize)
        self._nbytes = 0
        self._handle = open(root / _COLUMN_DIR / self._filename, "wb")

    @property
    def _storage_dtype(self) -> np.dtype:
        return np.dtype(np.int32) if self.categories is not None else self.dtype

    def append(self, values: np.ndarray) -> None:
        """Write one batch (values, or int32 codes for dict columns)."""
        arr = np.ascontiguousarray(np.asarray(values, dtype=self._storage_dtype))
        blob = arr.tobytes()
        self._digests.update(blob)
        self._handle.write(blob)
        self._nbytes += len(blob)
        self.rows_written += len(arr)

    def finish(self) -> ColumnManifest:
        """Close the file(s) and return the manifest entry."""
        self._handle.close()
        if self.categories is None:
            chunk_sha256, sha256 = self._digests.finish()
            return ColumnManifest(
                name=self.name,
                dtype=self.dtype.str,
                role=self.role.value,
                file=f"{_COLUMN_DIR}/{self._filename}",
                nbytes=self._nbytes,
                sha256=sha256,
                chunk_sha256=chunk_sha256,
            )
        cats_name = f"{self.name}.cats.bin"
        cats_blob = np.ascontiguousarray(
            self.categories.astype(self.dtype, copy=False)
        ).tobytes()
        (self._root / _COLUMN_DIR / cats_name).write_bytes(cats_blob)
        chunk_sha256, sha256 = self._digests.finish(cats_blob)
        return ColumnManifest(
            name=self.name,
            dtype=self.dtype.str,
            role=self.role.value,
            file=f"{_COLUMN_DIR}/{self._filename}",
            nbytes=self._nbytes + len(cats_blob),
            sha256=sha256,
            encoding="dict32",
            categories_file=f"{_COLUMN_DIR}/{cats_name}",
            n_categories=len(self.categories),
            chunk_sha256=chunk_sha256,
        )


class ChunkStoreWriter:
    """Streams a dataset into a chunk store without holding it in memory.

    Used by :func:`write_table` and the CSV ingester
    (:mod:`repro.data.ingest`): declare columns with :meth:`add_column`,
    append batches to each returned :class:`ColumnStreamWriter`, then call
    :meth:`finish` — which validates row counts, writes ``manifest.json``
    with the content digest, and returns the parsed manifest.
    """

    def __init__(
        self,
        path: str | Path,
        name: str,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        *,
        description: str = "",
        split_column: str | None = None,
        target_value: str | None = None,
        other_value: str | None = None,
    ) -> None:
        if chunk_rows <= 0:
            raise StorageError(f"chunk_rows must be positive, got {chunk_rows}")
        self.root = Path(path)
        (self.root / _COLUMN_DIR).mkdir(parents=True, exist_ok=True)
        self.name = name
        self.chunk_rows = int(chunk_rows)
        self.description = description
        self.split_column = split_column
        self.target_value = target_value
        self.other_value = other_value
        self._writers: list[ColumnStreamWriter] = []

    def add_column(
        self,
        name: str,
        dtype: np.dtype | str,
        role: ColumnRole,
        categories: np.ndarray | None = None,
    ) -> ColumnStreamWriter:
        """Declare one column; append batches to the returned writer.

        Passing ``categories`` makes the column dictionary-encoded: append
        int32 codes instead of values (see :class:`ColumnStreamWriter`).
        """
        if any(w.name == name for w in self._writers):
            raise StorageError(f"duplicate column {name!r}")
        writer = ColumnStreamWriter(
            self.root, name, np.dtype(dtype), role, self.chunk_rows, categories
        )
        self._writers.append(writer)
        return writer

    def finish(self) -> ChunkManifest:
        """Close every column, write ``manifest.json``, return the manifest."""
        if not self._writers:
            raise StorageError("chunk store declares no columns")
        columns = [writer.finish() for writer in self._writers]
        n_rows = {writer.rows_written for writer in self._writers}
        if len(n_rows) != 1:
            raise StorageError(
                f"columns disagree on row count: "
                f"{ {w.name: w.rows_written for w in self._writers} }"
            )
        payload = _manifest_payload(self, n_rows.pop(), columns)
        _write_manifest_atomic(self.root, payload)
        return read_manifest(self.root)


def write_table(
    table: "Table",
    path: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    *,
    description: str = "",
    split_column: str | None = None,
    target_value: str | None = None,
    other_value: str | None = None,
) -> ChunkManifest:
    """Materialize ``table`` as an on-disk chunk store at ``path``.

    Columns are streamed to disk ``_WRITE_CHUNK_BYTES`` at a time (peak
    memory stays O(write chunk) even for memmap-backed sources), their
    sha256 computed on the way; the manifest's ``digest`` is a hash of the
    canonical manifest content including those checksums, so it uniquely
    identifies the dataset bytes.  String columns are written
    dictionary-encoded (int32 codes + category sidecar) — the layout the
    cost model already charges for — so reopening them costs 4 bytes/row
    of I/O and zero re-encoding.  Returns the written manifest.
    """
    writer = ChunkStoreWriter(
        path,
        table.name,
        chunk_rows,
        description=description,
        split_column=split_column,
        target_value=target_value,
        other_value=other_value,
    )
    for column in table.schema:
        chunked = table.chunked_column(column.name)
        if chunked.value_dtype.kind in ("U", "O"):
            categories = table.categories(column.name)
            if categories.dtype.kind == "O":
                categories = categories.astype(str)
            sink = writer.add_column(
                column.name, categories.dtype, column.role, categories=categories
            )
            step = max(1, _WRITE_CHUNK_BYTES // 4)
            for start in range(0, table.nrows, step):
                codes, _ = table.codes_range(
                    column.name, start, min(start + step, table.nrows)
                )
                sink.append(codes)
        else:
            values = chunked.values
            sink = writer.add_column(column.name, values.dtype, column.role)
            itemsize = max(values.dtype.itemsize, 1)
            step = max(1, _WRITE_CHUNK_BYTES // itemsize)
            for start in range(0, len(values), step):
                sink.append(values[start : start + step])
    return writer.finish()


def _append_at(path: Path, offset: int, blob: bytes, digests: _ChunkDigests, start: int) -> None:
    """Hash the stored bytes ``[start, offset)`` into ``digests``, then
    write ``blob`` at byte ``offset`` and truncate the file right after —
    one open of the file.

    Seeking to the manifest-derived offset (instead of appending blindly)
    makes a retried append land at the correct position even if an earlier
    attempt crashed after writing a partial tail.
    """
    with open(path, "r+b") as handle:
        actual = handle.seek(0, os.SEEK_END)
        if actual < offset:
            raise StorageError(
                f"column file {path} is {actual} bytes, expected at least {offset}"
            )
        handle.seek(start)
        for at in range(start, offset, _WRITE_CHUNK_BYTES):
            digests.update(handle.read(min(_WRITE_CHUNK_BYTES, offset - at)))
        handle.seek(offset)
        handle.write(blob)
        handle.truncate()


#: Cell kinds (numpy's, ``N`` for ``None``) a column of each stored kind takes
#: from an append: a string column strings, a numeric one numbers and no
#: booleans, and a float column ``None`` as NaN, as CSV's empty cell.
_APPENDED_KINDS = {"U": "U", "f": "fiuN", "i": "iu", "u": "iu", "b": "b"}


def appended_columns(
    data: Mapping[str, object], stored: Mapping[str, np.dtype], error: type[ReproError]
) -> dict[str, np.ndarray | list[str]]:
    """A batch of appended rows as one 1-D array per column of ``stored``
    (name → stored dtype), for :func:`append_rows` and
    :meth:`~repro.db.table.Table.append` alike; a bad batch raises ``error``.

    ``data`` names every column and no other, each with the same number of
    rows, at least one.  Cells of a type the column does not take
    (:data:`_APPENDED_KINDS`) are rejected, never converted: a dict or
    ``None`` is no category, ``True`` no number, and a string ending in NUL,
    which numpy would store without it, no string.  A string column given as
    a list stays a list of its (checked) ``str`` cells: :func:`append_rows`
    looks each one up in the stored dictionary as it stands.
    """
    unknown = sorted(set(data) - set(stored))
    if unknown:
        raise error(f"append supplies unknown columns: {unknown}")
    missing = sorted(set(stored) - set(data))
    if missing:
        raise error(f"append is missing columns: {missing}")
    columns = {
        name: _appended_values(name, data[name], dtype, error)
        for name, dtype in stored.items()
    }
    n_new = len(next(iter(columns.values())))
    for name, values in columns.items():
        if len(values) != n_new:
            raise error(
                f"appended columns disagree on row count: {name!r} has "
                f"{len(values)} rows, expected {n_new}"
            )
    if not n_new:
        raise error("append of zero rows")
    return columns


def _appended_values(
    name: str, values: object, stored: np.dtype, error: type[ReproError]
) -> np.ndarray | list[str]:
    """One column of :func:`appended_columns`.  A list's cells are checked
    before ``np.asarray(["a", 5])`` could make 5 a string."""
    if isinstance(values, (list, tuple)):
        types = set(map(type, values))
    else:
        values = np.asarray(values)
        if values.ndim != 1:
            raise error(
                f"appended column {name!r} must be 1-D, got shape {values.shape}"
            )
        types = set(map(type, values)) if values.dtype == object else {values.dtype.type}
    takes = _APPENDED_KINDS.get(stored.kind, stored.kind)
    wrong = sorted(
        kind.__name__
        for kind in types
        if ("N" if kind is type(None) else np.dtype(kind).kind) not in takes
    )
    if wrong:
        raise error(
            f"column {name!r} rejects appended {', '.join(wrong)} cells ({stored.name})"
        )
    if stored.kind == "U" and (isinstance(values, (list, tuple)) or values.dtype == object):
        # numpy stores "n\x00" as "n": the cell would land as another value.
        nul = next((cell for cell in set(values) if cell.endswith("\x00")), None)
        if nul is not None:
            raise error(f"column {name!r} rejects appended cell {nul!r}: it ends in NUL")
    if stored.kind == "U" and isinstance(values, (list, tuple)):
        return list(values)
    try:
        vals = np.asarray(values, dtype=None if stored.kind == "U" else stored)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"column {name!r} rejects appended values: {exc}") from None
    if vals.dtype.kind != stored.kind:  # strings in an object array
        vals = vals.astype(str)
    return vals


def _encode_appended(
    root: Path, col: ColumnManifest, vals: np.ndarray | list[str]
) -> tuple[bytes, np.ndarray | None, np.ndarray | None]:
    """Encode one column of :func:`appended_columns` to bytes; writes nothing.

    Returns ``(blob, categories, remap)``.  For a dict32 column ``blob``
    holds int32 codes into ``categories`` and ``remap`` translates stored
    codes to those — ``None`` when the dictionary is the one the manifest
    recorded.  A batch of known categories is encoded by lookup
    (:func:`_lookup_codes`): its codes are the stored dictionary's, which it
    leaves as it is.  Any other batch takes :func:`_union_encoded`: one with
    an unseen value, one whose string dtype is wider than the stored one
    (the dictionary is rewritten at that width), and one whose sidecar
    disagrees with the manifest — what an append that died after its
    rewrite leaves; remapping again re-hashes it.  Both give the same bytes
    for a batch the lookup takes.
    """
    if col.encoding not in ("raw", "dict32"):
        raise StorageError(
            f"unknown column encoding {col.encoding!r} for {col.name!r}"
        )
    if not (root / col.file).is_file():
        raise StorageError(f"chunk store {root} is missing column file {col.file}")
    if col.encoding == "dict32" and not col.categories_file:
        raise StorageError(f"dict-encoded column {col.name!r} declares no categories file")
    if col.encoding == "raw":
        return _raw_encoded(col, np.asarray(vals)), None, None
    stored = np.fromfile(root / col.categories_file, dtype=col.dtype)
    if len(stored) == col.n_categories:
        codes = _lookup_codes(stored, vals)
        if codes is not None:
            return codes.tobytes(), stored, None
    return _union_encoded(stored, col.n_categories, np.asarray(vals))


def _raw_encoded(col: ColumnManifest, vals: np.ndarray) -> bytes:
    """A raw column's bytes at its stored dtype — a batch of strings
    narrower than the stored width is padded to it.  A cell longer than
    that width raises rather than being cut."""
    stored = np.dtype(col.dtype)
    fitted = vals.astype(stored, copy=False)
    if stored.kind == "U":
        cut = fitted != vals
        if cut.any():
            raise StorageError(
                f"column {col.name!r} stores strings of at most "
                f"{stored.itemsize // 4} characters; appended "
                f"{str(vals[cut][0])!r} is longer"
            )
    return fitted.tobytes()


def _lookup_codes(categories: np.ndarray, vals: np.ndarray | list[str]) -> np.ndarray | None:
    """int32 codes of ``vals`` in the sorted ``categories``, or ``None``
    unless every cell is one of them as it stands.

    A list's cells go through a dict of the categories.  An array's go
    through ``np.searchsorted`` plus an equality check; an array wider than
    the categories never matches, because the union rewrites the dictionary
    at its width.
    """
    if isinstance(vals, list):
        index = dict(zip(categories.tolist(), range(len(categories))))
        try:
            return np.fromiter(map(index.__getitem__, vals), np.int32, len(vals))
        except KeyError:
            return None
    if not len(categories) or vals.dtype.itemsize > categories.dtype.itemsize:
        return None
    codes = np.searchsorted(categories, vals)
    known = categories[np.minimum(codes, len(categories) - 1)] == vals
    return codes.astype(np.int32) if known.all() else None


def _union_encoded(
    stored: np.ndarray, n_categories: int, vals: np.ndarray
) -> tuple[bytes, np.ndarray, np.ndarray | None]:
    """:func:`_encode_appended` over the sorted union of the ``stored``
    categories (``n_categories`` by the manifest) and the batch's values."""
    cats = np.unique(np.concatenate([stored, np.unique(vals)]))
    blob = np.searchsorted(cats, vals).astype(np.int32).tobytes()
    if len(cats) == len(stored) == n_categories and cats.dtype == stored.dtype:
        return blob, stored, None
    return blob, cats, np.searchsorted(cats, stored).astype(np.int32)


def _append_column(
    root: Path,
    col: ColumnManifest,
    chunk_rows: int,
    old_rows: int,
    blob: bytes,
    cats: np.ndarray | None,
    remap: np.ndarray | None,
) -> ColumnManifest:
    """Land one column's encoded ``blob`` after ``old_rows`` stored values.

    Hashing starts at the first chunk with no valid recorded digest.  In
    place (raw columns, unchanged dictionaries) that is the partial tail
    chunk — read back in the one open that writes the batch, the only
    read-back — or chunk 0 for a column whose manifest recorded none (v1).
    A grown dictionary re-sorts its categories, so every stored code is
    streamed through ``remap`` into a temp file, hashed from chunk 0 on the
    way, and swapped in with ``os.replace`` — O(column), but the bytes
    equal a bulk write of the same rows and readers holding the old memmap
    keep the old inode.
    """
    backing = root / col.file
    itemsize = np.dtype(np.int32 if cats is not None else col.dtype).itemsize
    chunk_bytes = chunk_rows * itemsize
    cats_blob = b"" if cats is None else cats.tobytes()
    if remap is None:
        first = min(len(col.chunk_sha256), old_rows // chunk_rows)
        digests = _ChunkDigests(chunk_bytes, col.chunk_sha256[:first])
        _append_at(backing, old_rows * itemsize, blob, digests, first * chunk_bytes)
    else:
        digests = _ChunkDigests(chunk_bytes)
        tmp = backing.with_name(f"{backing.name}.tmp-{os.getpid()}")
        with open(tmp, "wb") as out:
            if old_rows:
                old_codes = np.memmap(
                    backing, dtype=np.int32, mode="r", shape=(old_rows,)
                )
                step = max(1, _WRITE_CHUNK_BYTES // 4)
                for start in range(0, old_rows, step):
                    piece = remap[old_codes[start : start + step]].tobytes()
                    digests.update(piece)
                    out.write(piece)
                del old_codes
            out.write(blob)
        os.replace(tmp, backing)
        cats_path = root / str(col.categories_file)
        cats_tmp = cats_path.with_name(f"{cats_path.name}.tmp-{os.getpid()}")
        cats_tmp.write_bytes(cats_blob)
        os.replace(cats_tmp, cats_path)
    digests.update(blob)
    chunk_sha256, sha256 = digests.finish(cats_blob)
    return ColumnManifest(
        name=col.name,
        dtype=col.dtype if cats is None else cats.dtype.str,
        role=col.role,
        file=col.file,
        nbytes=old_rows * itemsize + len(blob) + len(cats_blob),
        sha256=sha256,
        encoding=col.encoding,
        categories_file=col.categories_file,
        n_categories=0 if cats is None else len(cats),
        chunk_sha256=chunk_sha256,
    )


def append_rows(
    path: str | Path,
    data: Mapping[str, object],
    *,
    manifest: ChunkManifest | None = None,
) -> ChunkManifest:
    """Append a batch of rows to an existing on-disk chunk store.

    ``data`` maps every manifest column name to a same-length 1-D
    array-like of *logical* values (strings for dict-encoded columns —
    encoding against the store's category set happens here: a batch of
    known categories by lookup, anything else through the sorted union, see
    :func:`_encode_appended`).  Column files are extended in place — except
    a dictionary column the batch brings a new category to, whose code file
    is remapped into a new inode — and the manifest is rewritten last via
    tmp+rename with a fresh content ``digest``, so:

    * a reader that opened the store before the append keeps a fully
      consistent view (its memmaps were sized by the old manifest and
      never see the new tail);
    * a reader opening mid-append sees the *old* manifest over possibly
      longer column files, which :func:`open_table` tolerates;
    * a reader opening after the append sees the extended table under the
      new digest.

    The resulting store is byte-identical to one bulk-written with all
    rows at once (``k`` sequential appends ≡ one ingest, same digest),
    which is what keeps :meth:`Table.fingerprint` — and every cache key —
    content-addressed.  Returns the new manifest — what :func:`read_manifest`
    would parse from the store now — so a caller can refresh the registry
    and every open table from it without reading the file again.

    ``manifest`` is the store's current manifest when the caller has just
    parsed it and serializes the store's appends (the service holds its
    per-dataset append lock); otherwise the manifest is read here.
    """
    root = Path(path)
    if manifest is None:
        manifest = read_manifest(root)
    stored = {col.name: np.dtype(col.dtype) for col in manifest.columns}
    converted = appended_columns(data, stored, StorageError)
    n_new = len(converted[manifest.columns[0].name])

    # Encode every column before the first byte is written: a value a later
    # column rejects must not leave an earlier column already replaced.
    old_rows = manifest.n_rows
    encoded = [
        _encode_appended(root, col, converted[col.name]) for col in manifest.columns
    ]
    columns = [
        _append_column(root, col, manifest.chunk_rows, old_rows, *parts)
        for col, parts in zip(manifest.columns, encoded)
    ]

    payload = _manifest_payload(manifest, old_rows + n_new, columns)
    _write_manifest_atomic(root, payload)
    return replace(
        manifest,
        n_rows=old_rows + n_new,
        columns=tuple(columns),
        digest=str(payload["digest"]),
        extra={},
    )


def append_table(path: str | Path, table: "Table") -> ChunkManifest:
    """Append every row of ``table`` to the chunk store at ``path``.

    The delta table's schema must match the store's manifest columns by
    name; values are taken logically (dict-encoded columns are decoded),
    so the delta may be any resident table — typically a small batch built
    from freshly ingested rows.  See :func:`append_rows`.
    """
    data: dict[str, object] = {}
    for column in table.schema:
        chunked = table.chunked_column(column.name)
        if chunked.is_dict_encoded:
            data[column.name] = chunked.decode_all()
        else:
            data[column.name] = np.asarray(chunked.values)
    return append_rows(path, data)


def read_manifest(path: str | Path) -> ChunkManifest:
    """Parse and validate ``manifest.json`` under dataset directory ``path``."""
    root = Path(path)
    manifest_path = root / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise StorageError(f"no chunk-store manifest at {manifest_path}")
    try:
        payload = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise StorageError(f"unreadable manifest {manifest_path}: {exc}") from None
    if payload.get("format") not in _READABLE_FORMATS:
        raise StorageError(
            f"unsupported chunk-store format {payload.get('format')!r} "
            f"(expected one of {_READABLE_FORMATS!r})"
        )
    known = {
        "format", "name", "n_rows", "chunk_rows", "description",
        "split_column", "target_value", "other_value", "columns", "digest",
    }
    columns = tuple(
        ColumnManifest(
            name=str(col["name"]),
            dtype=str(col["dtype"]),
            role=str(col["role"]),
            file=str(col["file"]),
            nbytes=int(col["nbytes"]),
            sha256=str(col["sha256"]),
            encoding=str(col.get("encoding") or "raw"),
            categories_file=col.get("categories_file"),
            n_categories=int(col.get("n_categories") or 0),
            chunk_sha256=tuple(col.get("chunk_sha256") or ()),
        )
        for col in payload["columns"]
    )
    if not columns:
        raise StorageError(f"chunk store {root} declares no columns")
    return ChunkManifest(
        name=str(payload["name"]),
        n_rows=int(payload["n_rows"]),
        chunk_rows=int(payload["chunk_rows"]),
        columns=columns,
        digest=str(payload["digest"]),
        description=str(payload.get("description") or ""),
        split_column=payload.get("split_column"),
        target_value=payload.get("target_value"),
        other_value=payload.get("other_value"),
        extra={k: v for k, v in payload.items() if k not in known},
    )


def open_table(
    path: str | Path,
    *,
    memory_budget_bytes: int | None = None,
    name: str | None = None,
    tracker: ResidencyTracker | None = None,
    manifest: ChunkManifest | None = None,
    categories: Mapping[str, np.ndarray] | None = None,
) -> "Table":
    """Open an on-disk chunk store as a memmap-backed :class:`Table`.

    Column files are memory-mapped read-only — opening is O(manifest), not
    O(data) — and the returned table carries the manifest's ``chunk_rows``
    plus its content ``digest`` (so :meth:`Table.fingerprint`, and
    therefore every result-cache key, is stable across processes).  A
    :class:`ResidencyTracker` with ``memory_budget_bytes`` is attached for
    the streaming executors' materialization accounting.

    ``manifest`` is the store's manifest when the caller already holds it
    (it is then not read again).  ``categories`` maps a column to the
    dictionary a table opened from the same store holds: a dict32 column
    whose manifest entry records that dictionary's count and dtype takes
    it as it is, without reading its sidecar.  A store is append-only and
    its dictionaries only grow, so an unchanged count and dtype mean an
    unchanged dictionary (:meth:`Table.refresh_from_disk` passes its own).
    """
    from repro.db.table import Table  # deferred: table.py imports this module

    root = Path(path)
    if manifest is None:
        manifest = read_manifest(root)
    kept = categories or {}
    if tracker is None:
        tracker = ResidencyTracker(budget_bytes=memory_budget_bytes)
    data: dict[str, object] = {}
    roles: dict[str, ColumnRole] = {}
    for col in manifest.columns:
        value_dtype = np.dtype(col.dtype)
        storage_dtype = (
            np.dtype(np.int32) if col.encoding == "dict32" else value_dtype
        )
        backing = root / col.file
        if not backing.is_file():
            raise StorageError(f"chunk store {root} is missing column file {col.file}")
        expected = manifest.n_rows * storage_dtype.itemsize
        actual = backing.stat().st_size
        if actual < expected:
            # Larger is tolerated: a concurrent append may have extended the
            # file before landing its manifest.  The memmap below is sized by
            # *this* manifest's row count, so the extra tail is invisible.
            raise StorageError(
                f"column file {backing} is {actual} bytes, manifest expects "
                f"at least {expected}"
            )
        if manifest.n_rows:
            # A str path: numpy resolves a Path's symlinks, one lstat per
            # path component of every column file.
            stored: np.ndarray = np.memmap(
                str(backing), dtype=storage_dtype, mode="r", shape=(manifest.n_rows,)
            )
        else:
            stored = np.empty(0, dtype=storage_dtype)
        if col.encoding == "dict32":
            if not col.categories_file:
                raise StorageError(
                    f"dict-encoded column {col.name!r} declares no categories file"
                )
            dictionary = kept.get(col.name)
            if (
                dictionary is None
                or len(dictionary) != col.n_categories
                or dictionary.dtype != value_dtype
            ):
                dictionary = _read_categories(root, col, value_dtype)
            data[col.name] = DictEncodedValues(stored, dictionary)
        elif col.encoding == "raw":
            data[col.name] = stored
        else:
            raise StorageError(
                f"unknown column encoding {col.encoding!r} for {col.name!r}"
            )
        roles[col.name] = ColumnRole(col.role)
        ColumnType.from_numpy(value_dtype)  # fail fast on unsupported dtypes
    return Table(
        name or manifest.name,
        data,
        roles=roles,
        chunk_rows=manifest.chunk_rows,
        source_digest=manifest.digest,
        source_path=str(root),
        tracker=tracker,
    )


def _read_categories(root: Path, col: ColumnManifest, dtype: np.dtype) -> np.ndarray:
    """The category sidecar of dict32 column ``col``, checked against its
    manifest entry."""
    cats_path = root / str(col.categories_file)
    if not cats_path.is_file():
        raise StorageError(
            f"chunk store {root} is missing categories file {col.categories_file}"
        )
    categories = np.fromfile(cats_path, dtype=dtype)
    if len(categories) != col.n_categories:
        raise StorageError(
            f"categories file {cats_path} holds {len(categories)} values, "
            f"manifest expects {col.n_categories}"
        )
    return categories


class ChunkStore:
    """Handle to one on-disk dataset directory.

    A convenience wrapper tying the module's functions to a path::

        store = ChunkStore.write(table, "datasets/air", chunk_rows=65_536)
        table = ChunkStore("datasets/air").open(memory_budget_bytes=64 << 20)
        print(store.manifest.n_rows, store.manifest.digest)
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._manifest: ChunkManifest | None = None

    @property
    def manifest(self) -> ChunkManifest:
        """The parsed (and cached) ``manifest.json``."""
        if self._manifest is None:
            self._manifest = read_manifest(self.path)
        return self._manifest

    def open(
        self, *, memory_budget_bytes: int | None = None, name: str | None = None
    ) -> "Table":
        """Open the store as a memmap-backed table (see :func:`open_table`)."""
        return open_table(
            self.path, memory_budget_bytes=memory_budget_bytes, name=name
        )

    def writer(self, name: str, chunk_rows: int = DEFAULT_CHUNK_ROWS, **meta: object) -> ChunkStoreWriter:
        """A :class:`ChunkStoreWriter` targeting this directory."""
        return ChunkStoreWriter(self.path, name, chunk_rows, **meta)  # type: ignore[arg-type]

    def append(self, data: Mapping[str, object]) -> ChunkManifest:
        """Append rows (see :func:`append_rows`) and refresh the manifest."""
        self._manifest = append_rows(self.path, data)
        return self._manifest

    @classmethod
    def write(
        cls, table: "Table", path: str | Path, chunk_rows: int = DEFAULT_CHUNK_ROWS, **meta: object
    ) -> "ChunkStore":
        """Materialize ``table`` at ``path`` and return the handle."""
        write_table(table, path, chunk_rows, **meta)  # type: ignore[arg-type]
        return cls(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChunkStore({str(self.path)!r})"


def chunk_ranges(
    n_rows: int, chunk_rows: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, int]]:
    """Subranges of ``[start, stop)`` aligned to the absolute chunk grid.

    Boundaries fall on multiples of ``chunk_rows`` (so each subrange maps
    onto exactly one chunk of every column), except the first and last,
    which are clipped to the requested range.
    """
    stop = n_rows if stop is None else stop
    if chunk_rows <= 0:
        raise StorageError(f"chunk_rows must be positive, got {chunk_rows}")
    if start >= stop:
        yield (start, stop)
        return
    first = start // chunk_rows
    last = (stop - 1) // chunk_rows
    for index in range(first, last + 1):
        lo = index * chunk_rows
        yield (max(start, lo), min(stop, lo + chunk_rows))


__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "MANIFEST_FORMAT",
    "ChunkManifest",
    "ChunkStore",
    "ChunkStoreWriter",
    "ChunkedColumn",
    "ColumnManifest",
    "ColumnStreamWriter",
    "DictEncodedColumn",
    "DictEncodedValues",
    "ResidencyTracker",
    "append_rows",
    "append_table",
    "chunk_ranges",
    "open_table",
    "read_manifest",
    "write_table",
]
