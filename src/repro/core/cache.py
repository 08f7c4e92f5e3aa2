"""Cross-session view-result cache (the serving-layer memoization tier).

SeeDB is middleware between analysts and the DBMS, and interactive
exploration is dominated by *repeated* work: consecutive analyst steps —
and concurrent sessions exploring the same dataset — share almost all of
their view queries.  A :class:`ViewResultCache` memoizes executed
per-query results (:class:`~repro.db.query.QueryResult` plus the
:class:`~repro.config.ExecutionStats` of the execution that produced
them) keyed by a canonical fingerprint of

* **table identity + version** — a content hash of the backing arrays
  combined with :attr:`~repro.db.table.Table.version` (bumped by
  :meth:`~repro.db.table.Table.bump_version` on mutation, which
  invalidates every cached entry for the old contents);
* **query plan** — a structural rendering of the full logical
  :class:`~repro.db.query.AggregateQuery` (group-bys, aggregates,
  predicate, derived columns, group budget);
* **row range** — phased execution never confuses partial-range results
  with full-table ones;
* **backend semantics** — the backend's registry name, its
  ``capabilities().result_fingerprint``, and the storage-engine kind, so
  results (and their accounting) from one engine are never replayed as
  another's.

The cache is a plain LRU with a byte budget, safe for concurrent use from
many engine runs (one lock, no I/O under it beyond dict ops).  Lookups are
wired into :meth:`~repro.core.parallel.ParallelDispatcher.run_batch`:
cached queries are excluded from dispatch *before* shared-scan batching,
so a fully-warm phase performs no physical work at all.  Hit / miss /
bytes-saved accounting is carried per run on
:class:`~repro.config.ExecutionStats` and surfaced on
:class:`~repro.core.engine.EngineRun`.

An entry also keeps, once hit, the scores of the views its result alone
feeds (:attr:`CacheEntry.memo`): the engine reads them on later hits
instead of routing and scoring the result again.

The knob is :attr:`~repro.config.EngineConfig.result_cache` (default
**off** so the Figure 5-9 benchmark ablations keep measuring real
execution); the recommendation service (:mod:`repro.service`) turns it on
and shares one cache across every session and dataset engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.config import ExecutionStats
from repro.core.difference import ViewDistributions
from repro.db.query import AggregateQuery, AggregateSpec, QueryResult
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.backends.base import Backend
    from repro.db.storage import StorageEngine

#: Default cache capacity: plenty for thousands of per-phase view results
#: while staying far below a laptop's memory.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024
DEFAULT_MAX_ENTRIES = 16_384

#: Fixed per-entry overhead charged against the byte budget (keys, dict
#: slots, stats object) so even zero-row results have nonzero weight.
_ENTRY_OVERHEAD_BYTES = 512
#: Fixed charge per view answer an entry keeps (its tuple, distributions object,
#: two array headers and dict slot) beyond its arrays and keys.
_ANSWER_OVERHEAD_BYTES = 256


# --------------------------------------------------------------------------- #
# canonical fingerprints
# --------------------------------------------------------------------------- #


def _value_key(value: object, memo: dict | None = None) -> str:
    """Stable structural rendering of one field value.

    ``repr`` alone is not enough: expression nodes render via ``to_sql``,
    which rejects non-finite float literals the native executor happily
    evaluates — the fingerprint must never raise on a query the engine can
    run.  ``memo`` maps an expression node's id to (the node, its key): by
    identity, as a literal may be unhashable or NaN; the kept node pins its id.
    """
    if value is None:
        return "-"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_value_key(v, memo) for v in value) + "]"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        known = memo.get(id(value)) if memo is not None else None
        if known is not None and known[0] is value:
            return known[1]
        parts = ",".join(
            _value_key(getattr(value, f.name), memo) for f in dataclasses.fields(value)
        )
        key = f"{type(value).__name__}({parts})"
        if memo is not None:
            memo[id(value)] = (value, key)
        return key
    return repr(value)  # covers inf/nan floats deterministically


def plan_fingerprint(
    table: str, group_by: Sequence[str], aggregates: Sequence[AggregateSpec]
) -> str:
    """The target-free head of :func:`query_fingerprint`: table, group-bys and
    aggregate specs.  A plan skeleton keeps it per query, so a request renders
    only its predicate and derived columns."""
    aggs = ";".join(
        f"{spec.func.value}:{_value_key(spec.argument)}:{spec.alias}" for spec in aggregates
    )
    return f"{table}|{','.join(group_by)}|{aggs}"


def query_fingerprint(
    query: AggregateQuery,
    *,
    include_row_range: bool = True,
    memo: dict | None = None,
    head: str | None = None,
) -> str:
    """Canonical fingerprint of one logical query plan, row range included.

    Structural, not textual: two queries get the same fingerprint iff every
    plan-relevant field (table name, group-bys, aggregate specs, predicate
    tree, derived columns, row range, group budget) is equal.  Aliases are
    included because :class:`~repro.db.query.QueryResult` keys its arrays
    by alias.

    ``include_row_range=False`` drops the row-range component: the delta
    cache keys partial-aggregation state by the *logical* query so a
    refresh over a grown table (same plan, longer range) still finds the
    state captured over the shorter one.

    ``memo`` is one request's: the queries of a request share their target
    predicate and flag expression, which are then keyed once, to the same string.
    ``head`` is the query's :func:`plan_fingerprint`, where the caller kept it.
    """
    if head is None:
        head = plan_fingerprint(query.table, query.group_by, query.aggregates)
    derived = ";".join(
        f"{d.alias}={_value_key(d.expression, memo)}" for d in query.derived
    )
    return "|".join(
        (
            head,
            _value_key(query.predicate, memo),
            derived,
            _value_key(query.row_range) if include_row_range else "*",
            _value_key(query.group_budget),
        )
    )


def execution_fingerprint(store: "StorageEngine", backend: "Backend") -> str:
    """Fingerprint of the execution context shared by a whole engine run.

    Combines the table's content+version fingerprint, the storage-engine
    kind (row/col page layouts charge different I/O into the cached
    stats), and the backend's identity + declared
    ``capabilities().result_fingerprint``.
    """
    caps = backend.capabilities()
    return "|".join(
        (
            store.table.fingerprint(),
            store.kind,
            backend.name,
            caps.result_fingerprint or "unversioned",
        )
    )


class LruMemo:
    """A bounded least-recently-used memo of pure values (view spaces, plan
    skeletons).  Thread-safe: a racing build is wasted work, not a wrong value."""

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self._values: OrderedDict[object, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key, build):
        """The value kept under ``key``, or ``build()`` — kept, the oldest out."""
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return self._values[key]
        value = build()
        with self._lock:
            self._values[key] = value
            while len(self._values) > self.bound:
                self._values.popitem(last=False)
        return value


# --------------------------------------------------------------------------- #
# cache entries and statistics
# --------------------------------------------------------------------------- #


@dataclass
class CacheEntry:
    """One memoized query execution.

    ``stats`` is the accounting of the execution that produced the result;
    on a hit its byte counters become the run's ``cache_bytes_saved``.
    ``nbytes`` is the entry's charge against the cache's byte budget, its
    ``memo`` included.  ``memo`` keeps, per ``(metric, reference mode)``, the
    ``(utility, ViewDistributions)`` of each view the result alone fed
    (:meth:`ViewResultCache.keep_answers`); the cache reads and writes it
    under its lock, and it lives and dies with the entry (the L2 tier stores
    results, not entries).
    """

    result: QueryResult
    stats: ExecutionStats
    nbytes: int
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def bytes_saved(self) -> int:
        """Bytes of physical scanning a hit on this entry avoids."""
        return self.stats.bytes_scanned_miss + self.stats.bytes_scanned_hit


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of a cache's lifetime counters."""

    hits: int
    misses: int
    insertions: int
    evictions: int
    invalidations: int
    entries: int
    bytes: int
    max_bytes: int
    max_entries: int
    bytes_saved: int
    #: View scores read from entries' memos instead of being routed and scored.
    scores_reused: int = 0

    @property
    def hit_rate(self) -> float:
        """Lifetime hits / lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready dict (the service's ``GET /stats`` payload)."""
        payload: dict[str, object] = dataclasses.asdict(self)
        payload["hit_rate"] = self.hit_rate
        return payload


def _result_nbytes(result: QueryResult) -> int:
    """Byte weight of a result's arrays (plus fixed entry overhead)."""
    total = _ENTRY_OVERHEAD_BYTES
    for mapping in (result.groups, result.values):
        for array in mapping.values():
            arr = np.asarray(array)
            total += arr.nbytes
    return total


def _answer_nbytes(answer: tuple[float, ViewDistributions]) -> int:
    """Byte weight of one kept view answer."""
    dists = answer[1]
    return (
        dists.target.nbytes + dists.reference.nbytes + 8 * len(dists.keys)
        + _ANSWER_OVERHEAD_BYTES
    )


def _frozen_answer(answer: tuple[float, ViewDistributions]) -> tuple[float, ViewDistributions]:
    """A read-only copy of one view answer, shared by every later hit."""
    utility, dists = answer
    target, reference = dists.target.copy(), dists.reference.copy()
    target.flags.writeable = reference.flags.writeable = False
    return utility, ViewDistributions(dists.keys, target, reference)


def _freeze(mapping: Mapping[str, object]) -> dict[str, np.ndarray]:
    """Return the mapping with every array marked read-only.

    Cached arrays are shared by every future hit; a consumer scribbling on
    one would silently corrupt all later sessions, so numpy is told to
    refuse.
    """
    frozen: dict[str, np.ndarray] = {}
    for name, array in mapping.items():
        arr = np.asarray(array)
        if arr.flags.writeable:
            try:
                arr.flags.writeable = False
            except ValueError:  # pragma: no cover - foreign base array
                arr = arr.copy()
                arr.flags.writeable = False
        frozen[name] = arr
    return frozen


# --------------------------------------------------------------------------- #
# the cache
# --------------------------------------------------------------------------- #


class ViewResultCache:
    """Thread-safe LRU + byte-budget cache of executed view-query results.

    One instance is intended to be shared across *sessions* — every
    engine over every dataset in a serving process can use the same cache
    because keys embed the full execution fingerprint (see module
    docstring).  All operations are O(1) dict/linked-list work under one
    lock.

    Example::

        cache = ViewResultCache(max_bytes=64 << 20)
        engine = ExecutionEngine(store, config.with_(result_cache=True), result_cache=cache)
        first = engine.run(views, target, k=5, strategy="sharing", pruner="none")
        again = engine.run(views, target, k=5, strategy="sharing", pruner="none")
        assert again.selected == first.selected
        assert again.cache_hits == first.cache_misses  # fully warm
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        """Create an empty cache bounded by ``max_bytes`` and ``max_entries``."""
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._invalidations = 0
        self._bytes_saved = 0
        self._scores_reused = 0

    # -------------------------------------------------------------- #
    # core operations
    # -------------------------------------------------------------- #

    def get(self, key: str) -> CacheEntry | None:
        """Return the entry for ``key`` (refreshing its LRU position) or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._bytes_saved += entry.bytes_saved()
            return entry

    def put(self, key: str, result: QueryResult, stats: ExecutionStats) -> CacheEntry:
        """Memoize one executed query; evicts LRU entries past the budgets.

        The result's arrays are marked read-only (they will be shared by
        every future hit).  Re-putting an existing key refreshes the entry.
        """
        frozen = QueryResult(
            groups=_freeze(result.groups),
            values=_freeze(result.values),
            n_groups=result.n_groups,
            input_rows=result.input_rows,
        )
        entry = CacheEntry(
            result=frozen, stats=stats, nbytes=_result_nbytes(frozen)
        )
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            self._insertions += 1
            self._evict()
        return entry

    def _evict(self) -> None:
        """Drop least recently used entries past the budgets (lock held)."""
        while self._entries and (
            self._bytes > self.max_bytes or len(self._entries) > self.max_entries
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._evictions += 1

    # -------------------------------------------------------------- #
    # view answers kept per entry
    # -------------------------------------------------------------- #

    def answers(self, key: str, memo_key: object, views: Sequence) -> list | None:
        """The answers the entry under ``key`` keeps for ``memo_key``, one per
        view key in ``views``, or ``None`` unless it keeps every one (no
        LRU move: the lookup that found the entry made it)."""
        with self._lock:
            entry = self._entries.get(key)
            kept = entry.memo.get(memo_key) if entry is not None else None
            if kept is None:
                return None
            try:
                found = [kept[view] for view in views]
            except KeyError:
                return None
            self._scores_reused += len(found)
            return found

    def keep_answers(self, key: str, memo_key: object, answers: Mapping) -> None:
        """Keep read-only copies of ``answers`` (view key -> ``(utility,
        ViewDistributions)``) on the entry under ``key`` for ``memo_key``,
        charged to its bytes and the budget; nothing if the entry is gone.
        The caller vouches that each answer is a function of that entry's
        result, the view and ``memo_key`` alone."""
        frozen = {view: _frozen_answer(answer) for view, answer in answers.items()}
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            kept = entry.memo.setdefault(memo_key, {})
            added = {view: answer for view, answer in frozen.items() if view not in kept}
            kept.update(added)
            nbytes = sum(map(_answer_nbytes, added.values()))
            entry.nbytes += nbytes
            self._bytes += nbytes
            self._evict()

    # -------------------------------------------------------------- #
    # invalidation
    # -------------------------------------------------------------- #

    def invalidate_table(self, table_fingerprint: str) -> int:
        """Drop every entry whose key was built over ``table_fingerprint``.

        Keys are prefixed by the execution fingerprint, which leads with
        the table fingerprint — call this after mutating a table in place
        (pair with :meth:`~repro.db.table.Table.bump_version`, which also
        reroutes *future* lookups away from the stale entries).  Returns
        the number of entries dropped.
        """
        prefix = table_fingerprint + "|"
        with self._lock:
            stale = [key for key in self._entries if key.startswith(prefix)]
            for key in stale:
                self._bytes -= self._entries.pop(key).nbytes
            self._invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (lifetime counters are preserved)."""
        with self._lock:
            self._invalidations += len(self._entries)
            self._entries.clear()
            self._bytes = 0

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    def __len__(self) -> int:
        """Number of live entries."""
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes currently charged against the budget."""
        with self._lock:
            return self._bytes

    def snapshot(self) -> CacheStats:
        """Consistent point-in-time :class:`CacheStats`."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                insertions=self._insertions,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                bytes=self._bytes,
                max_bytes=self.max_bytes,
                max_entries=self.max_entries,
                bytes_saved=self._bytes_saved,
                scores_reused=self._scores_reused,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Compact one-line summary."""
        stats = self.snapshot()
        return (
            f"ViewResultCache(entries={stats.entries}, bytes={stats.bytes}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )


# --------------------------------------------------------------------------- #
# delta-state cache (append-aware view maintenance)
# --------------------------------------------------------------------------- #

#: Default byte budget for cached partial-aggregation states.
DEFAULT_DELTA_MAX_BYTES = 128 * 1024 * 1024
DEFAULT_DELTA_MAX_ENTRIES = 4_096


def delta_state_key(
    store: "StorageEngine",
    query: AggregateQuery,
    executor_sig: str = "native",
    *,
    memo: dict | None = None,
    head: str | None = None,
) -> str:
    """Cache key for one query's partial-aggregation state.

    Deliberately *excludes* the table fingerprint and the row range: the
    whole point is that the key still matches after an append changed
    both.  Identity instead anchors on the dataset (chunk-store path for
    disk-backed tables, object identity for in-memory ones), the storage
    kind, the executor's semantics, and the logical query plan; the
    *contents* the cached state covers are recorded per entry as
    ``(fingerprint, rows)`` and validated against the table's
    :attr:`~repro.db.table.Table.append_lineage` at lookup time.
    ``memo`` and ``head`` are :func:`query_fingerprint`'s.
    """
    table = store.table
    anchor = table.source_path or f"mem-{id(table)}"
    return "|".join(
        (
            "delta",
            table.name,
            anchor,
            store.kind,
            executor_sig,
            query_fingerprint(query, include_row_range=False, memo=memo, head=head),
        )
    )


@dataclass(frozen=True)
class DeltaState:
    """One cached partial-aggregation state.

    ``state`` is a refreshed aggregator's own state
    (:meth:`~repro.db.streaming.StreamingGroupAggregator.release`), covering
    rows ``[0, rows)`` of the table whose fingerprint was ``fingerprint`` at
    capture time.  It is valid for a table ``t`` iff ``t`` *is* that
    table (``t.fingerprint() == fingerprint`` and ``rows == t.nrows``) or
    ``t`` append-extends it (``t.append_lineage[fingerprint] == rows``) —
    then the refresh restores the snapshot and scans only rows past
    ``rows``.
    """

    state: dict[str, object]
    rows: int
    fingerprint: str
    nbytes: int


class DeltaStateCache:
    """LRU byte-budgeted cache of per-query partial-aggregation states.

    Sits beside :class:`ViewResultCache`: the result cache memoizes
    *finished* results under content-addressed keys (which an append
    necessarily reroutes), while this tier keeps the mergeable
    :class:`~repro.db.streaming.StreamingGroupAggregator` state so the
    first run after an append pays O(delta) instead of O(table).  Same
    locking discipline as :class:`ViewResultCache`.  A stored state is never
    written again: the pipeline puts an aggregator's own state once it feeds
    it no more rows (nothing it returns shares an array with it), and a
    restore copies it, so entries are immune to concurrent updates.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_DELTA_MAX_BYTES,
        max_entries: int = DEFAULT_DELTA_MAX_ENTRIES,
    ) -> None:
        """Create an empty cache bounded by ``max_bytes``/``max_entries``."""
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: OrderedDict[str, DeltaState] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0

    def key(self, store: "StorageEngine", query: AggregateQuery) -> str:
        """:func:`delta_state_key` of ``query`` over ``store``: the key of a query
        whose batch came without one (a batch of one, ``execute``)."""
        return delta_state_key(store, query)

    def get(self, key: str) -> DeltaState | None:
        """The cached state for ``key`` (LRU-refreshed), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(
        self, key: str, state: dict[str, object], rows: int, fingerprint: str, nbytes: int
    ) -> DeltaState:
        """Store one snapshot; evicts LRU entries past the budgets."""
        entry = DeltaState(
            state=state,
            rows=rows,
            fingerprint=fingerprint,
            nbytes=nbytes + _ENTRY_OVERHEAD_BYTES,
        )
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes
            self._entries[key] = entry
            self._bytes += entry.nbytes
            self._insertions += 1
            while self._entries and (
                self._bytes > self.max_bytes or len(self._entries) > self.max_entries
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1
        return entry

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        """Number of live entries."""
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes currently charged against the budget."""
        with self._lock:
            return self._bytes

    def counters(self) -> dict[str, int]:
        """Lifetime counters (JSON-ready, for ``GET /v1/stats``)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "insertions": self._insertions,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }


# --------------------------------------------------------------------------- #
# cross-process L2 tier
# --------------------------------------------------------------------------- #

#: Default byte budget for the file-backed L2 tier.
DEFAULT_L2_MAX_BYTES = 1024 * 1024 * 1024

#: Suffix for L2 entry files (anything else in the directory is ignored).
_L2_SUFFIX = ".viewcache"

#: Age after which an orphaned L2 temp file is presumed abandoned (no
#: legitimate write takes anywhere near this long) and swept by _prune.
_TMP_GRACE_SECONDS = 15 * 60

#: Bytes of the integrity trailer appended to every L2 entry file: the
#: SHA-256 digest of the pickle blob that precedes it.
_L2_TRAILER_BYTES = 32


class FileCacheTier:
    """File-backed cache tier shared by every process pointed at one dir.

    Each entry is one file named by the SHA-256 of its cache key, holding
    a pickle of ``(key, QueryResult, ExecutionStats)`` — the key is stored
    inside the payload too, so a (cosmically unlikely) hash collision or a
    foreign file reads as a miss rather than a wrong answer — followed by
    a 32-byte SHA-256 trailer over the pickle bytes.  Reads verify the
    trailer before unpickling; an entry that fails (torn write surviving a
    crash, bit rot, a truncating copy) is **quarantined** — deleted on the
    spot and counted in :attr:`quarantined` — and reads as a clean miss,
    never as garbage handed to ``pickle.loads``.  Writes go to a unique
    temp file first and land via :func:`os.replace`, so concurrent readers
    in sibling worker processes never observe a torn entry.  All failure
    modes (missing file, corrupt pickle, full disk) degrade to a miss /
    dropped write: the tier is an accelerator, never a correctness
    dependency.
    """

    def __init__(
        self, directory: str | Path, max_bytes: int = DEFAULT_L2_MAX_BYTES
    ) -> None:
        """Create (if needed) ``directory`` and bound it by ``max_bytes``."""
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._quarantined = 0
        self._quarantine_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / (
            hashlib.sha256(key.encode()).hexdigest() + _L2_SUFFIX
        )

    @property
    def quarantined(self) -> int:
        """Entries deleted because their integrity trailer failed."""
        with self._quarantine_lock:
            return self._quarantined

    def _quarantine(self, path: Path) -> None:
        """Delete a corrupt entry so it cannot poison later reads."""
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - concurrent delete
            pass
        with self._quarantine_lock:
            self._quarantined += 1

    def get(self, key: str) -> tuple[QueryResult, ExecutionStats] | None:
        """Load one entry, or None on miss/corruption/collision.

        Corruption (trailer mismatch, too-short file, or an undecodable
        pickle behind a valid-looking trailer) quarantines the entry.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if len(blob) <= _L2_TRAILER_BYTES:
            self._quarantine(path)
            return None
        body, trailer = blob[:-_L2_TRAILER_BYTES], blob[-_L2_TRAILER_BYTES:]
        if hashlib.sha256(body).digest() != trailer:
            self._quarantine(path)
            return None
        try:
            stored_key, result, stats = pickle.loads(body)
        except (pickle.PickleError, ValueError, EOFError, IndexError, TypeError):
            self._quarantine(path)
            return None
        if stored_key != key:  # pragma: no cover - hash collision guard
            return None
        return result, stats

    def put(self, key: str, result: QueryResult, stats: ExecutionStats) -> bool:
        """Persist one entry atomically; returns False when dropped.

        Entries larger than the whole tier budget are dropped up front;
        after a successful write the tier prunes oldest-first back under
        ``max_bytes`` (best-effort — concurrent pruners may race, and a
        file deleted under us is simply skipped).
        """
        body = pickle.dumps((key, result, stats), protocol=pickle.HIGHEST_PROTOCOL)
        blob = body + hashlib.sha256(body).digest()
        if len(blob) > self.max_bytes:
            return False
        path = self._path(key)
        tmp = path.with_suffix(
            f".tmp-{os.getpid()}-{threading.get_ident()}"
        )
        try:
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - cleanup best-effort
                pass
            return False
        faults.maybe_truncate(path, key)
        self._prune()
        return True

    def _entries(self) -> list[tuple[float, int, Path]]:
        """Live entry files as ``(mtime, size, path)`` (missing skipped)."""
        rows = []
        try:
            paths = list(self.directory.glob("*" + _L2_SUFFIX))
        except OSError:  # pragma: no cover - directory vanished
            return []
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append((stat.st_mtime, stat.st_size, path))
        return rows

    def _prune(self) -> None:
        """Delete oldest entries until the tier fits ``max_bytes``.

        Also sweeps orphaned ``.tmp-<pid>-<tid>`` files: a writer that
        crashed between ``write_bytes`` and :func:`os.replace` leaves its
        temp file behind forever, and those escape the byte budget because
        :meth:`_entries` only counts ``*.viewcache`` files.  Anything
        older than :data:`_TMP_GRACE_SECONDS` cannot still be mid-write,
        so it is garbage.
        """
        cutoff = time.time() - _TMP_GRACE_SECONDS
        try:
            stale = list(self.directory.glob("*.tmp-*"))
        except OSError:  # pragma: no cover - directory vanished
            stale = []
        for tmp in stale:
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - concurrent sweep
                continue
        rows = sorted(self._entries())
        total = sum(size for _, size, _ in rows)
        for _, size, path in rows:
            if total <= self.max_bytes:
                break
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - concurrent prune
                continue
            total -= size

    def invalidate(self, key_prefix: str) -> int:
        """Drop entries whose stored key starts with ``key_prefix``."""
        dropped = 0
        for _, _, path in self._entries():
            try:
                stored_key = pickle.loads(path.read_bytes())[0]
            except (OSError, pickle.PickleError, ValueError, EOFError, IndexError):
                continue
            if isinstance(stored_key, str) and stored_key.startswith(key_prefix):
                try:
                    path.unlink(missing_ok=True)
                    dropped += 1
                except OSError:  # pragma: no cover - concurrent prune
                    continue
        return dropped

    def __len__(self) -> int:
        """Number of live entry files."""
        return len(self._entries())

    @property
    def nbytes(self) -> int:
        """Total bytes of live entry files."""
        return sum(size for _, size, _ in self._entries())

    def clear(self) -> None:
        """Delete every entry file."""
        for _, _, path in self._entries():
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - concurrent prune
                continue


class TieredViewResultCache(ViewResultCache):
    """Two-tier view-result cache: in-process L1 over a file-backed L2.

    The L1 is the plain :class:`ViewResultCache` (fast, per-process); the
    L2 is a :class:`FileCacheTier` directory shared by every sibling
    worker process of a sharded service, so session B on worker 2 can hit
    results session A on worker 1 already paid for.  Lookup order is
    L1 → L2 (an L2 hit is promoted into L1); every put lands in both.
    Per-tier hit/miss counters are kept separately from the base
    :class:`CacheStats` and surfaced by :meth:`tier_counters` (the
    service's ``GET /v1/stats`` payload).

    Drop-in for :class:`ViewResultCache` everywhere (the engine's
    dispatcher only calls ``get``/``put``).
    """

    def __init__(
        self,
        l2_dir: str | Path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        l2_max_bytes: int = DEFAULT_L2_MAX_BYTES,
    ) -> None:
        """An L1 bounded as usual over an L2 tier rooted at ``l2_dir``."""
        super().__init__(max_bytes=max_bytes, max_entries=max_entries)
        self.l2 = FileCacheTier(l2_dir, max_bytes=l2_max_bytes)
        self._tier_lock = threading.Lock()
        self._l1_hits = 0
        self._l1_misses = 0
        self._l2_hits = 0
        self._l2_misses = 0

    def get(self, key: str) -> CacheEntry | None:
        """L1 lookup, falling back to L2 (with promotion into L1)."""
        entry = super().get(key)
        if entry is not None:
            with self._tier_lock:
                self._l1_hits += 1
            return entry
        loaded = self.l2.get(key)
        if loaded is None:
            with self._tier_lock:
                self._l1_misses += 1
                self._l2_misses += 1
            return None
        result, stats = loaded
        entry = ViewResultCache.put(self, key, result, stats)
        # The base class booked the L1 probe as a miss, but the lookup as
        # a whole hit: reclassify so the aggregate CacheStats stay honest.
        with self._lock:
            self._misses -= 1
            self._hits += 1
            self._bytes_saved += entry.bytes_saved()
        with self._tier_lock:
            self._l1_misses += 1
            self._l2_hits += 1
        return entry

    def put(self, key: str, result: QueryResult, stats: ExecutionStats) -> CacheEntry:
        """Memoize in L1 and persist to the shared L2 (best-effort)."""
        entry = super().put(key, result, stats)
        self.l2.put(key, entry.result, stats)
        return entry

    def invalidate_table(self, table_fingerprint: str) -> int:
        """Invalidate both tiers; returns entries dropped from the L1."""
        dropped = super().invalidate_table(table_fingerprint)
        self.l2.invalidate(table_fingerprint + "|")
        return dropped

    def tier_counters(self) -> dict[str, int]:
        """Per-tier lifetime hit/miss counters (JSON-ready)."""
        with self._tier_lock:
            return {
                "l1_hits": self._l1_hits,
                "l1_misses": self._l1_misses,
                "l2_hits": self._l2_hits,
                "l2_misses": self._l2_misses,
                "l2_quarantined": self.l2.quarantined,
            }


__all__ = [
    "CacheEntry",
    "CacheStats",
    "DeltaState",
    "DeltaStateCache",
    "FileCacheTier",
    "LruMemo",
    "TieredViewResultCache",
    "ViewResultCache",
    "delta_state_key",
    "execution_fingerprint",
    "plan_fingerprint",
    "query_fingerprint",
    "DEFAULT_DELTA_MAX_BYTES",
    "DEFAULT_DELTA_MAX_ENTRIES",
    "DEFAULT_L2_MAX_BYTES",
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
]
