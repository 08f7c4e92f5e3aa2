"""The recommendation service: SeeDB as an actual middleware server.

A :class:`RecommendationService` holds one lazily-built
:class:`~repro.core.recommender.SeeDB` engine per ``(dataset, store)`` pair,
the two stores of a dataset over one table built once, and one shared
cross-session :class:`~repro.core.cache.ViewResultCache`, and serves
concurrent analyst sessions; a session's metric is an argument of each of
its runs.  :class:`SeeDBHTTPServer` exposes it as a JSON API on a stdlib
``ThreadingHTTPServer`` (one thread per in-flight request, no third-party
dependencies).  Endpoints live under the versioned ``/v1`` prefix, one
row each in :data:`repro.service.api.ROUTES`; :class:`RouteHandler`, the
request handler both HTTP tiers share, dispatches through that table.
Every error response uses the envelope
``{"error": {"code", "message", "detail"}}`` (see
:mod:`repro.service.api` for the code catalogue):

* ``GET /v1/healthz`` — cheap liveness probe: answers without touching
  the dataset registry or building any engine (safe for tight
  orchestration probe intervals).
* ``POST /v1/sessions`` — open a session: ``{"dataset": "census"}``
  (optional ``store``, ``metric``).
* ``POST /v1/sessions/<id>/recommend`` — run one recommendation step:
  ``{"target": [{"column": ..., "value": ...}], "k": 5}`` (optional
  ``strategy``, ``pruner``, ``parallelism``, ``dimensions``,
  ``measures``); the response carries the ranked views, each with its most
  deviating ``top_group`` (the drill-down handle), plus per-run cache and
  latency statistics.
* ``GET /v1/sessions/<id>`` — a session's recorded steps.
* ``GET /v1/datasets`` — the dataset registry, with schema info for every
  dataset already loaded; on-disk chunked datasets (``data_dirs`` /
  ``POST /v1/datasets``) are flagged ``"on_disk": true``.
* ``POST /v1/datasets`` — register an on-disk chunked dataset directory
  (written by :mod:`repro.data.ingest`): ``{"path": "/data/air"}``.
  Relative or traversal paths — and, when the service was started with
  ``data_dirs``, paths outside those roots — are rejected with
  ``invalid_path``.
* ``POST /v1/datasets/<id>/append`` — append rows to an on-disk dataset:
  ``{"rows": {"col": [...], ...}}`` (columnar JSON, or a list of row
  objects) or ``{"csv": "col1,col2\\n..."}``.  Only a dictionary column the
  batch brings a new category or a wider string dtype to is rewritten
  (``columns_rewritten``); the result cache's entries under the old
  fingerprint leave its in-process tier, and the next recommend
  carry-merges cached per-group partials over only the new chunks (the
  delta-state cache), so warm-path latency scales with the delta, not the
  dataset.
* ``POST /v1/datasets/<id>/refresh`` — re-sync a dataset from its chunk
  store (manifest digest compare + memmap re-open); used by the sharded
  front-end to propagate appends to sibling workers.
* ``GET /v1/stats`` — service-level counters and the shared cache's
  :class:`~repro.core.cache.CacheStats` (per-tier L1/L2 counters when the
  service runs a tiered cache).

The server drains gracefully: :meth:`SeeDBHTTPServer.graceful_shutdown`
stops accepting, answers new requests on kept-alive connections with 503,
waits for in-flight requests to finish, then closes;
:func:`install_sigterm_handler` wires it to SIGTERM for container
orchestration.

Run it from the command line::

    PYTHONPATH=src python -m repro.service --port 8080 --datasets census,bank \\
        --data-dir datasets/air_chunks

or in-process (tests, examples, benchmarks)::

    from repro.service import RecommendationService, start_server
    server, thread = start_server(RecommendationService(datasets=("census",)))
    port = server.server_address[1]
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, get_args

import numpy as np

from repro.config import StoreKind
from repro.core.cache import TieredViewResultCache, ViewResultCache
from repro.core.engine import EngineRun, Parallelism, Strategy
from repro.core.recommender import SeeDB, serving_config
from repro.data import registry
from repro.data.ingest import strict_float, strict_int
from repro.db.catalog import TableMeta
from repro.db.chunks import append_rows as chunk_append_rows
from repro.db.chunks import ChunkManifest, read_manifest
from repro.db.expressions import And, Expression, eq
from repro.exceptions import ReproError, ServiceError, StorageError
from repro.metrics import get_metric
from repro.service.api import ErrorCode, Route, error_envelope, match_route
from repro.service.monitor import RouteLatencyRegistry
from repro.service.sessions import (
    SessionStep,
    SessionStore,
    TargetClauses,
    clauses_from_payload,
)
from repro.testing import faults

_STRATEGIES = get_args(Strategy)
_STORES = get_args(StoreKind)
_PARALLELISM = get_args(Parallelism)
_MAX_K = 100
#: What a session gets when its ``POST /sessions`` body names no store / metric.
_DEFAULT_STORE = "col"
_DEFAULT_METRIC = "emd"
#: The seed every built-in dataset is generated with.
_DATASET_SEED = 0


def _json_scalar(value: object) -> object:
    """Convert numpy scalars to plain Python for JSON serialization."""
    return value.item() if hasattr(value, "item") else value


def _predicate(clauses: TargetClauses) -> Expression:
    """Conjunction of equality clauses (the API's only predicate shape)."""
    parts = [eq(column, value) for column, value in clauses]
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _top_group(run: EngineRun, key: tuple[str, str, str]) -> object:
    """The view's most deviating group — the analyst's drill-down handle;
    ``None`` when no group deviates (equal sides: a target with no rows)."""
    dists = run.distributions.get(key)
    if dists is None or np.array_equal(dists.target, dists.reference):
        return None
    index = int(np.argmax(np.abs(dists.target - dists.reference)))
    return _json_scalar(dists.keys[index])


class RecommendationService:
    """Session-oriented SeeDB serving core (transport-agnostic).

    One instance owns the session store, the per-dataset engines, and the
    shared view-result cache; the HTTP layer only translates JSON to the
    methods below, so tests and benchmarks may call them directly.

    Example::

        service = RecommendationService(datasets=("census",), scale="smoke")
        session = service.create_session({"dataset": "census"})
        response = service.recommend(session["session_id"], {"k": 5})
        print(response["views"][0], response["stats"]["cache_hits"])
    """

    def __init__(
        self,
        datasets: Sequence[str] | None = None,
        scale: str | None = None,
        result_cache: bool = True,
        data_dirs: Sequence[str] = (),
        l2_cache_dir: str | None = None,
        delta_cache: bool = True,
    ) -> None:
        """Configure the service; engines are built lazily per dataset.

        ``datasets`` restricts what clients may open sessions on (default:
        the whole registry); ``scale`` pins the dataset build scale
        (default: ``SEEDB_SCALE``/small); ``result_cache=False`` disables
        the cross-session cache (the benchmark's ablation leg);
        ``data_dirs`` lists on-disk chunked dataset directories (see
        :mod:`repro.data.ingest`) to register and serve alongside the
        built-ins — these open as memory-mapped tables the engine streams,
        so they may exceed RAM;
        ``l2_cache_dir`` adds a file-backed cross-process L2 tier under
        that directory (used by the sharded front-end so sibling workers
        share each other's view results); ``delta_cache=False`` disables
        the append-aware delta-state cache (it is on by default in the
        serving layer so a refresh after ``POST /v1/datasets/<id>/append``
        scans only the new chunks).
        """
        known = tuple(sorted(registry.DATASETS))
        self.datasets_allowed = tuple(datasets) if datasets else known
        for name in self.datasets_allowed:
            registry.spec(name)  # fail fast on typos
        for path in data_dirs:
            entry = registry.register_on_disk(path)
            if entry.name not in self.datasets_allowed:
                self.datasets_allowed = (*self.datasets_allowed, entry.name)
        #: Containment roots for ``POST /v1/datasets`` path validation:
        #: the parents of the configured data dirs.  Empty means "no roots
        #: configured" — absolute paths are then accepted as-is (the
        #: in-process/test configuration), but relative paths never are.
        self._data_roots = tuple(
            Path(path).resolve().parent for path in data_dirs
        )
        self.scale = scale
        self.result_cache_enabled = result_cache
        if not result_cache:
            self.cache: ViewResultCache | None = None
        elif l2_cache_dir is not None:
            self.cache = TieredViewResultCache(l2_dir=l2_cache_dir)
        else:
            self.cache = ViewResultCache()
        self.delta_cache_enabled = delta_cache
        self.sessions = SessionStore()
        #: ``(dataset, store)`` -> engine: at most two per dataset.
        self._engines: dict[tuple[str, str], SeeDB] = {}
        #: One lock per dataset serializing appends (and the registry /
        #: engine refresh that follows); guarded by ``_engine_lock``.
        self._append_locks: dict[str, threading.Lock] = {}
        #: Guards reads/writes of the ``_engines`` dict itself (held only
        #: for dict operations, never across a dataset build).
        self._engine_lock = threading.Lock()
        #: One lock per dataset so a cold multi-second dataset build never
        #: stalls traffic to engines that are already serving, and a dataset's
        #: second store waits for the first's table instead of building one.
        self._build_locks: dict[str, threading.Lock] = {}
        self._requests = 0
        self._errors = 0
        self._counter_lock = threading.Lock()
        self._started_unix = time.time()
        #: Per-route latency histograms, recorded by the HTTP handler and
        #: served (merged across front-end workers) under ``/v1/stats``.
        self.route_latency = RouteLatencyRegistry()

    # -------------------------------------------------------------- #
    # engine pool
    # -------------------------------------------------------------- #

    def engine(self, dataset: str, store: str) -> SeeDB:
        """The (lazily built) engine for one dataset and store.

        Engines are shared by every session on that pair, whatever its
        metric — the whole point of a serving layer — and wired to the
        shared cache, so session B's queries hit results session A already
        paid for.  Both stores of a dataset run over one table, built once.
        """
        if dataset not in self.datasets_allowed:
            raise ServiceError(
                f"unknown dataset {dataset!r}; available: {list(self.datasets_allowed)}",
                status=404,
                code=ErrorCode.UNKNOWN_DATASET,
            )
        if store not in _STORES:
            raise ServiceError(f"store must be one of {_STORES}, got {store!r}")
        key = (dataset, store)
        with self._engine_lock:
            engine = self._engines.get(key)
            if engine is not None:
                return engine
            build_lock = self._build_locks.setdefault(dataset, threading.Lock())
        # Build outside the global lock: only requests on this dataset wait.
        with build_lock:
            with self._engine_lock:
                engine = self._engines.get(key)
                tables = [e.table for (name, _), e in self._engines.items() if name == dataset]
            if engine is None:
                table = tables[0] if tables else registry.build_info(
                    dataset, seed=_DATASET_SEED, scale=self.scale
                )[0]
                config = serving_config(  # type: ignore[arg-type]
                    store, self.result_cache_enabled, self.delta_cache_enabled
                )
                engine = SeeDB.over_table(
                    table, store=store, config=config, result_cache=self.cache
                )
                with self._engine_lock:
                    self._engines[key] = engine
        return engine

    # -------------------------------------------------------------- #
    # API methods (one per endpoint)
    # -------------------------------------------------------------- #

    def create_session(self, payload: Mapping[str, object]) -> dict[str, object]:
        """Open a session over one dataset (``POST /sessions``)."""
        dataset = str(payload.get("dataset", "census"))
        store = str(payload.get("store", _DEFAULT_STORE))
        # Canonical, and an unknown name is refused before engine() records a lock.
        metric = get_metric(str(payload.get("metric", _DEFAULT_METRIC))).name
        engine = self.engine(dataset, store)  # validates + warms build
        session = self.sessions.create(
            dataset, store, metric, n_rows=engine.table.nrows
        )
        return {
            "session_id": session.session_id,
            "dataset": dataset,
            "store": store,
            "metric": metric,
            "n_rows": engine.table.nrows,
            "dimensions": list(engine.table.dimension_names()),
            "measures": list(engine.table.measure_names()),
        }

    def recommend(
        self, session_id: str, payload: Mapping[str, object]
    ) -> dict[str, object]:
        """Run one recommendation step (``POST /sessions/<id>/recommend``)."""
        session = self.sessions.get(session_id)
        engine = self.engine(session.dataset, session.store)
        spec = registry.spec(session.dataset)
        raw_target = payload.get("target")
        if raw_target is None:
            if spec.split_column is None or spec.target_value is None:
                raise ServiceError(
                    f"dataset {session.dataset!r} has no default target "
                    "attribute; supply 'target' explicitly"
                )
            raw_target = [{"column": spec.split_column, "value": spec.target_value}]
        clauses = clauses_from_payload(raw_target)
        for column, _ in clauses:
            if column not in engine.table.column_names:
                raise ServiceError(
                    f"dataset {session.dataset!r} has no column {column!r}"
                )
        k = payload.get("k", 5)
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= _MAX_K:
            raise ServiceError(f"k must be an integer in [1, {_MAX_K}], got {k!r}")
        strategy = str(payload.get("strategy", "sharing"))
        if strategy not in _STRATEGIES:
            raise ServiceError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        parallelism = str(payload.get("parallelism", "modeled"))
        if parallelism not in _PARALLELISM:
            raise ServiceError(
                f"parallelism must be one of {_PARALLELISM}, got {parallelism!r}"
            )
        pruner = str(payload.get("pruner", "ci" if strategy.startswith("comb") else "none"))
        dimensions = payload.get("dimensions")
        measures = payload.get("measures")
        for name, restriction in (("dimensions", dimensions), ("measures", measures)):
            if restriction is not None and not (
                isinstance(restriction, list)
                and all(isinstance(column, str) for column in restriction)
            ):
                raise ServiceError(
                    f"{name} must be a list of column names, got {restriction!r}"
                )
        run = engine.run_engine(
            _predicate(clauses),
            k=k,
            strategy=strategy,  # type: ignore[arg-type]
            pruner=pruner,
            dimensions=dimensions,  # type: ignore[arg-type]
            measures=measures,  # type: ignore[arg-type]
            parallelism=parallelism,  # type: ignore[arg-type]
            metric=session.metric,
        )
        views = [
            {
                "rank": rank,
                "dimension": key[0],
                "measure": key[1],
                "func": key[2],
                "utility": float(run.utilities[key]),
                "top_group": _top_group(run, key),
            }
            for rank, key in enumerate(run.selected, start=1)
        ]
        step = session.record(
            SessionStep(
                index=-1,  # stamped by Session.record under its lock
                target=clauses,
                k=k,
                strategy=strategy,
                selected=tuple(run.selected),
                cache_hits=run.cache_hits,
                cache_misses=run.cache_misses,
                wall_seconds=run.wall_seconds,
            )
        )
        response_stats: dict[str, object] = {
            "queries_issued": run.stats.queries_issued,
            "result_cache": run.result_cache,
            "cache_hits": run.cache_hits,
            "cache_misses": run.cache_misses,
            "cache_hit_rate": run.cache_hit_rate,
            "cache_bytes_saved": run.cache_bytes_saved,
            "delta_hits": run.stats.delta_hits,
            "rows_scanned": run.stats.rows_scanned,
            "reference_views_reused": run.stats.reference_views_reused,
            "target_views_reused": run.stats.target_views_reused,
            "wall_seconds": run.wall_seconds,
            "modeled_latency_seconds": run.modeled_latency,
        }
        return {
            "session_id": session.session_id,
            "step": step.index,
            "dataset": session.dataset,
            "k": k,
            "strategy": strategy,
            "target": [{"column": c, "value": _json_scalar(v)} for c, v in clauses],
            "views": views,
            # Changed-since-last-visit marker: did the dataset grow since
            # this session's previous step (appends land between visits)?
            "data": session.data_diff(engine.table.nrows),
            "stats": response_stats,
        }

    def describe_session(self, session_id: str) -> dict[str, object]:
        """Return one session's recorded steps (``GET /sessions/<id>``)."""
        return self.sessions.get(session_id).as_dict()

    def register_dataset(self, payload: Mapping[str, object]) -> dict[str, object]:
        """Register an on-disk chunked dataset (``POST /datasets``).

        ``{"path": "<chunk-store dir>"}`` with an optional ``"name"``
        override.  The directory must carry a valid ``manifest.json``
        (written by :func:`repro.data.ingest.ingest_csv` or
        :func:`repro.db.chunks.write_table`); the dataset becomes
        immediately available to new sessions.
        """
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError("'path' must name a chunk-store directory")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise ServiceError("'name' must be a string when given")
        resolved = self._validated_dataset_path(path)
        try:
            entry = registry.register_on_disk(resolved, name=name)
        except StorageError as exc:
            # Missing/unreadable/unsupported manifest: a client-supplied-path
            # problem, not a server fault (used to surface as an opaque 500).
            raise ServiceError(
                f"path {path!r} is not a readable chunk store: {exc}",
                code=ErrorCode.INVALID_PATH,
            ) from None
        except ReproError as exc:
            raise ServiceError(str(exc)) from None
        except OSError as exc:
            raise ServiceError(
                f"path {path!r} is not a readable chunk store: {exc}",
                code=ErrorCode.INVALID_PATH,
            ) from None
        # Guarded read-modify-write: concurrent POST /datasets requests run
        # on separate ThreadingHTTPServer worker threads.
        with self._engine_lock:
            if entry.name not in self.datasets_allowed:
                self.datasets_allowed = (*self.datasets_allowed, entry.name)
        return {
            "name": entry.name,
            "path": entry.path,
            "n_rows": entry.n_rows,
            "chunk_rows": entry.chunk_rows,
            "on_disk": True,
            "split_column": entry.split_column,
            "digest": entry.digest,
        }

    def _validated_dataset_path(self, raw: str) -> str:
        """Validate a client-supplied dataset path; return it resolved.

        Policy (all violations answer 400 with code ``invalid_path``):

        * ``..`` segments are always rejected — a traversal attempt, never
          a legitimate way to name a dataset directory;
        * relative paths are rejected: they would resolve against the
          server process's working directory, which is not client-visible
          state;
        * when the service was configured with ``data_dirs``, the resolved
          path must live under one of their parent directories, so a
          client cannot point the server at arbitrary filesystem paths.
        """
        path = Path(raw)
        if any(part == ".." for part in path.parts):
            raise ServiceError(
                f"path {raw!r} contains a traversal ('..') segment",
                code=ErrorCode.INVALID_PATH,
            )
        if not path.is_absolute():
            raise ServiceError(
                f"path {raw!r} is relative; dataset paths must be absolute",
                code=ErrorCode.INVALID_PATH,
            )
        resolved = path.resolve()
        if self._data_roots and not any(
            resolved.is_relative_to(root) for root in self._data_roots
        ):
            raise ServiceError(
                f"path {raw!r} is outside the configured data roots",
                code=ErrorCode.INVALID_PATH,
            )
        return str(resolved)

    # -------------------------------------------------------------- #
    # append path (delta-aware maintenance)
    # -------------------------------------------------------------- #

    def append_dataset(
        self, dataset: str, payload: Mapping[str, object]
    ) -> dict[str, object]:
        """Append rows to an on-disk dataset (``POST /datasets/<id>/append``).

        The body carries either columnar JSON rows (``{"rows": {"col":
        [...], ...}}`` or a list of row objects) or a headered CSV batch
        (``{"csv": "col1,col2\\n..."}``).  The rows land in the dataset's
        chunk store (:func:`repro.db.chunks.append_rows` — column files grow
        in place, known categories encode by lookup, a dictionary column
        that gains a category or a wider dtype is rewritten and counted in
        ``columns_rewritten``, the manifest swap is atomic), the registry
        entry picks up the new digest, and the dataset's table re-syncs its
        memory map once for every loaded engine over it, keeping each
        dictionary the batch left unchanged.  The manifest is parsed once per
        append, under the dataset's append lock: the writer takes that one
        and returns the new one, which the registry and the table refresh
        from.  The view-result entries keyed under the old fingerprint,
        which no new request keys again, leave the in-process cache
        (:meth:`_refresh_engines`); the delta-state cache is kept, and
        carry-merges the cached per-group partials with a scan of only the
        appended chunks on the next recommend.
        """
        if dataset not in self.datasets_allowed:
            raise ServiceError(
                f"unknown dataset {dataset!r}; available: {list(self.datasets_allowed)}",
                status=404,
                code=ErrorCode.UNKNOWN_DATASET,
            )
        spec = registry.spec(dataset)
        if not getattr(spec, "on_disk", False):
            raise ServiceError(
                f"dataset {dataset!r} is not an on-disk chunk store; appends "
                "require one (register a directory via POST /v1/datasets)"
            )
        with self._engine_lock:
            lock = self._append_locks.setdefault(dataset, threading.Lock())
        with lock:
            try:
                before = read_manifest(spec.path)
                data = self._append_columns(payload, before)
                after = chunk_append_rows(spec.path, data, manifest=before)
            except StorageError as exc:
                raise ServiceError(f"append rejected: {exc}") from None
            entry = registry.refresh_on_disk(dataset, manifest=after)
            refreshed = self._refresh_engines(dataset, after)
        n_new = after.n_rows - before.n_rows
        return {
            "dataset": entry.name,
            "n_rows": entry.n_rows,
            "appended": n_new,
            "digest": entry.digest,
            "engines_refreshed": refreshed,
            "on_disk": True,
            # A dictionary that grew or widened its dtype was rewritten:
            # that column's code file was remapped and replaced, O(column)
            # instead of O(delta).
            "columns_rewritten": sum(
                (new.n_categories, new.dtype) != (old.n_categories, old.dtype)
                for old, new in zip(before.columns, after.columns)
            ),
        }

    def refresh_dataset(self, dataset: str) -> dict[str, object]:
        """Re-sync a dataset from disk (``POST /datasets/<id>/refresh``).

        Used by the sharded front-end after routing an append to the
        dataset's ring-owner worker: the other workers share the chunk
        store directory, so a cheap manifest re-read (digest compare) plus
        a memmap re-open picks the new rows up without re-sending them.
        The manifest is parsed once, under the dataset's append lock, and
        the registry and the table refresh from that one, so they agree
        even when an append lands meanwhile.  No-op (and harmless) when
        nothing changed or for in-memory datasets.
        """
        if dataset not in self.datasets_allowed:
            raise ServiceError(
                f"unknown dataset {dataset!r}; available: {list(self.datasets_allowed)}",
                status=404,
                code=ErrorCode.UNKNOWN_DATASET,
            )
        spec = registry.spec(dataset)
        n_rows: int | None = None
        with self._engine_lock:
            lock = self._append_locks.setdefault(dataset, threading.Lock())
        with lock:
            manifest = None
            if getattr(spec, "on_disk", False):
                manifest = read_manifest(spec.path)
                n_rows = registry.refresh_on_disk(dataset, manifest=manifest).n_rows
            refreshed = self._refresh_engines(dataset, manifest)
        if n_rows is None:
            with self._engine_lock:
                engines = [
                    e for key, e in self._engines.items() if key[0] == dataset
                ]
            n_rows = engines[0].table.nrows if engines else None
        return {
            "dataset": dataset,
            "n_rows": n_rows,
            "engines_refreshed": refreshed,
        }

    def _refresh_engines(self, dataset: str, manifest: ChunkManifest | None = None) -> int:
        """Re-sync ``dataset``'s table from its chunk store, then every loaded
        engine over it.

        ``manifest`` is the store's current one when the caller parsed it
        (the table then refreshes from that one, reading no file but a grown
        dictionary's).  The engines share the table, which mutates in place,
        so it refreshes once and each engine rebuilds only its page layout
        and catalog meta; returns how many engines did.  View spaces, plan
        skeletons and state layouts stay unless the append changed the
        planning catalog (a dimension gained a category).

        A refreshed table has a new fingerprint, so no new request keys the
        result cache's entries under the old one again: they are dropped from
        the in-process L1.  A shared file-backed L2 keeps them under its own
        byte budget (a sibling worker may not have refreshed yet).
        """
        with self._engine_lock:
            engines = [e for key, e in self._engines.items() if key[0] == dataset]
        if not engines or engines[0].table.source_path is None:
            return 0
        table = engines[0].table
        superseded = table.fingerprint()
        if not table.refresh_from_disk(manifest=manifest):
            return 0
        meta = TableMeta.of(table)
        for seedb in engines:
            seedb.store.sync_layout()
            seedb.engine.meta = meta
        if self.cache is not None:
            ViewResultCache.invalidate_table(self.cache, superseded)
        return len(engines)

    def _append_columns(
        self, payload: Mapping[str, object], manifest: ChunkManifest
    ) -> dict[str, list[object]]:
        """Normalize an append body into column-name → value-list form.

        Accepts columnar ``rows``, a list of row objects, or a headered
        ``csv`` batch (cells converted with the same strict decimal
        parsing the ingester uses, against ``manifest``'s column types).
        """
        rows = payload.get("rows")
        text = payload.get("csv")
        if (rows is None) == (text is None):
            raise ServiceError(
                "append body needs exactly one of 'rows' (columnar or row "
                "objects) or 'csv' (a headered CSV batch)"
            )
        if rows is not None:
            if isinstance(rows, Mapping) and all(
                isinstance(values, list) for values in rows.values()
            ):
                columns = {str(name): list(values) for name, values in rows.items()}
            elif isinstance(rows, list) and all(
                isinstance(row, Mapping) for row in rows
            ):
                if not rows:
                    raise ServiceError("'rows' must not be empty")
                names = sorted(rows[0])
                if any(sorted(row) != names for row in rows):
                    raise ServiceError(
                        "every row object must have the same columns"
                    )
                columns = {
                    name: [row[name] for row in rows] for name in names
                }
            else:
                raise ServiceError(
                    "'rows' must be an object of column lists or a list of "
                    "row objects"
                )
            lengths = {len(values) for values in columns.values()}
            if len(lengths) > 1:
                raise ServiceError(
                    f"column lists differ in length: "
                    f"{sorted((k, len(v)) for k, v in columns.items())}"
                )
            if not columns or lengths == {0}:
                raise ServiceError("append of zero rows")
            return columns
        if not isinstance(text, str) or not text.strip():
            raise ServiceError("'csv' must be a non-empty CSV string")
        return self._csv_columns(text, manifest)

    def _csv_columns(self, text: str, manifest: ChunkManifest) -> dict[str, list[object]]:
        """Parse a headered CSV batch against the store's column types."""
        reader = csv_module.reader(io.StringIO(text))
        header = next(reader, None)
        if not header:
            raise ServiceError("csv batch has no header row")
        header = [cell.strip() for cell in header]
        raw: dict[str, list[str]] = {name: [] for name in header}
        for line, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ServiceError(
                    f"csv line {line}: expected {len(header)} cells, got {len(row)}"
                )
            for name, cell in zip(header, row):
                raw[name].append(cell.strip())
        if not raw or not next(iter(raw.values())):
            raise ServiceError("csv batch has no data rows")
        kinds = {
            col.name: (
                "U" if col.encoding == "dict32" else np.dtype(col.dtype).kind
            )
            for col in manifest.columns
        }
        columns: dict[str, list[object]] = {}
        for name, cells in raw.items():
            kind = kinds.get(name)
            try:
                if kind == "i":
                    columns[name] = [strict_int(cell) for cell in cells]
                elif kind == "f":
                    columns[name] = [
                        strict_float(cell) if cell != "" else float("nan")
                        for cell in cells
                    ]
                else:
                    # Strings — and unknown columns, which append_rows
                    # rejects by name with a clearer message than a
                    # conversion failure here would give.
                    columns[name] = list(cells)
            except ValueError as exc:
                raise ServiceError(f"csv column {name!r}: {exc}") from None
        return columns

    def describe_datasets(self) -> dict[str, object]:
        """Describe the dataset registry (``GET /datasets``)."""
        with self._engine_lock:
            engines = dict(self._engines)
        loaded = {key[0] for key in engines}
        rows = []
        for name in self.datasets_allowed:
            spec = registry.spec(name)
            entry: dict[str, object] = {
                "name": name,
                "description": spec.description,
                "paper_rows": spec.paper_rows,
                "loaded": name in loaded,
                "on_disk": bool(getattr(spec, "on_disk", False)),
            }
            if getattr(spec, "on_disk", False):
                entry["n_rows"] = spec.n_rows
                entry["chunk_rows"] = spec.chunk_rows
                entry["path"] = spec.path
            if name in loaded:
                engine = next(e for key, e in engines.items() if key[0] == name)
                entry["n_rows"] = engine.table.nrows
                entry["dimensions"] = list(engine.table.dimension_names())
                entry["measures"] = list(engine.table.measure_names())
            rows.append(entry)
        return {"datasets": rows}

    def healthz(self) -> dict[str, object]:
        """Liveness payload (``GET /healthz``): no registry, no engines."""
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_unix,
        }

    def stats(self) -> dict[str, object]:
        """Return service counters plus the cache snapshot (``GET /stats``)."""
        with self._counter_lock:
            requests, errors = self._requests, self._errors
        with self._engine_lock:
            engines = dict(self._engines)
        payload: dict[str, object] = {
            "uptime_seconds": time.time() - self._started_unix,
            "sessions": len(self.sessions),
            "requests": requests,
            "errors": errors,
            "engines_loaded": [list(key) for key in engines],
            "result_cache_enabled": self.result_cache_enabled,
            "cache": self.cache.snapshot().as_dict() if self.cache else None,
        }
        if isinstance(self.cache, TieredViewResultCache):
            payload["cache_tiers"] = self.cache.tier_counters()
        if self.route_latency.count:
            payload["routes"] = self.route_latency.as_dict()
        delta_totals: dict[str, int] = {}
        for seedb in engines.values():
            delta = getattr(seedb.engine, "delta_cache", None)
            if delta is None:
                continue
            for key, value in delta.counters().items():
                delta_totals[key] = delta_totals.get(key, 0) + int(value)
        if delta_totals:
            payload["delta_cache"] = delta_totals
        # Physical work actually executed across every engine: the sum of
        # the responses' ``queries_issued`` / ``rows_scanned`` (cache hits
        # excluded by design).
        executed: dict[str, int] = {}
        for seedb in engines.values():
            for key, value in seedb.engine.executed_totals.items():
                executed[key] = executed.get(key, 0) + int(value)
        if executed:
            payload["executed"] = executed
        payload["reference_state"] = {
            "|".join(key): seedb.engine.reference_state() for key, seedb in engines.items()
        }
        return payload

    # -------------------------------------------------------------- #
    # bookkeeping used by the HTTP layer
    # -------------------------------------------------------------- #

    def count_request(self, ok: bool) -> None:
        """Tally one handled request (``ok=False`` for 4xx/5xx answers)."""
        with self._counter_lock:
            self._requests += 1
            if not ok:
                self._errors += 1

    def close(self) -> None:
        """Release every engine's backend resources.  Idempotent."""
        with self._engine_lock:
            for engine in self._engines.values():
                engine.close()
            self._engines.clear()


class RouteHandler(BaseHTTPRequestHandler):
    """One request in, one JSON answer out, routed by the route table.

    The request handler both HTTP tiers share: the worker's
    :class:`SeeDBHTTPServer` and the front end's
    :class:`~repro.service.frontend.FrontendServer`.  It owns what they
    have in common — keep-alive framing, the draining 503, the request
    body, matching :data:`~repro.service.api.ROUTES` (404
    ``unknown_route`` when no row lists the method + path), the error
    envelope and request counting — and leaves :meth:`_serve`, the answer
    to a matched row, to the tier.
    """

    server: "GracefulHTTPServer"
    #: Keep-alive so session replays reuse one TCP connection.
    protocol_version = "HTTP/1.1"
    #: The headers and the JSON body go out as separate writes; with Nagle
    #: on, the body would sit behind the client's delayed ACK (~40ms per
    #: request on loopback), dwarfing a cache-served recommendation.
    disable_nagle_algorithm = True

    def __getattr__(self, name: str) -> Callable[[], None]:
        """Answer every ``do_<METHOD>`` lookup with :meth:`_dispatch`.

        The stdlib answers a method without a ``do_`` handler with its own
        501 HTML page; here every method gets the route table's answer.
        """
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging unless the server is verbose."""
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        payload: Mapping[str, object],
        retry_after: float | None = None,
    ) -> None:
        """Count and write one JSON answer (status and headers only for HEAD)."""
        body = json.dumps(payload).encode()
        self.server.count_request(ok=status < 400)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _dispatch(self) -> None:
        """Answer one request of any method (every ``do_*`` lands here)."""
        if not self.server.request_started():
            # Draining for shutdown: answer kept-alive stragglers cleanly
            # and drop the connection rather than leaving them hanging.
            self.close_connection = True
            self._send(
                503, error_envelope(ErrorCode.SHUTTING_DOWN, "server is shutting down")
            )
            return
        try:
            self._handle(*match_route(self.command, self.path))
        finally:
            self.server.request_finished()

    def _handle(self, route: Route | None, ident: str | None) -> None:
        """Read the body, answer the row (404 without one), map errors."""
        try:
            self._read_body()
            if route is None:
                raise ServiceError(
                    f"no route for {self.command} {self.path}",
                    status=404,
                    code=ErrorCode.UNKNOWN_ROUTE,
                )
            self._send(*self._serve(route, ident))
        except ServiceError as exc:
            self._send(exc.status, error_envelope(exc.code, str(exc)), exc.retry_after)
        except ReproError as exc:
            self._send(400, error_envelope(ErrorCode.INVALID_REQUEST, str(exc)))
        except Exception as exc:  # noqa: BLE001 - a serving loop must not die
            self._send(
                500, error_envelope(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")
            )

    def _read_body(self) -> None:
        """Drain the request body into ``self._body``.

        Before any answer is written: on a keep-alive connection, unread
        body bytes (e.g. a POST to an unmatched route) would be parsed as
        the *next* request line.  A malformed or negative Content-Length is
        a client error (read(-1) would block forever), not a crash.
        """
        self._body = b""
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError("negative")
        except ValueError:
            # Can't know where this request's body ends, so the
            # connection cannot be reused either.
            self.close_connection = True
            raise ServiceError(
                "invalid Content-Length header", code=ErrorCode.INVALID_LENGTH
            ) from None
        if length:
            self._body = self.rfile.read(length)

    def _json_body(self) -> dict[str, object]:
        """Parse the drained request body as a JSON object ({} when empty)."""
        if not self._body:
            return {}
        try:
            payload = json.loads(self._body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}", code=ErrorCode.BAD_JSON
            ) from None
        if not isinstance(payload, dict):
            raise ServiceError(
                "request body must be a JSON object", code=ErrorCode.BAD_JSON
            )
        return payload

    def _serve(self, route: Route, ident: str | None) -> tuple[Any, ...]:
        """The answer to a matched row: ``(status, payload[, retry_after])``."""
        raise NotImplementedError


class _ServiceHandler(RouteHandler):
    """The worker tier: a row calls the service method it names."""

    server: "SeeDBHTTPServer"

    def _handle(self, route: Route | None, ident: str | None) -> None:
        """Pass the fault points, then time the request under its row's label."""
        # Fault points (no-ops unless SEEDB_FAULTS is configured; see
        # repro.testing.faults): die mid-request, hang up without a
        # response, or stall — the three ways a real worker fails that
        # the supervisor/failover/retry layers must absorb.
        faults.maybe_exit("kill_worker", self.path)
        if faults.maybe_drop(self.path):
            self.close_connection = True
            return
        faults.maybe_delay(self.path)
        started = time.perf_counter()
        try:
            super()._handle(route, ident)
        finally:
            # One label per row plus one for everything unmatched.
            self.server.service.route_latency.record(
                route.label if route else "other", time.perf_counter() - started
            )

    def _serve(self, route: Route, ident: str | None) -> tuple[Any, ...]:
        """Call ``route.name`` with the ``{id}`` and the JSON body it takes."""
        args: list[object] = [] if ident is None else [ident]
        if route.request is not None:
            args.append(self._json_body())
        return route.status, getattr(self.server.service, route.name)(*args)


class GracefulHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can drain in-flight requests.

    Handlers call :meth:`request_started`/:meth:`request_finished` around
    each request; once :meth:`graceful_shutdown` begins, new requests are
    answered 503 (the handler sees ``request_started() is False``) and the
    shutdown waits (bounded) for the in-flight count to reach zero before
    closing the socket and calling the subclass :meth:`_on_close` hook.
    Shared by the single-process :class:`SeeDBHTTPServer` and the sharded
    :class:`repro.service.frontend.FrontendServer`.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        handler_class: type[BaseHTTPRequestHandler],
        verbose: bool = False,
    ) -> None:
        """Bind to ``address`` with ``handler_class``."""
        super().__init__(address, handler_class)
        self.verbose = verbose
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._draining = False
        self._closed = False

    # -------------------------------------------------------------- #
    # in-flight accounting (called by the handler around each request)
    # -------------------------------------------------------------- #

    def request_started(self) -> bool:
        """Register one request; False once draining (handler answers 503)."""
        with self._inflight_cond:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def request_finished(self) -> None:
        """Unregister one request and wake any waiting drain."""
        with self._inflight_cond:
            self._inflight -= 1
            self._inflight_cond.notify_all()

    @property
    def draining(self) -> bool:
        """Whether :meth:`graceful_shutdown` has begun."""
        with self._inflight_cond:
            return self._draining

    def _on_close(self) -> None:
        """Release owned resources; runs once, after the socket closes."""

    def count_request(self, ok: bool) -> None:
        """Tally one answered request (``ok=False`` for 4xx/5xx answers)."""

    def graceful_shutdown(self, timeout: float | None = 10.0) -> bool:
        """Stop accepting, drain in-flight requests, close.  Idempotent.

        Returns True when every in-flight request finished within
        ``timeout`` seconds (None = wait forever); on timeout the server
        still closes — remaining handler threads are daemons and die with
        the process.  Safe to call from a signal-handler-spawned thread
        while ``serve_forever`` runs on another (see
        :func:`install_sigterm_handler`).
        """
        with self._inflight_cond:
            already = self._draining
            self._draining = True
        if not already:
            self.shutdown()  # stops serve_forever; returns once the loop exits
        with self._inflight_cond:
            drained = self._inflight_cond.wait_for(
                lambda: self._inflight == 0, timeout
            )
        with self._inflight_cond:
            if not self._closed:
                self._closed = True
                should_close = True
            else:
                should_close = False
        if should_close:
            self.server_close()
            self._on_close()
        return drained


class SeeDBHTTPServer(GracefulHTTPServer):
    """A graceful HTTP server owning one :class:`RecommendationService`."""

    def __init__(
        self,
        address: tuple[str, int],
        service: RecommendationService,
        verbose: bool = False,
    ) -> None:
        """Bind to ``address`` and attach ``service``."""
        super().__init__(address, _ServiceHandler, verbose)
        self.service = service

    def count_request(self, ok: bool) -> None:
        """Tally one answered request on the service's counters."""
        self.service.count_request(ok)

    def _on_close(self) -> None:
        """Release the service's engines once the socket is closed."""
        self.service.close()


def install_sigterm_handler(
    server: GracefulHTTPServer, timeout: float | None = 10.0
) -> threading.Event:
    """Install a SIGTERM handler that gracefully drains ``server``.

    The handler runs :meth:`SeeDBHTTPServer.graceful_shutdown` on a helper
    thread (calling ``shutdown`` from inside the handler would deadlock the
    ``serve_forever`` loop it interrupts) and sets the returned event when
    the drain completes — the CLI waits on it before exiting.  Must be
    called from the main thread (a CPython signal-API constraint).
    """
    import signal

    done = threading.Event()

    def _drain() -> None:
        server.graceful_shutdown(timeout)
        done.set()

    def _on_sigterm(signum: int, frame: object) -> None:
        threading.Thread(target=_drain, name="seedb-drain", daemon=True).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    return done


def start_server(
    service: RecommendationService | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> tuple[SeeDBHTTPServer, threading.Thread]:
    """Start a server on a daemon thread; returns ``(server, thread)``.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address[1]``.  Call ``server.shutdown()`` (and
    ``server.server_close()``) to stop.
    """
    server = SeeDBHTTPServer((host, port), service or RecommendationService(), verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="seedb-service", daemon=True
    )
    thread.start()
    return server, thread


def main(argv: Sequence[str] | None = None) -> None:
    """Command-line entry point: serve until interrupted."""
    parser = argparse.ArgumentParser(description="SeeDB recommendation service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated allowlist (default: every registry dataset)",
    )
    parser.add_argument(
        "--scale", default=None, help="dataset build scale (smoke|small|full)"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cross-session view-result cache",
    )
    parser.add_argument(
        "--data-dir",
        action="append",
        default=[],
        metavar="DIR",
        help="on-disk chunked dataset directory to serve (repeatable)",
    )
    parser.add_argument(
        "--l2-cache-dir",
        default=None,
        metavar="DIR",
        help="file-backed L2 cache directory shared with other processes",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to wait for in-flight requests on SIGTERM",
    )
    args = parser.parse_args(argv)
    datasets = (
        tuple(name.strip() for name in args.datasets.split(",") if name.strip())
        if args.datasets
        else None
    )
    service = RecommendationService(
        datasets=datasets,
        scale=args.scale,
        result_cache=not args.no_cache,
        data_dirs=tuple(args.data_dir),
        l2_cache_dir=args.l2_cache_dir,
    )
    server = SeeDBHTTPServer((args.host, args.port), service, verbose=True)
    drained = install_sigterm_handler(server, timeout=args.drain_timeout)
    host, port = server.server_address[:2]
    print(f"SeeDB recommendation service listening on http://{host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        # serve_forever returns either from SIGTERM (wait for its drain to
        # finish) or KeyboardInterrupt (drain inline); both paths converge
        # on graceful_shutdown, which is idempotent.
        if server.draining:
            drained.wait(args.drain_timeout + 5.0)
        server.graceful_shutdown(timeout=args.drain_timeout)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    main()
