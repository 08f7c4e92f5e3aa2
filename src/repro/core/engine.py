"""The SeeDB execution engine: NO_OPT / SHARING / COMB / COMB_EARLY.

This is the phase-based framework of paper §3 combining both optimization
families:

* **NO_OPT** — two serial SQL queries per view over the full data; the
  paper's basic framework (Figures 5, 6).
* **SHARING** — one full pass with all sharing optimizations (§4.1), no
  pruning (Figures 5, 7–9).
* **COMB** — sharing + phased execution + a pruning strategy (§4.2); the
  view set shrinks across phases (Figures 5, 11–13).
* **COMB_EARLY** — COMB that stops as soon as the top-k is identified and
  returns approximate results from the partials accumulated so far
  (Figure 5's COMB_EARLY bars).

All four are parameter values of ONE phase loop, :meth:`ExecutionEngine.run`,
over one request's P phase ranges: the strategy picks the config and the
ranges, and per phase the request plans, dispatches one batch, routes,
prunes and — after the last phase — finalizes on its own state.  Concurrent
requests on one engine are separate runs: they share table state (held
cells, plan skeletons, the result cache), never a batch.

With the §4.1 target/reference rewrite off
(:func:`~repro.core.recommender.serving_config`) there are no phases — COMB
and COMB_EARLY are one exact pass, SHARING's bits, whatever pruner they name —
and group-bys are held table state: for reference "all" and any strategy but
NO_OPT, the pass reads the reference rows of its views from an engine-held
``GROUP BY d``, kept finalized and normalized once per table identity, and —
for a target ``X = x [AND Y = y …]`` whose clauses each select one category of
a distinct column — folds their target rows from a held ``GROUP BY X[, Y …],
d`` sliced at ``(x[, y …])``; it plans filter-first target queries only for
what is left, and fills what is missing with one query per cell in the same
batch (identity, bounds and locking: ``docs/architecture.md``, "Held
group-bys").

Every run returns an :class:`EngineRun` carrying the ranked views, their
distributions, full execution accounting, and the cost model's latency.
"""

from __future__ import annotations

import threading
import time
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Literal, Sequence

import numpy as np

from repro.config import EngineConfig, ExecutionStats
from repro.core.cache import (
    DeltaStateCache,
    LruMemo,
    ViewResultCache,
    delta_state_key,
    execution_fingerprint,
    query_fingerprint,
)
from repro.core.difference import ViewDistributions
from repro.core.parallel import make_dispatcher
from repro.core.phases import phase_ranges
from repro.core.pruning import Pruner, make_pruner
from repro.core.sharing import (
    PlannedQuery,
    ReferenceMode,
    SharingPlan,
    plan_fill,
    plan_queries,
)
from repro.core.state import (
    HeldLayout, HeldTable, SidePartial, StateLayout, ViewState, hold_reference_rows
)
from repro.core.view import AggregateView, ViewKey
from repro.db.backends import Backend, NativeBackend, make_backend
from repro.db.catalog import TableMeta
from repro.db.cost import CostModel
from repro.db.expressions import And, Expression
from repro.db.groupby import _DENSE_GROUP_LIMIT
from repro.db.query import AggregateQuery, QueryResult
from repro.db.sql import generate_sql
from repro.db.storage import StorageEngine
from repro.db.types import ColumnType
from repro.exceptions import QueryError, RecommendationError
from repro.metrics.base import DistanceFunction, get_metric

Strategy = Literal["no_opt", "sharing", "comb", "comb_early"]
#: "modeled" runs queries serially and models parallel speedup in the cost
#: model only (the historical behaviour); "real" dispatches each batch onto
#: a thread pool of ``n_parallel_queries`` workers for true concurrency.
Parallelism = Literal["modeled", "real"]

#: The strategies that execute in phases and prune between them (rewrite on).
_PHASED = ("comb", "comb_early")
#: How many queries a run records for :attr:`EngineRun.sql` (introspection only).
_MAX_RECORDED_SQL = 64
#: Plan skeletons and state layouts an engine keeps (least recently used out): the
#: full view set of each restriction in use stays, a pruned active set nobody
#: repeats ages out.
_MAX_PLAN_SKELETONS = 32
#: Bytes the held (target columns, dimension) cells may take; past it whole
#: target column sets go, least recently used first.  Sets a
#: workload rotates through past it refill on every visit, slower than target
#: queries: AIR's six scoreboard targets hold 6.3 MB.
_MAX_TARGET_BYTES = 64 << 20
#: COMB_EARLY also returns once its estimate-ranked top-k has stood unchanged
#: for this many consecutive phase boundaries.
_EARLY_STABLE_PHASES = 2


def _nbytes(columns: dict[str, np.ndarray]) -> int:
    """Bytes of one held cell's columns (an atomic copy: readers take no lock)."""
    return sum(column.nbytes for column in list(columns.values()))


class _DeltaKeys(abc.Sequence):
    """The delta-state keys of one batch's ``(head, query)`` pairs, each
    rendered when it is read.

    The dispatcher reads only the keys of the queries that miss the result
    cache, so a warm request renders none.  Equal to the list of its keys.
    """

    __slots__ = ("_store", "_batch", "_memo")

    def __init__(
        self, store: StorageEngine, batch: Sequence[tuple[str, AggregateQuery]], memo: dict
    ) -> None:
        self._store, self._batch, self._memo = store, batch, memo

    def __len__(self) -> int:
        return len(self._batch)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return _DeltaKeys(self._store, self._batch[index], self._memo)
        head, query = self._batch[index]
        return delta_state_key(self._store, query, memo=self._memo, head=head)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, abc.Sequence) and list(self) == list(other)


@dataclass
class _RunState:
    """One run's mutable state across its phases."""

    k: int
    metric: DistanceFunction
    pruner: Pruner
    active: dict[ViewKey, AggregateView]
    reference_mode: ReferenceMode
    #: The run reads its reference side from the engine's table state.
    held: bool
    #: Dimension -> :meth:`ExecutionEngine._target_cell` when the target is a
    #: conjunction of one-category clauses and reads its target side from state
    #: too; empty otherwise.
    cells: dict[str, tuple[tuple[str, ...], int, int | None] | None] = field(
        default_factory=dict
    )
    #: Where the views keep their state: the split path's tables, or the held
    #: layout's (what the plan skeletons' route tables are grouped against).
    state_layout: StateLayout | None = None
    #: The split path's state tables, in ``state_layout``'s order and per view
    #: (empty while ``held``).
    tables: list[ViewState] = field(default_factory=list)
    states: dict[ViewKey, ViewState] = field(default_factory=dict)
    #: Held: the layout, a fresh target partial per table, the answers in view order.
    #: Split: the answers read from cached results, then every candidate's.
    layout: HeldLayout | None = None
    targets: dict[HeldTable, SidePartial] = field(default_factory=dict)
    answers: dict[ViewKey, tuple[float, ViewDistributions]] = field(default_factory=dict)
    stats: ExecutionStats = field(default_factory=ExecutionStats)


@dataclass
class EngineRun:
    """Everything a strategy run produced.

    The raw record behind :class:`~repro.core.result.RecommendationSet`:
    the ranked ``selected`` view keys, per-view ``utilities`` and aligned
    ``distributions``, full :class:`~repro.config.ExecutionStats`
    accounting, the cost model's ``modeled_latency``, and how the run
    executed (``backend``, ``parallelism``, ``shared_scan``,
    ``result_cache`` and its hit/miss/bytes-saved counters).

    Example::

        run = seedb.run_engine(target, k=5, strategy="sharing", pruner="none")
        best_key, best_utility = run.top(1)[0]
        print(run.backend, run.stats.queries_issued, run.cache_hit_rate)
        for group in run.distributions[best_key].as_rows():
            print(group["group"], group["target"], group["reference"])
    """

    strategy: Strategy
    pruner_name: str
    k: int
    #: View keys ranked by (estimated) utility, best first — length k.
    selected: list[ViewKey]
    #: Final utility estimate per view that survived to the end.
    utilities: dict[ViewKey, float]
    #: Aligned target/reference distributions per surviving view.
    distributions: dict[ViewKey, ViewDistributions]
    stats: ExecutionStats
    modeled_latency: float
    wall_seconds: float
    phases_executed: int
    #: Number of views still active entering each phase.
    active_per_phase: list[int]
    #: The run's first ``_MAX_RECORDED_SQL`` ranged queries, in submission order.
    queries: list[AggregateQuery] = field(default_factory=list, repr=False)
    #: Execution mode the run used (:data:`Parallelism`).
    parallelism: Parallelism = "modeled"
    #: Worker threads the dispatcher used (1 in modeled mode).
    n_workers: int = 1
    #: Execution backend the queries ran on ("native", "sqlite", ...).
    backend: str = "native"
    #: Whether phase batches were routed through the backend's shared-scan
    #: batch path (always False for NO_OPT, the no-sharing baseline).
    shared_scan: bool = False
    #: Whether this run consulted a view-result cache
    #: (``EngineConfig.result_cache``).
    result_cache: bool = False
    #: Queries served from the cache instead of being executed.
    cache_hits: int = 0
    #: Queries the cache missed and therefore actually dispatched (equals
    #: ``stats.queries_issued`` on cache-enabled runs; 0 when the cache
    #: was off).
    cache_misses: int = 0
    #: Physical bytes the hits avoided re-scanning.
    cache_bytes_saved: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses) for this run; 0.0 when the cache was off."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @cached_property
    def sql(self) -> list[str]:
        """:attr:`queries` as SQL text, rendered when first read.  A query the
        generator cannot print (e.g. a non-finite literal in a predicate) must
        not fail a backend that never ships SQL text: it reads as a comment."""
        rendered = []
        for query in self.queries:
            try:
                rendered.append(generate_sql(query))
            except QueryError as exc:
                rendered.append(f"-- unrenderable query: {exc}")
        return rendered

    def top(self, n: int | None = None) -> list[tuple[ViewKey, float]]:
        ranked = sorted(self.utilities.items(), key=lambda kv: -kv[1])
        return ranked[: n or self.k]


class ExecutionEngine:
    """Runs one strategy over one table's view space, under any metric.

    The engine is backend-agnostic middleware: it plans logical queries,
    ships them to the :class:`~repro.db.backends.Backend` selected by
    ``EngineConfig.backend`` ("native" numpy executor by default, "sqlite"
    for an independent SQL engine), and routes the per-group results into
    view state.  What it keeps across runs — held cells, plan skeletons,
    cached results and delta states — is metric-free; the metric is an
    argument of each :meth:`run`.  All four strategies and both
    parallelism modes produce identical ``selected``/utilities on any
    conforming backend.
    """

    def __init__(
        self,
        store: StorageEngine,
        config: EngineConfig,
        cost_model: CostModel | None = None,
        result_cache: ViewResultCache | None = None,
        delta_cache: "DeltaStateCache | None" = None,
    ) -> None:
        self.store = store
        self.config = config
        self.cost_model = cost_model or CostModel()
        # Out-of-core knobs: a pinned streaming granularity, or a memory
        # budget converted to one via the table's physical row width.  The
        # store's stream_ranges() combines this with the table's own chunk
        # layout; results are identical at any granularity.
        effective_chunk_rows = config.stream_chunk_rows
        if config.memory_budget_bytes is not None:
            per_row = max(store.table.physical_row_bytes(), 1)
            budget_rows = max(config.memory_budget_bytes // per_row, 1)
            effective_chunk_rows = (
                budget_rows
                if effective_chunk_rows is None
                else min(effective_chunk_rows, budget_rows)
            )
        # Assigned unconditionally: a store reused by a second engine must
        # not inherit the previous config's streaming granularity.
        store.stream_chunk_rows = (
            int(effective_chunk_rows) if effective_chunk_rows is not None else None
        )
        self.backend: Backend = make_backend(config.backend, store)
        self.meta = TableMeta.of(store.table)
        # The cache is consulted iff the config knob is on; passing a
        # shared ViewResultCache (the serving layer does) makes hits
        # cross-session, otherwise the engine keeps a private one.
        if config.result_cache:
            self.result_cache: ViewResultCache | None = (
                result_cache if result_cache is not None else ViewResultCache()
            )
        else:
            self.result_cache = None
        #: Lifetime executed-work counters (queries actually dispatched,
        #: rows/bytes actually scanned — cache hits excluded): the sum of
        #: every run's stats, so the serving tier and benches can measure
        #: total physical work.
        self.executed_totals: dict[str, int] = {
            "queries_executed": 0,
            "rows_scanned": 0,
            "bytes_scanned": 0,
        }
        # Delta-aware view maintenance: hand a DeltaStateCache to the native
        # pipeline so full-prefix queries snapshot their partial state and —
        # after an append — restore it and scan only the new chunks.
        # External backends (sqlite) ignore the knob.
        self.delta_cache: DeltaStateCache | None = None
        if config.keeps_delta_state() and isinstance(self.backend, NativeBackend):
            self.delta_cache = delta_cache if delta_cache is not None else DeltaStateCache()
            self.backend.pipeline.delta_cache = self.delta_cache
        # Held group-bys over all rows of one table identity: group-by columns
        # (``(d,)`` or ``(X[, Y …], d)``) -> columns (``__codes__`` of the last
        # key, ``__offsets__`` of the others' composite code, the group count,
        # one per aggregate; ``(d,)`` also its normalized reference rows, see
        # ``_hold_reference``).  The lock serialises fills and writes; held
        # cells are read without it.
        self._reference_lock = threading.Lock()
        self._reference_identity: tuple | None = None
        self._reference: dict[tuple[str, ...], dict[str, np.ndarray]] = {}
        #: Target column sets (a cell's key less ``d``), least recently used first.
        self._target_columns: dict[tuple[str, ...], None] = {}
        #: View keys -> the :class:`HeldLayout` of that view set, for the held cells' identity.
        self._layouts = LruMemo(_MAX_PLAN_SKELETONS)
        self._reference_views_reused = 0
        self._target_views_reused = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release the backend's resources (sqlite connections).  Idempotent.

        The native backend holds nothing, so calling this is only required
        for engines on external backends — use the engine as a context
        manager when in doubt.
        """
        self.backend.close()

    @property
    def meta(self) -> TableMeta:
        """The catalog entry plans and bin packing read; assign a new one when the
        table grew.  The plan skeletons and state layouts built from the old one
        stay while the new one :meth:`~repro.db.catalog.TableMeta.plans_like` it,
        and go when it does not (a dimension gained a category)."""
        return self._planning[0]

    @meta.setter
    def meta(self, meta: TableMeta) -> None:
        planning = getattr(self, "_planning", None)
        if planning is not None and planning[0].plans_like(meta):
            self._planning = (meta, planning[1])
        else:
            self._planning = (meta, LruMemo(_MAX_PLAN_SKELETONS))

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def run(
        self,
        views: Sequence[AggregateView],
        target_predicate: Expression,
        k: int,
        strategy: Strategy = "comb",
        pruner: str | Pruner = "ci",
        reference_mode: ReferenceMode = "all",
        reference_predicate: Expression | None = None,
        parallelism: Parallelism = "modeled",
        metric: str | DistanceFunction = "emd",
    ) -> EngineRun:
        """Execute ``strategy`` and return the top-``k`` views by ``metric``
        (a registered name or a :class:`~repro.metrics.base.DistanceFunction`):
        the phase loop.

        Per phase the run plans its active views (a held run: the views its
        held cells leave, plus one fill per missing cell), dispatches the
        phase's queries (one batch with ``shared_scan``), routes the results
        into its state tables and — phased — observes its pruner and checks
        early return; after the last phase it finalizes on its state tables.

        ``parallelism="real"`` runs each batch of planned queries on a
        thread pool of ``n_parallel_queries`` workers.
        Results are deterministic regardless of mode and worker count:
        batches are barriered and routed in submission order, so
        ``selected`` and ``utilities`` match a serial run exactly (see
        :mod:`repro.core.parallel`).
        """
        if k <= 0:
            raise RecommendationError(f"k must be positive, got {k}")
        if not views:
            raise RecommendationError("no candidate views to evaluate")
        started = time.perf_counter()

        config = self._strategy_config(strategy)
        meta, skeletons = self._planning
        use_phases = self._phased(strategy)
        if isinstance(metric, str):
            metric = get_metric(metric)
        align = None
        if config.chunk_aligned_phases:
            # The same grid stream_ranges() scans on — aligning to anything
            # else would let a phase boundary split a streamed chunk.
            align = self.store.effective_stream_chunk_rows()
        # Before the row count: a held run is one range (phases need the rewrite)
        # and holds cells only under the table identity it read.
        identity = self._table_identity()
        ranges = (
            phase_ranges(self.store.nrows, config.n_phases, align=align)
            if use_phases
            else [(0, self.store.nrows)]
        )

        pruner = self.make_pruner(strategy, pruner)
        pruner.initialize([v.key for v in views], k, len(ranges))
        # NO_OPT is two queries per view by definition: its reference is never held.
        held = (
            not config.combine_target_reference
            and strategy != "no_opt"
            and reference_mode == "all"
        )
        # A held target cell equals the query it replaces only where that query
        # groups one dimension: bin-packed target plans marginalize, and stay.
        target = (
            self._category_conjunction(target_predicate)
            if held and not config.use_binpacking and config.max_group_bys_per_query <= 1
            else None
        )
        live = _RunState(
            k,
            metric,
            pruner,
            {v.key: v for v in views},
            reference_mode,
            held=held,
            cells=(
                {}
                if target is None
                else {
                    dimension: self._target_cell(target, dimension)
                    for dimension in {view.dimension for view in views}
                }
            ),
        )
        # Cached results keep the answers they yield where each is its own: one
        # range, both sides of a view from one flagged result.  Such a run makes
        # its states only if a result it reads keeps no answers.
        cache = self.result_cache
        memo = (
            (metric, reference_mode)
            if cache is not None and config.combine_target_reference and not use_phases
            else None
        )
        if not held and memo is None:
            self._make_states(live, skeletons)

        total_rows = max(self.store.nrows, 1)
        # A backend that declares itself unsafe for concurrent execute()
        # calls is driven serially even in "real" mode — results are
        # identical by the dispatcher's determinism contract, just slower.
        n_workers = (
            config.n_parallel_queries
            if self.backend.capabilities().parallel_safe
            else 1
        )
        batch_size = max(config.n_parallel_queries, 1)
        # One execution fingerprint per run: recomputed here (not cached on
        # the engine) so a Table.bump_version() between runs reroutes every
        # lookup away from stale entries.
        delta = self.delta_cache
        cache_prefix = (
            execution_fingerprint(self.store, self.backend) if cache is not None else ""
        )
        recorded: list[AggregateQuery] = []
        #: The target predicate and flag expression, keyed once for all the run's
        #: queries; each query's plan part is its skeleton's ``head``.
        fingerprints: dict = {}
        active_per_phase: list[int] = []
        previous_top_k: frozenset[ViewKey] = frozenset()
        stable_phases = 0
        #: ``(cache key, planned)`` of the hits this run routes and scores.
        scored: list[tuple[str, PlannedQuery]] = []
        with make_dispatcher(
            self.backend,
            parallelism,
            n_workers,
            use_batch=config.shared_scan,
        ) as dispatcher:
            for phase_index, (start, stop) in enumerate(ranges):
                active_per_phase.append(len(live.active))
                # The held state's lock is held while the phase plans and, only
                # if it has cells to fill, until the fills are stored.
                touched: set[tuple[str, ...]] = set()
                locked = live.held
                if locked:
                    self._reference_lock.acquire()
                try:
                    table_cells = self._held_state(identity) if locked else {}
                    if table_cells is None:  # the table moved: split path, hold nothing
                        # One range: nothing is folded yet.
                        self._make_states(live, skeletons)
                        live.held, live.cells = False, {}
                    planned_views, fills = list(live.active.values()), []
                    if live.held:
                        planned_views, fills = self._held_cells(live, table_cells, touched)
                    plan = SharingPlan(())
                    if planned_views:
                        plan = plan_queries(
                            planned_views,
                            meta,
                            config,
                            target_predicate,
                            reference_mode,
                            reference_predicate,
                            live.held,
                            skeletons,
                        )
                    batch = [
                        (planned.head, planned.query.with_range(start, stop))
                        for planned in (*plan.queries, *fills)
                    ]
                    queries = [query for _, query in batch]
                    recorded += queries[: _MAX_RECORDED_SQL - len(recorded)]
                    cache_keys = [
                        f"{cache_prefix}|"
                        f"{query_fingerprint(query, memo=fingerprints, head=head)}"
                        if cache is not None
                        else None
                        for head, query in batch
                    ]
                    # The pipeline seeds only a query over the whole table.
                    delta_keys = (
                        _DeltaKeys(self.store, batch, fingerprints)
                        if delta is not None and start == 0 and stop == self.store.nrows
                        else None
                    )
                    if locked and not fills:
                        self._reference_lock.release()
                        locked = False

                    # Each batch is a barrier: the dispatcher returns per-query
                    # outcomes in submission order.  With ``shared_scan`` the
                    # **whole phase** is one dispatcher batch, so the backend's
                    # shared-scan path does exactly one pass over the phase's
                    # row range; otherwise batches are ``n_parallel_queries``
                    # wide.  The dispatcher probes the cache first: hits never
                    # reach the backend (they are excluded before shared-scan
                    # batching), misses execute and are memoized; a hit outcome
                    # carries the memoized result with zeroed work counters.
                    width = max(len(queries) if config.shared_scan else batch_size, 1)
                    outcomes: list[tuple[QueryResult, ExecutionStats]] = []
                    for i in range(0, len(queries), width):
                        outcomes.extend(
                            dispatcher.run_batch(
                                queries[i : i + width],
                                cache,
                                cache_keys[i : i + width],
                                delta_keys and delta_keys[i : i + width],
                            )
                        )
                    for planned, (result, _) in zip(fills, outcomes[len(plan) :]):
                        self._hold_reference(table_cells, planned, result)
                    if any(len(planned.query.group_by) >= 2 for planned in fills):
                        self._evict_target_columns(touched)
                finally:
                    if locked:
                        self._reference_lock.release()
                # Stats merging and per-view routing happen on this thread in
                # plan order — a parallel run therefore performs the exact
                # floating-point accumulation sequence of a serial one.  The
                # cost model sees concurrency groups of ``n_parallel_queries``
                # — the pool's actual width — whatever batch carried the
                # queries, so the modeled parallel structure is unchanged; only
                # the per-query work (shared pages charged once, to the first
                # query) gets cheaper.  A fill is charged to the run, but routed
                # to the table state above: the zip ends with the plan.  The
                # lifetime totals take the same outcomes, so a run's stats are
                # exactly the work it added to them.
                for i in range(0, len(outcomes), batch_size):
                    batch_costs: list[float] = []
                    for _, query_stats in outcomes[i : i + batch_size]:
                        batch_costs.append(self.cost_model.query_seconds(query_stats))
                        live.stats.merge(query_stats)
                        self.executed_totals["queries_executed"] += query_stats.queries_issued
                        self.executed_totals["rows_scanned"] += query_stats.rows_scanned
                        self.executed_totals["bytes_scanned"] += (
                            query_stats.bytes_scanned_miss + query_stats.bytes_scanned_hit
                        )
                    live.stats.batch_costs.append(batch_costs)
                # A view fed by two queries is no one result's to keep.
                routes = sum(len(planned.routes) for planned in plan.queries)
                if memo is not None and routes != len(live.active):
                    memo = None
                for planned, key, (result, query_stats) in zip(
                    plan.queries, cache_keys, outcomes
                ):
                    if memo is not None and query_stats.cache_hits:
                        if self._read_answers(cache, key, memo, planned, live):
                            continue
                        scored.append((key, planned))
                    if not (live.held or live.states):
                        self._make_states(live, skeletons)
                    self._route_result(planned, result, live)
                if live.held:
                    self._fold_held(live, table_cells)
                if not use_phases:
                    continue
                estimates = self._per_view(live, live.active, ViewState.record_estimate)
                decision = pruner.observe(
                    phase_index,
                    estimates,
                    rows_seen=max(stop, 1),
                    total_rows=total_rows,
                )
                for key in decision.pruned:
                    live.active.pop(key, None)
                if strategy == "comb_early":
                    current_top_k = frozenset(
                        sorted(estimates, key=lambda key: -estimates[key])[:k]
                    )
                    stable_phases = (
                        stable_phases + 1 if current_top_k == previous_top_k else 0
                    )
                    previous_top_k = current_top_k
                    if self._top_k_identified(pruner, live.active, k, stable_phases):
                        break

        selected, utilities, distributions = self._finalize(live)
        for key, planned in scored:
            views = [route.view.key for route in planned.routes]
            cache.keep_answers(key, memo, {view: live.answers[view] for view in views})
        stats = live.stats
        stats.wall_seconds = time.perf_counter() - started
        return EngineRun(
            strategy=strategy,
            pruner_name=pruner.name,
            k=k,
            selected=selected,
            utilities=utilities,
            distributions=distributions,
            stats=stats,
            modeled_latency=self.cost_model.latency_seconds(stats),
            wall_seconds=stats.wall_seconds,
            phases_executed=len(active_per_phase),
            active_per_phase=active_per_phase,
            queries=recorded,
            parallelism=parallelism,
            n_workers=dispatcher.n_workers,
            backend=self.backend.name,
            shared_scan=config.shared_scan,
            result_cache=cache is not None,
            cache_hits=stats.cache_hits,
            cache_misses=stats.queries_issued if cache is not None else 0,
            cache_bytes_saved=stats.cache_bytes_saved,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def make_pruner(self, strategy: Strategy, pruner: str | Pruner) -> Pruner:
        """The pruner a ``strategy`` run observes with: ``"none"`` unless it is
        :meth:`_phased`; ``"ci"`` picks up the engine's ``ci_delta``.
        An unknown name raises :class:`~repro.exceptions.PruningError` even if
        unused, so a bad name fails every strategy alike.
        """
        if not isinstance(pruner, Pruner):
            name = pruner.lower()
            pruner = make_pruner(name, **({"delta": self.config.ci_delta} if name == "ci" else {}))
        return pruner if self._phased(strategy) else make_pruner("none")

    def _phased(self, strategy: Strategy) -> bool:
        """Whether a ``strategy`` run executes in phases and prunes between them:
        without the §4.1 rewrite group-bys are held, and a phase would only re-fold them."""
        return strategy in _PHASED and self.config.combine_target_reference

    def _strategy_config(self, strategy: Strategy) -> EngineConfig:
        """Per-strategy engine knobs, derived from the base config."""
        if strategy == "no_opt":
            return self.config.with_(
                max_aggregates_per_query=1,
                max_group_bys_per_query=1,
                use_binpacking=False,
                combine_target_reference=False,
                n_parallel_queries=1,
                shared_scan=False,
            )
        if strategy in ("sharing", "comb", "comb_early"):
            return self.config
        raise RecommendationError(f"unknown strategy {strategy!r}")

    def _table_identity(self) -> tuple:
        """What held cells are valid for: the table's version, rows and source."""
        table = self.store.table
        return (table.version, table.nrows, table.source_digest)

    def _held_state(self, identity: tuple) -> dict[tuple[str, ...], dict] | None:
        """The held cells of ``identity``, the table a run read (lock held);
        ``None`` if the table moved since.  All is dropped first if the
        identity is new.  Callers keep the dict: eviction replaces it."""
        if identity != self._table_identity():
            return None
        if identity != self._reference_identity:
            self._reference_identity, self._reference = identity, {}
            self._target_columns, self._layouts = {}, LruMemo(_MAX_PLAN_SKELETONS)
        return self._reference

    def _category_conjunction(
        self, predicate: Expression
    ) -> tuple[tuple[str, int, int], ...] | None:
        """``((X, code of x, |X|), …)`` sorted by column if ``predicate`` is one
        test or a top-level ``And`` of tests that each select at most one category
        of a distinct dictionary-coded column ``X`` (a string column or a
        dimension), decided per category like a code-space filter; ``()`` when a
        test selects none."""
        clauses = predicate.operands if isinstance(predicate, And) else (predicate,)
        table = self.store.table
        selected: dict[str, tuple[int, int] | None] = {}
        for clause in clauses:
            columns = clause.referenced_columns()
            if len(columns) != 1:
                return None
            (column,) = columns
            if column in selected or column not in table.schema or (
                table.schema[column].ctype is not ColumnType.STR
                and column not in self.meta.dimensions
            ):
                return None
            categories = table.categories(column)
            hits = clause.category_hits({column: categories})
            if hits is None or len(hits[1]) > 1:
                return None
            selected[column] = (int(hits[1][0]), len(categories)) if len(hits[1]) else None
        if None in selected.values():
            return ()
        return tuple((column, *selected[column]) for column in sorted(selected))

    def _target_cell(
        self, target: tuple[tuple[str, int, int], ...], dimension: str
    ) -> tuple[tuple[str, ...], int, int | None] | None:
        """``(cell, prefix, own)``: the cell ``target`` reads for views on
        ``dimension`` — grouped by the target's other columns, then ``dimension``:
        ``(X, d)``, ``(X, Y, d)`` … — sliced at the others' composite code
        ``prefix`` and narrowed to ``dimension``'s code ``own`` if the target tests
        it, while its group domain fits the dense grouping limit; a view on a
        one-clause target's own column reads ``(X,)`` sliced at ``x``'s code.
        Cell ``()`` (nothing) for a target selecting no row; ``None`` leaves the
        views to a filter-first query."""
        if not target:
            return (), 0, None
        others, prefix, own = [], 0, None
        size = len(self.store.table.categories(dimension))
        for column, code, n in target:
            if column == dimension:
                own = code
            else:
                others.append(column)
                prefix, size = prefix * n + code, size * n
        if not others:
            return (dimension,), own, None
        if size > _DENSE_GROUP_LIMIT:
            return None
        return (*others, dimension), prefix, own

    def _held_cells(
        self, entry: _RunState, held: dict, touched: set
    ) -> tuple[list[AggregateView], list[PlannedQuery]]:
        """Split ``entry``'s views (one range: this is its only phase) between held
        cells and target queries (lock held), one table of its layout at a time:
        every view reads its reference side from ``(d,)`` and, where
        :meth:`_target_cell` names one, its target side from that cell.  Returns
        the views left to target queries and one fill per cell with a column not
        held yet; the target column sets read join ``touched``."""
        views = list(entry.active.values())
        layout = self._layouts.get(
            tuple(entry.active), lambda: HeldLayout(views, self.store.table.categories)
        )
        entry.layout, entry.state_layout, entry.targets = layout, layout.state_layout, {
            t: SidePartial(t.func, len(t.rows), len(t.categories)) for t in layout.tables
        }
        missing: dict[tuple[str, ...], list[AggregateView]] = {}
        reused = [0, 0]  # reference, target views read here, not filled
        column_sets: dict[tuple[str, ...], None] = {}
        for table in layout.tables:
            keys = [(table.dimension,)]
            cell = entry.cells.get(table.dimension)
            if cell is not None and cell[0]:
                keys.append(cell[0])
                if len(cell[0]) > 1:
                    column_sets[cell[0][:-1]] = None
            for side, key in enumerate(keys):
                columns = held.get(key, {})
                if columns.keys() >= table.alias_set:
                    reused[side] += len(table.views)
                    continue
                for view in table.views:
                    if view.agg_alias in columns:
                        reused[side] += 1
                    else:
                        missing.setdefault(key, []).append(view)
        queried = [view for view in views if entry.cells.get(view.dimension) is None]
        for column_set in column_sets:
            self._target_columns.pop(column_set, None)
            self._target_columns[column_set] = None
        touched.update(column_sets)
        entry.stats.reference_views_reused += reused[0]
        entry.stats.target_views_reused += reused[1]
        self._reference_views_reused += reused[0]
        self._target_views_reused += reused[1]
        name, budget = self.meta.name, self.config.group_budget()
        return queried, [plan_fill(key, views, name, budget) for key, views in missing.items()]

    def _hold_reference(self, held: dict, fill: PlannedQuery, result: QueryResult) -> None:
        """Keep one fill's columns (lock held); group keys are decoded once.
        Groups come sorted by their keys, so ``__offsets__`` bound the slice of
        each composite code of all keys but the last (of a one-key cell's key:
        one group).  A one-key cell also keeps its reference side finalized and
        normalized, grown by appending, never mutated
        (:func:`~repro.core.state.hold_reference_rows`)."""
        key = fill.query.group_by
        columns = held.setdefault(key, {})
        table = self.store.table
        if not columns:
            codes = [
                np.searchsorted(table.categories(name), np.asarray(result.groups[name]))
                for name in key
            ]
            prefix = np.zeros(len(codes[-1]), dtype=np.int64)
            n_prefixes = 1
            for name, column_codes in zip(key[:-1] or key, codes):
                n = len(table.categories(name))
                prefix = prefix * n + column_codes
                n_prefixes *= n
            columns["__codes__"] = codes[-1]
            columns["__offsets__"] = np.searchsorted(prefix, np.arange(n_prefixes + 1))
        for name, values in result.values.items():
            columns[name] = np.asarray(values, dtype=np.float64)
        if len(key) > 1:
            return
        funcs = {spec.alias: spec.func for spec in fill.query.aggregates}
        hold_reference_rows(columns, funcs, table.categories(key[0]))

    def _evict_target_columns(self, keep: set[tuple[str, ...]]) -> None:
        """Drop whole target column sets, least recently used first and never one
        in ``keep``, until the held target cells fit ``_MAX_TARGET_BYTES`` (lock
        held).  The held dict is replaced, not mutated: a request folding without
        the lock keeps the one it planned on."""
        sizes: dict[tuple[str, ...], int] = {}
        for key, columns in self._reference.items():
            if len(key) > 1:
                sizes[key[:-1]] = sizes.get(key[:-1], 0) + _nbytes(columns)
        total = sum(sizes.values())
        evicted = set()
        for column_set in list(self._target_columns):
            if total <= _MAX_TARGET_BYTES:
                break
            if column_set not in keep:
                total -= sizes.get(column_set, 0)
                evicted.add(column_set)
                del self._target_columns[column_set]
        if evicted:
            self._reference = {
                key: columns
                for key, columns in self._reference.items()
                if len(key) == 1 or key[:-1] not in evicted
            }

    def _fold_held(self, entry: _RunState, held: dict) -> None:
        """Fold and score ``entry``'s views one layout table at a time: into its
        target partial, :meth:`_target_cell`'s cell sliced at the composite code
        of the target's other columns (and at ``d``'s own when the target tests
        ``d`` too: one group per code), then :meth:`HeldTable.utility` on ``(d,)``."""
        answers: list = []
        for table, target in entry.targets.items():
            cell = entry.cells.get(table.dimension)
            if cell and cell[0]:
                key, prefix, own = cell
                columns = held[key]
                lo, hi = columns["__offsets__"][prefix : prefix + 2]
                if own is not None:
                    lo, hi = lo + np.searchsorted(columns["__codes__"][lo:hi], (own, own + 1))
                target.update(
                    table.every_row,
                    columns["__codes__"][lo:hi],
                    np.array([columns[alias][lo:hi] for alias in table.aliases]),
                    columns["__group_count__"][lo:hi],
                    unique=True,
                )
            answers += table.utility(entry.metric, target, held[(table.dimension,)])
        views, order = entry.layout.views, entry.layout.order
        entry.answers = {view.key: answers[i] for view, i in zip(views, order)}

    def reference_state(self) -> dict[str, int]:
        """What the held group-bys hold and have saved (``GET /v1/stats``):
        ``bytes`` of reference cells, ``target_bytes`` of (target columns,
        dimension) cells.  Lock-free — a fill holds the lock for a scan: each
        ``list`` is an atomic copy."""
        sizes = [0, 0]
        for key, columns in list(self._reference.items()):
            sizes[len(key) > 1] += _nbytes(columns)
        return {
            "bytes": sizes[0],
            "views_reused": self._reference_views_reused,
            "target_bytes": sizes[1],
            "target_views_reused": self._target_views_reused,
        }

    def _make_states(self, entry: _RunState, kept: LruMemo) -> None:
        """Give ``entry`` the split path's state: one fresh table per table of its
        views' :class:`StateLayout` (kept with the plan skeletons), and each view
        key's table."""
        active = entry.active
        layout = kept.get(("states", tuple(active)), lambda: StateLayout(list(active.values())))
        tables = layout.tables(ViewState, self.store.table.categories)
        entry.state_layout, entry.tables = layout, tables
        entry.states = {key: tables[table] for key, (table, _) in layout.places.items()}

    @staticmethod
    def _per_view(entry: _RunState, keys: Collection[ViewKey], evaluate: Callable) -> dict:
        """``evaluate(state, metric, rows)`` once per state table of ``entry``,
        answered per view in ``keys`` order — the order is part of the contract:
        the pruners' and the ranking's stable sorts break exact ties by it."""
        grouped: dict[ViewState, list[ViewKey]] = {}
        for key in keys:
            grouped.setdefault(entry.states[key], []).append(key)
        values: dict = {}
        for state, group in grouped.items():
            rows = [state.rows[key] for key in group]
            values.update(zip(group, evaluate(state, entry.metric, rows)))
        return {key: values[key] for key in keys}

    @staticmethod
    def _read_answers(
        cache: ViewResultCache, key: str, memo: tuple, planned: PlannedQuery, entry: _RunState
    ) -> bool:
        """Take the answers the cached result under ``key`` keeps for ``memo``
        for every view ``planned`` routes, if it keeps them all, into
        ``entry.answers``: row ``r`` of a state table scores what a one-row
        table would (:mod:`repro.core.state`), so an answer is its result's."""
        views = [route.view.key for route in planned.routes]
        answers = cache.answers(key, memo, views)
        if answers is None:
            return False
        entry.answers.update(zip(views, answers))
        return True

    def _route_result(
        self, planned: PlannedQuery, result: QueryResult, entry: _RunState
    ) -> None:
        """Feed one query result into every view of ``entry`` it serves.

        Routes are grouped by the state table they feed, a grouping the plan
        skeleton keeps per state layout (:class:`~repro.core.sharing.RouteTable`):
        the flags are read once, a dimension's keys are decoded once, and a
        table's routed aggregates are folded as one stack.  Held: the tables are the layout's,
        their target sides ``entry.targets`` (held plans route no reference side).
        """
        held, reference_mode = entry.held, entry.reference_mode
        tables, targets = (entry.layout.tables, entry.targets) if held else (entry.tables, None)
        counts = np.asarray(result.values["__group_count__"], dtype=np.float64)
        # Route side -> (state side, positions of the groups that feed it),
        # ``None`` meaning every group.
        feeds: dict[str, tuple] = {
            "target": (("target", None),),
            "reference": (("reference", None),),
        }
        if planned.flag_alias is not None:
            flags = np.asarray(result.groups[planned.flag_alias]).astype(np.int64)
            if planned.flag_kind == "two_bit":
                target_groups = np.flatnonzero(flags >= 2)
                reference_groups = np.flatnonzero((flags % 2) == 1)
            else:
                target_groups = np.flatnonzero(flags == 1)
                reference_groups = (
                    None if reference_mode == "all" else np.flatnonzero(flags == 0)
                )
            feeds["both"] = (("target", target_groups), ("reference", reference_groups))

        codes: dict[str, np.ndarray] = {}
        for table, side, dimension, rows, aliases in planned.tables.of(entry.state_layout):
            state = tables[table]
            if dimension not in codes:
                codes[dimension] = state.codes(np.asarray(result.groups[dimension]))
            agg = np.array([result.values[alias] for alias in aliases], dtype=np.float64)
            for name, groups in feeds[side]:
                # A held table has no partials: a held reference route raises here.
                partial = targets[state] if held and name == "target" else getattr(state, name)
                if groups is None:
                    partial.update(rows, codes[dimension], agg, counts)
                else:
                    partial.update(
                        rows,
                        codes[dimension][groups],
                        np.take(agg, groups, axis=1),
                        counts[groups],
                    )

    @staticmethod
    def _top_k_identified(
        pruner: Pruner, active: dict[ViewKey, AggregateView], k: int, stable_phases: int
    ) -> bool:
        """Early-return condition (COMB_EARLY): top-k already determined.

        Any of: the pruner formally certifies a top-k set (CI interval
        separation, or k MAB accepts); only k candidates remain active; or
        the estimate-ranked top-k has been stable for
        ``_EARLY_STABLE_PHASES`` consecutive boundaries.
        """
        if pruner.top_k_set() is not None:
            return True
        if len(active) <= k:
            return True
        return stable_phases >= _EARLY_STABLE_PHASES

    def _finalize(
        self, entry: _RunState
    ) -> tuple[list[ViewKey], dict[ViewKey, float], dict[ViewKey, ViewDistributions]]:
        pruner, active, accepted = entry.pruner, entry.active, entry.pruner.accepted
        # View order, never a set's: exact ties must rank the same under any
        # PYTHONHASHSEED.  A held run is one unpruned pass, scored as it folded.
        candidates = list(active) + sorted(accepted.difference(active))
        results = entry.answers
        if not entry.held:
            # Answers read from cached results are scored already.
            scored = self._per_view(
                entry, [key for key in candidates if key not in results], ViewState.utility
            )
            results = entry.answers = {
                key: results[key] if key in results else scored[key] for key in candidates
            }
        utilities = {key: value for key, (value, _) in results.items()}
        distributions = {key: dists for key, (_, dists) in results.items()}
        ranked = (
            [key for key in candidates if key in accepted]
            if pruner.name == "random"
            else candidates
        )
        selected = sorted(ranked, key=lambda key: -utilities[key])[: entry.k]
        return selected, utilities, distributions
