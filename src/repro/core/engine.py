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

Every run returns an :class:`EngineRun` carrying the ranked views, their
distributions, full execution accounting, and the cost model's latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Literal, Sequence

import numpy as np

from repro.config import EngineConfig, ExecutionStats
from repro.core.cache import (
    DeltaStateCache,
    ViewResultCache,
    execution_fingerprint,
    query_fingerprint,
)
from repro.core.difference import ViewDistributions
from repro.core.optimizer import WorkloadOptimizer
from repro.core.parallel import ParallelDispatcher, make_dispatcher
from repro.core.phases import phase_ranges
from repro.core.pruning import Pruner, make_pruner
from repro.core.sharing import (
    PlannedQuery,
    ReferenceMode,
    SharingPlan,
    ViewRoute,
    plan_queries,
)
from repro.core.state import ViewState
from repro.core.view import AggregateView, ViewKey
from repro.db.backends import Backend, NativeBackend, make_backend
from repro.db.catalog import TableMeta
from repro.db.cost import CostModel
from repro.db.expressions import Expression
from repro.db.query import QueryResult
from repro.db.sql import generate_sql
from repro.db.storage import StorageEngine
from repro.exceptions import QueryError, RecommendationError
from repro.metrics.base import DistanceFunction

Strategy = Literal["no_opt", "sharing", "comb", "comb_early"]
#: "modeled" runs queries serially and models parallel speedup in the cost
#: model only (the historical behaviour); "real" dispatches each batch onto
#: a thread pool of ``n_parallel_queries`` workers for true concurrency;
#: "process" fans the batch out to worker *processes* that re-open the
#: table's on-disk chunk store via ``np.memmap`` — true multi-core
#: execution with no GIL and no pickled column data (native backend over
#: an on-disk table only; see :mod:`repro.core.procpool`).
Parallelism = Literal["modeled", "real", "process"]

#: How many generated SQL strings to retain on a run (introspection only).
_MAX_RECORDED_SQL = 64


@dataclass(frozen=True)
class UnionRequest:
    """One request's inputs to :meth:`ExecutionEngine.run_union`.

    A frozen snapshot of everything a SHARING-strategy :meth:`run` call
    would take, so the serving tier's coalescing gateway can collect many
    concurrent requests and execute their union as one workload.
    """

    views: tuple[AggregateView, ...]
    target_predicate: Expression
    k: int
    reference_mode: ReferenceMode = "all"
    reference_predicate: Expression | None = None


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
    sql: list[str] = field(default_factory=list)
    #: Execution mode the run used ("modeled" = serial queries, parallel
    #: speedup in the cost model only; "real" = thread-pool execution).
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
    #: Attribution record of the workload optimizer's decisions
    #: (:meth:`repro.core.optimizer.WorkloadOptimizer.decisions`); empty
    #: when ``EngineConfig.optimizer.enabled`` was off for this run.
    optimizer_decisions: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses) for this run; 0.0 when the cache was off."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def top(self, n: int | None = None) -> list[tuple[ViewKey, float]]:
        ranked = sorted(self.utilities.items(), key=lambda kv: -kv[1])
        return ranked[: n or self.k]


class ExecutionEngine:
    """Runs one strategy over one table's view space.

    The engine is backend-agnostic middleware: it plans logical queries,
    ships them to the :class:`~repro.db.backends.Backend` selected by
    ``EngineConfig.backend`` ("native" numpy executor by default, "sqlite"
    for an independent SQL engine), and routes the per-group results into
    view state.  All four strategies and both parallelism modes produce
    identical ``selected``/utilities on any conforming backend.
    """

    def __init__(
        self,
        store: StorageEngine,
        metric: DistanceFunction,
        config: EngineConfig,
        cost_model: CostModel | None = None,
        result_cache: ViewResultCache | None = None,
        delta_cache: "DeltaStateCache | None" = None,
    ) -> None:
        self.store = store
        self.metric = metric
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
        # not inherit the previous config's streaming granularity.  The
        # static value is kept so every run() can start from it before the
        # workload optimizer (if enabled) retunes mid-run.
        self._static_chunk_rows = (
            int(effective_chunk_rows) if effective_chunk_rows is not None else None
        )
        store.stream_chunk_rows = self._static_chunk_rows
        store.dense_group_limit = None
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
        #: rows/bytes actually scanned — cache hits and coalesced shares
        #: excluded).  Unlike per-run stats these count each execution
        #: exactly once regardless of how many requests shared it, so the
        #: serving tier and benches can measure total physical work.
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
        if config.result_cache and config.delta_cache and isinstance(self.backend, NativeBackend):
            self.delta_cache = delta_cache if delta_cache is not None else DeltaStateCache()
            self.backend.pipeline.delta_cache = self.delta_cache

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
    ) -> EngineRun:
        """Execute ``strategy`` and return the top-``k`` views.

        ``parallelism="real"`` runs each batch of planned queries on a
        thread pool of ``n_parallel_queries`` workers;
        ``parallelism="process"`` fans them out to worker processes over
        the table's on-disk chunk store (:mod:`repro.core.procpool`).
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
        # Every run starts from the static tuning: a previous run's
        # optimizer decisions must not leak into an ablation baseline.
        self.store.stream_chunk_rows = self._static_chunk_rows
        self.store.dense_group_limit = None
        # The workload optimizer never touches NO_OPT: that strategy *is*
        # the no-sharing baseline, and fusing its per-view queries would
        # reintroduce exactly the sharing it exists to ablate.
        optimizer: WorkloadOptimizer | None = None
        if config.optimizer.enabled and strategy != "no_opt":
            optimizer = WorkloadOptimizer(
                config.optimizer,
                self.store,
                self.meta,
                config.memory_budget_bytes,
            )
        use_phases = strategy in ("comb", "comb_early")
        early = strategy == "comb_early" or config.early_return
        align = None
        if config.chunk_aligned_phases:
            # The same grid stream_ranges() scans on — aligning to anything
            # else would let a phase boundary split a streamed chunk.
            align = self.store.effective_stream_chunk_rows()
        ranges = (
            phase_ranges(self.store.nrows, config.n_phases, align=align)
            if use_phases
            else [(0, self.store.nrows)]
        )

        pruner_obj: Pruner
        if use_phases:
            pruner_obj = pruner if isinstance(pruner, Pruner) else self._make_pruner(pruner)
        else:
            pruner_obj = make_pruner("none")
        pruner_obj.initialize([v.key for v in views], k, len(ranges))

        states = self._make_states(views)
        active: dict[ViewKey, AggregateView] = {v.key: v for v in views}
        run_stats = ExecutionStats()
        sql_log: list[str] = []
        active_per_phase: list[int] = []
        phases_executed = 0

        total_rows = max(self.store.nrows, 1)
        previous_top_k: frozenset[ViewKey] = frozenset()
        stable_phases = 0
        # A backend that declares itself unsafe for concurrent execute()
        # calls is driven serially even in "real" mode — results are
        # identical by the dispatcher's determinism contract, just slower.
        n_workers = (
            config.n_parallel_queries
            if self.backend.capabilities().parallel_safe
            else 1
        )
        # One execution fingerprint per run: recomputed here (not cached on
        # the engine) so a Table.bump_version() between runs reroutes every
        # lookup away from stale entries.
        cache = self.result_cache
        cache_prefix = (
            execution_fingerprint(self.store, self.backend)
            if cache is not None
            else None
        )
        with make_dispatcher(
            self.backend,
            parallelism,
            n_workers,
            use_batch=config.shared_scan,
            pool_recovery=config.pool_recovery,
        ) as dispatcher:
            for phase_index, (start, stop) in enumerate(ranges):
                active_per_phase.append(len(active))
                plan = plan_queries(
                    list(active.values()),
                    self.meta,
                    config,
                    target_predicate,
                    reference_mode,
                    reference_predicate,
                )
                if optimizer is not None:
                    plan = optimizer.transform(plan)
                outcomes = self._execute_plan(
                    plan,
                    (start, stop),
                    config,
                    states,
                    run_stats,
                    sql_log,
                    reference_mode,
                    dispatcher,
                    cache,
                    cache_prefix,
                )
                if optimizer is not None:
                    optimizer.observe_phase(
                        plan, [result for result, _ in outcomes]
                    )
                phases_executed += 1

                if use_phases:
                    estimates = self._per_view(states, active, ViewState.record_estimate)
                    decision = pruner_obj.observe(
                        phase_index,
                        estimates,
                        rows_seen=max(stop, 1),
                        total_rows=total_rows,
                    )
                    for key in decision.pruned:
                        active.pop(key, None)
                    if early:
                        current_top_k = frozenset(
                            sorted(estimates, key=lambda key: -estimates[key])[:k]
                        )
                        stable_phases = (
                            stable_phases + 1 if current_top_k == previous_top_k else 0
                        )
                        previous_top_k = current_top_k
                        if self._top_k_identified(
                            pruner_obj, active, k, stable_phases, config
                        ):
                            break

        selected, utilities, distributions = self._finalize(
            states, active, pruner_obj, k
        )
        self._count_executed(run_stats)
        run_stats.wall_seconds = time.perf_counter() - started
        return EngineRun(
            strategy=strategy,
            pruner_name=pruner_obj.name,
            k=k,
            selected=selected,
            utilities=utilities,
            distributions=distributions,
            stats=run_stats,
            modeled_latency=self.cost_model.latency_seconds(run_stats),
            wall_seconds=run_stats.wall_seconds,
            phases_executed=phases_executed,
            active_per_phase=active_per_phase,
            sql=sql_log,
            parallelism=parallelism,
            n_workers=dispatcher.n_workers,
            backend=self.backend.name,
            shared_scan=config.shared_scan,
            result_cache=cache is not None,
            cache_hits=run_stats.cache_hits,
            cache_misses=run_stats.queries_issued if cache is not None else 0,
            cache_bytes_saved=run_stats.cache_bytes_saved,
            optimizer_decisions=(
                optimizer.decisions() if optimizer is not None else {}
            ),
        )

    def run_union(
        self,
        requests: Sequence[UnionRequest],
        parallelism: Parallelism = "modeled",
    ) -> list[EngineRun]:
        """Execute many SHARING requests as ONE dispatcher batch.

        The coalescing entry point (:mod:`repro.service.coalesce`): each
        request is planned exactly as its own ``run(strategy="sharing")``
        would plan it — single phase over the full row range, no pruning,
        per-request optimizer transform — then every request's ranged
        queries are concatenated into a single shared-scan batch, so the
        backend does one pass over the table for the whole union.

        Results are bitwise-identical to per-request serial runs: each
        query's result is computed from the same frozen column data
        regardless of which batch carried it, and per-request routing
        happens on this thread in the request's own plan order — the same
        floating-point accumulation sequence as an uncoalesced run.

        Only the *accounting* moves.  Queries that appear in more than one
        request (same result-cache fingerprint) execute once: the first
        request to submit the query owns its executed
        :class:`~repro.config.ExecutionStats`; every other request routes
        the same result but records just a ``coalesced_queries`` marker —
        extending the shared-scan split-charge scheme (pages charged once
        per batch, to the first toucher) across requests, so summing
        per-request stats still charges each executed query and each
        scanned page exactly once.
        """
        if not requests:
            return []
        for request in requests:
            if request.k <= 0:
                raise RecommendationError(f"k must be positive, got {request.k}")
            if not request.views:
                raise RecommendationError("no candidate views to evaluate")
        started = time.perf_counter()

        config = self._strategy_config("sharing")
        # Same per-run reset as run(): no tuning leaks between runs.
        self.store.stream_chunk_rows = self._static_chunk_rows
        self.store.dense_group_limit = None
        nrows = self.store.nrows
        cache = self.result_cache
        cache_prefix = (
            execution_fingerprint(self.store, self.backend)
            if cache is not None
            else None
        )

        # Plan every request exactly as its solo run would.
        planned_requests = []
        for request in requests:
            optimizer: WorkloadOptimizer | None = None
            if config.optimizer.enabled:
                optimizer = WorkloadOptimizer(
                    config.optimizer,
                    self.store,
                    self.meta,
                    config.memory_budget_bytes,
                )
            plan = plan_queries(
                list(request.views),
                self.meta,
                config,
                request.target_predicate,
                request.reference_mode,
                request.reference_predicate,
            )
            if optimizer is not None:
                plan = optimizer.transform(plan)
            ranged = [planned.query.with_range(0, nrows) for planned in plan.queries]
            keys = [
                f"{cache_prefix}|{query_fingerprint(query)}"
                if cache is not None
                else query_fingerprint(query)
                for query in ranged
            ]
            planned_requests.append((request, optimizer, plan, ranged, keys))

        # Deduplicate across requests before dispatch: run_batch probes the
        # cache per query but only memoizes *after* the batch executes, so
        # identical queries submitted together would each execute.  The
        # first (request, position) to submit a fingerprint owns it.
        union_queries: list = []
        union_keys: list[str] = []
        first_slot: dict[str, int] = {}
        slots: list[list[tuple[int, bool]]] = []
        for _, _, _, ranged, keys in planned_requests:
            request_slots: list[tuple[int, bool]] = []
            for query, key in zip(ranged, keys):
                position = first_slot.get(key)
                owner = position is None
                if owner:
                    position = len(union_queries)
                    first_slot[key] = position
                    union_queries.append(query)
                    union_keys.append(key)
                request_slots.append((position, owner))
            slots.append(request_slots)

        n_workers = (
            config.n_parallel_queries
            if self.backend.capabilities().parallel_safe
            else 1
        )
        with make_dispatcher(
            self.backend,
            parallelism,
            n_workers,
            use_batch=config.shared_scan,
            pool_recovery=config.pool_recovery,
        ) as dispatcher:
            if config.shared_scan:
                outcomes = dispatcher.run_batch(
                    union_queries, cache, union_keys if cache is not None else None
                )
            else:
                batch_size = max(config.n_parallel_queries, 1)
                outcomes = []
                for i in range(0, len(union_queries), batch_size):
                    outcomes.extend(
                        dispatcher.run_batch(
                            union_queries[i : i + batch_size],
                            cache,
                            union_keys[i : i + batch_size]
                            if cache is not None
                            else None,
                        )
                    )
            # Each outcome is one unique execution — count it exactly once
            # no matter how many requests share it below.
            for _, executed_stats in outcomes:
                self._count_executed(executed_stats)
            runs: list[EngineRun] = []
            batch_size = max(config.n_parallel_queries, 1)
            for (request, optimizer, plan, ranged, _), request_slots in zip(
                planned_requests, slots
            ):
                states = self._make_states(request.views)
                run_stats = ExecutionStats()
                sql_log: list[str] = []
                for query in ranged:
                    if len(sql_log) < _MAX_RECORDED_SQL:
                        try:
                            sql_log.append(generate_sql(query))
                        except QueryError as exc:
                            sql_log.append(f"-- unrenderable query: {exc}")
                queries = list(plan.queries)
                request_outcomes: list[tuple[QueryResult, ExecutionStats]] = []
                for position, owner in request_slots:
                    result, executed_stats = outcomes[position]
                    if owner:
                        request_outcomes.append((result, executed_stats))
                    else:
                        request_outcomes.append(
                            (result, ExecutionStats(coalesced_queries=1))
                        )
                for i in range(0, len(queries), batch_size):
                    batch_costs: list[float] = []
                    for planned, (result, query_stats) in zip(
                        queries[i : i + batch_size],
                        request_outcomes[i : i + batch_size],
                    ):
                        batch_costs.append(self.cost_model.query_seconds(query_stats))
                        run_stats.merge(query_stats)
                        self._route_result(
                            planned, result, states, request.reference_mode
                        )
                    run_stats.batch_costs.append(batch_costs)
                if optimizer is not None:
                    optimizer.observe_phase(
                        plan, [result for result, _ in request_outcomes]
                    )
                pruner_obj = make_pruner("none")
                pruner_obj.initialize(
                    [v.key for v in request.views], request.k, 1
                )
                active = {v.key: v for v in request.views}
                selected, utilities, distributions = self._finalize(
                    states, active, pruner_obj, request.k
                )
                run_stats.wall_seconds = time.perf_counter() - started
                runs.append(
                    EngineRun(
                        strategy="sharing",
                        pruner_name=pruner_obj.name,
                        k=request.k,
                        selected=selected,
                        utilities=utilities,
                        distributions=distributions,
                        stats=run_stats,
                        modeled_latency=self.cost_model.latency_seconds(run_stats),
                        wall_seconds=run_stats.wall_seconds,
                        phases_executed=1,
                        active_per_phase=[len(request.views)],
                        sql=sql_log,
                        parallelism=parallelism,
                        n_workers=dispatcher.n_workers,
                        backend=self.backend.name,
                        shared_scan=config.shared_scan,
                        result_cache=cache is not None,
                        cache_hits=run_stats.cache_hits,
                        cache_misses=(
                            run_stats.queries_issued if cache is not None else 0
                        ),
                        cache_bytes_saved=run_stats.cache_bytes_saved,
                        optimizer_decisions=(
                            optimizer.decisions() if optimizer is not None else {}
                        ),
                    )
                )
        return runs

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _count_executed(self, stats: ExecutionStats) -> None:
        """Fold one execution's physical work into the lifetime totals."""
        self.executed_totals["queries_executed"] += stats.queries_issued
        self.executed_totals["rows_scanned"] += stats.rows_scanned
        self.executed_totals["bytes_scanned"] += (
            stats.bytes_scanned_miss + stats.bytes_scanned_hit
        )

    def _make_pruner(self, name: str) -> Pruner:
        if name.lower() == "ci":
            return make_pruner("ci", delta=self.config.ci_delta)
        if name.lower() == "random":
            return make_pruner("random", seed=self.config.seed)
        return make_pruner(name)

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

    def _execute_plan(
        self,
        plan: SharingPlan,
        row_range: tuple[int, int],
        config: EngineConfig,
        states: dict[ViewKey, ViewState],
        run_stats: ExecutionStats,
        sql_log: list[str],
        reference_mode: ReferenceMode,
        dispatcher: ParallelDispatcher,
        cache: ViewResultCache | None = None,
        cache_prefix: str | None = None,
    ) -> list[tuple[QueryResult, ExecutionStats]]:
        """Run a phase's queries in parallel batches and route the results.

        Returns the per-query outcomes in plan order so the workload
        optimizer can fold measured statistics back into its tuning.

        Each batch is a barrier: the dispatcher returns per-query results in
        submission order, and stats merging plus per-view routing happen on
        this thread in that same order — a parallel run therefore performs
        the exact floating-point accumulation sequence of a serial one.

        With ``config.shared_scan`` the **whole phase** is one dispatcher
        batch, so the backend's shared-scan path does exactly one pass over
        the phase's row range.  The cost model still sees concurrency groups
        of ``n_parallel_queries`` — the pool's actual width — so the modeled
        parallel structure is unchanged; only the per-query work (shared
        pages charged once, to the first query) gets cheaper.

        With ``cache`` the dispatcher probes the view-result cache first:
        hits never reach the backend (they are excluded before shared-scan
        batching), misses execute and are memoized.  Hit outcomes carry the
        memoized result with zeroed work counters, so routing order — and
        therefore every downstream floating-point accumulation — is
        unchanged from an uncached run.
        """
        start, stop = row_range
        batch_size = max(config.n_parallel_queries, 1)
        queries = list(plan.queries)
        ranged = [planned.query.with_range(start, stop) for planned in queries]
        keys = (
            [f"{cache_prefix}|{query_fingerprint(query)}" for query in ranged]
            if cache is not None
            else None
        )
        for query in ranged:
            if len(sql_log) < _MAX_RECORDED_SQL:
                # The log is introspection only: a query the generator
                # cannot print (e.g. a non-finite literal in a
                # predicate) must not abort a backend that never ships
                # SQL text.
                try:
                    sql_log.append(generate_sql(query))
                except QueryError as exc:
                    sql_log.append(f"-- unrenderable query: {exc}")
        if config.shared_scan:
            outcomes = dispatcher.run_batch(ranged, cache, keys)
        else:
            outcomes = []
            for i in range(0, len(ranged), batch_size):
                outcomes.extend(
                    dispatcher.run_batch(
                        ranged[i : i + batch_size],
                        cache,
                        keys[i : i + batch_size] if keys is not None else None,
                    )
                )
        for i in range(0, len(queries), batch_size):
            batch_costs: list[float] = []
            for planned, (result, query_stats) in zip(
                queries[i : i + batch_size], outcomes[i : i + batch_size]
            ):
                batch_costs.append(self.cost_model.query_seconds(query_stats))
                run_stats.merge(query_stats)
                self._route_result(planned, result, states, reference_mode)
            run_stats.batch_costs.append(batch_costs)
        return outcomes

    def _make_states(self, views: Sequence[AggregateView]) -> dict[ViewKey, ViewState]:
        """One state table per (dimension, function); every view's key maps
        to the table that holds its row."""
        grouped: dict[tuple, list[AggregateView]] = {}
        for view in views:
            grouped.setdefault((view.dimension, view.func), []).append(view)
        states: dict[ViewKey, ViewState] = {}
        for (dimension, _), group in grouped.items():
            state = ViewState(group, self.store.table.categories(dimension))
            states.update(dict.fromkeys(state.rows, state))
        return states

    def _per_view(
        self, states: dict[ViewKey, ViewState], keys: Collection[ViewKey], evaluate: Callable
    ) -> dict:
        """``evaluate(state, metric, rows)`` once per state table, answered
        per view in ``keys`` order — the order is part of the contract: the
        pruners' and the ranking's stable sorts break exact ties by it."""
        grouped: dict[ViewState, list[ViewKey]] = {}
        for key in keys:
            grouped.setdefault(states[key], []).append(key)
        values: dict = {}
        for state, group in grouped.items():
            rows = [state.rows[key] for key in group]
            values.update(zip(group, evaluate(state, self.metric, rows)))
        return {key: values[key] for key in keys}

    def _route_result(
        self,
        planned: PlannedQuery,
        result: QueryResult,
        states: dict[ViewKey, ViewState],
        reference_mode: ReferenceMode,
    ) -> None:
        """Feed one query result into every view it serves.

        Routes are grouped by the state table they feed: the flags are read
        once, a dimension's keys are decoded once, and a table's routed
        aggregates are folded as one stack.
        """
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

        grouped: dict[tuple[ViewState, str], list[ViewRoute]] = {}
        for route in planned.routes:
            state = states.get(route.view.key)
            if state is not None:
                grouped.setdefault((state, route.side), []).append(route)
        codes: dict[str, np.ndarray] = {}
        for (state, side), routes in grouped.items():
            dimension = routes[0].dim_column
            if dimension not in codes:
                codes[dimension] = state.codes(np.asarray(result.groups[dimension]))
            rows = np.array([state.rows[route.view.key] for route in routes])
            agg = np.array(
                [result.values[route.agg_alias] for route in routes], dtype=np.float64
            )
            for name, groups in feeds[side]:
                partial = getattr(state, name)
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
        pruner: Pruner,
        active: dict[ViewKey, AggregateView],
        k: int,
        stable_phases: int,
        config: EngineConfig,
    ) -> bool:
        """Early-return condition (COMB_EARLY): top-k already determined.

        Any of: the pruner formally certifies a top-k set (CI interval
        separation, or k MAB accepts); only k candidates remain active; or
        the estimate-ranked top-k has been stable for
        ``early_stability_phases`` consecutive boundaries.
        """
        if pruner.top_k_set() is not None:
            return True
        if len(active) <= k:
            return True
        return stable_phases >= max(config.early_stability_phases, 1)

    def _finalize(
        self,
        states: dict[ViewKey, ViewState],
        active: dict[ViewKey, AggregateView],
        pruner: Pruner,
        k: int,
    ) -> tuple[list[ViewKey], dict[ViewKey, float], dict[ViewKey, ViewDistributions]]:
        accepted = pruner.accepted
        # View order, never a set's: exact ties must rank the same under any
        # PYTHONHASHSEED.
        candidates = list(active) + sorted(accepted.difference(active))
        results = self._per_view(states, candidates, ViewState.utility)
        utilities = {key: value for key, (value, _) in results.items()}
        distributions = {key: dists for key, (_, dists) in results.items()}
        ranked = (
            [key for key in candidates if key in accepted]
            if pruner.name == "random"
            else candidates
        )
        selected = sorted(ranked, key=lambda key: -utilities[key])[:k]
        return selected, utilities, distributions
