"""Engine-wide configuration objects.

Two dataclasses hold every tunable in the system:

* :class:`CostModelConfig` — parameters of the deterministic cost model used
  to report simulated latencies (the substitution for the paper's Postgres /
  column-store testbed, see DESIGN.md §2).
* :class:`EngineConfig` — SeeDB execution-engine knobs: phases, sharing
  limits, memory budgets, pruning parameters.

Defaults mirror the paper's experimental setup: 10 execution phases, 16-way
parallelism (their 16-core Xeon), row-store group-by memory budget of 10^4
distinct groups and column-store budget of 10^2 (Figure 8a), and delta = 0.05
for the Hoeffding–Serfling confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

StoreKind = Literal["row", "col"]

#: Number of rows per physical page in both storage engines.  Chosen so that
#: page counts are large enough for LRU behaviour to matter in tests while
#: keeping per-page bookkeeping cheap.
DEFAULT_PAGE_ROWS = 4096

#: Paper's machine: 16 core Intel Xeon E5530.
DEFAULT_N_CORES = 16


@dataclass(frozen=True)
class CostModelConfig:
    """Parameters of the deterministic latency model.

    The model charges time per byte scanned (misses only — buffer-pool hits
    are charged a much cheaper rate), per query issued, and per group
    maintained during aggregation, then divides parallelizable work by the
    effective parallelism (with contention beyond ``n_cores``).

    Units are seconds; absolute values are calibrated so that unoptimized
    runs on Table-1-sized datasets land in the paper's "100s of seconds"
    regime for ROW and ~5x faster for COL.
    """

    #: Seconds to read one byte from "disk" (a buffer-pool miss).
    #: 8 ns/B ~ 125 MB/s sequential reads, 2015-era spinning disk.
    seconds_per_byte_miss: float = 8.0e-9
    #: Seconds to process one byte already cached in the buffer pool.
    seconds_per_byte_hit: float = 8.0e-10
    #: Fixed overhead per SQL query issued (parse/plan/optimize/round-trip).
    seconds_per_query: float = 0.02
    #: Seconds per (row, aggregate) pair processed by the executor.  Row
    #: stores pay tuple-at-a-time iteration; column stores execute
    #: vectorized, ~5x cheaper — the engine-architecture half of the paper's
    #: ROW/COL latency gap (the other half is bytes touched).
    row_seconds_per_agg_row: float = 2.0e-7
    col_seconds_per_agg_row: float = 4.0e-8
    #: Seconds per distinct group maintained in the hash table.
    seconds_per_group: float = 2.0e-7
    #: Extra multiplier on scan cost for every additional pass caused by
    #: group-by hash-table spills (multi-pass partitioned aggregation).
    spill_pass_penalty: float = 1.0
    #: Number of physical cores available for parallel query execution.
    n_cores: int = DEFAULT_N_CORES
    #: Quadratic contention coefficient applied when the number of parallel
    #: queries exceeds ``n_cores`` (models lock/buffer/cache-line contention,
    #: paper §4.1 "Parallel Query Execution").
    contention_coefficient: float = 0.08

    def effective_parallelism(self, n_parallel: int) -> float:
        """Return the speedup divisor for ``n_parallel`` concurrent queries.

        Below ``n_cores`` the divisor is ``n_parallel`` (linear scaling, as
        queries share buffer-pool pages).  Beyond it, contention grows
        quadratically, reproducing the U-shaped latency of Figure 7b.
        """
        if n_parallel < 1:
            raise ValueError(f"n_parallel must be >= 1, got {n_parallel}")
        capped = min(n_parallel, self.n_cores)
        excess = max(0, n_parallel - self.n_cores)
        contention = 1.0 + self.contention_coefficient * excess * excess / self.n_cores
        return capped / contention


@dataclass(frozen=True)
class EngineConfig:
    """SeeDB execution-engine configuration.

    Attributes mirror the knobs evaluated in the paper's Section 5 — the
    number of execution phases, how many aggregates may be combined into a
    single query, the group-by memory budgets per store, the degree of
    parallelism, pruning parameters — plus this reproduction's own levers:
    ``backend`` (execution engine) and ``result_cache`` (cross-session
    memoization).

    The dataclass is frozen; derive variants with :meth:`with_`.

    Example::

        from repro import EngineConfig

        config = EngineConfig(store="col", backend="sqlite")
        serial = config.with_(n_parallel_queries=1, result_cache=False)
        assert serial.group_budget() == config.col_group_budget

    Out-of-core streaming (chunked / memory-mapped tables, see
    :mod:`repro.db.chunks`) is controlled by three knobs::

        from repro import EngineConfig
        from repro.db.chunks import open_table

        table = open_table("datasets/air_chunks")       # memmap-backed
        # Cap chunk residency at 64 MB: the engine shrinks its streaming
        # granularity so one materialized chunk (all columns) fits.
        config = EngineConfig(store="col", memory_budget_bytes=64 << 20)
        # Or pin the granularity directly (rows per streamed chunk):
        config = config.with_(stream_chunk_rows=65_536)
        # Optionally snap phase boundaries to the chunk grid so no phase
        # ever splits a chunk (changes phase ranges, hence estimates):
        config = config.with_(chunk_aligned_phases=True)

    Results are *value-identical* across every streaming granularity —
    streaming changes peak memory and accounting, never answers.

    Every knob is documented inline below and in ``docs/api.md``.
    """

    #: Physical layout the underlying DBMS uses ("row" or "col").
    store: StoreKind = "row"
    #: Execution backend the engine ships queries to: "native" (the
    #: in-process numpy executor, with full cost accounting) or "sqlite"
    #: (an independent SQL engine executing the generated SQL text); see
    #: :mod:`repro.db.backends` for the registry.
    backend: str = "native"
    #: Number of equal partitions the phased framework splits the data into.
    n_phases: int = 10
    #: Maximum aggregate expressions merged into one SQL query (Fig. 7a
    #: sweeps this; None means "no limit", the paper's tuned ROW setting).
    max_aggregates_per_query: int | None = None
    #: Maximum number of group-by attributes merged into one query when the
    #: bin-packing optimizer is disabled (MAX_GB baseline of Fig. 8b).
    max_group_bys_per_query: int = 1
    #: Distinct-group memory budget for the row store (Fig. 8a cliff ~10^4).
    row_group_budget: int = 10_000
    #: Distinct-group memory budget for the column store (cliff ~10^2).
    col_group_budget: int = 100
    #: Use first-fit bin packing to combine group-bys under the budget.
    use_binpacking: bool = False
    #: Combine target and reference view into one grouped query.  Off: target
    #: queries only for reference "all" — the engine keeps that side as state.
    combine_target_reference: bool = True
    #: Number of view queries issued concurrently (paper finds ~n_cores best).
    n_parallel_queries: int = DEFAULT_N_CORES
    #: Memoize executed view-query results in a
    #: :class:`~repro.core.cache.ViewResultCache` keyed by (table
    #: identity+version, query plan, row range, backend semantics) and
    #: serve repeats from memory, skipping dispatch entirely.  Default
    #: **off** so benchmark ablations (Figures 5-9) keep measuring real
    #: execution; the serving layer (:mod:`repro.service`) turns it on and
    #: shares one cache across all sessions.
    result_cache: bool = False
    #: Keep per-query partial-aggregation state in a
    #: :class:`~repro.core.cache.DeltaStateCache` beside the result cache,
    #: so re-running a view after rows were *appended* restores the cached
    #: state and scans only the new chunks (bitwise-identical results to a
    #: full recompute — the streaming merge is exact by construction).
    #: Only effective together with ``result_cache``; default **off** for
    #: the same ablation-fidelity reason.  The serving layer turns it on.
    delta_cache: bool = False
    #: Rows per streamed chunk for out-of-core execution.  ``None`` (the
    #: default) defers to the table's own chunk layout: in-memory tables
    #: are scanned as one chunk; tables opened
    #: from an on-disk chunk store stream at their manifest's chunk size.
    #: Setting this forces chunk-at-a-time execution at the given
    #: granularity even on resident tables (exact same results — the
    #: streaming merge is value-identical by construction).
    stream_chunk_rows: int | None = None
    #: Soft cap, in bytes, on chunk data materialized in RAM at a time
    #: during streaming execution.  The engine divides it by the table's
    #: physical row width to derive (or shrink) the streaming chunk size;
    #: :attr:`repro.db.chunks.ResidencyTracker.peak_bytes` measures
    #: compliance.  ``None`` = no cap.
    memory_budget_bytes: int | None = None
    #: Snap phased-execution boundaries to the chunk grid
    #: (:func:`repro.core.phases.phase_ranges` ``align``), so no phase ever
    #: splits a chunk.  Default off: aligned boundaries differ from the
    #: paper's equal partitions, so runs would no longer be comparable
    #: against an unchunked table's.
    chunk_aligned_phases: bool = False
    #: Confidence parameter for Hoeffding–Serfling intervals (CI pruning).
    ci_delta: float = 0.05

    def group_budget(self) -> int:
        """Distinct-group budget for the configured store."""
        return self.row_group_budget if self.store == "row" else self.col_group_budget

    def keeps_delta_state(self) -> bool:
        """Whether a (native) engine under this config attaches a delta cache."""
        return self.result_cache and self.delta_cache

    def with_(self, **changes: object) -> "EngineConfig":
        """Return a copy with ``changes`` applied (convenience for sweeps)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass
class ExecutionStats:
    """Mutable accounting record filled in during query execution.

    One instance accumulates over a whole SeeDB invocation; the cost model
    converts it into a simulated latency.  ``wall_seconds`` additionally
    records real elapsed time of the in-memory engine for reference.
    """

    queries_issued: int = 0
    bytes_scanned_miss: int = 0
    bytes_scanned_hit: int = 0
    pages_hit: int = 0
    pages_missed: int = 0
    agg_rows_processed: int = 0
    groups_maintained: int = 0
    spill_passes: int = 0
    rows_scanned: int = 0
    wall_seconds: float = 0.0
    #: Queries served from the view-result cache instead of being executed
    #: (their scan/group counters above stay zero — hits are modeled free).
    cache_hits: int = 0
    #: Physical bytes the cache hits avoided re-scanning (the sum of the
    #: byte counters recorded when each hit entry was first executed).
    cache_bytes_saved: int = 0
    #: Queries whose execution was seeded from a cached partial-aggregation
    #: state (delta cache), so only rows past the cached prefix were scanned.
    delta_hits: int = 0
    #: (view, row range) reference rows read from engine state, not computed.
    reference_views_reused: int = 0
    #: (view, row range) target rows of a conjunction of one-category clauses
    #: read from engine state — a held (target columns, dimension) group-by —
    #: not computed.
    target_views_reused: int = 0
    #: Filled in per batch: lists of per-query serial costs, used to model
    #: parallel execution (queries in one batch run concurrently).
    batch_costs: list[list[float]] = field(default_factory=list)

    def merge(self, other: "ExecutionStats") -> None:
        """Fold ``other``'s counters into this record."""
        self.queries_issued += other.queries_issued
        self.bytes_scanned_miss += other.bytes_scanned_miss
        self.bytes_scanned_hit += other.bytes_scanned_hit
        self.pages_hit += other.pages_hit
        self.pages_missed += other.pages_missed
        self.agg_rows_processed += other.agg_rows_processed
        self.groups_maintained += other.groups_maintained
        self.spill_passes += other.spill_passes
        self.rows_scanned += other.rows_scanned
        self.wall_seconds += other.wall_seconds
        self.cache_hits += other.cache_hits
        self.cache_bytes_saved += other.cache_bytes_saved
        self.delta_hits += other.delta_hits
        self.reference_views_reused += other.reference_views_reused
        self.target_views_reused += other.target_views_reused
        self.batch_costs.extend(other.batch_costs)
