"""The SeeDB facade — the library's main entry point.

Wraps a database table in the full middleware stack (storage engine, cost
model, view generator, execution engine) and exposes
:meth:`SeeDB.recommend`, mirroring the paper's problem statement: given
query Q (a target predicate), reference D_R, utility metric, and k, return
the k aggregate views with the largest deviation-based utility.

Example::

    from repro import SeeDB
    from repro.data import build
    from repro.db.expressions import eq

    seedb = SeeDB.over_table(build("census"))
    result = seedb.recommend(target=eq("marital_status", "Unmarried"), k=5)
    print(result.describe())

:func:`tuned_config` is the paper's §5.3 setup, which every figure passes
explicitly; ``SeeDB(config=None)`` and the service run :func:`serving_config`.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import EngineConfig, StoreKind
from repro.core.cache import LruMemo, ViewResultCache
from repro.core.engine import EngineRun, ExecutionEngine, Parallelism, Strategy
from repro.core.result import Recommendation, RecommendationSet
from repro.core.sharing import ReferenceMode
from repro.core.view import AggregateView, ViewSpace
from repro.db.buffer import BufferPool
from repro.db.catalog import TableMeta
from repro.db.cost import CostModel
from repro.db.database import Database
from repro.db.expressions import Expression
from repro.db.query import AggregateFunction
from repro.db.storage import make_store
from repro.db.table import Table
from repro.exceptions import RecommendationError
from repro.metrics.base import DistanceFunction, get_metric


#: View spaces a ``SeeDB`` keeps, one per ``(dimensions, measures)`` restriction in use.
_MAX_VIEW_SPACES = 16


def tuned_config(store: StoreKind) -> EngineConfig:
    """The paper's tuned sharing settings (§5.3 "All Sharing Optimizations").

    ROW: combine all aggregates, bin-pack group-bys under the 10^4 budget,
    16 parallel queries.  COL: combine all aggregates, *no* group-by
    combining (their column store saw little gain), 16 parallel queries.
    """
    if store == "row":
        return EngineConfig(store="row", use_binpacking=True)
    return EngineConfig(store="col", use_binpacking=False, max_group_bys_per_query=1)


def serving_config(
    store: StoreKind, result_cache: bool = False, delta_cache: bool = False
) -> EngineConfig:
    """:func:`tuned_config` as served — the one place that default is decided.
    Here the group-by, not the scan, is the cost: the §4.1 rewrite is off (the
    reference side is engine-held table state), except under a delta cache,
    whose combined snapshots already maintain the reference half."""
    config = tuned_config(store).with_(result_cache=result_cache, delta_cache=delta_cache)
    return config.with_(combine_target_reference=config.keeps_delta_state())


class SeeDB:
    """Visualization recommendation middleware over one table.

    The library's main entry point: wraps a table in the full stack
    (storage engine, execution backend, cost model, view generator,
    execution engine) and answers the paper's problem statement — given a
    target predicate, reference, metric, and k, return the k aggregate
    views with the largest deviation-based utility.

    Example::

        from repro import SeeDB
        from repro.data import build_info

        table, spec = build_info("census", scale="smoke")
        with SeeDB.over_table(table, store="col") as seedb:
            result = seedb.recommend(target=spec.target_predicate(), k=5)
            print(result.describe())          # ranked views + latencies
            run = seedb.run_engine(spec.target_predicate(), k=5)
            print(run.cache_hits, run.stats.queries_issued)

    Construction knobs: ``config`` (an :class:`~repro.config.EngineConfig`
    — backend, sharing, pruning, ``result_cache``), ``metric`` (name or
    :class:`~repro.metrics.base.DistanceFunction`; the default of a call,
    which may name another), ``funcs`` (aggregate
    set F), ``buffer_pool``/``cost_model`` (I/O accounting), and
    ``result_cache`` (a shared
    :class:`~repro.core.cache.ViewResultCache` for cross-session reuse —
    see :mod:`repro.service`).  ``docs/api.md`` documents the full
    surface.
    """

    def __init__(
        self,
        database: Database,
        table_name: str,
        store: StoreKind = "col",
        config: EngineConfig | None = None,
        metric: str | DistanceFunction = "emd",
        funcs: Sequence[AggregateFunction] = (AggregateFunction.AVG,),
        buffer_pool: BufferPool | None = None,
        cost_model: CostModel | None = None,
        result_cache: ViewResultCache | None = None,
    ) -> None:
        self.database = database
        self.table = database.table(table_name)
        self.config = config or serving_config(store)
        if self.config.store != store:
            self.config = self.config.with_(store=store)
        self.metric = get_metric(metric) if isinstance(metric, str) else metric
        self.funcs = tuple(funcs)
        self.store = make_store(store, self.table, buffer_pool)
        self.cost_model = cost_model or CostModel.for_store(store)
        self.engine = ExecutionEngine(self.store, self.config, self.cost_model, result_cache)
        self._view_spaces = (self.engine.meta, LruMemo(_MAX_VIEW_SPACES))

    @classmethod
    def over_table(cls, table: Table, **kwargs: object) -> "SeeDB":
        """Convenience constructor: register ``table`` in a fresh database."""
        database = Database()
        database.register(table)
        return cls(database, table.name, **kwargs)  # type: ignore[arg-type]

    def close(self) -> None:
        """Release engine/backend resources (sqlite connections).  Idempotent."""
        self.engine.close()

    def __enter__(self) -> "SeeDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # view space
    # ------------------------------------------------------------------ #

    @property
    def meta(self) -> TableMeta:
        """The one catalog entry: the engine's (assign a new one there after an
        append; what was planned from the old one stays while the planning
        catalog is the same, :meth:`~repro.db.catalog.TableMeta.plans_like`)."""
        return self.engine.meta

    def view_space(
        self,
        dimensions: Sequence[str] | None = None,
        measures: Sequence[str] | None = None,
    ) -> ViewSpace:
        """Candidate views (A x M x F), optionally analyst-restricted.  The space
        of a restriction is kept (bounded) while ``meta`` is the same planning
        catalog: an append that brings no new category keeps it."""
        meta = self.meta
        known, spaces = self._view_spaces
        if known is not meta:
            if not known.plans_like(meta):
                spaces = LruMemo(_MAX_VIEW_SPACES)
            self._view_spaces = (meta, spaces)
        key = tuple(None if names is None else tuple(names) for names in (dimensions, measures))
        return spaces.get(key, lambda: ViewSpace.enumerate(meta, self.funcs, dimensions, measures))

    # ------------------------------------------------------------------ #
    # recommendation
    # ------------------------------------------------------------------ #

    def recommend(
        self,
        target: Expression,
        k: int = 10,
        reference: ReferenceMode = "all",
        reference_predicate: Expression | None = None,
        strategy: Strategy = "comb",
        pruner: str = "ci",
        dimensions: Sequence[str] | None = None,
        measures: Sequence[str] | None = None,
        parallelism: Parallelism = "modeled",
        metric: str | DistanceFunction | None = None,
    ) -> RecommendationSet:
        """Recommend the top-``k`` visualizations for target query ``target``
        by ``metric`` (default: the one this ``SeeDB`` was built with)."""
        metric = self._metric(metric)
        space = self.view_space(dimensions, measures)
        run = self.run_engine(
            target,
            k,
            reference=reference,
            reference_predicate=reference_predicate,
            strategy=strategy,
            pruner=pruner,
            views=space.views,
            parallelism=parallelism,
            metric=metric,
        )
        return self._to_recommendations(run, space, metric)

    def run_engine(
        self,
        target: Expression,
        k: int = 10,
        reference: ReferenceMode = "all",
        reference_predicate: Expression | None = None,
        strategy: Strategy = "comb",
        pruner: str = "ci",
        dimensions: Sequence[str] | None = None,
        measures: Sequence[str] | None = None,
        views: Sequence[AggregateView] | None = None,
        parallelism: Parallelism = "modeled",
        metric: str | DistanceFunction | None = None,
    ) -> EngineRun:
        """Lower-level entry point returning the raw :class:`EngineRun`; the
        table state the engine keeps serves every ``metric`` alike."""
        space = list(views) if views is not None else list(self.view_space(dimensions, measures))
        if not space:
            raise RecommendationError("empty view space")
        return self.engine.run(
            space,
            target,
            k=k,
            strategy=strategy,
            pruner=pruner,
            reference_mode=reference,
            reference_predicate=reference_predicate,
            parallelism=parallelism,
            metric=self._metric(metric),
        )

    def _metric(self, metric: str | DistanceFunction | None) -> DistanceFunction:
        """A call's metric: the constructor's unless the call names one."""
        if metric is None:
            return self.metric
        return get_metric(metric) if isinstance(metric, str) else metric

    def true_top_k(
        self,
        target: Expression,
        k: int,
        reference: ReferenceMode = "all",
        reference_predicate: Expression | None = None,
        dimensions: Sequence[str] | None = None,
        measures: Sequence[str] | None = None,
    ) -> EngineRun:
        """Exact top-k via a full, unpruned pass (ground truth for §5.4)."""
        return self.run_engine(
            target,
            k,
            reference=reference,
            reference_predicate=reference_predicate,
            strategy="sharing",
            pruner="none",
            dimensions=dimensions,
            measures=measures,
        )

    def _to_recommendations(
        self, run: EngineRun, space: ViewSpace, metric: DistanceFunction
    ) -> RecommendationSet:
        recommendations = []
        for rank, key in enumerate(run.selected, start=1):
            recommendations.append(
                Recommendation(
                    view=space.get(key),
                    utility=run.utilities[key],
                    distributions=run.distributions[key],
                    rank=rank,
                )
            )
        return RecommendationSet(
            recommendations=tuple(recommendations),
            k=run.k,
            strategy=run.strategy,
            pruner=run.pruner_name,
            metric=metric.name,
            modeled_latency=run.modeled_latency,
            wall_seconds=run.wall_seconds,
            queries_issued=run.stats.queries_issued,
            phases_executed=run.phases_executed,
        )
