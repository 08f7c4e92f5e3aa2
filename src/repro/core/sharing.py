"""Sharing-based optimizations (paper §4.1): the query planner.

Given the set of views still alive, the planner emits the smallest set of
logical queries that serves them all, applying — each independently
switchable through :class:`~repro.config.EngineConfig` — the paper's four
sharing optimizations:

1. **Combine multiple aggregates**: all views sharing a group-by attribute
   merge their ``f(m)`` expressions into one query (chunked by the
   ``max_aggregates_per_query`` limit of Figure 7a's sweep).
2. **Combine multiple GROUP BYs**: dimension attributes are grouped —
   either naively in chunks of ``max_group_bys_per_query`` (the MAX_GB
   baseline of Figure 8b) or by first-fit bin packing under the store's
   memory budget (BP) — and one query groups by the whole set; the
   middleware later marginalizes each view's dimension back out, which is
   sound because COUNT/SUM/AVG/MIN/MAX are all decomposable.
3. **Combine target and reference**: instead of two predicated queries, one
   query adds a derived flag column (``CASE WHEN <target> THEN 1 ELSE 0
   END``) and groups by it.  Off, each view set gets a filter-first target
   query and a reference query — or the target query alone where the engine
   holds the reference side as state, and no query at all for the views whose
   target side it holds too (one-category clauses): the engine plans only
   the views left over, and fills held cells with :func:`plan_fill`.
4. **Parallelism** is not planned here — the engine batches the emitted
   queries ``n_parallel_queries`` at a time.

Each emitted :class:`PlannedQuery` carries routes telling the engine which
result columns feed which view's target/reference partial state.  The half of
a plan no target predicate enters — group-bys, aggregates, their fingerprint
head and the routes grouped per state table — is a skeleton the engine keeps
per view set and planning catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from repro.config import EngineConfig
from repro.core.binpack import pack_dimensions
from repro.core.cache import LruMemo, plan_fingerprint
from repro.core.state import StateLayout
from repro.core.view import AggregateView
from repro.db.catalog import TableMeta
from repro.db.expressions import Arithmetic, CaseWhen, Expression, Lit, Not, Or
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    DerivedColumn,
)
from repro.exceptions import RecommendationError

#: Name of the derived target/reference flag column in combined queries.
FLAG_ALIAS = "seedb_flag"

ReferenceMode = Literal["all", "complement", "query"]
Side = Literal["both", "target", "reference"]


@dataclass(frozen=True)
class ViewRoute:
    """How one view reads its numbers out of one query's result."""

    view: AggregateView
    dim_column: str
    agg_alias: str
    side: Side


class RouteTable:
    """One skeleton query's ``routes`` of one side, grouped by the state table
    they feed: per table of a :class:`~repro.core.state.StateLayout`,
    ``(table, side, dimension, rows, aliases)`` — the routed views' rows of that
    table and their result columns, in route order.  It keeps the grouping of
    the layout it was last asked for."""

    __slots__ = ("routes", "_last")

    def __init__(self, routes: tuple[ViewRoute, ...]) -> None:
        self.routes = routes
        self._last: tuple | None = None

    def of(self, layout: StateLayout) -> tuple[tuple, ...]:
        """The grouping against ``layout`` (a view it does not place is skipped)."""
        last = self._last  # read once: a request on another layout may replace it
        if last is None or last[0] is not layout:
            grouped: dict[tuple[int, Side], list[tuple[int, ViewRoute]]] = {}
            for route in self.routes:
                place = layout.places.get(route.view.key)
                if place is not None:
                    grouped.setdefault((place[0], route.side), []).append((place[1], route))
            last = self._last = (
                layout,
                tuple(
                    (
                        table,
                        side,
                        routes[0][1].dim_column,
                        np.array([row for row, _ in routes]),
                        tuple(route.agg_alias for _, route in routes),
                    )
                    for (table, side), routes in grouped.items()
                ),
            )
        return last[1]


@dataclass(frozen=True)
class PlannedQuery:
    """One logical query plus the views it serves."""

    query: AggregateQuery
    routes: tuple[ViewRoute, ...]
    #: Present when target and reference are combined via a flag column.
    flag_alias: str | None
    #: "one_bit" flag (1 = target row) or "two_bit" (2*target + reference).
    flag_kind: str | None
    #: :func:`~repro.core.cache.plan_fingerprint` of ``query``, kept with the skeleton.
    head: str
    #: ``routes`` grouped per state table, kept with the skeleton (none for a fill).
    tables: RouteTable | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SharingPlan:
    """The full set of queries for one phase."""

    queries: tuple[PlannedQuery, ...]

    def __len__(self) -> int:
        return len(self.queries)


def plan_queries(
    views: Sequence[AggregateView],
    meta: TableMeta,
    config: EngineConfig,
    target_predicate: Expression,
    reference_mode: ReferenceMode = "all",
    reference_predicate: Expression | None = None,
    reference_held: bool = False,
    skeletons: LruMemo | None = None,
) -> SharingPlan:
    """Plan the query set serving ``views`` under ``config``.

    ``reference_mode`` selects the paper's three reference options: the
    whole dataset ("all", the default D_R = D), the complement
    ("complement", D - D_Q), or an arbitrary query ("query", D_Q' — needs
    ``reference_predicate``).  ``reference_held`` plans the split path's
    target queries only: the caller keeps the reference side as state (and
    passes only the views whose target side it does not hold).

    ``skeletons`` keeps the target-free half of a plan (:func:`_skeleton`) per
    (view keys, config, sides); the caller owns it and drops it when the
    planning catalog (:meth:`~repro.db.catalog.TableMeta.plans_like`) changes.
    """
    if not views:
        return SharingPlan(())
    if reference_mode == "query" and reference_predicate is None:
        raise RecommendationError("reference_mode='query' requires reference_predicate")
    sides: tuple[Side, ...] = ("target",) if reference_held else ("target", "reference")
    if config.combine_target_reference:
        sides = ("both",)
    if skeletons is None:
        skeleton = _skeleton(views, meta, config, sides)
    else:
        key = (tuple(view.key for view in views), config, sides)
        skeleton = skeletons.get(key, lambda: _skeleton(views, meta, config, sides))

    name, budget = meta.name, config.group_budget()
    if config.combine_target_reference:
        derived, where, flag_kind = _combined_flag(
            target_predicate, reference_mode, reference_predicate
        )
        return SharingPlan(
            tuple(
                PlannedQuery(
                    AggregateQuery(
                        name, group_by, aggregates, where, (derived,), group_budget=budget
                    ),
                    tables.routes,
                    FLAG_ALIAS,
                    flag_kind,
                    head,
                    tables,
                )
                for group_by, aggregates, head, (tables,) in skeleton
            )
        )
    predicates = [target_predicate]
    if not reference_held:
        predicates.append(
            _reference_only_predicate(target_predicate, reference_mode, reference_predicate)
        )
    return SharingPlan(
        tuple(
            PlannedQuery(
                AggregateQuery(name, group_by, aggregates, predicate, group_budget=budget),
                tables.routes,
                None,
                None,
                head,
                tables,
            )
            for group_by, aggregates, head, by_side in skeleton
            for predicate, tables in zip(predicates, by_side)
        )
    )


def _skeleton(
    views: Sequence[AggregateView], meta: TableMeta, config: EngineConfig, sides: tuple[Side, ...]
) -> tuple[tuple, ...]:
    """The target-free half of a plan: per dimension group and aggregate chunk,
    the group-by (the flag column last when ``sides`` is ``("both",)``), the
    aggregate columns, their :func:`~repro.core.cache.plan_fingerprint` and a
    :class:`RouteTable` for each of ``sides``."""
    views_by_dim: dict[str, list[AggregateView]] = {}
    for view in views:
        views_by_dim.setdefault(view.dimension, []).append(view)
    flag = (FLAG_ALIAS,) if sides == ("both",) else ()
    skeleton = []
    for dim_group in _group_dimensions(list(views_by_dim), meta, config):
        for chunk in _chunk_aggregates(
            [v for d in dim_group for v in views_by_dim[d]], config.max_aggregates_per_query
        ):
            group_by, aggregates = (*dim_group, *flag), _aggregate_specs(chunk)
            tables = tuple(
                RouteTable(
                    tuple(ViewRoute(view, view.dimension, view.agg_alias, side) for view in chunk)
                )
                for side in sides
            )
            skeleton.append(
                (group_by, aggregates, plan_fingerprint(meta.name, group_by, aggregates), tables)
            )
    return tuple(skeleton)


def plan_fill(
    group_by: tuple[str, ...], views: Sequence[AggregateView], table: str, budget: int
) -> PlannedQuery:
    """The canonical query of one held cell: ``views``' aggregates over every row,
    grouped by their dimension alone (the reference side) or under target
    columns ``X[, Y …]`` (the target side of every ``X = x [AND Y = y …]``),
    whatever the config would bin-pack.  Aggregate columns are computed
    independently, so a cell's bits depend on table and range alone.  The
    engine stores the result: no routes."""
    query = AggregateQuery(table, group_by, _aggregate_specs(views), group_budget=budget)
    return PlannedQuery(
        query, (), None, None, plan_fingerprint(table, query.group_by, query.aggregates)
    )


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #


def _group_dimensions(
    dimensions: list[str], meta: TableMeta, config: EngineConfig
) -> list[list[str]]:
    if config.use_binpacking:
        return pack_dimensions(dimensions, meta.distinct_counts, config.group_budget())
    size = max(config.max_group_bys_per_query, 1)
    return [dimensions[i : i + size] for i in range(0, len(dimensions), size)]


def _chunk_aggregates(
    group_views: list[AggregateView], max_aggregates: int | None
) -> list[list[AggregateView]]:
    """Split a dimension group's views by the aggregates-per-query limit.

    Views are keyed by their (func, measure) aggregate; several views (one
    per dimension in the group) may share one aggregate, so the limit
    applies to *distinct* aggregates, not views.
    """
    agg_order: dict[str, list[AggregateView]] = {}
    for view in group_views:
        agg_order.setdefault(view.agg_alias, []).append(view)
    aliases = list(agg_order)
    if max_aggregates is None or max_aggregates <= 0:
        return [group_views]
    chunks = []
    for i in range(0, len(aliases), max_aggregates):
        chunk_aliases = aliases[i : i + max_aggregates]
        chunks.append([v for alias in chunk_aliases for v in agg_order[alias]])
    return chunks


def _aggregate_specs(chunk_views: Sequence[AggregateView]) -> tuple[AggregateSpec, ...]:
    """Distinct aggregate output columns needed by the chunk's views."""
    specs: dict[str, AggregateSpec] = {}
    for view in chunk_views:
        if view.agg_alias in specs:
            continue
        if view.func is AggregateFunction.COUNT:
            specs[view.agg_alias] = AggregateSpec(AggregateFunction.COUNT, None, view.agg_alias)
        else:
            specs[view.agg_alias] = AggregateSpec(view.func, view.measure, view.agg_alias)
    return tuple(specs.values())


def _combined_flag(
    target_predicate: Expression,
    reference_mode: ReferenceMode,
    reference_predicate: Expression | None,
) -> tuple[DerivedColumn, Expression | None, str]:
    """Derived flag column + row filter for a combined query.

    * "all"/"complement": one bit — 1 marks target rows; the engine reads
      reference mass from both flag groups ("all") or flag 0 only
      ("complement").  No WHERE clause: every row contributes somewhere.
    * "query": two bits — ``2*[target] + [reference]``; rows matching
      neither predicate are filtered out by WHERE.
    """
    target_bit = CaseWhen(target_predicate, Lit(1), Lit(0))
    if reference_mode in ("all", "complement"):
        return DerivedColumn(FLAG_ALIAS, target_bit), None, "one_bit"
    assert reference_predicate is not None
    reference_bit = CaseWhen(reference_predicate, Lit(1), Lit(0))
    two_bit = Arithmetic(
        "+", Arithmetic("*", Lit(2), target_bit), reference_bit
    )
    where = Or((target_predicate, reference_predicate))
    return DerivedColumn(FLAG_ALIAS, two_bit), where, "two_bit"


def _reference_only_predicate(
    target_predicate: Expression,
    reference_mode: ReferenceMode,
    reference_predicate: Expression | None,
) -> Expression | None:
    if reference_mode == "all":
        return None
    if reference_mode == "complement":
        return Not(target_predicate)
    return reference_predicate
