"""Aggregate views and the view space.

A view is the paper's triple ``(a, m, f)``: group by dimension ``a``,
aggregate measure ``m`` with function ``f``.  The view space enumerated for
a table is the cross product A x M x F, optionally restricted to
analyst-chosen attributes (the front end lets users steer, §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.db.catalog import TableMeta
from repro.db.query import AggregateFunction
from repro.exceptions import RecommendationError

#: Hashable identity of a view, used as dict key throughout the engine.
ViewKey = tuple[str, str, str]


@dataclass(frozen=True)
class AggregateView:
    """One candidate visualization: ``f(m)`` grouped by ``a``."""

    dimension: str
    measure: str
    func: AggregateFunction = AggregateFunction.AVG

    @cached_property
    def key(self) -> ViewKey:
        return (self.dimension, self.measure, self.func.value)

    @cached_property
    def agg_alias(self) -> str:
        """Output-column alias this view's aggregate uses in shared queries."""
        return f"{self.func.value.lower()}__{self.measure}"

    def describe(self) -> str:
        """Human-readable description, e.g. ``AVG(capital_gain) BY sex``."""
        return f"{self.func.value}({self.measure}) BY {self.dimension}"

    def __str__(self) -> str:
        return self.describe()


class ViewSpace:
    """The enumerated candidate views for one table."""

    def __init__(self, views: Sequence[AggregateView]) -> None:
        if not views:
            raise RecommendationError("view space is empty")
        keys = [v.key for v in views]
        if len(set(keys)) != len(keys):
            raise RecommendationError("duplicate views in view space")
        self._views = tuple(views)
        self._by_key = {v.key: v for v in self._views}

    @classmethod
    def enumerate(
        cls,
        meta: TableMeta,
        funcs: Iterable[AggregateFunction] = (AggregateFunction.AVG,),
        dimensions: Sequence[str] | None = None,
        measures: Sequence[str] | None = None,
    ) -> "ViewSpace":
        """Cross product of dimensions x measures x functions.

        ``dimensions``/``measures`` restrict the space (they must be subsets
        of the catalog's); the default uses everything the catalog declares.
        """
        dims = tuple(dimensions) if dimensions is not None else meta.dimensions
        meas = tuple(measures) if measures is not None else meta.measures
        unknown_dims = set(dims) - set(meta.dimensions)
        unknown_meas = set(meas) - set(meta.measures)
        if unknown_dims:
            raise RecommendationError(f"not dimension attributes: {sorted(unknown_dims)}")
        if unknown_meas:
            raise RecommendationError(f"not measure attributes: {sorted(unknown_meas)}")
        funcs = tuple(funcs)
        if not funcs:
            raise RecommendationError("at least one aggregate function required")
        views = [
            AggregateView(a, m, f) for a in dims for m in meas for f in funcs
        ]
        return cls(views)

    def __iter__(self) -> Iterator[AggregateView]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, key: object) -> bool:
        return key in self._by_key

    def get(self, key: ViewKey) -> AggregateView:
        try:
            return self._by_key[key]
        except KeyError:
            raise RecommendationError(f"no such view: {key!r}") from None

    @property
    def views(self) -> tuple[AggregateView, ...]:
        return self._views

    def dimensions(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for view in self._views:
            seen.setdefault(view.dimension, None)
        return tuple(seen)
