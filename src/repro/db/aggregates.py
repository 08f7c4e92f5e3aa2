"""Vectorized per-group aggregate computation and mergeable partials.

Two layers:

* :func:`compute_group_aggregate` — given dense group ids and a value array,
  compute one aggregate per group with numpy (``bincount`` for COUNT/SUM,
  ``ufunc.at`` for MIN/MAX).

* :class:`PartialAggregate` — the decomposed, *mergeable* form used by the
  phased execution framework (§3 "phase-based execution"): COUNT and SUM add
  across phases, MIN/MAX take elementwise extrema, and AVG is carried as
  (sum, count) and finalized only when a utility estimate is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.query import AggregateFunction
from repro.exceptions import QueryError


def compute_group_aggregate(
    func: AggregateFunction,
    group_ids: np.ndarray,
    n_groups: int,
    values: np.ndarray | None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """One aggregate value per group.

    ``group_ids`` are dense ids in ``range(n_groups)``; ``values`` is the
    row-aligned measure array (``None`` only for COUNT).  Empty groups get 0
    for COUNT/SUM and NaN for AVG/MIN/MAX.  ``counts`` is the per-group row
    count, ``np.bincount(group_ids, minlength=n_groups)``, for callers that
    already hold it: every aggregate over one key set shares that pass.
    """
    if values is not None:
        values = np.asarray(values, dtype=np.float64)
    elif func is not AggregateFunction.COUNT:
        raise QueryError(f"{func.value} requires a value array")
    if counts is None and func in (AggregateFunction.COUNT, AggregateFunction.AVG):
        counts = np.bincount(group_ids, minlength=n_groups)
    if func is AggregateFunction.COUNT:
        return counts.astype(np.float64)
    if func is AggregateFunction.SUM:
        return np.bincount(group_ids, weights=values, minlength=n_groups)
    if func is AggregateFunction.AVG:
        sums = np.bincount(group_ids, weights=values, minlength=n_groups)
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    if func is AggregateFunction.MIN:
        out = np.full(n_groups, np.inf)
        np.minimum.at(out, group_ids, values)
        out[np.isinf(out)] = np.nan
        return out
    if func is AggregateFunction.MAX:
        out = np.full(n_groups, -np.inf)
        np.maximum.at(out, group_ids, values)
        out[np.isinf(out)] = np.nan
        return out
    raise QueryError(f"unsupported aggregate function {func!r}")


@dataclass
class PartialAggregate:
    """Decomposed aggregate state for one (view side, measure) pair.

    Keys are group identifiers (any hashable — SeeDB uses the group's
    category value); the state per key is whatever the function needs to be
    merged across phases and finalized at the end.
    """

    func: AggregateFunction
    sums: dict[object, float]
    counts: dict[object, float]
    extrema: dict[object, float]

    @classmethod
    def empty(cls, func: AggregateFunction) -> "PartialAggregate":
        return cls(func=func, sums={}, counts={}, extrema={})

    def update(self, keys: np.ndarray, aggregated: np.ndarray, counts: np.ndarray) -> None:
        """Fold one phase's per-group results into the running state.

        ``keys``/``aggregated``/``counts`` are aligned per-group arrays from
        one :class:`~repro.db.query.QueryResult`: the group key values, the
        aggregate of *this phase's rows only*, and this phase's group row
        counts (needed to merge AVG).
        """
        func = self.func
        for i, key in enumerate(keys.tolist()):
            n = float(counts[i])
            if n == 0:
                continue
            agg = float(aggregated[i])
            self.counts[key] = self.counts.get(key, 0.0) + n
            if func in (AggregateFunction.SUM, AggregateFunction.COUNT):
                self.sums[key] = self.sums.get(key, 0.0) + agg
            elif func is AggregateFunction.AVG:
                self.sums[key] = self.sums.get(key, 0.0) + agg * n
            elif func is AggregateFunction.MIN:
                prev = self.extrema.get(key)
                self.extrema[key] = agg if prev is None else min(prev, agg)
            elif func is AggregateFunction.MAX:
                prev = self.extrema.get(key)
                self.extrema[key] = agg if prev is None else max(prev, agg)

    def merge(self, other: "PartialAggregate") -> None:
        """Fold another partial (same function) into this one."""
        if other.func is not self.func:
            raise QueryError(f"cannot merge {other.func} into {self.func}")
        for key, n in other.counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + n
        for key, s in other.sums.items():
            self.sums[key] = self.sums.get(key, 0.0) + s
        for key, x in other.extrema.items():
            prev = self.extrema.get(key)
            if prev is None:
                self.extrema[key] = x
            else:
                self.extrema[key] = (
                    min(prev, x) if self.func is AggregateFunction.MIN else max(prev, x)
                )

    def finalize(self) -> dict[object, float]:
        """Per-group final aggregate values from the running state."""
        func = self.func
        if func in (AggregateFunction.SUM, AggregateFunction.COUNT):
            return dict(self.sums)
        if func is AggregateFunction.AVG:
            return {
                key: self.sums.get(key, 0.0) / n
                for key, n in self.counts.items()
                if n > 0
            }
        return dict(self.extrema)

    def total_rows(self) -> float:
        return sum(self.counts.values())
