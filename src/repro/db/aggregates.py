"""Vectorized per-group aggregate computation.

:func:`compute_group_aggregate` — given dense group ids and a value array,
compute one aggregate per group with numpy (``bincount`` for COUNT/SUM,
``ufunc.at`` for MIN/MAX).  The mergeable forms live with their users:
:class:`~repro.db.streaming.StreamingGroupAggregator` across chunks,
:class:`~repro.core.state.ViewState` across phases.
"""

from __future__ import annotations

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
