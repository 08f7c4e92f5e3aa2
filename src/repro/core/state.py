"""Partial-result state for the phased framework: one table per dimension.

Every candidate view that shares a dimension and an aggregate function —
same categories, same group keys, same update rule — is one *row* of one
:class:`ViewState`: mergeable partial aggregates for the target and the
reference side, shape ``(n_views, n_slots)``, updated after every phase and
read back as utility estimates ("partial results for each aggregate view on
the fractions from 1 through i are used to estimate the quality of each
view", paper §3).  A query result already carries all of a dimension's
measures, so it is decoded, masked and folded once per table, and presence,
the union mask, finalization, normalization and the metric
(:class:`~repro.metrics.base.DistanceFunction` takes the stack and validates
it once) are computed once per stack.

Slot ``i`` is the dimension's i-th global dictionary code (stable across
phases because :meth:`repro.db.table.Table.dictionary` is computed once over
the whole table).  Updates are vectorized.  Only the results
:meth:`~repro.core.engine.ExecutionEngine._route_result` routes may repeat a
code — a multi-attribute group-by marginalized back down to the view's single
dimension — and they fold with ``np.add.at`` / ``np.minimum.at``, so duplicate
codes simply accumulate, per row in group order.  A held cell's slice has one
group per code and folds by fancy indexing: the same arithmetic, element for
element.

A table whose reference side is held table state (reference "all" on an
engine without the §4.1 rewrite) has no reference partial: the engine keeps
each ``(d,)`` cell's reference rows finalized and normalized
(:func:`reference_row`, once per table identity), and :meth:`ViewState.hold`
hands them to the table's rows.

Each row keeps its own ``counts`` although live rows receive identical
ones: a pruned view's row just stops being updated (and is never read
again), so no row's presence depends on which of its neighbours survive.

Row ``r`` of every stacked result equals, bit for bit, what a one-row table
fed the same updates computes.  That rests on one layout rule: a stack is
compacted to its present slots with ``np.take(..., axis=1)``, which returns
C-contiguous rows.  ``values[:, mask]`` returns a transposed layout whose
``sum(axis=1)`` adds in a different order than the 1-D pairwise sum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.difference import ViewDistributions
from repro.core.view import AggregateView, ViewKey
from repro.db.query import AggregateFunction
from repro.exceptions import RecommendationError
from repro.metrics.base import DistanceFunction
from repro.metrics.normalize import normalize_distribution


def _fold(ufunc: np.ufunc):
    """``ufunc.at`` for an index that repeats no element, by fancy indexing."""

    def apply(array: np.ndarray, index: tuple, values: np.ndarray) -> None:
        array[index] = ufunc(array[index], values)

    return apply


#: ``(add, minimum, maximum)`` folds for codes that repeat, and for codes that do not.
_REPEATED = (np.add.at, np.minimum.at, np.maximum.at)
_UNIQUE = (_fold(np.add), _fold(np.minimum), _fold(np.maximum))


class SidePartial:
    """Mergeable aggregate state of one side (target or reference).

    One row per view, one slot per dictionary category.  COUNT/SUM
    accumulate sums; AVG carries (weighted sum, count); MIN/MAX keep running
    extrema.  ``counts`` doubles as the presence indicator.
    """

    __slots__ = ("func", "sums", "counts", "extrema")

    def __init__(self, func: AggregateFunction, n_views: int, n_slots: int) -> None:
        self.func = func
        self.sums = np.zeros((n_views, n_slots))
        self.counts = np.zeros((n_views, n_slots))
        if func is AggregateFunction.MIN:
            self.extrema = np.full((n_views, n_slots), np.inf)
        elif func is AggregateFunction.MAX:
            self.extrema = np.full((n_views, n_slots), -np.inf)
        else:
            self.extrema = None  # type: ignore[assignment]

    def update(
        self,
        rows: np.ndarray,
        codes: np.ndarray,
        aggregated: np.ndarray,
        counts: np.ndarray,
        unique: bool = False,
    ) -> None:
        """Fold one query result into ``rows``: ``aggregated[i, g]`` is row
        ``rows[i]``'s aggregate over group ``g``, which has dictionary code
        ``codes[g]`` and ``counts[g]`` rows.  ``unique`` promises no code
        repeats: the fold is then fancy-index arithmetic, the bits of the
        ``ufunc.at`` it replaces without its per-element loop."""
        if len(codes) == 0:
            return
        index = (rows[:, None], codes)
        add, low, high = _UNIQUE if unique else _REPEATED
        add(self.counts, index, counts)
        func = self.func
        if func in (AggregateFunction.SUM, AggregateFunction.COUNT):
            add(self.sums, index, aggregated)
        elif func is AggregateFunction.AVG:
            add(self.sums, index, aggregated * counts)
        elif func is AggregateFunction.MIN:
            low(self.extrema, index, aggregated)
        elif func is AggregateFunction.MAX:
            high(self.extrema, index, aggregated)

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Finalized per-slot aggregates of ``rows`` (0 where absent)."""
        func = self.func
        if func in (AggregateFunction.SUM, AggregateFunction.COUNT):
            return self.sums[rows]
        if func is AggregateFunction.AVG:
            counts = self.counts[rows]
            return np.where(counts > 0, self.sums[rows] / np.maximum(counts, 1), 0.0)
        extrema = self.extrema[rows]
        return np.where(np.isfinite(extrema), extrema, 0.0)


def reference_row(
    func: AggregateFunction,
    n_slots: int,
    codes: np.ndarray,
    aggregated: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, q)`` of a reference side folded from one held ``(d,)`` cell:
    the slots present, and the finalized values compacted to them and
    normalized (empty if none is).  This is the split path's arithmetic for a
    one-row table, so a stack of these rows has the stack's bits."""
    partial = SidePartial(func, 1, n_slots)
    row = np.zeros(1, dtype=np.intp)
    partial.update(row, codes, aggregated[None], counts, unique=True)
    slots = np.flatnonzero(partial.counts[0] > 0)
    if not len(slots):
        return slots, np.zeros(0)
    return slots, normalize_distribution(np.take(partial.values(row), slots, axis=1))[0]


class ViewState:
    """Running target/reference partials of the views that share one
    dimension and one aggregate function; ``rows`` maps each to its row.

    With ``held`` the reference side is table state: there is no reference
    partial, and :meth:`hold` gives the rows their held reference rows."""

    def __init__(
        self, views: Sequence[AggregateView], categories: np.ndarray, held: bool = False
    ) -> None:
        if len({(view.dimension, view.func) for view in views}) != 1:
            raise RecommendationError(
                "a state table holds views of one dimension and one aggregate function"
            )
        if len(categories) == 0:
            raise RecommendationError(
                f"view {views[0].describe()} has a dimension with no categories"
            )
        self.categories = categories
        self.rows: dict[ViewKey, int] = {view.key: i for i, view in enumerate(views)}
        self.target = SidePartial(views[0].func, len(views), len(categories))
        self.reference = (
            None if held else SidePartial(views[0].func, len(views), len(categories))
        )
        #: A held reference side: its slots, keys and each row's ``q``.
        self._slots = self._keys = None
        self._q: list[np.ndarray | None] = [None] * len(views)

    def codes(self, keys: np.ndarray) -> np.ndarray:
        """Map group key values to dictionary codes (categories are sorted)."""
        return np.searchsorted(self.categories, keys)

    def hold(self, rows: Sequence[int], cell: dict[str, np.ndarray], aliases: Sequence[str]) -> None:
        """Read ``rows``' reference side from the held ``(d,)`` ``cell``: its
        ``__slots__`` and ``__keys__``, and for ``rows[i]`` the normalized row
        ``q:`` + ``aliases[i]`` (:func:`reference_row`).  Every target row is a
        subset of the rows the cell was filled from, so the held slots are the
        union's."""
        self._slots, self._keys = cell["__slots__"], cell["__keys__"]
        for row, alias in zip(rows, aliases):
            self._q[row] = cell[f"q:{alias}"]

    def _stacks(self, rows: Sequence[int]):
        """``(positions, keys, p, q)`` per distinct presence pattern among
        ``rows``: the positions in ``rows`` that share it, the categories present
        on either side, and both sides finalized, compacted to those slots and
        normalized as one stack — ``None`` while a side is still empty.
        """
        rows = np.asarray(rows)
        held = self.reference is None
        target_present = self.target.counts[rows] > 0
        if held:
            present = target_present
        else:
            reference_present = self.reference.counts[rows] > 0
            present = np.concatenate((target_present, reference_present), axis=1)
        patterns: dict[bytes, list[int]] = {}
        if len(rows) and (present == present[0]).all():  # unless a table is half-empty
            patterns[b""] = list(range(len(rows)))
        else:
            for i in range(len(rows)):
                patterns.setdefault(present[i].tobytes(), []).append(i)
        for positions in patterns.values():
            first = positions[0]
            stack = rows[positions]
            if held:
                keys, slots = self._keys, self._slots
                reference_any = len(slots) > 0
            else:
                mask = target_present[first] | reference_present[first]
                keys, slots = self.categories[mask], np.flatnonzero(mask)
                reference_any = reference_present[first].any()
            if not (target_present[first].any() and reference_any):
                yield positions, keys, None, None
                continue
            p = normalize_distribution(np.take(self.target.values(stack), slots, axis=1))
            if held:
                q = np.array([self._q[row] for row in stack])
            else:
                q = normalize_distribution(np.take(self.reference.values(stack), slots, axis=1))
            yield positions, keys, p, q

    def utility(
        self, metric: DistanceFunction, rows: Sequence[int]
    ) -> list[tuple[float, ViewDistributions]]:
        """Utility of each of ``rows`` from everything accumulated so far
        (paper §2), with the distributions behind it.

        Slots present on either side are aligned by construction (both
        partials are indexed by the same dictionary), normalized, and fed to
        the metric.  A view with an empty side has utility 0 — no evidence
        of deviation yet.
        """
        out: list = [None] * len(rows)
        for positions, keys, p, q in self._stacks(rows):
            keys = tuple(keys)
            if p is None:
                keys = keys or ("?",)
                for position in positions:
                    flat = np.full(len(keys), 1.0 / len(keys))
                    out[position] = (0.0, ViewDistributions(keys, flat, flat.copy()))
                continue
            for i, (position, value) in enumerate(zip(positions, metric(p, q).tolist())):
                out[position] = (value, ViewDistributions(keys, p[i], q[i]))
        return out

    def record_estimate(self, metric: DistanceFunction, rows: Sequence[int]) -> list[float]:
        """:meth:`utility`'s current value for each of ``rows`` (no key
        tuple, no distributions: a phase estimate shows neither)."""
        out = [0.0] * len(rows)
        for positions, _, p, q in self._stacks(rows):
            if p is not None:
                for position, value in zip(positions, metric(p, q).tolist()):
                    out[position] = value
        return out
