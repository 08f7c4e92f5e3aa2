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

A request whose reference side is held table state (reference "all" on an
engine without the §4.1 rewrite) has no :class:`ViewState`: the engine keeps
each ``(d,)`` cell's reference rows finalized and normalized
(:func:`hold_reference_rows`, once per table identity), and a :class:`HeldLayout`
— the same tables, built once per view set and table identity — scores a
fresh target partial per table against a stack of them.

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
    func: AggregateFunction, n_slots: int, codes: np.ndarray, values: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, q)`` of a reference side folded from one held ``(d,)`` cell:
    the slots present, and the finalized values compacted to them and
    normalized (empty if none is).  This is the split path's arithmetic for a
    one-row table, so a stack of these rows has the stack's bits."""
    partial = SidePartial(func, 1, n_slots)
    row = np.zeros(1, dtype=np.intp)
    partial.update(row, codes, values[None], counts, unique=True)
    slots = np.flatnonzero(partial.counts[0] > 0)
    if not len(slots):
        return slots, np.zeros(0)
    return slots, normalize_distribution(np.take(partial.values(row), slots, axis=1))[0]


def aggregate_columns(cell: dict[str, np.ndarray]) -> list[str]:
    """A held cell's aggregate columns in column order (``list`` is an atomic
    copy): row ``i`` of a one-key cell's ``__q__`` is the ``i``-th's reference row."""
    return [name for name in list(cell) if not name.startswith("__")]


def hold_reference_rows(cell: dict, funcs: dict, categories: np.ndarray) -> None:
    """Append to the one-key ``cell``'s ``__q__`` a :func:`reference_row` for each
    aggregate column without one (``funcs``: alias -> function) — a column filled
    again keeps its row — and set ``__slots__`` and ``__keys__`` on the first."""
    held = len(cell.get("__q__", ()))
    codes, counts = cell["__codes__"], cell["__group_count__"]
    rows = [
        reference_row(funcs[name], len(categories), codes, cell[name], counts)
        for name in aggregate_columns(cell)[held:]
    ]
    if rows:
        slots, q = rows[0][0], np.array([row for _, row in rows])
        cell.setdefault("__slots__", slots)
        cell.setdefault("__keys__", categories[slots])
        cell["__q__"] = np.concatenate((cell["__q__"], q)) if held else q


class _StateTable:
    """The views of one dimension and aggregate function; ``rows`` maps each to its row."""

    def __init__(self, views: Sequence[AggregateView], categories: np.ndarray) -> None:
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

    def codes(self, keys: np.ndarray) -> np.ndarray:
        """Map group key values to dictionary codes (categories are sorted)."""
        return np.searchsorted(self.categories, keys)


class StateLayout:
    """Where the views of one view set keep their state: one table per
    (dimension, function) in view order — ``groups`` — and each view key's
    ``(table, row)`` — ``places``.  It reads no category, so an engine keeps one
    per view set and planning catalog, and builds a plan skeleton's route tables
    against it (:class:`~repro.core.sharing.RouteTable`)."""

    def __init__(self, views: Sequence[AggregateView]) -> None:
        self.views = tuple(views)
        grouped: dict[tuple, list[AggregateView]] = {}
        for view in views:
            grouped.setdefault((view.dimension, view.func), []).append(view)
        self.groups = tuple(grouped.values())
        self.places = {
            view.key: (table, row)
            for table, group in enumerate(self.groups)
            for row, view in enumerate(group)
        }

    def tables(self, cls, categories) -> list:
        """A ``cls`` table per group, in order: ``categories(d)`` are its slots."""
        return [cls(group, categories(group[0].dimension)) for group in self.groups]


def _flat(keys: tuple) -> tuple[float, ViewDistributions]:
    """A view with an empty side: utility 0 (no evidence yet), uniform sides."""
    keys = keys or ("?",)
    flat = np.full(len(keys), 1.0 / len(keys))
    return 0.0, ViewDistributions(keys, flat, flat.copy())


class ViewState(_StateTable):
    """Running target/reference partials of the views that share one
    dimension and one aggregate function: the split path's state."""

    def __init__(self, views: Sequence[AggregateView], categories: np.ndarray) -> None:
        super().__init__(views, categories)
        self.target, self.reference = (
            SidePartial(views[0].func, len(views), len(categories)) for _ in range(2)
        )

    def _stacks(self, rows: Sequence[int]):
        """``(positions, keys, p, q)`` per distinct presence pattern among
        ``rows``: the positions in ``rows`` that share it, the categories present
        on either side, and both sides finalized, compacted to those slots and
        normalized as one stack — ``None`` while a side is still empty.
        """
        rows = np.asarray(rows)
        target_present = self.target.counts[rows] > 0
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
            mask = target_present[first] | reference_present[first]
            keys, slots = self.categories[mask], np.flatnonzero(mask)
            if not (target_present[first].any() and reference_present[first].any()):
                yield positions, keys, None, None
                continue
            p = normalize_distribution(np.take(self.target.values(stack), slots, axis=1))
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
                for position in positions:
                    out[position] = _flat(keys)
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


class HeldTable(_StateTable):
    """A table of a :class:`HeldLayout`: its ``views``, their ``aliases`` and,
    once read, the ``(d,)`` cell's slots, keys and rows of its ``__q__`` stack."""

    def __init__(self, views: Sequence[AggregateView], categories: np.ndarray) -> None:
        super().__init__(views, categories)
        self.dimension, self.func, self.views = views[0].dimension, views[0].func, tuple(views)
        self.aliases = tuple(view.agg_alias for view in views)
        self.alias_set, self.every_row = frozenset(self.aliases), np.arange(len(views))
        self._held: tuple | None = None

    def held(self, cell: dict[str, np.ndarray]) -> tuple[np.ndarray, tuple, np.ndarray]:
        """``(slots, keys, index)`` of ``cell``: ``index`` picks this table's
        rows of ``__q__`` (:func:`hold_reference_rows`), which only grows; a
        racing first read computes the same."""
        if self._held is None:
            names = aggregate_columns(cell)
            index = np.array([names.index(alias) for alias in self.aliases], dtype=np.intp)
            self._held = (cell["__slots__"], tuple(cell["__keys__"]), index)
        return self._held

    def utility(
        self, metric: DistanceFunction, target: SidePartial, cell: dict[str, np.ndarray]
    ) -> list[tuple[float, ViewDistributions]]:
        """:meth:`ViewState.utility` of every row against the held ``(d,)``
        ``cell``: the rows with a target are finalized, compacted to the cell's
        slots and normalized as one stack, and scored in one metric call against
        their rows of ``__q__``, taken as one stack.  A target's rows are a
        subset of the cell's, so the held slots are the union's."""
        slots, keys, index = self.held(cell)
        live = np.flatnonzero((target.counts > 0).any(axis=1)) if len(slots) else ()
        out: list = [None] * len(self.views)
        if len(live):
            p = normalize_distribution(np.take(target.values(live), slots, axis=1))
            q = np.take(cell["__q__"], index[live], axis=0)
            for row, value, p_row, q_row in zip(live.tolist(), metric(p, q).tolist(), p, q):
                out[row] = (value, ViewDistributions(keys, p_row, q_row))
        return [answer or _flat(keys) for answer in out]


class HeldLayout:
    """The request-independent half of a held run over one view set: a
    :class:`HeldTable` per table of its :class:`StateLayout` ``state_layout``,
    ``states`` mapping each view key to its table, and the ``order`` of each
    view's answer among the tables'.  The engine keeps one per view set and
    table identity."""

    def __init__(self, views: Sequence[AggregateView], categories) -> None:
        self.state_layout = StateLayout(views)
        self.views = self.state_layout.views
        self.tables: list[HeldTable] = self.state_layout.tables(HeldTable, categories)
        self.states = {key: table for table in self.tables for key in table.rows}
        position = {key: i for i, key in enumerate(self.states)}
        self.order = [position[view.key] for view in self.views]
