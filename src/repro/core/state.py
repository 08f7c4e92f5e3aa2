"""Per-view partial-result state for the phased framework.

Each candidate view owns one :class:`ViewState`: mergeable partial
aggregates for its target and reference sides, updated after every phase,
plus the history of utility estimates the pruners consume (one estimate per
phase, computed from everything accumulated so far — "partial results for
each aggregate view on the fractions from 1 through i are used to estimate
the quality of each view", paper §3).

Partials are *array-backed*, indexed by the dimension's global dictionary
code (stable across phases because :meth:`repro.db.table.Table.dictionary`
is computed once over the whole table).  Updates are vectorized
(``np.add.at`` / ``np.minimum.at``), which also makes marginalizing a
multi-attribute group-by back down to the view's single dimension free:
duplicate codes simply accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.difference import ViewDistributions
from repro.core.view import AggregateView
from repro.db.query import AggregateFunction
from repro.exceptions import RecommendationError
from repro.metrics.base import DistanceFunction
from repro.metrics.normalize import normalize_distribution


class SidePartial:
    """Mergeable aggregate state for one side (target or reference).

    Slot ``i`` corresponds to the dimension's i-th dictionary category.
    COUNT/SUM accumulate sums; AVG carries (weighted sum, count); MIN/MAX
    keep running extrema.  ``counts`` doubles as the presence indicator.
    """

    __slots__ = ("func", "sums", "counts", "extrema")

    def __init__(self, func: AggregateFunction, n_slots: int) -> None:
        self.func = func
        self.sums = np.zeros(n_slots)
        self.counts = np.zeros(n_slots)
        if func is AggregateFunction.MIN:
            self.extrema = np.full(n_slots, np.inf)
        elif func is AggregateFunction.MAX:
            self.extrema = np.full(n_slots, -np.inf)
        else:
            self.extrema = None  # type: ignore[assignment]

    def update(self, codes: np.ndarray, aggregated: np.ndarray, counts: np.ndarray) -> None:
        """Fold one phase's per-group results (aligned arrays) into state."""
        if len(codes) == 0:
            return
        counts = np.asarray(counts, dtype=np.float64)
        aggregated = np.asarray(aggregated, dtype=np.float64)
        np.add.at(self.counts, codes, counts)
        func = self.func
        if func in (AggregateFunction.SUM, AggregateFunction.COUNT):
            np.add.at(self.sums, codes, aggregated)
        elif func is AggregateFunction.AVG:
            np.add.at(self.sums, codes, aggregated * counts)
        elif func is AggregateFunction.MIN:
            np.minimum.at(self.extrema, codes, aggregated)
        elif func is AggregateFunction.MAX:
            np.maximum.at(self.extrema, codes, aggregated)

    def present(self) -> np.ndarray:
        """Boolean mask of slots that received any rows."""
        return self.counts > 0

    def values(self) -> np.ndarray:
        """Finalized per-slot aggregate values (0 where absent)."""
        func = self.func
        if func in (AggregateFunction.SUM, AggregateFunction.COUNT):
            return self.sums.copy()
        if func is AggregateFunction.AVG:
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), 0.0)
        out = np.where(np.isfinite(self.extrema), self.extrema, 0.0)
        return out

    def total_rows(self) -> float:
        return float(self.counts.sum())

    def summary(self) -> dict[object, float]:
        """Dict view (category index -> value) for present slots."""
        mask = self.present()
        values = self.values()
        return {int(i): float(values[i]) for i in np.flatnonzero(mask)}


@dataclass
class ViewState:
    """Running target/reference partials and estimate history for one view."""

    view: AggregateView
    categories: np.ndarray

    def __post_init__(self) -> None:
        if len(self.categories) == 0:
            raise RecommendationError(
                f"view {self.view.describe()} has a dimension with no categories"
            )
        n = len(self.categories)
        self.target = SidePartial(self.view.func, n)
        self.reference = SidePartial(self.view.func, n)
        self.estimates: list[float] = []

    def _codes(self, keys: np.ndarray) -> np.ndarray:
        """Map group key values to dictionary codes (categories are sorted)."""
        return np.searchsorted(self.categories, keys)

    def update_target(
        self, keys: np.ndarray, aggregated: np.ndarray, counts: np.ndarray
    ) -> None:
        if len(keys):
            self.target.update(self._codes(keys), aggregated, counts)

    def update_reference(
        self, keys: np.ndarray, aggregated: np.ndarray, counts: np.ndarray
    ) -> None:
        if len(keys):
            self.reference.update(self._codes(keys), aggregated, counts)

    def _normalized(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """``(mask, p, q)``: slots present on either side, and both sides
        normalized over them — ``None`` while a side is still empty."""
        target_present = self.target.present()
        reference_present = self.reference.present()
        mask = target_present | reference_present
        if not target_present.any() or not reference_present.any():
            return mask, None, None
        p = normalize_distribution(self.target.values()[mask])
        q = normalize_distribution(self.reference.values()[mask])
        return mask, p, q

    def utility(self, metric: DistanceFunction) -> tuple[float, ViewDistributions]:
        """Utility from everything accumulated so far (paper §2).

        Slots present on either side are aligned by construction (both
        partials are indexed by the same dictionary), normalized, and fed to
        the metric.  A view with an empty side has utility 0 — no evidence
        of deviation yet.
        """
        mask, p, q = self._normalized()
        keys = tuple(self.categories[mask])
        if p is None or q is None:
            keys = keys or ("?",)
            flat = np.full(len(keys), 1.0 / len(keys))
            return 0.0, ViewDistributions(keys, flat, flat.copy())
        return metric(p, q), ViewDistributions(keys, p, q)

    def record_estimate(self, metric: DistanceFunction) -> float:
        """Append :meth:`utility`'s current value to history and return it
        (no key tuple, no distributions: a phase estimate shows neither)."""
        _, p, q = self._normalized()
        value = 0.0 if p is None or q is None else metric(p, q)
        self.estimates.append(value)
        return value

    def rows_seen(self) -> float:
        return self.target.total_rows() + self.reference.total_rows()
