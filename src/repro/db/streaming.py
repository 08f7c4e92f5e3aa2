"""The group-by kernel: chunk-at-a-time aggregation with exact carry-seeding.

Every native aggregate query is grouped here.  The chunk pipeline
(:mod:`repro.db.shared_scan`) feeds a :class:`StreamingGroupAggregator`
one chunk of (key codes, aggregate inputs) at a time — a resident range is
a stream of one chunk, a streamed range one chunk per sub-range, a query
seeded from the delta cache continues a restored state — and after the
last chunk :meth:`~StreamingGroupAggregator.finalize` yields the
:class:`~repro.db.groupby.GroupResult`.
:func:`~repro.db.groupby.group_aggregate` is the same kernel fed one chunk.
Peak memory is O(chunk + groups), never O(range).

Why the result does not depend on the chunking: numpy's ``bincount``
accumulates weights sequentially in array-index order, so a per-group SUM
over one chunk is the left-to-right sequence ``((v1 + v2) + v3) + ...``
over that group's rows.  Merging *independently computed* chunk sums would
re-parenthesize that sequence — ``(v1 + v2) + (v3 + v4)`` — which differs
in the last ulp.  The aggregator instead **carry-seeds** each chunk: the
accumulated per-group partials enter the chunk's ``bincount`` as pseudo
rows placed *before* the chunk's real rows, so each group's accumulation
remains the exact left-to-right row-order sequence at any chunking.
COUNT and the group row counts are integer-exact (COUNT is the row count
as float64, taken from the one counts pass); MIN/MAX are order-independent
(NaN poisoning included, ±inf kept); AVG is carried as (sum, count) and
finalized as ``sum / count``.  ``tests/db/test_streaming.py`` holds every
chunking and both plans bitwise to a row-order Python reference.

The aggregator keeps two equivalent plans.  While the stride-encoded
composite key space stays within :data:`_DENSE_GROUP_LIMIT`, state lives
in **dense** arrays over that domain and each chunk folds in with O(n)
``bincount`` — no sorting, the common SeeDB case of low-cardinality
dimensions.  When the key space outgrows the limit (or category sets
explode), the dense state converts once to the sparse per-group
representation and merging proceeds via ``np.unique``.  Both plans
carry-seed identically, so the choice never changes a result bit.

Groups come out sorted ascending by composite key, which — categories
being sorted — is plain lexicographic order of the group key *values*,
independent of how rows were chunked.
"""

from __future__ import annotations

import math

import numpy as np

from repro.db.groupby import (
    GroupKeyColumn,
    GroupResult,
    _encode_composite,
    charged_spill_passes,
    estimate_group_cardinality,
)
from repro.db.query import AggregateFunction
from repro.exceptions import QueryError

#: Cap on the dense plan: while the stride-encoded composite key space has
#: at most this many slots, rows fold with O(n) ``np.bincount`` over the
#: dense domain instead of the O(n log n) ``np.unique`` sort.
_DENSE_GROUP_LIMIT = 1 << 16

#: Aggregates accumulated as carry-seeded per-group float64 sums (COUNT is
#: the group row counts, which every chunk counts anyway).
_SUM_LIKE = (AggregateFunction.SUM, AggregateFunction.AVG)


def _copy_state(state: dict[str, object]) -> dict[str, object]:
    """Copy of an aggregator's attributes that shares no array with them.

    Each attribute is a scalar (or enum member), an array, or a flat list
    or dict of those — ``tests/db/test_streaming.py`` holds every field of
    every mode to that shape by checking a restored copy for aliasing.
    """
    array = np.ndarray
    copied: dict[str, object] = {}
    for name, value in state.items():
        kind = type(value)
        if kind is array:
            value = value.copy()
        elif kind is list:
            value = [item.copy() if type(item) is array else item for item in value]
        elif kind is dict:
            value = {
                key: item.copy() if type(item) is array else item
                for key, item in value.items()
            }
        copied[name] = value
    return copied


def _state_nbytes(state: dict[str, object]) -> int:
    """Bytes held in the arrays of an aggregator's attributes."""
    array = np.ndarray
    total = 0
    for value in state.values():
        kind = type(value)
        if kind is array:
            total += value.nbytes
        elif kind is list or kind is dict:
            for item in value.values() if kind is dict else value:
                if type(item) is array:
                    total += item.nbytes
    return total


class StreamingGroupAggregator:
    """Groups a query's rows chunk by chunk; the result is the same at any chunking.

    One instance serves one logical query over one row range.  Feed chunks
    in row order with :meth:`update` (each call gets that chunk's
    row-aligned key columns and aggregate inputs, already filtered by the
    chunk's WHERE selector), then call :meth:`finalize` once.

    Example::

        agg = StreamingGroupAggregator([spec.func for spec in query.aggregates],
                                       query.group_budget)
        for start, stop in table.chunk_ranges(*query.row_range):
            key_cols, inputs, n = prepare_chunk(query, start, stop)
            agg.update(key_cols, inputs)
        result = agg.finalize()   # the same bits at any chunking
    """

    def __init__(
        self,
        funcs: list[AggregateFunction],
        budget: int | None = None,
    ) -> None:
        self.funcs = list(funcs)
        self.budget = budget
        self.total_rows = 0
        self._key_names: list[str] | None = None
        #: "dense" while the stride-encoded key space fits the dense
        #: limit, "sparse" after conversion, None before the first rows.
        self._mode: str | None = None
        #: Final per-key-column category counts for the spill estimate:
        #: global for physical dimensions (stable across chunks), the
        #: union-so-far for per-chunk-factorized derived keys.
        self._category_counts: list[int] = []
        #: Categories seen last, for dtype-faithful empty results.
        self._last_categories: list[np.ndarray] = []
        # Sparse state: per-group arrays.
        self._n_groups = 0
        self._key_values: dict[str, np.ndarray] = {}
        self._partials: list[np.ndarray] = [np.empty(0) for _ in self.funcs]
        self._counts = np.empty(0, dtype=np.int64)
        # Dense state: arrays over the full stride-encoded key domain.
        self._dense_cats: list[np.ndarray] = []
        self._dense_sizes: list[int] = []
        self._dense_product = 0
        self._dense_counts = np.empty(0, dtype=np.int64)
        self._dense_partials: list[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # per-chunk update
    # ------------------------------------------------------------------ #

    def update(
        self,
        key_columns: list[GroupKeyColumn],
        aggregate_inputs: list[tuple[AggregateFunction, np.ndarray | None]],
    ) -> None:
        """Fold one chunk's rows into the running state.

        ``key_columns`` and ``aggregate_inputs`` follow the
        :func:`~repro.db.groupby.group_aggregate` contract (row-aligned,
        pre-filtered); chunks must arrive in row order for the carry-seeded
        sums to reproduce the row-order accumulation sequence.
        """
        if not key_columns:
            raise QueryError("grouping requires at least one key column")
        if len(aggregate_inputs) != len(self.funcs):
            raise QueryError(
                f"expected {len(self.funcs)} aggregate inputs, "
                f"got {len(aggregate_inputs)}"
            )
        names = [kc.name for kc in key_columns]
        if self._key_names is None:
            self._key_names = names
            self._category_counts = [0] * len(names)
            self._last_categories = [kc.categories for kc in key_columns]
        elif names != self._key_names:
            raise QueryError(
                f"chunk key columns {names} do not match {self._key_names}"
            )
        n_chunk = len(key_columns[0].codes)
        for kc in key_columns:
            if len(kc.codes) != n_chunk:
                raise QueryError("group key columns must be row-aligned")
        for func, values in aggregate_inputs:
            if values is None and func is not AggregateFunction.COUNT:
                raise QueryError(f"{func.value} requires a value array")
            if values is not None and len(values) != n_chunk:
                raise QueryError("aggregate input not row-aligned with keys")

        if n_chunk == 0:
            # Nothing to fold in; physical-dimension category counts are
            # stable and derived unions cannot grow from zero rows.
            if self._mode is None:
                for i, kc in enumerate(key_columns):
                    self._last_categories[i] = kc.categories
            return

        if self._mode is None:
            product = math.prod(max(len(kc.categories), 1) for kc in key_columns)
            if product <= _DENSE_GROUP_LIMIT:
                self._init_dense(key_columns)
            else:
                self._mode = "sparse"
        if self._mode == "dense" and not self._update_dense(key_columns, aggregate_inputs):
            self._dense_to_sparse()
            self._update_sparse(key_columns, aggregate_inputs)
        elif self._mode == "sparse":
            self._update_sparse(key_columns, aggregate_inputs)
        self.total_rows += n_chunk

    # ------------------------------------------------------------------ #
    # dense plan: O(n) carry-seeded bincount over the stride domain
    # ------------------------------------------------------------------ #

    def _init_dense(self, key_columns: list[GroupKeyColumn]) -> None:
        self._mode = "dense"
        self._dense_cats = [kc.categories for kc in key_columns]
        self._dense_sizes = [max(len(kc.categories), 1) for kc in key_columns]
        self._dense_product = math.prod(self._dense_sizes)
        self._dense_counts = np.zeros(self._dense_product, dtype=np.int64)
        self._dense_partials = []
        for func in self.funcs:
            if func is AggregateFunction.MIN:
                self._dense_partials.append(np.full(self._dense_product, np.inf))
            elif func is AggregateFunction.MAX:
                self._dense_partials.append(np.full(self._dense_product, -np.inf))
            else:
                self._dense_partials.append(np.zeros(self._dense_product))

    def _dense_occupied(self) -> np.ndarray:
        return np.flatnonzero(self._dense_counts)

    def _rebuild_dense_domain(
        self, new_cats: list[np.ndarray], new_sizes: list[int], new_product: int
    ) -> None:
        """Re-index the dense state after a category set grew.

        Only occupied slots carry information; decode each under the old
        mixed radix, translate per-column codes into the new category
        space, and place the values at their new slots (assignment, not
        accumulation — the carried partials are exact prefixes).
        """
        occupied = self._dense_occupied()
        new_slots = np.zeros(len(occupied), dtype=np.int64)
        stride = self._dense_product
        for i, (old_cats, old_size) in enumerate(
            zip(self._dense_cats, self._dense_sizes)
        ):
            stride //= old_size
            old_codes = (occupied // stride) % old_size
            translate = np.searchsorted(new_cats[i], old_cats)
            new_slots = new_slots * new_sizes[i] + (
                translate[old_codes] if len(old_cats) else old_codes
            )
        counts = np.zeros(new_product, dtype=np.int64)
        counts[new_slots] = self._dense_counts[occupied]
        partials: list[np.ndarray] = []
        for func, partial in zip(self.funcs, self._dense_partials):
            if func is AggregateFunction.MIN:
                rebuilt = np.full(new_product, np.inf)
            elif func is AggregateFunction.MAX:
                rebuilt = np.full(new_product, -np.inf)
            else:
                rebuilt = np.zeros(new_product)
            rebuilt[new_slots] = partial[occupied]
            partials.append(rebuilt)
        self._dense_cats = new_cats
        self._dense_sizes = new_sizes
        self._dense_product = new_product
        self._dense_counts = counts
        self._dense_partials = partials

    def _update_dense(
        self,
        key_columns: list[GroupKeyColumn],
        aggregate_inputs: list[tuple[AggregateFunction, np.ndarray | None]],
    ) -> bool:
        """Fold a chunk into the dense state; False = domain outgrew dense."""
        new_cats: list[np.ndarray] = []
        new_sizes: list[int] = []
        grew = False
        for cats, kc in zip(self._dense_cats, key_columns):
            if kc.categories is cats or (
                len(kc.categories) == len(cats)
                and np.array_equal(kc.categories, cats)
            ):
                # The chunk's own (equal) categories: its codes need no translation.
                new_cats.append(kc.categories)
            else:
                union = np.unique(np.concatenate([cats, kc.categories]))
                grew = grew or len(union) != len(cats)
                new_cats.append(union if len(union) != len(cats) else cats)
            new_sizes.append(max(len(new_cats[-1]), 1))
        new_product = math.prod(new_sizes)
        if new_product > _DENSE_GROUP_LIMIT:
            return False
        if grew:
            self._rebuild_dense_domain(new_cats, new_sizes, new_product)
        else:
            self._dense_cats = new_cats

        composite: np.ndarray | None = None
        for cats, size, kc in zip(self._dense_cats, self._dense_sizes, key_columns):
            if kc.categories is cats:
                codes: np.ndarray = kc.codes
            else:
                translate = np.searchsorted(cats, kc.categories)
                codes = translate[kc.codes] if len(kc.categories) else kc.codes
            if composite is None:
                composite = codes.astype(np.int64, copy=True)
            else:
                composite *= size
                composite += codes
        assert composite is not None

        occupied = self._dense_occupied()
        self._dense_counts += np.bincount(composite, minlength=self._dense_product)
        for j, (func, values) in enumerate(aggregate_inputs):
            if func is AggregateFunction.COUNT:
                self._dense_partials[j] = self._dense_counts.astype(np.float64)
            elif func in _SUM_LIKE:
                weights = np.asarray(values, dtype=np.float64)
                partial = self._dense_partials[j]
                if len(occupied):
                    # Carry rows first: each group's sum continues the
                    # exact left-to-right row-order accumulation sequence.
                    ids = np.concatenate([occupied, composite])
                    weights = np.concatenate([partial[occupied], weights])
                else:
                    ids = composite
                self._dense_partials[j] = np.bincount(
                    ids, weights=weights, minlength=self._dense_product
                )
            elif func is AggregateFunction.MIN:
                np.minimum.at(
                    self._dense_partials[j],
                    composite,
                    np.asarray(values, dtype=np.float64),
                )
            else:
                np.maximum.at(
                    self._dense_partials[j],
                    composite,
                    np.asarray(values, dtype=np.float64),
                )
        for i, cats in enumerate(self._dense_cats):
            self._category_counts[i] = len(cats)
            self._last_categories[i] = cats
        return True

    def _dense_to_sparse(self) -> None:
        """Convert dense state to the per-group sparse representation."""
        assert self._key_names is not None
        occupied = self._dense_occupied()
        key_values: dict[str, np.ndarray] = {}
        stride = self._dense_product
        for name, cats, size in zip(
            self._key_names, self._dense_cats, self._dense_sizes
        ):
            stride //= size
            key_values[name] = cats[(occupied // stride) % size]
        self._key_values = key_values
        self._counts = self._dense_counts[occupied]
        self._partials = [partial[occupied] for partial in self._dense_partials]
        self._n_groups = len(occupied)
        self._mode = "sparse"
        self._dense_cats = []
        self._dense_partials = []
        self._dense_counts = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # sparse plan: per-group arrays merged via np.unique
    # ------------------------------------------------------------------ #

    def _update_sparse(
        self,
        key_columns: list[GroupKeyColumn],
        aggregate_inputs: list[tuple[AggregateFunction, np.ndarray | None]],
    ) -> None:
        n_acc = self._n_groups
        combined_columns: list[GroupKeyColumn] = []
        unified_categories: list[np.ndarray] = []
        for kc in key_columns:
            if n_acc:
                acc_values = self._key_values[kc.name]
                cats = np.unique(np.concatenate([acc_values, kc.categories]))
                acc_codes = np.searchsorted(cats, acc_values)
                remap = np.searchsorted(cats, kc.categories)
                chunk_codes = (
                    remap[kc.codes] if len(kc.categories) else kc.codes.astype(np.intp)
                )
                codes = np.concatenate([acc_codes, chunk_codes])
            else:
                cats = kc.categories
                codes = kc.codes
            combined_columns.append(
                GroupKeyColumn(kc.name, codes.astype(np.int32, copy=False), cats)
            )
            unified_categories.append(cats)

        composite = _encode_composite(combined_columns)
        uniq, rep_rows, inverse = np.unique(
            composite, return_index=True, return_inverse=True
        )
        new_n = len(uniq)
        acc_ids = inverse[:n_acc]
        chunk_ids = inverse[n_acc:]

        new_counts = np.bincount(chunk_ids, minlength=new_n)
        if n_acc:
            new_counts[acc_ids] += self._counts

        new_partials: list[np.ndarray] = []
        for j, (func, values) in enumerate(aggregate_inputs):
            if func is AggregateFunction.COUNT:
                new_partials.append(new_counts.astype(np.float64))
            elif func in _SUM_LIKE:
                chunk_weights = np.asarray(values, dtype=np.float64)
                # Carry rows come first: bincount accumulates in index
                # order, so each group's running sum continues the exact
                # left-to-right row-order sequence.
                weights = (
                    np.concatenate([self._partials[j], chunk_weights])
                    if n_acc
                    else chunk_weights
                )
                new_partials.append(
                    np.bincount(inverse, weights=weights, minlength=new_n)
                )
            elif func is AggregateFunction.MIN:
                out = np.full(new_n, np.inf)
                if n_acc:
                    out[acc_ids] = self._partials[j]
                np.minimum.at(out, chunk_ids, np.asarray(values, dtype=np.float64))
                new_partials.append(out)
            elif func is AggregateFunction.MAX:
                out = np.full(new_n, -np.inf)
                if n_acc:
                    out[acc_ids] = self._partials[j]
                np.maximum.at(out, chunk_ids, np.asarray(values, dtype=np.float64))
                new_partials.append(out)
            else:  # pragma: no cover - enum is closed
                raise QueryError(f"unsupported aggregate function {func!r}")

        self._key_values = {
            kc.name: kc.categories[kc.codes[rep_rows]] for kc in combined_columns
        }
        self._counts = new_counts
        self._partials = new_partials
        self._n_groups = new_n
        for i, cats in enumerate(unified_categories):
            self._category_counts[i] = len(cats)
            self._last_categories[i] = cats

    # ------------------------------------------------------------------ #
    # snapshot / restore (delta-aware view maintenance)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, object]:
        """Deep copy of the running state, for the delta cache.

        The state is the instance's attributes — everything :meth:`update`
        mutates — captured generically, so a field added to ``update``
        cannot be forgotten here.  Restoring it via :meth:`from_snapshot`
        and feeding the *next* chunks produces bitwise the same state as
        one aggregator that saw every chunk, because carry-seeding already
        makes accumulated partials order-exact prefixes of the row-order
        sequence.  Arrays are copied on capture (and again on restore), so
        a cached snapshot is immune to later updates on either side.
        """
        return _copy_state(vars(self))

    def release(self) -> dict[str, object]:
        """The running state itself as a snapshot, uncopied, for an aggregator
        fed no more rows: :meth:`from_snapshot` copies it, and no array
        :meth:`finalize` returns is one of its arrays."""
        return dict(vars(self))

    @classmethod
    def from_snapshot(cls, state: dict[str, object]) -> "StreamingGroupAggregator":
        """Rebuild an aggregator mid-stream from a :meth:`snapshot`."""
        agg = cls.__new__(cls)
        vars(agg).update(_copy_state(state))
        return agg

    def snapshot_nbytes(self) -> int:
        """Approximate resident bytes of a snapshot (cache budgeting)."""
        return _state_nbytes(vars(self))

    # ------------------------------------------------------------------ #
    # finalize
    # ------------------------------------------------------------------ #

    def finalize(self) -> GroupResult:
        """The merged :class:`GroupResult` of every row fed so far."""
        if self._key_names is None:
            raise QueryError("finalize() before any update()")
        if self._mode == "dense":
            occupied = self._dense_occupied()
            key_values: dict[str, np.ndarray] = {}
            stride = self._dense_product
            for name, cats, size in zip(
                self._key_names, self._dense_cats, self._dense_sizes
            ):
                stride //= size
                key_values[name] = cats[(occupied // stride) % size]
            counts = self._dense_counts[occupied]
            partials = [partial[occupied] for partial in self._dense_partials]
            n_groups = len(occupied)
        else:
            # Copies: a released state (see :meth:`release`) outlives the result.
            key_values = {name: keys.copy() for name, keys in self._key_values.items()}
            counts = self._counts.copy()
            partials = [partial.copy() for partial in self._partials]
            n_groups = self._n_groups
        if n_groups == 0:
            return GroupResult(
                key_values={
                    name: cats[:0]
                    for name, cats in zip(self._key_names, self._last_categories)
                },
                aggregate_values=[np.empty(0) for _ in self.funcs],
                group_counts=np.empty(0, dtype=np.int64),
                n_groups=0,
                spill_passes=0,
                estimated_groups=0,
            )
        # The same estimate at any chunking (global counts for physical
        # dims, the range's distinct set for derived keys), hence the same
        # spill-pass charge.
        estimate = estimate_group_cardinality(self._category_counts, self.total_rows)
        return GroupResult(
            key_values=key_values,
            # Every group here holds rows: MIN/MAX are the extrema, ±inf
            # included, and AVG divides by a count of at least one.
            aggregate_values=[
                partial / counts if func is AggregateFunction.AVG else partial
                for func, partial in zip(self.funcs, partials)
            ],
            group_counts=counts,
            n_groups=n_groups,
            spill_passes=charged_spill_passes(estimate, self.budget),
            estimated_groups=estimate,
        )


__all__ = ["StreamingGroupAggregator"]
