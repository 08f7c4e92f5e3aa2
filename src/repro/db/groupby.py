"""Hash aggregation with a distinct-group memory budget and a charged spill.

The paper's "Combine Multiple GROUP BYs" optimization (§4.1) hinges on a
property of real aggregation engines: grouping is fast while the hash table
fits in memory and degrades sharply once it does not (Figure 8a shows the
cliff at ~10^4 distinct groups for their row store and ~10^2 for the column
store).  This module reproduces that cliff as a *cost*, not as work: when
the estimated group cardinality (product of per-attribute distinct counts,
capped at the row count — the same upper bound the paper uses) exceeds the
budget, the result reports the passes a Grace-style spill would re-read
(``spill_passes``), the executor charges them as scan bytes, and the cost
model's latency shows the cliff.  The aggregation itself always runs once:
range partitions keep key order and each group's row order, so partitioning
for real would return the same arrays bit for bit, only later.

Rows are grouped by :class:`~repro.db.streaming.StreamingGroupAggregator`,
the one group-by kernel; this module holds what it is built from — key
columns, composite-key encoding, key factorization, the cardinality estimate
and the spill charge — and :func:`group_aggregate`, the kernel fed one chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.db.query import AggregateFunction
from repro.exceptions import QueryError

#: Stride-encoding of composite keys is only safe while the cardinality
#: product fits comfortably in int64.
_MAX_STRIDE_PRODUCT = 2**62

#: Partitioning fan-out of the modelled Grace-style spill: each recursion
#: level splits the key space 32 ways and re-reads its input once (write +
#: read charged as two data passes per level).
_SPILL_FANOUT = 32

def spill_data_passes(n_partitions: int) -> int:
    """Extra input passes charged for a spill into ``n_partitions``.

    Grace hash aggregation partitions recursively with a fixed fan-out, so
    the *data* is re-read logarithmically many times even when the final
    partition count is large: 2 passes (write + read) per recursion level.
    """
    if n_partitions <= 1:
        return 0
    levels = math.ceil(math.log(n_partitions) / math.log(_SPILL_FANOUT))
    return 2 * max(levels, 1)


def charged_spill_passes(estimate: int, budget: int | None) -> int:
    """Extra input passes charged for grouping ``estimate`` groups under
    ``budget``: those of a spill into ``ceil(estimate / budget)`` partitions."""
    if budget is None or budget <= 0:
        return 0
    return spill_data_passes(math.ceil(estimate / budget))


@dataclass(frozen=True)
class GroupKeyColumn:
    """One group-by key: row-aligned dictionary codes plus categories."""

    name: str
    codes: np.ndarray
    categories: np.ndarray

    @property
    def n_categories(self) -> int:
        return len(self.categories)


@dataclass
class GroupResult:
    """Output of :func:`group_aggregate`, sorted by composite key."""

    #: Per-key-column arrays of group key *values* (decoded categories).
    key_values: dict[str, np.ndarray]
    #: Per-aggregate arrays, aligned with the key arrays.
    aggregate_values: list[np.ndarray]
    #: Row count of each group (needed to merge AVG partials across phases).
    group_counts: np.ndarray
    n_groups: int
    #: Extra input passes charged for the budget-forced spill (0 = in-core;
    #: logarithmic in the partition count, see :func:`spill_data_passes`).
    spill_passes: int
    #: Estimated distinct-group cardinality used for the budget decision.
    estimated_groups: int


#: Largest flag value :func:`factorize_key` remaps without sorting.
_FACTORIZE_DENSE_LIMIT = 1 << 10

#: Rows per block of the string hash pass (a block's hashes stay in cache),
#: and the 64-bit FNV-1a prime it applies per word of a row.
_HASH_BLOCK_ROWS = 1 << 14
_FNV_PRIME = np.uint64(0x100000001B3)


def factorize_key(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` as ``(int32 codes, categories)``.

    Bit for bit.  Small non-negative integers (a derived key is nearly always
    the 0/1(/2/3) target/reference flag) are remapped by a presence count in
    O(n); a string array (a dimension's dictionary) is grouped by hashing,
    :func:`_factorize_str`; the rest take ``np.unique``'s sort of every row.
    """
    if values.ndim == 1 and values.size:
        if values.dtype.kind in "bi":
            small = values.view(np.uint8) if values.dtype.kind == "b" else values
            if small.min() >= 0 and small.max() < _FACTORIZE_DENSE_LIMIT:
                present = np.bincount(small) > 0
                remap = (np.cumsum(present) - 1).astype(np.int32)
                return remap[small], np.flatnonzero(present).astype(values.dtype)
        elif values.dtype.kind == "U" and values.dtype.itemsize:
            found = _factorize_str(np.asarray(values))
            if found is not None:
                return found
    categories, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int32), categories


def _factorize_str(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`factorize_key` of a 1-D string array, or ``None`` on a collision.

    Rows hash to uint64s (FNV-1a over their UCS4 code points, two to a word
    at even widths; numpy pads with NULs, so ``"a\\x00"`` is ``"a"``) and are
    grouped by hash.  Every row is checked against its group's representative
    — a collision costs the caller's exact sort, never a bit — and only the
    representatives are sorted.
    """
    word = np.uint64 if values.dtype.itemsize % 8 == 0 else np.uint32
    words = np.ascontiguousarray(values).view(word).reshape(len(values), -1)
    hashes = np.full(len(values), np.uint64(0xCBF29CE484222325))
    for start in range(0, len(values), _HASH_BLOCK_ROWS):
        block = hashes[start : start + _HASH_BLOCK_ROWS]
        for column in words[start : start + _HASH_BLOCK_ROWS].T:
            np.bitwise_xor(block, column, out=block)
            np.multiply(block, _FNV_PRIME, out=block)
    group_hashes, groups = np.unique(hashes, return_inverse=True)
    representative = np.empty(len(group_hashes), dtype=np.intp)
    representative[groups] = np.arange(len(values))
    labels = values[representative]
    for start in range(0, len(values), _HASH_BLOCK_ROWS):
        stop = start + _HASH_BLOCK_ROWS
        if not np.array_equal(values[start:stop], labels[groups[start:stop]]):
            return None
    order = np.argsort(labels)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank[groups], labels[order]


def estimate_group_cardinality(category_sizes: list[int], n_rows: int) -> int:
    """Paper's upper bound on distinct groups: ``min(prod |a_i|, num_rows)``."""
    product = 1
    for size in category_sizes:
        product *= max(size, 1)
        if product >= n_rows:
            return n_rows
    return min(product, max(n_rows, 1)) if n_rows else 0


def _encode_composite(key_columns: list[GroupKeyColumn]) -> np.ndarray:
    """Row-aligned composite group codes.

    Uses stride (mixed-radix) encoding when the cardinality product fits in
    int64; otherwise combines keys pairwise, re-densifying with ``np.unique``
    after each step so intermediate codes stay bounded by the row count.
    """
    if not key_columns:
        raise QueryError("grouping requires at least one key column")
    if len(key_columns) == 1:
        # A single key needs no mixed-radix packing: reuse the dictionary
        # code slice directly (the int64 copy would only add memory traffic;
        # every consumer below reads the composite without mutating it).
        return key_columns[0].codes
    product = math.prod(kc.n_categories or 1 for kc in key_columns)
    if product < _MAX_STRIDE_PRODUCT:
        composite = key_columns[0].codes.astype(np.int64, copy=True)
        for kc in key_columns[1:]:
            composite *= max(kc.n_categories, 1)
            composite += kc.codes
        return composite
    composite = key_columns[0].codes.astype(np.int64)
    for kc in key_columns[1:]:
        paired = composite * max(kc.n_categories, 1) + kc.codes
        composite = np.unique(paired, return_inverse=True)[1].astype(np.int64)
    return composite


def group_aggregate(
    key_columns: list[GroupKeyColumn],
    aggregate_inputs: list[tuple[AggregateFunction, np.ndarray | None]],
    budget: int | None = None,
) -> GroupResult:
    """Group rows by the key columns and compute each aggregate per group.

    All input arrays must be row-aligned (the executor filters them by the
    WHERE mask first).  ``budget`` is the distinct-group memory budget; when
    the estimated cardinality exceeds it, ``spill_passes`` reports the extra
    input passes a spill into ``ceil(estimate / budget)`` partitions is
    charged (see the module docstring) — the arrays returned are those of
    the unbudgeted call.  This is the one group-by kernel,
    :class:`~repro.db.streaming.StreamingGroupAggregator`, fed one chunk.
    """
    # Deferred import: the aggregator is built from this module's helpers.
    from repro.db.streaming import StreamingGroupAggregator

    aggregator = StreamingGroupAggregator([func for func, _ in aggregate_inputs], budget)
    aggregator.update(key_columns, aggregate_inputs)
    return aggregator.finalize()
