"""Tests for hash aggregation with memory budget and spill."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import streaming as streaming_module
from repro.db.groupby import (
    GroupKeyColumn,
    estimate_group_cardinality,
    group_aggregate,
    spill_data_passes,
)
from repro.db.query import AggregateFunction
from repro.exceptions import QueryError


def _key(name, values):
    categories, codes = np.unique(values, return_inverse=True)
    return GroupKeyColumn(name, codes.astype(np.int32), categories)


class TestBasicGrouping:
    def test_single_key_sum(self):
        key = _key("k", ["a", "b", "a", "c"])
        result = group_aggregate(
            [key], [(AggregateFunction.SUM, np.array([1.0, 2.0, 3.0, 4.0]))]
        )
        assert result.n_groups == 3
        assert result.key_values["k"].tolist() == ["a", "b", "c"]
        assert result.aggregate_values[0].tolist() == [4.0, 2.0, 4.0]
        assert result.group_counts.tolist() == [2, 1, 1]
        assert result.spill_passes == 0

    def test_multi_key_grouping(self):
        k1 = _key("x", ["a", "a", "b", "b"])
        k2 = _key("y", ["p", "q", "p", "p"])
        result = group_aggregate(
            [k1, k2], [(AggregateFunction.COUNT, None)]
        )
        assert result.n_groups == 3
        pairs = list(zip(result.key_values["x"], result.key_values["y"]))
        assert pairs == [("a", "p"), ("a", "q"), ("b", "p")]
        assert result.aggregate_values[0].tolist() == [1.0, 1.0, 2.0]

    def test_multiple_aggregates_share_grouping(self):
        key = _key("k", ["a", "b", "a"])
        vals = np.array([1.0, 2.0, 5.0])
        result = group_aggregate(
            [key],
            [
                (AggregateFunction.SUM, vals),
                (AggregateFunction.MAX, vals),
                (AggregateFunction.COUNT, None),
            ],
        )
        assert result.aggregate_values[0].tolist() == [6.0, 2.0]
        assert result.aggregate_values[1].tolist() == [5.0, 2.0]
        assert result.aggregate_values[2].tolist() == [2.0, 1.0]

    def test_empty_input(self):
        key = GroupKeyColumn("k", np.array([], dtype=np.int32), np.array(["a"]))
        result = group_aggregate([key], [(AggregateFunction.COUNT, None)])
        assert result.n_groups == 0
        assert result.spill_passes == 0

    def test_misaligned_inputs_rejected(self):
        key = _key("k", ["a", "b"])
        with pytest.raises(QueryError):
            group_aggregate([key], [(AggregateFunction.SUM, np.array([1.0]))])

    def test_no_keys_rejected(self):
        with pytest.raises(QueryError):
            group_aggregate([], [(AggregateFunction.COUNT, None)])


class TestBudgetAndSpill:
    def test_spill_preserves_results(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 50, 2000)
        key = _key("k", values.astype(str))
        vals = rng.random(2000)
        unbounded = group_aggregate([key], [(AggregateFunction.SUM, vals)], budget=None)
        spilled = group_aggregate([key], [(AggregateFunction.SUM, vals)], budget=7)
        assert spilled.spill_passes > 0
        assert unbounded.key_values["k"].tolist() == spilled.key_values["k"].tolist()
        np.testing.assert_allclose(
            unbounded.aggregate_values[0], spilled.aggregate_values[0]
        )

    def test_no_spill_within_budget(self):
        key = _key("k", ["a", "b", "c"])
        result = group_aggregate([key], [(AggregateFunction.COUNT, None)], budget=10)
        assert result.spill_passes == 0

    def test_estimate_capped_by_rows(self):
        assert estimate_group_cardinality([1000, 1000], n_rows=500) == 500
        assert estimate_group_cardinality([3, 4], n_rows=500) == 12
        assert estimate_group_cardinality([], n_rows=0) == 0

    def test_spill_data_passes_logarithmic(self):
        assert spill_data_passes(1) == 0
        assert spill_data_passes(2) == 2
        assert spill_data_passes(32) == 2
        assert spill_data_passes(33) == 4
        assert spill_data_passes(1024) == 4
        assert spill_data_passes(1025) == 6


class TestDenseFastPath:
    """The O(n) bincount plan must be indistinguishable from the sort plan."""

    def _random_inputs(self, seed, n=2_000, n_keys=2, card=8):
        rng = np.random.default_rng(seed)
        keys = [
            _key(f"k{i}", rng.integers(0, card, n).astype(str))
            for i in range(n_keys)
        ]
        vals = rng.random(n)
        inputs = [
            (AggregateFunction.SUM, vals),
            (AggregateFunction.AVG, vals),
            (AggregateFunction.MIN, vals),
            (AggregateFunction.MAX, vals),
            (AggregateFunction.COUNT, None),
        ]
        return keys, inputs

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_keys", [1, 2, 3])
    def test_dense_matches_sparse_exactly(self, seed, n_keys, monkeypatch):
        keys, inputs = self._random_inputs(seed, n_keys=n_keys)
        dense = group_aggregate(keys, inputs, budget=10_000)
        monkeypatch.setattr(streaming_module, "_DENSE_GROUP_LIMIT", 0)
        sparse = group_aggregate(keys, inputs, budget=10_000)
        assert dense.n_groups == sparse.n_groups
        assert dense.spill_passes == sparse.spill_passes == 0
        for name in sparse.key_values:
            assert (
                dense.key_values[name].tolist() == sparse.key_values[name].tolist()
            )
        for d, s in zip(dense.aggregate_values, sparse.aggregate_values):
            np.testing.assert_array_equal(d, s)  # bitwise, not approx
        np.testing.assert_array_equal(dense.group_counts, sparse.group_counts)

    def test_key_space_over_budget_is_charged_a_spill(self):
        """product > budget is charged as a spill, whichever plan computes it."""
        rng = np.random.default_rng(0)
        keys = [_key("k", rng.integers(0, 50, 1_000).astype(str))]
        result = group_aggregate(keys, [(AggregateFunction.COUNT, None)], budget=10)
        assert result.spill_passes > 0

    def test_dense_handles_absent_categories(self):
        """Dictionary categories missing from the slice produce no group."""
        codes = np.array([0, 2, 2, 0], dtype=np.int32)  # category 1 absent
        key = GroupKeyColumn("k", codes, np.asarray(["a", "b", "c"]))
        result = group_aggregate(
            [key], [(AggregateFunction.SUM, np.array([1.0, 2.0, 3.0, 4.0]))]
        )
        assert result.key_values["k"].tolist() == ["a", "c"]
        assert result.aggregate_values[0].tolist() == [5.0, 5.0]


class TestSinglePartitionOrder:
    """Sparse results come out of ``np.unique`` sorted; order must hold."""

    @pytest.mark.parametrize("seed", range(4))
    def test_single_partition_sorted_by_composite_key(self, seed, monkeypatch):
        monkeypatch.setattr(streaming_module, "_DENSE_GROUP_LIMIT", 0)
        rng = np.random.default_rng(seed)
        keys = [
            _key("x", rng.integers(0, 5, 500).astype(str)),
            _key("y", rng.integers(0, 4, 500).astype(str)),
        ]
        vals = rng.random(500)
        result = group_aggregate(keys, [(AggregateFunction.SUM, vals)])
        assert result.spill_passes == 0
        pairs = list(zip(result.key_values["x"], result.key_values["y"]))
        assert pairs == sorted(pairs)
        # And a budget that charges a spill changes no group.
        spilled = group_aggregate(keys, [(AggregateFunction.SUM, vals)], budget=3)
        assert spilled.spill_passes > 0
        assert pairs == list(
            zip(spilled.key_values["x"], spilled.key_values["y"])
        )
        np.testing.assert_allclose(
            result.aggregate_values[0], spilled.aggregate_values[0]
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    n_keys=st.integers(1, 3),
    budget=st.one_of(st.none(), st.integers(1, 20)),
    dense=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_property_budget_never_changes_results(n, n_keys, budget, dense, seed):
    """Property: a budget only ever changes what the result is charged.

    Under either plan every array equals the unbudgeted call's bit for bit,
    and ``spill_passes`` is the charge for ``ceil(estimate / budget)``
    partitions exactly when the estimate exceeds the budget.
    """
    rng = np.random.default_rng(seed)
    keys = [
        _key(f"k{i}", rng.integers(0, 6, n).astype(str)) for i in range(n_keys)
    ]
    vals = rng.normal(size=n)
    inputs = [
        (func, vals if func.needs_argument else None) for func in AggregateFunction
    ]
    with pytest.MonkeyPatch.context() as patch:
        if not dense:
            patch.setattr(streaming_module, "_DENSE_GROUP_LIMIT", 0)
        base = group_aggregate(keys, inputs, budget=None)
        other = group_aggregate(keys, inputs, budget=budget)
    assert base.n_groups == other.n_groups
    for name in base.key_values:
        np.testing.assert_array_equal(base.key_values[name], other.key_values[name])
    for expected, got in zip(base.aggregate_values, other.aggregate_values):
        assert expected.tobytes() == got.tobytes()
    assert base.group_counts.tobytes() == other.group_counts.tobytes()
    estimate = estimate_group_cardinality([kc.n_categories for kc in keys], n)
    assert base.estimated_groups == other.estimated_groups == estimate
    assert base.spill_passes == 0
    if budget is not None and estimate > budget:
        assert other.spill_passes == spill_data_passes(math.ceil(estimate / budget))
    else:
        assert other.spill_passes == 0
