"""Tests for per-group aggregate computation and its chunk-split invariance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db.aggregates import compute_group_aggregate
from repro.db.groupby import GroupKeyColumn, group_aggregate
from repro.db.query import AggregateFunction
from repro.db.streaming import StreamingGroupAggregator
from repro.exceptions import QueryError

IDS = np.array([0, 1, 0, 2, 1, 0])
VALS = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


class TestComputeGroupAggregate:
    def test_count_star(self):
        out = compute_group_aggregate(AggregateFunction.COUNT, IDS, 3, None)
        assert out.tolist() == [3, 2, 1]

    def test_sum(self):
        out = compute_group_aggregate(AggregateFunction.SUM, IDS, 3, VALS)
        assert out.tolist() == [10.0, 7.0, 4.0]

    def test_avg(self):
        out = compute_group_aggregate(AggregateFunction.AVG, IDS, 3, VALS)
        np.testing.assert_allclose(out, [10 / 3, 3.5, 4.0])

    def test_min_max(self):
        mn = compute_group_aggregate(AggregateFunction.MIN, IDS, 3, VALS)
        mx = compute_group_aggregate(AggregateFunction.MAX, IDS, 3, VALS)
        assert mn.tolist() == [1.0, 2.0, 4.0]
        assert mx.tolist() == [6.0, 5.0, 4.0]

    def test_empty_groups_get_nan_or_zero(self):
        ids = np.array([0, 0])
        vals = np.array([1.0, 2.0])
        counts = compute_group_aggregate(AggregateFunction.COUNT, ids, 3, vals)
        assert counts.tolist() == [2, 0, 0]
        avgs = compute_group_aggregate(AggregateFunction.AVG, ids, 3, vals)
        assert np.isnan(avgs[1]) and np.isnan(avgs[2])
        mins = compute_group_aggregate(AggregateFunction.MIN, ids, 3, vals)
        assert np.isnan(mins[2])

    def test_sum_requires_values(self):
        with pytest.raises(QueryError):
            compute_group_aggregate(AggregateFunction.SUM, IDS, 3, None)


@given(
    data=st.lists(
        st.tuples(st.integers(0, 4), st.floats(0, 100, allow_nan=False)),
        min_size=1,
        max_size=60,
    ),
    split=st.integers(0, 60),
)
@pytest.mark.parametrize(
    "func", [AggregateFunction.SUM, AggregateFunction.AVG, AggregateFunction.MAX]
)
def test_property_split_invariance(func, data, split):
    """Property: aggregating chunk-by-chunk equals aggregating everything.

    This is the invariant streamed and delta-seeded execution depend on,
    held bit for bit: the carry-seeded aggregator continues the one-shot
    accumulation wherever the rows are split.
    """
    split = min(split, len(data))
    codes = np.array([g for g, _ in data], dtype=np.int32)
    vals = np.array([v for _, v in data])
    categories = np.arange(5)
    expected = group_aggregate([GroupKeyColumn("g", codes, categories)], [(func, vals)])

    merged = StreamingGroupAggregator([func])
    for rows in (slice(0, split), slice(split, None)):
        merged.update([GroupKeyColumn("g", codes[rows], categories)], [(func, vals[rows])])
    got = merged.finalize()

    assert got.key_values["g"].tolist() == expected.key_values["g"].tolist()
    assert got.group_counts.tolist() == expected.group_counts.tolist()
    assert got.aggregate_values[0].tobytes() == expected.aggregate_values[0].tobytes()
