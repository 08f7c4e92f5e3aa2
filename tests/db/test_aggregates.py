"""Tests for each aggregate function of ``group_aggregate`` and its chunk-split invariance."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db.groupby import GroupKeyColumn, group_aggregate
from repro.db.query import AggregateFunction
from repro.db.streaming import StreamingGroupAggregator
from repro.exceptions import QueryError

KEY = GroupKeyColumn("g", np.array([0, 1, 0, 2, 1, 0], dtype=np.int32), np.array(["a", "b", "c"]))
VALS = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def _aggregate(func, values=VALS, key=KEY):
    result = group_aggregate([key], [(func, values)])
    return result.key_values["g"].tolist(), result.aggregate_values[0]


class TestGroupAggregate:
    def test_count_star(self):
        groups, out = _aggregate(AggregateFunction.COUNT, None)
        assert groups == ["a", "b", "c"]
        assert out.dtype == np.float64 and out.tolist() == [3.0, 2.0, 1.0]

    def test_sum(self):
        assert _aggregate(AggregateFunction.SUM)[1].tolist() == [10.0, 7.0, 4.0]

    def test_avg(self):
        np.testing.assert_allclose(_aggregate(AggregateFunction.AVG)[1], [10 / 3, 3.5, 4.0])

    def test_min_max(self):
        assert _aggregate(AggregateFunction.MIN)[1].tolist() == [1.0, 2.0, 4.0]
        assert _aggregate(AggregateFunction.MAX)[1].tolist() == [6.0, 5.0, 4.0]

    def test_empty_groups_read_no_placeholder(self):
        """A category without rows is no group: no 0 for COUNT/SUM, no NaN for
        AVG/MIN/MAX (the backend contract); zero rows are zero groups."""
        key = GroupKeyColumn("g", np.array([0, 0], dtype=np.int32), np.array(["a", "b", "c"]))
        for func in AggregateFunction:
            values = None if func is AggregateFunction.COUNT else np.array([1.0, 2.0])
            groups, out = _aggregate(func, values, key)
            assert groups == ["a"] and len(out) == 1
        empty = GroupKeyColumn("g", np.array([], dtype=np.int32), np.array(["a"]))
        result = group_aggregate([empty], [(AggregateFunction.AVG, np.empty(0))])
        assert result.n_groups == 0 and result.aggregate_values[0].size == 0

    def test_nan_rows_read_nan_and_are_counted(self):
        values = np.array([np.nan, 2.0, np.nan, 4.0, 5.0, np.nan])
        for func in (AggregateFunction.SUM, AggregateFunction.AVG, AggregateFunction.MIN):
            with np.errstate(invalid="ignore"):
                out = _aggregate(func, values)[1]
            assert np.isnan(out[0]) and not np.isnan(out[1:]).any(), func
        assert _aggregate(AggregateFunction.COUNT, None)[1][0] == 3.0

    def test_infinite_extrema_are_kept(self):
        """MIN/MAX of a group holding ±inf is that infinity, not NaN."""
        values = np.array([1.0, -np.inf, np.inf, 2.0, 3.0, 0.0])
        assert _aggregate(AggregateFunction.MAX, values)[1].tolist() == [np.inf, 3.0, 2.0]
        assert _aggregate(AggregateFunction.MIN, values)[1].tolist() == [0.0, -np.inf, 2.0]

    def test_sum_requires_values(self):
        with pytest.raises(QueryError):
            _aggregate(AggregateFunction.SUM, None)


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
    """Property: aggregating chunk-by-chunk equals aggregating one chunk.

    This is the invariant streamed and delta-seeded execution depend on,
    held bit for bit: the carry-seeded aggregator continues the row-order
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
