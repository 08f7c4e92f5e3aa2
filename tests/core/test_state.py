"""Tests for array-backed view state and utility computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.difference import compute_utility
from repro.core.state import SidePartial, ViewState
from repro.core.view import AggregateView
from repro.db.query import AggregateFunction
from repro.exceptions import RecommendationError
from repro.metrics import get_metric, list_metrics

EMD = get_metric("emd")
CATS = np.array(["a", "b", "c"])


def _state(func=AggregateFunction.AVG) -> ViewState:
    return ViewState(AggregateView("d", "m", func), CATS)


class TestSidePartial:
    def test_avg_merges_weighted(self):
        side = SidePartial(AggregateFunction.AVG, 3)
        side.update(np.array([0]), np.array([10.0]), np.array([2]))
        side.update(np.array([0]), np.array([40.0]), np.array([1]))
        # (10*2 + 40*1) / 3 = 20
        assert side.values()[0] == pytest.approx(20.0)
        assert side.total_rows() == 3

    def test_sum_accumulates(self):
        side = SidePartial(AggregateFunction.SUM, 3)
        side.update(np.array([1, 2]), np.array([5.0, 7.0]), np.array([1, 1]))
        side.update(np.array([1]), np.array([3.0]), np.array([1]))
        assert side.values().tolist() == [0.0, 8.0, 7.0]

    def test_min_max_extrema(self):
        mn = SidePartial(AggregateFunction.MIN, 2)
        mn.update(np.array([0]), np.array([5.0]), np.array([1]))
        mn.update(np.array([0]), np.array([3.0]), np.array([1]))
        assert mn.values()[0] == 3.0
        mx = SidePartial(AggregateFunction.MAX, 2)
        mx.update(np.array([0]), np.array([5.0]), np.array([1]))
        mx.update(np.array([0]), np.array([9.0]), np.array([1]))
        assert mx.values()[0] == 9.0

    def test_duplicate_codes_marginalize(self):
        """Duplicate codes in one update accumulate (multi-dim marginalization)."""
        side = SidePartial(AggregateFunction.SUM, 2)
        side.update(np.array([0, 0, 1]), np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
        assert side.values().tolist() == [3.0, 3.0]

    def test_present_mask(self):
        side = SidePartial(AggregateFunction.COUNT, 3)
        side.update(np.array([2]), np.array([4.0]), np.array([4]))
        assert side.present().tolist() == [False, False, True]

    def test_summary_dict(self):
        side = SidePartial(AggregateFunction.SUM, 3)
        side.update(np.array([1]), np.array([5.0]), np.array([1]))
        assert side.summary() == {1: 5.0}


class TestViewState:
    def test_utility_zero_when_side_empty(self):
        state = _state()
        state.update_target(np.array(["a"]), np.array([1.0]), np.array([1]))
        value, _ = state.utility(EMD)
        assert value == 0.0

    def test_utility_matches_dict_based_computation(self):
        state = _state()
        state.update_target(np.array(["a", "b"]), np.array([4.0, 1.0]), np.array([2, 2]))
        state.update_reference(
            np.array(["a", "b", "c"]), np.array([1.0, 1.0, 2.0]), np.array([3, 3, 3])
        )
        via_state, dists = state.utility(EMD)
        via_dicts, _ = compute_utility(
            EMD, {"a": 4.0, "b": 1.0}, {"a": 1.0, "b": 1.0, "c": 2.0}
        )
        assert via_state == pytest.approx(via_dicts)
        assert list(dists.keys) == ["a", "b", "c"]

    def test_estimates_history(self):
        state = _state()
        state.update_target(np.array(["a"]), np.array([1.0]), np.array([1]))
        state.update_reference(np.array(["b"]), np.array([1.0]), np.array([1]))
        first = state.record_estimate(EMD)
        second = state.record_estimate(EMD)
        assert state.estimates == [first, second]

    @pytest.mark.parametrize("metric_name", list_metrics())
    @pytest.mark.parametrize("func", list(AggregateFunction))
    def test_estimate_is_the_utility_value_bitwise(self, metric_name, func):
        """record_estimate skips the distributions, not a bit of the value."""
        metric = get_metric(metric_name)
        rng = np.random.default_rng(11)
        state = _state(func)
        assert state.record_estimate(metric) == state.utility(metric)[0] == 0.0
        for phase in range(4):
            keys = CATS[rng.random(3) < 0.7]
            n = len(keys)
            state.update_target(keys, rng.normal(2.0, 3.0, n), rng.integers(1, 9, n))
            if phase:  # the reference side stays empty for one phase
                state.update_reference(CATS, rng.normal(2.0, 3.0, 3), rng.integers(1, 9, 3))
            estimate = state.record_estimate(metric)
            value, dists = state.utility(metric)
            assert np.float64(estimate).tobytes() == np.float64(value).tobytes()
            assert (estimate == 0.0) or phase
            assert len(dists.keys) == len(dists.target) == len(dists.reference)
        assert len(state.estimates) == 5

    def test_keys_map_through_dictionary(self):
        state = _state(AggregateFunction.SUM)
        state.update_target(np.array(["c", "a"]), np.array([9.0, 1.0]), np.array([1, 1]))
        assert state.target.summary() == {0: 1.0, 2: 9.0}

    def test_empty_categories_rejected(self):
        with pytest.raises(RecommendationError):
            ViewState(AggregateView("d", "m"), np.array([]))

    def test_rows_seen(self):
        state = _state()
        state.update_target(np.array(["a"]), np.array([1.0]), np.array([5]))
        state.update_reference(np.array(["a"]), np.array([1.0]), np.array([7]))
        assert state.rows_seen() == 12.0


@settings(max_examples=40, deadline=None)
@given(
    groups=st.lists(st.integers(0, 2), min_size=4, max_size=80),
    values=st.lists(st.floats(0.1, 100, allow_nan=False), min_size=4, max_size=80),
    n_chunks=st.integers(1, 4),
)
def test_property_phased_avg_equals_single_pass(groups, values, n_chunks):
    """Phased updates through ViewState equal a single-pass computation."""
    n = min(len(groups), len(values))
    groups, values = np.array(groups[:n]), np.array(values[:n])
    state = ViewState(AggregateView("d", "m", AggregateFunction.AVG), CATS)
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    for lo, hi in zip(bounds, bounds[1:]):
        chunk_g, chunk_v = groups[lo:hi], values[lo:hi]
        if len(chunk_g) == 0:
            continue
        uniq = np.unique(chunk_g)
        keys = CATS[uniq]
        avgs = np.array([chunk_v[chunk_g == g].mean() for g in uniq])
        counts = np.array([(chunk_g == g).sum() for g in uniq])
        state.update_target(keys, avgs, counts)
        state.update_reference(keys, avgs, counts)
    # Target == reference by construction -> utility must be exactly 0.
    value, _ = state.utility(EMD)
    assert value == pytest.approx(0.0, abs=1e-12)
    # And the per-group means must equal the single-pass means.
    for g in np.unique(groups):
        expected = values[groups == g].mean()
        assert state.target.values()[g] == pytest.approx(expected)
