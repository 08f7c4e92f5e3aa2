"""Tests for the per-dimension state table and utility computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SeeDB
from repro.core.difference import compute_utility
from repro.core.recommender import tuned_config
from repro.core.state import SidePartial, ViewState
from repro.core.view import AggregateView
from repro.data import build_info
from repro.db.query import AggregateFunction
from repro.exceptions import RecommendationError
from repro.metrics import get_metric, list_metrics
from repro.metrics.normalize import normalize_distribution

EMD = get_metric("emd")
CATS = np.array(["a", "b", "c"])
ROW = np.array([0])


def _state(func=AggregateFunction.AVG, n_views=1, categories=CATS) -> ViewState:
    views = [AggregateView("d", f"m{i}", func) for i in range(n_views)]
    return ViewState(views, categories)


def _feed(state, side, keys, aggregated, counts, rows=ROW):
    """Fold one result the way the engine does: decode, stack, update."""
    aggregated = np.asarray(aggregated, dtype=np.float64).reshape(len(rows), -1)
    getattr(state, side).update(
        np.asarray(rows), state.codes(keys), aggregated, np.asarray(counts, dtype=np.float64)
    )


def _side(func, n_slots, n_views=1) -> SidePartial:
    return SidePartial(func, n_views, n_slots)


class TestSidePartial:
    def test_avg_merges_weighted(self):
        side = _side(AggregateFunction.AVG, 3)
        side.update(ROW, np.array([0]), np.array([[10.0]]), np.array([2.0]))
        side.update(ROW, np.array([0]), np.array([[40.0]]), np.array([1.0]))
        # (10*2 + 40*1) / 3 = 20
        assert side.values(ROW)[0, 0] == pytest.approx(20.0)
        assert side.counts.sum() == 3

    def test_sum_accumulates(self):
        side = _side(AggregateFunction.SUM, 3)
        side.update(ROW, np.array([1, 2]), np.array([[5.0, 7.0]]), np.array([1.0, 1.0]))
        side.update(ROW, np.array([1]), np.array([[3.0]]), np.array([1.0]))
        assert side.values(ROW).tolist() == [[0.0, 8.0, 7.0]]

    def test_min_max_extrema(self):
        mn = _side(AggregateFunction.MIN, 2)
        mn.update(ROW, np.array([0]), np.array([[5.0]]), np.array([1.0]))
        mn.update(ROW, np.array([0]), np.array([[3.0]]), np.array([1.0]))
        assert mn.values(ROW)[0, 0] == 3.0
        mx = _side(AggregateFunction.MAX, 2)
        mx.update(ROW, np.array([0]), np.array([[5.0]]), np.array([1.0]))
        mx.update(ROW, np.array([0]), np.array([[9.0]]), np.array([1.0]))
        assert mx.values(ROW)[0, 0] == 9.0

    def test_duplicate_codes_marginalize(self):
        """Duplicate codes in one update accumulate (multi-dim marginalization)."""
        side = _side(AggregateFunction.SUM, 2)
        side.update(ROW, np.array([0, 0, 1]), np.array([[1.0, 2.0, 3.0]]), np.ones(3))
        assert side.values(ROW).tolist() == [[3.0, 3.0]]

    def test_present_mask(self):
        """``counts`` is the presence indicator: slots that received rows."""
        side = _side(AggregateFunction.COUNT, 3)
        side.update(ROW, np.array([2]), np.array([[4.0]]), np.array([4.0]))
        assert (side.counts > 0).tolist() == [[False, False, True]]

    def test_summary_dict(self):
        """Present slots and their values, read off the arrays."""
        side = _side(AggregateFunction.SUM, 3)
        side.update(ROW, np.array([1]), np.array([[5.0]]), np.array([1.0]))
        values = side.values(ROW)[0]
        assert {int(i): values[i] for i in np.flatnonzero(side.counts[0] > 0)} == {1: 5.0}

    def test_rows_are_independent(self):
        """Each row is the per-view state: own aggregates, own counts, and a
        row left out of an update (a pruned view) keeps what it had."""
        side = _side(AggregateFunction.SUM, 3, n_views=3)
        side.update(
            np.array([0, 2]), np.array([1, 1]), np.array([[5.0, 1.0], [7.0, 2.0]]), np.ones(2)
        )
        side.update(np.array([2]), np.array([0]), np.array([[4.0]]), np.array([3.0]))
        assert side.values(np.arange(3)).tolist() == [[0, 6, 0], [0, 0, 0], [4, 9, 0]]
        assert side.counts.tolist() == [[0, 2, 0], [0, 0, 0], [3, 2, 0]]
        assert side.values(np.array([2, 0])).tolist() == [[4, 9, 0], [0, 6, 0]]


class TestViewState:
    def test_utility_zero_when_side_empty(self):
        state = _state()
        _feed(state, "target", np.array(["a"]), [1.0], [1])
        [(value, dists)] = state.utility(EMD, [0])
        assert value == 0.0
        assert dists.keys == ("a",)
        assert dists.target.tolist() == dists.reference.tolist() == [1.0]
        [(value, dists)] = _state().utility(EMD, [0])
        assert (value, dists.keys, dists.target.tolist()) == (0.0, ("?",), [1.0])

    def test_utility_matches_dict_based_computation(self):
        state = _state()
        _feed(state, "target", np.array(["a", "b"]), [4.0, 1.0], [2, 2])
        _feed(state, "reference", np.array(["a", "b", "c"]), [1.0, 1.0, 2.0], [3, 3, 3])
        [(via_state, dists)] = state.utility(EMD, [0])
        via_dicts, _ = compute_utility(
            EMD, {"a": 4.0, "b": 1.0}, {"a": 1.0, "b": 1.0, "c": 2.0}
        )
        assert via_state == pytest.approx(via_dicts)
        assert list(dists.keys) == ["a", "b", "c"]

    def test_estimates_history(self):
        """No history is kept: an estimate repeats until the next update."""
        state = _state()
        _feed(state, "target", np.array(["a"]), [1.0], [1])
        _feed(state, "reference", np.array(["b"]), [1.0], [1])
        first = state.record_estimate(EMD, [0])
        assert first == state.record_estimate(EMD, [0]) == [1.0]
        _feed(state, "reference", np.array(["a"]), [1.0], [1])
        assert state.record_estimate(EMD, [0]) != first

    def test_keys_map_through_dictionary(self):
        state = _state(AggregateFunction.SUM)
        _feed(state, "target", np.array(["c", "a"]), [9.0, 1.0], [1, 1])
        assert state.target.values(ROW).tolist() == [[1.0, 0.0, 9.0]]
        assert (state.target.counts > 0).tolist() == [[True, False, True]]

    def test_empty_categories_rejected(self):
        with pytest.raises(RecommendationError):
            ViewState([AggregateView("d", "m")], np.array([]))

    def test_mixed_dimensions_or_functions_rejected(self):
        with pytest.raises(RecommendationError):
            ViewState([AggregateView("d", "m"), AggregateView("e", "m")], CATS)
        with pytest.raises(RecommendationError):
            ViewState(
                [AggregateView("d", "m"), AggregateView("d", "m", AggregateFunction.SUM)], CATS
            )

    def test_rows_seen(self):
        """The rows folded in so far are the sum of both sides' counts."""
        state = _state()
        _feed(state, "target", np.array(["a"]), [1.0], [5])
        _feed(state, "reference", np.array(["a"]), [1.0], [7])
        assert state.target.counts.sum() + state.reference.counts.sum() == 12.0

    def test_rows_map_views_in_order(self):
        state = _state(n_views=3)
        assert state.rows == {("d", "m0", "AVG"): 0, ("d", "m1", "AVG"): 1, ("d", "m2", "AVG"): 2}


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
    state = _state()
    bounds = np.linspace(0, n, n_chunks + 1).astype(int)
    for lo, hi in zip(bounds, bounds[1:]):
        chunk_g, chunk_v = groups[lo:hi], values[lo:hi]
        if len(chunk_g) == 0:
            continue
        uniq = np.unique(chunk_g)
        keys = CATS[uniq]
        avgs = np.array([chunk_v[chunk_g == g].mean() for g in uniq])
        counts = np.array([(chunk_g == g).sum() for g in uniq])
        _feed(state, "target", keys, avgs, counts)
        _feed(state, "reference", keys, avgs, counts)
    # Target == reference by construction -> utility must be exactly 0.
    [(value, _)] = state.utility(EMD, [0])
    assert value == pytest.approx(0.0, abs=1e-12)
    # And the per-group means must equal the single-pass means.
    for g in np.unique(groups):
        expected = values[groups == g].mean()
        assert state.target.values(ROW)[0, g] == pytest.approx(expected)


# --------------------------------------------------------------------------- #
# the V-row table against V one-row tables and the per-view arithmetic
# --------------------------------------------------------------------------- #


class PerViewReference:
    """The per-view arithmetic the table replaced, kept as the oracle: 1-D
    partials, one ``np.add.at`` per array, 1-D normalization."""

    def __init__(self, func, n_slots):
        self.func = func
        self.sides = {
            side: {
                "sums": np.zeros(n_slots),
                "counts": np.zeros(n_slots),
                "extrema": np.full(n_slots, -np.inf if func is AggregateFunction.MAX else np.inf),
            }
            for side in ("target", "reference")
        }

    def update(self, side, codes, aggregated, counts):
        arrays = self.sides[side]
        np.add.at(arrays["counts"], codes, counts)
        if self.func in (AggregateFunction.SUM, AggregateFunction.COUNT):
            np.add.at(arrays["sums"], codes, aggregated)
        elif self.func is AggregateFunction.AVG:
            np.add.at(arrays["sums"], codes, aggregated * counts)
        elif self.func is AggregateFunction.MIN:
            np.minimum.at(arrays["extrema"], codes, aggregated)
        else:
            np.maximum.at(arrays["extrema"], codes, aggregated)

    def _values(self, side):
        arrays = self.sides[side]
        if self.func in (AggregateFunction.SUM, AggregateFunction.COUNT):
            return arrays["sums"]
        if self.func is AggregateFunction.AVG:
            filled = arrays["counts"] > 0
            return np.where(filled, arrays["sums"] / np.maximum(arrays["counts"], 1), 0.0)
        return np.where(np.isfinite(arrays["extrema"]), arrays["extrema"], 0.0)

    def utility(self, metric):
        """``(value, mask, p, q)`` — p and q ``None`` while a side is empty."""
        target = self.sides["target"]["counts"] > 0
        reference = self.sides["reference"]["counts"] > 0
        mask = target | reference
        if not target.any() or not reference.any():
            return 0.0, mask, None, None
        p = normalize_distribution(self._values("target")[mask])
        q = normalize_distribution(self._values("reference")[mask])
        return metric(p, q), mask, p, q


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_same_distributions(have, want):
    assert have.keys == want.keys
    assert have.target.tobytes() == want.target.tobytes()
    assert have.reference.tobytes() == want.reference.tobytes()


SLOT_DRAWS = (1, 2, 7, 8, 9, 127, 128, 129, 400, None, None, None)


@pytest.mark.parametrize("metric_name", list_metrics())
@pytest.mark.parametrize("func", list(AggregateFunction))
def test_table_equals_one_row_tables_bitwise(func, metric_name):
    """Estimates, utilities and both distributions of a V-row table equal,
    bit for bit, V one-row tables — and the per-view arithmetic — fed the
    same updates: 1-400 slots, 1-9 rows, 1-4 phases of random group subsets
    with duplicated codes, a side left empty for a phase, and rows that stop
    being updated (pruned) so one call sees several presence patterns."""
    metric = get_metric(metric_name)
    rng = np.random.default_rng(sum(map(ord, func.value + metric_name)))
    for draw, n_slots in enumerate(SLOT_DRAWS):
        n_slots = n_slots or int(rng.integers(1, 401))
        n_views = int(rng.integers(1, 10))
        categories = np.array([f"c{i:03d}" for i in range(n_slots)])
        table = _state(func, n_views, categories)
        singles = [_state(func, 1, categories) for _ in range(n_views)]
        references = [PerViewReference(func, n_slots) for _ in range(n_views)]
        empty_side = ("target", "reference", None)[draw % 3]
        live = np.arange(n_views)
        for phase in range(int(rng.integers(1, 5))):
            if phase and draw % 2:  # prune: the dropped rows keep their state
                live = np.sort(rng.permutation(live)[: max(1, len(live) - 2)])
            for side in ("target", "reference"):
                if side == empty_side and phase == 0:
                    continue
                n_groups = int(rng.integers(1, 2 * n_slots + 2))
                codes = rng.integers(0, n_slots, n_groups)  # duplicates included
                keys = categories[codes]
                scale = 10.0 ** rng.integers(-6, 7, (len(live), n_groups))
                aggregated = rng.normal(1.0, 2.0, (len(live), n_groups)) * scale
                counts = rng.integers(1, 50, n_groups).astype(np.float64)
                _feed(table, side, keys, aggregated, counts, rows=live)
                for i, row in enumerate(live):
                    _feed(singles[row], side, keys, aggregated[i], counts)
                    references[row].update(side, codes, aggregated[i], counts)
            rows = [int(r) for r in rng.permutation(n_views)]  # pruned rows too
            estimates = table.record_estimate(metric, rows)
            utilities = table.utility(metric, rows)
            for row, estimate, (value, dists) in zip(rows, estimates, utilities):
                [single_estimate] = singles[row].record_estimate(metric, [0])
                [(single_value, single_dists)] = singles[row].utility(metric, [0])
                want, mask, p, q = references[row].utility(metric)
                assert _bits(estimate) == _bits(value) == _bits(want)
                assert _bits(single_estimate) == _bits(single_value) == _bits(want)
                _assert_same_distributions(dists, single_dists)
                if p is not None:
                    assert dists.keys == tuple(categories[mask])
                    assert dists.target.tobytes() == p.tobytes()
                    assert dists.reference.tobytes() == q.tobytes()


def test_rows_with_different_presence_patterns_in_one_call():
    state = _state(AggregateFunction.SUM, n_views=4)
    # rows 0 and 3 share a pattern, row 1 has no reference yet, row 2 has
    # other slots present.
    _feed(state, "target", np.array(["a", "b"]), [[4.0, 1.0], [2.0, 2.0]], [1, 1], rows=[0, 3])
    _feed(state, "reference", np.array(["a", "b"]), [[1.0, 1.0], [1.0, 3.0]], [1, 1], rows=[0, 3])
    _feed(state, "target", np.array(["c"]), [5.0], [1], rows=[1])
    _feed(state, "target", np.array(["b", "c"]), [1.0, 3.0], [1, 1], rows=[2])
    _feed(state, "reference", np.array(["c"]), [2.0], [1], rows=[2])
    rows = [2, 0, 1, 3]
    got = state.utility(EMD, rows)
    assert [dists.keys for _, dists in got] == [("b", "c"), ("a", "b"), ("c",), ("a", "b")]
    assert [value for value, _ in got] == state.record_estimate(EMD, rows)
    assert got[2][0] == 0.0 and got[2][1].target.tolist() == [1.0]
    assert got[0][1].target.tolist() == [0.25, 0.75] and got[0][1].reference.tolist() == [0, 1]
    assert got[1][1].target.tolist() == [0.8, 0.2] and got[3][1].reference.tolist() == [0.25, 0.75]
    assert got[1][0] == EMD(np.array([0.8, 0.2]), np.array([0.5, 0.5]))


def test_one_metric_call_per_presence_pattern():
    """The metric is handed each pattern's stack once — not once per view."""
    calls: list[tuple] = []

    class Spy(type(EMD)):
        def __call__(self, p, q):
            calls.append(np.shape(p))
            return super().__call__(p, q)

    state = _state(AggregateFunction.SUM, n_views=6)
    everyone, rows = range(6), [4, 0, 5, 1, 3, 2]
    _feed(state, "target", CATS, np.arange(1.0, 19.0).reshape(6, 3), [1, 1, 1], rows=everyone)
    _feed(state, "reference", CATS[:2], np.ones((6, 2)), [1, 1], rows=everyone)
    assert state.record_estimate(Spy(), rows) == [value for value, _ in state.utility(Spy(), rows)]
    assert calls == [(6, 3), (6, 3)]
    # Rows 1 and 3 are pruned before slot "c" reaches the others' reference
    # side: two presence patterns, two calls.
    del calls[:]
    _feed(state, "reference", CATS[2:], np.ones((4, 1)), [1], rows=[0, 2, 4, 5])
    estimates = state.record_estimate(Spy(), rows)
    assert sorted(calls) == [(2, 3), (4, 3)]
    p, q = (
        normalize_distribution(side.values(np.array(rows)))
        for side in (state.target, state.reference)
    )
    assert estimates == [EMD(p[i], q[i]) for i in range(6)]


def test_stacked_normalization_survives_the_layout_trap():
    """``values[:, mask]`` comes back with a transposed memory layout, where
    ``sum(axis=1)`` is not the 1-D pairwise sum; whatever it is handed,
    ``normalize_distribution`` must return each row as if normalized alone."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_rows, n_slots = int(rng.integers(2, 10)), int(rng.integers(2, 400))
        values = rng.normal(1.0, 2.0, (n_rows, n_slots)) * 10.0 ** rng.integers(-6, 7)
        mask = rng.random(n_slots) < 0.7
        mask[:2] = True
        trapped = values[:, mask]
        compacted = np.take(values, np.flatnonzero(mask), axis=1)
        assert compacted.flags.c_contiguous
        for stack in (trapped, compacted):
            normalized = normalize_distribution(stack)
            for r in range(n_rows):
                alone = normalize_distribution(np.ascontiguousarray(stack[r]))
                assert normalized[r].tobytes() == alone.tobytes()


@pytest.mark.parametrize("store", ["row", "col"])
def test_table_spanning_two_routed_queries_equals_one(store):
    """With two aggregates per query a dimension's table is fed by several
    query results per phase; every row still gets exactly its own numbers."""
    table, spec = build_info("census", scale="smoke", seed=7)
    runs = []
    for limit in (None, 2):
        config = tuned_config(store).with_(max_aggregates_per_query=limit)
        with SeeDB.over_table(table, store=store, config=config) as seedb:
            runs.append(seedb.run_engine(spec.target_predicate(), k=5, strategy="comb"))
    one, two = runs
    assert two.stats.queries_issued > one.stats.queries_issued
    assert two.selected == one.selected
    assert two.active_per_phase == one.active_per_phase
    assert list(two.utilities) == list(one.utilities)
    for key, value in one.utilities.items():
        assert _bits(two.utilities[key]) == _bits(value)
        _assert_same_distributions(two.distributions[key], one.distributions[key])
