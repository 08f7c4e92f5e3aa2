"""Tests for distance functions, normalization, and consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import MetricError
from repro.metrics import (
    align_distributions,
    get_metric,
    list_metrics,
    normalize_distribution,
)
from repro.metrics.consistency import consistency_curve

BOUNDED = ["emd", "euclidean", "js", "maxdiff"]
ALL = BOUNDED + ["kl"]


class TestNormalize:
    def test_sums_to_one(self):
        out = normalize_distribution(np.array([1.0, 3.0]))
        assert out.tolist() == [0.25, 0.75]

    def test_clips_negative_and_nan(self):
        out = normalize_distribution(np.array([-5.0, np.nan, 2.0]))
        assert out.tolist() == [0.0, 0.0, 1.0]

    def test_all_zero_becomes_uniform(self):
        out = normalize_distribution(np.zeros(4))
        assert out.tolist() == [0.25] * 4

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            normalize_distribution(np.array([]))

    def test_multidim_rejected(self):
        with pytest.raises(MetricError):
            normalize_distribution(np.zeros((2, 2, 2)))
        with pytest.raises(MetricError):
            normalize_distribution(np.float64(1.0))

    def test_empty_stack_rejected(self):
        with pytest.raises(MetricError):
            normalize_distribution(np.zeros((3, 0)))

    def test_stack_equals_its_rows_one_by_one_bitwise(self):
        rng = np.random.default_rng(3)
        for n_slots in (1, 2, 7, 8, 9, 127, 128, 129, 400):
            stack = rng.normal(1.0, 2.0, (6, n_slots)) * 10.0 ** rng.integers(-6, 7, (6, 1))
            out = normalize_distribution(stack)
            assert out.shape == stack.shape
            for row, alone in zip(out, stack):
                assert row.tobytes() == normalize_distribution(alone).tobytes()

    def test_all_zero_row_becomes_uniform_beside_its_neighbours(self):
        out = normalize_distribution(np.array([[1.0, 3.0], [0.0, 0.0], [0.0, 2.0]]))
        assert out.tolist() == [[0.25, 0.75], [0.5, 0.5], [0.0, 1.0]]

    def test_nan_and_negative_carry_zero_mass_per_row(self):
        out = normalize_distribution(
            np.array([[-5.0, np.nan, 2.0], [1.0, -1.0, 1.0], [np.nan, -2.0, np.inf]])
        )
        assert out.tolist() == [[0.0, 0.0, 1.0], [0.5, 0.0, 0.5], [1 / 3, 1 / 3, 1 / 3]]

    @given(
        st.lists(
            st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0)),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_the_copy_and_mask_reference_bitwise(self, raw):
        """Out-of-place cleaning gives what clean-a-copy-in-place gave."""
        values = np.array(raw, dtype=np.float64)
        kept = values.copy()
        reference = values.copy()
        reference[~np.isfinite(reference)] = 0.0
        np.clip(reference, 0.0, None, out=reference)
        with np.errstate(over="ignore", invalid="ignore"):  # sums of huge floats
            total = reference.sum()
            expected = (
                np.full(reference.shape, 1.0 / reference.size)
                if total <= 0.0
                else reference / total
            )
            got = normalize_distribution(values)
        assert got.tobytes() == expected.tobytes()
        assert values.tobytes() == kept.tobytes()  # the input is left alone


class TestAlign:
    def test_union_of_keys_with_zero_fill(self):
        keys, p, q = align_distributions({"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 3.0})
        assert keys == ["a", "b", "c"]
        assert p.tolist() == [0.5, 0.5, 0.0]
        assert q.tolist() == [0.0, 0.25, 0.75]

    def test_empty_summaries_rejected(self):
        with pytest.raises(MetricError):
            align_distributions({}, {})


class TestKnownValues:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        for name in ALL:
            assert get_metric(name)(p, p.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_maximal_separation_is_one_for_bounded(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        for name in BOUNDED:
            assert get_metric(name)(p, q) == pytest.approx(1.0, abs=1e-4)

    def test_emd_known_value(self):
        # Move 0.5 mass one step over three bins: raw EMD 0.5+0.5=1 -> /2.
        p = np.array([1.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0])
        assert get_metric("emd")(p, q) == pytest.approx(0.5)

    def test_emd_matches_paper_example(self):
        """The paper's Fig 1 distributions: (0.52,0.48) vs (0.31,0.69)."""
        value = get_metric("emd")(np.array([0.52, 0.48]), np.array([0.31, 0.69]))
        assert value == pytest.approx(0.21, abs=1e-9)

    def test_maxdiff_known_value(self):
        value = get_metric("maxdiff")(
            np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
        )
        assert value == pytest.approx(0.3)

    def test_kl_asymmetric(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        kl = get_metric("kl")
        assert kl(p, q) != pytest.approx(kl(q, p))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError):
            get_metric("emd")(np.array([1.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("name", ALL)
    def test_a_stack_is_validated_once_and_as_strictly(self, name):
        """Whatever a metric is handed is checked whole: one bad entry in any
        row of a stack is the same ``MetricError`` it is in a vector."""
        metric = get_metric(name)
        good = np.full((4, 3), 1.0 / 3.0)
        assert metric(good, good.copy()).shape == (4,)
        for row, value in ((0, -0.1), (3, np.nan), (2, -np.inf)):
            bad = good.copy()
            bad[row, 1] = value
            for p, q in ((bad, good), (good, bad)):
                with pytest.raises(MetricError, match="nonnegative"):
                    metric(p, q)
        for p, q in ((good, good[:3]), (good, good[:, :2]), (good, good[0])):
            with pytest.raises(MetricError, match="shape mismatch"):
                metric(p, q)
        for empty in (np.zeros((0, 3)), np.zeros((4, 0)), np.zeros(0)):
            with pytest.raises(MetricError, match="empty"):
                metric(empty, empty.copy())
        with pytest.raises(MetricError, match="no vector or stack"):
            metric(np.ones((2, 2, 2)), np.ones((2, 2, 2)))


def _emd_before(p, q):
    return 0.0 if p.size == 1 else np.abs(np.cumsum(p - q))[:-1].sum() / (p.size - 1)


def _js_before(p, q):
    p_s = (p + 1e-12) / (p + 1e-12).sum()
    q_s = (q + 1e-12) / (q + 1e-12).sum()
    mid = 0.5 * (p_s + q_s)
    divergence = 0.5 * np.sum(p_s * np.log2(p_s / mid)) + 0.5 * np.sum(q_s * np.log2(q_s / mid))
    return float(np.sqrt(max(divergence, 0.0)))


def _kl_before(p, q):
    p_s = (p + 1e-9) / (p + 1e-9).sum()
    q_s = (q + 1e-9) / (q + 1e-9).sum()
    return float(np.sum(p_s * np.log(p_s / q_s)))


#: The 1-D formulas of the commit before the metrics took stacks, kept as the
#: oracle: writing ``compute`` over the last axis must not move a bit of them.
_BEFORE_STACKS = {
    "emd": _emd_before,
    "euclidean": lambda p, q: float(np.linalg.norm(p - q) / math.sqrt(2.0)),
    "js": _js_before,
    "kl": _kl_before,
    "maxdiff": lambda p, q: float(np.max(np.abs(p - q))),
}


def _stack_pairs(seed: int, n: int):
    """Seeded ``(P, Q)`` stacks of 1-40 rows x 1-64 slots (every eighth up to
    600: past the pairwise sum's 128-element blocks), normalized, with zeroed
    entries, point masses, all-zero rows and denormals mixed in."""
    rng = np.random.default_rng(seed)
    for draw in range(n):
        n_rows = int(rng.integers(1, 41))
        n_slots = int(rng.integers(1, 601 if draw % 8 == 7 else 65))
        p = rng.random((n_rows, n_slots)) * 10.0 ** rng.integers(-6, 7, (n_rows, 1))
        q = rng.random((n_rows, n_slots))
        kind = draw % 5
        if kind == 1:
            p[rng.random(p.shape) < 0.5] = 0.0
            q[rng.random(q.shape) < 0.5] = 0.0
        elif kind == 2:
            p[:] = 0.0
            p[np.arange(n_rows), rng.integers(0, n_slots, n_rows)] = 1.0
        p, q = normalize_distribution(p), normalize_distribution(q)
        if kind == 3:  # after normalizing: these rows do not sum to 1
            p[0] = 0.0
            q[-1] = 5e-324
            p[n_rows // 2, ::2] = 2.5e-310
        yield p, q


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


@pytest.mark.parametrize("name", ALL)
def test_a_stacks_row_equals_the_vectors_value_bit_for_bit(name):
    """``metric(P, Q)[r]`` is ``metric(P[r], Q[r])`` is the value before
    stacks existed, as float hex — the rule a metric meets to set ``stacked``
    (a metric that fails this sweep does not declare it and gets the loop)."""
    metric, before = get_metric(name), _BEFORE_STACKS[name]
    for p, q in _stack_pairs(sum(map(ord, name)), 160):
        stacked = metric(p, q)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(p),)
        assert stacked.dtype == np.float64
        one_by_one = [metric(p[r], q[r]) for r in range(len(p))]
        assert all(type(value) is float for value in one_by_one)
        assert _hex(stacked) == _hex(one_by_one) == _hex(before(p[r], q[r]) for r in range(len(p)))


def test_who_declares_the_stacked_form():
    declared = {name for name in list_metrics() if get_metric(name).stacked}
    assert {"emd", "js", "kl", "maxdiff"} <= declared
    # np.linalg.norm over an axis is not its 1-D BLAS path: the loop keeps its bits.
    assert "euclidean" not in declared


def test_a_transposed_layout_is_made_contiguous_not_summed_in_another_order():
    """``values[:, mask]`` hands back F-ordered memory, whose row sums add in
    another order; a metric must answer as if given the C-contiguous copy."""
    rng = np.random.default_rng(3)
    for name in ALL:
        metric = get_metric(name)
        for _ in range(40):
            n_rows, n_slots = int(rng.integers(2, 12)), int(rng.integers(130, 400))
            mask = rng.random(n_slots) < 0.8
            p = normalize_distribution(rng.random((n_rows, n_slots)))[:, mask]
            q = normalize_distribution(rng.random((n_rows, n_slots)))[:, mask]
            assert not p.flags.c_contiguous
            want = metric(np.ascontiguousarray(p), np.ascontiguousarray(q))
            assert _hex(metric(p, q)) == _hex(want)
            rows = (metric(np.ascontiguousarray(p[r]), q[r]) for r in range(n_rows))
            assert _hex(want) == _hex(rows)

    def test_unknown_metric(self):
        with pytest.raises(MetricError):
            get_metric("cosine")

    def test_registry_contents(self):
        assert set(ALL) <= set(list_metrics())


@st.composite
def _distribution_pair(draw):
    n = draw(st.integers(2, 12))
    raw_p = draw(
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=n, max_size=n)
    )
    raw_q = draw(
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=n, max_size=n)
    )
    return normalize_distribution(np.array(raw_p)), normalize_distribution(
        np.array(raw_q)
    )


@given(_distribution_pair())
def test_property_bounded_metrics_stay_in_unit_interval(pair):
    p, q = pair
    for name in BOUNDED:
        value = get_metric(name)(p, q)
        assert -1e-9 <= value <= 1.0 + 1e-9, f"{name} out of bounds: {value}"


@given(_distribution_pair())
def test_property_symmetric_metrics(pair):
    p, q = pair
    for name in ("emd", "euclidean", "js", "maxdiff"):
        metric = get_metric(name)
        assert metric(p, q) == pytest.approx(metric(q, p), abs=1e-9)


@given(_distribution_pair())
def test_property_nonnegative(pair):
    p, q = pair
    for name in ALL:
        assert get_metric(name)(p, q) >= -1e-12


class TestConsistency:
    def test_estimates_converge_with_samples(self):
        """Property 4.1: sampled utility approaches the true utility."""
        rng = np.random.default_rng(0)
        n = 30_000
        t_groups = rng.integers(0, 4, n)
        r_groups = rng.integers(0, 4, n)
        t_values = rng.gamma(2.0, 10.0, n) * (1 + 0.5 * (t_groups == 0))
        r_values = rng.gamma(2.0, 10.0, n)
        for name in ("emd", "euclidean"):
            curve = consistency_curve(
                get_metric(name),
                t_values,
                t_groups,
                r_values,
                r_groups,
                n_groups=4,
                sample_sizes=(100, 1000, 10_000),
                n_repeats=8,
                seed=1,
            )
            assert curve.is_decreasing(tolerance=0.005), (
                f"{name} error curve not decreasing: {curve.mean_abs_errors}"
            )
