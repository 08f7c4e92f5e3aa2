"""Tests for distance functions, normalization, and consistency."""

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
