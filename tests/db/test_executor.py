"""Tests for the query executor: results vs. hand-computed truths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import expressions as E
from repro.db import groupby
from repro.db.executor import QueryExecutor
from repro.db.groupby import factorize_key
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    DerivedColumn,
)
from repro.db.storage import make_store
from repro.exceptions import QueryError


def _exec(table, query, store="col"):
    executor = QueryExecutor(make_store(store, table))
    return executor.execute(query)


class TestBasicAggregation:
    def test_avg_group_by(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.AVG, "price", "avg_price"),),
        )
        result, _ = _exec(tiny_table, query)
        rows = {r["color"]: r["avg_price"] for r in result.to_rows()}
        assert rows["red"] == pytest.approx((10 + 30 + 50) / 3)
        assert rows["blue"] == pytest.approx(30.0)
        assert rows["green"] == pytest.approx(60.0)

    def test_count_star(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=("size",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        result, _ = _exec(tiny_table, query)
        rows = {r["size"]: r["n"] for r in result.to_rows()}
        assert rows == {"S": 4, "L": 2}

    def test_multiple_aggregates_one_query(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(
                AggregateSpec(AggregateFunction.SUM, "price", "total"),
                AggregateSpec(AggregateFunction.MIN, "weight", "lightest"),
                AggregateSpec(AggregateFunction.MAX, "weight", "heaviest"),
            ),
        )
        result, _ = _exec(tiny_table, query)
        red = next(r for r in result.to_rows() if r["color"] == "red")
        assert red["total"] == 90.0
        assert red["lightest"] == 1.0
        assert red["heaviest"] == 5.0

    def test_global_aggregate_without_group_by(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=(),
            aggregates=(AggregateSpec(AggregateFunction.SUM, "price", "total"),),
        )
        result, _ = _exec(tiny_table, query)
        assert result.n_groups == 1
        assert result.values["total"][0] == pytest.approx(210.0)


class TestPredicatesAndDerived:
    def test_where_filters(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
            predicate=E.eq("size", "S"),
        )
        result, _ = _exec(tiny_table, query)
        rows = {r["color"]: r["n"] for r in result.to_rows()}
        assert rows == {"red": 2, "blue": 1, "green": 1}

    def test_derived_flag_grouping(self, tiny_table):
        flag = DerivedColumn(
            "is_small", E.CaseWhen(E.eq("size", "S"), E.lit(1), E.lit(0))
        )
        query = AggregateQuery(
            table="tiny",
            group_by=("color", "is_small"),
            aggregates=(AggregateSpec(AggregateFunction.AVG, "price", "avg_p"),),
            derived=(flag,),
        )
        result, _ = _exec(tiny_table, query)
        rows = {
            (r["color"], r["is_small"]): r["avg_p"] for r in result.to_rows()
        }
        assert rows[("red", 1)] == pytest.approx(30.0)  # prices 10, 50
        assert rows[("red", 0)] == pytest.approx(30.0)  # price 30
        assert rows[("blue", 0)] == pytest.approx(20.0)
        assert rows[("blue", 1)] == pytest.approx(40.0)

    def test_aggregate_over_expression(self, tiny_table):
        spec = AggregateSpec(
            AggregateFunction.SUM,
            E.CaseWhen(E.eq("color", "red"), E.col("price"), E.lit(0.0)),
            "red_total",
        )
        query = AggregateQuery(table="tiny", group_by=("size",), aggregates=(spec,))
        result, _ = _exec(tiny_table, query)
        rows = {r["size"]: r["red_total"] for r in result.to_rows()}
        assert rows["S"] == 60.0  # 10 + 50
        assert rows["L"] == 30.0

    def test_predicate_matching_nothing(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
            predicate=E.eq("size", "XXL"),
        )
        result, _ = _exec(tiny_table, query)
        assert result.n_groups == 0


class TestRowRangesAndStats:
    def test_row_range_limits_input(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
            row_range=(0, 2),
        )
        result, _ = _exec(tiny_table, query)
        assert result.input_rows == 2
        assert sum(result.values["n"]) == 2

    def test_phased_ranges_cover_table(self, census_like):
        """Sum of per-phase counts equals the full-table counts."""
        total = {}
        for lo, hi in ((0, 7000), (7000, 14000), (14000, 20000)):
            query = AggregateQuery(
                table="census_like",
                group_by=("sex",),
                aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
                row_range=(lo, hi),
            )
            result, _ = _exec(census_like, query)
            for row in result.to_rows():
                total[row["sex"]] = total.get(row["sex"], 0) + row["n"]
        full, _ = _exec(
            census_like,
            AggregateQuery(
                table="census_like",
                group_by=("sex",),
                aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
            ),
        )
        assert total == {r["sex"]: r["n"] for r in full.to_rows()}

    def test_stats_accounting(self, tiny_table):
        query = AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(
                AggregateSpec(AggregateFunction.SUM, "price", "a"),
                AggregateSpec(AggregateFunction.SUM, "weight", "b"),
            ),
        )
        _, stats = _exec(tiny_table, query)
        assert stats.queries_issued == 1
        assert stats.agg_rows_processed == 6 * 2
        assert stats.groups_maintained == 3
        assert stats.rows_scanned == 6

    def test_spill_charges_extra_bytes(self, census_like):
        query = AggregateQuery(
            table="census_like",
            group_by=("sex", "race"),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
            group_budget=2,
        )
        _, spill_stats = _exec(census_like, query)
        no_budget = query = AggregateQuery(
            table="census_like",
            group_by=("sex", "race"),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        _, clean_stats = _exec(census_like, no_budget)
        assert spill_stats.spill_passes > 0
        assert spill_stats.bytes_scanned_miss > clean_stats.bytes_scanned_miss

    def test_wrong_table_rejected(self, tiny_table):
        query = AggregateQuery(
            table="other",
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        with pytest.raises(QueryError):
            _exec(tiny_table, query)


class TestStoreEquivalence:
    def test_row_and_col_stores_agree(self, census_like):
        query = AggregateQuery(
            table="census_like",
            group_by=("sex", "race"),
            aggregates=(
                AggregateSpec(AggregateFunction.AVG, "capital", "avg_c"),
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
            ),
            predicate=E.eq("marital", "Unmarried"),
        )
        row_result, _ = _exec(census_like, query, store="row")
        col_result, _ = _exec(census_like, query, store="col")
        assert row_result.to_rows() == col_result.to_rows()

    def test_executor_matches_numpy(self, census_like):
        """Cross-check the whole pipeline against direct numpy computation."""
        query = AggregateQuery(
            table="census_like",
            group_by=("race",),
            aggregates=(AggregateSpec(AggregateFunction.AVG, "age", "avg_age"),),
            predicate=E.eq("sex", "F"),
        )
        result, _ = _exec(census_like, query)
        sex = census_like.column("sex")
        race = census_like.column("race")
        age = census_like.column("age")
        for row in result.to_rows():
            mask = (sex == "F") & (race == row["race"])
            assert row["avg_age"] == pytest.approx(age[mask].mean())


class TestSpillPath:
    """Budget-forced multi-pass partitioning through the whole executor."""

    def _grouped_query(self, budget=None):
        return AggregateQuery(
            table="census_like",
            group_by=("sex", "race"),
            aggregates=(
                AggregateSpec(AggregateFunction.AVG, "capital", "avg_c"),
                AggregateSpec(AggregateFunction.SUM, "age", "age_sum"),
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
            ),
            group_budget=budget,
        )

    def test_spilled_and_in_core_results_identical(self, census_like):
        in_core, core_stats = _exec(census_like, self._grouped_query(budget=None))
        spilled, spill_stats = _exec(census_like, self._grouped_query(budget=2))
        assert core_stats.spill_passes == 0
        assert spill_stats.spill_passes > 0
        assert spilled.n_groups == in_core.n_groups
        core_rows = in_core.to_rows()
        spill_rows = spilled.to_rows()
        assert [(r["sex"], r["race"]) for r in spill_rows] == [
            (r["sex"], r["race"]) for r in core_rows
        ]
        for cr, sr in zip(core_rows, spill_rows):
            assert sr["avg_c"] == pytest.approx(cr["avg_c"])
            assert sr["age_sum"] == pytest.approx(cr["age_sum"])
            assert sr["n"] == cr["n"]

    def test_spill_with_predicate_matches_in_core(self, census_like):
        def build(budget):
            return AggregateQuery(
                table="census_like",
                group_by=("sex", "race"),
                aggregates=self._grouped_query().aggregates,
                predicate=E.eq("marital", "Unmarried"),
                group_budget=budget,
            )

        in_core, _ = _exec(census_like, build(None))
        spilled, stats = _exec(census_like, build(3))
        assert stats.spill_passes > 0
        assert spilled.n_groups == in_core.n_groups
        for cr, sr in zip(in_core.to_rows(), spilled.to_rows()):
            assert cr["sex"] == sr["sex"] and cr["race"] == sr["race"]
            assert sr["avg_c"] == pytest.approx(cr["avg_c"])
            assert sr["n"] == cr["n"]

    def test_spill_budget_one_extreme(self, census_like):
        """budget=1 forces one partition per estimated group; still exact."""
        in_core, _ = _exec(census_like, self._grouped_query(budget=None))
        spilled, stats = _exec(census_like, self._grouped_query(budget=1))
        assert stats.spill_passes > 0
        assert spilled.n_groups == in_core.n_groups
        np.testing.assert_allclose(
            spilled.values["avg_c"], in_core.values["avg_c"]
        )
        np.testing.assert_array_equal(spilled.values["n"], in_core.values["n"])


class TestDerivedGroupKeys:
    """Derived (computed) columns used as GROUP BY keys."""

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0, 1, 1, 0, 1]),
            np.array([1, 1, 1]),  # a flag every row of the range shares
            np.array([3, 0, 2, 2, 0], dtype=np.int32),  # two-bit flag, gap at 1
            np.array([True, False, True]),
            np.array([False, False]),
            np.array([5, 1023, 7]),  # the largest value still remapped
            np.array([5, 1024, 7]),  # too wide, negative, non-integer,
            np.array([-1, 0, 1]),  # empty and scalar inputs take the sort
            np.array([0.5, 0.25, 0.5]),
            np.array(["b", "a", "b"]),
            np.array([], dtype=np.int64),
            np.asarray(1),
            # Strings take the hash pass: even widths hash two code points
            # per word, odd widths one.
            np.array(["carrier_03", "carrier_01", "carrier_03", "carrier_10"]),
            np.array(["abc", "ab", "abc", "b"]),
            # Code point order, not little-endian UCS4 byte order: "ÿ" is
            # U+00FF (bytes ff 00), "ā" U+0101 (bytes 01 01).
            np.array(["ÿ", "ā", "ÿ", "a", "é"]),
            np.array(["\U0001F600", "a", "\U0001F600", "\U00010000", "\uffff"]),
            np.array(["", "a", "", ""]),
            np.array([""]),
            np.array(["a\x00", "a", "b\x00", "b"]),  # "a\x00" is "a" to numpy
            np.array(["only"] * 5),
            np.array(list("zyxzz")),
            np.array(["x" * 64, "y" * 70, "x" * 64, "x" * 63]),
            np.array(["d", "c", "b", "a", "d", "c", "a"])[::2],
            np.array(["b", "a", "b"], dtype=">U1"),
        ],
        ids=repr,
    )
    def test_factorize_key_is_np_unique(self, values):
        self._assert_is_np_unique(values)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(max_size=6), min_size=1, max_size=40))
    def test_factorize_key_is_np_unique_on_any_strings(self, cells):
        self._assert_is_np_unique(np.array(cells))

    @staticmethod
    def _assert_is_np_unique(values):
        categories, codes = np.unique(values, return_inverse=True)
        got_codes, got_categories = factorize_key(values)
        assert got_codes.dtype == np.int32
        assert got_codes.tolist() == codes.tolist()
        assert got_categories.dtype == categories.dtype
        assert got_categories.tolist() == categories.tolist()

    @staticmethod
    def _labels(n_rows: int) -> np.ndarray:
        rng = np.random.default_rng(3)
        pool = np.array([f"origin_airport_{i}" for i in range(300)] + ["", "ā", "ÿ"])
        return pool[rng.integers(0, len(pool), n_rows)]

    def test_factorize_key_reads_a_memmap(self, tmp_path):
        values = self._labels(40_000)  # spans several hash blocks
        mapped = np.memmap(tmp_path / "col", dtype=values.dtype, mode="w+", shape=values.shape)
        mapped[:] = values
        mapped.flush()
        self._assert_is_np_unique(np.memmap(tmp_path / "col", dtype=values.dtype, mode="r"))
        self._assert_is_np_unique(mapped[1::3])

    def test_a_hash_collision_falls_back_to_the_sort(self, monkeypatch):
        """Every row hashing alike makes rows disagree with their group's
        representative: the hash pass gives up and ``np.unique`` answers."""
        monkeypatch.setattr(groupby, "_FNV_PRIME", np.uint64(0))
        values = self._labels(20_000)
        assert groupby._factorize_str(values) is None
        self._assert_is_np_unique(values)
        self._assert_is_np_unique(np.array(["one", "one"]))

    @staticmethod
    def _age_bucket():
        return DerivedColumn(
            "age_bucket",
            E.CaseWhen(E.between("age", 18, 40), E.lit("young"), E.lit("older")),
        )

    def test_derived_key_matches_numpy(self, census_like):
        query = AggregateQuery(
            table="census_like",
            group_by=("age_bucket",),
            aggregates=(AggregateSpec(AggregateFunction.AVG, "capital", "avg_c"),),
            derived=(self._age_bucket(),),
        )
        result, _ = _exec(census_like, query)
        age = census_like.column("age")
        capital = census_like.column("capital")
        young = (age >= 18) & (age <= 40)
        rows = {r["age_bucket"]: r["avg_c"] for r in result.to_rows()}
        assert rows["young"] == pytest.approx(capital[young].mean())
        assert rows["older"] == pytest.approx(capital[~young].mean())

    def test_derived_key_with_predicate(self, census_like):
        query = AggregateQuery(
            table="census_like",
            group_by=("age_bucket",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
            derived=(self._age_bucket(),),
            predicate=E.eq("sex", "F"),
        )
        result, _ = _exec(census_like, query)
        age = census_like.column("age")
        sex = census_like.column("sex")
        young = (age >= 18) & (age <= 40) & (sex == "F")
        rows = {r["age_bucket"]: r["n"] for r in result.to_rows()}
        assert rows["young"] == young.sum()
        assert rows["older"] == (sex == "F").sum() - young.sum()

    def test_derived_key_mixed_with_physical_and_spill(self, census_like):
        """Derived + physical key, in-core vs budget-forced spill: identical."""
        def build(budget):
            return AggregateQuery(
                table="census_like",
                group_by=("race", "age_bucket"),
                aggregates=(
                    AggregateSpec(AggregateFunction.SUM, "capital", "total"),
                    AggregateSpec(AggregateFunction.COUNT, None, "n"),
                ),
                derived=(self._age_bucket(),),
                group_budget=budget,
            )

        in_core, core_stats = _exec(census_like, build(None))
        spilled, spill_stats = _exec(census_like, build(2))
        assert core_stats.spill_passes == 0
        assert spill_stats.spill_passes > 0
        assert in_core.n_groups == 8  # 4 races x 2 buckets
        assert spilled.n_groups == in_core.n_groups
        core_rows = in_core.to_rows()
        spill_rows = spilled.to_rows()
        for cr, sr in zip(core_rows, spill_rows):
            assert (cr["race"], cr["age_bucket"]) == (sr["race"], sr["age_bucket"])
            assert sr["total"] == pytest.approx(cr["total"])
            assert sr["n"] == cr["n"]


class TestQueryValidation:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(QueryError):
            AggregateQuery(
                table="t",
                group_by=(),
                aggregates=(
                    AggregateSpec(AggregateFunction.COUNT, None, "n"),
                    AggregateSpec(AggregateFunction.SUM, "x", "n"),
                ),
            )

    def test_no_aggregates_rejected(self):
        with pytest.raises(QueryError):
            AggregateQuery(table="t", group_by=("a",), aggregates=())

    def test_duplicate_group_by_rejected(self):
        with pytest.raises(QueryError):
            AggregateQuery(
                table="t",
                group_by=("a", "a"),
                aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
            )

    def test_count_needs_no_argument_but_sum_does(self):
        with pytest.raises(QueryError):
            AggregateSpec(AggregateFunction.SUM, None, "s")

    def test_with_range(self):
        query = AggregateQuery(
            table="t",
            group_by=("a",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        ranged = query.with_range(5, 10)
        assert ranged.row_range == (5, 10)
        assert query.row_range is None
