"""Shared-scan batch execution: equivalence and single-charge accounting.

The contract under test: ``SharedScanExecutor.execute_batch`` is result- and
spill-accounting-identical to looping ``QueryExecutor.execute``, while the
batch's buffer-pool charges count every shared page exactly once.
"""

from __future__ import annotations

import pytest

from repro.db.executor import QueryExecutor
from repro.db.expressions import CaseWhen, Col, Comparison, Lit, eq
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    DerivedColumn,
)
from repro.db.shared_scan import SharedScanExecutor
from repro.db.storage import make_store
from repro.exceptions import QueryError

COUNT = AggregateFunction.COUNT
SUM = AggregateFunction.SUM
AVG = AggregateFunction.AVG


def _query(table, **kwargs):
    defaults = dict(
        table=table,
        group_by=("color",),
        aggregates=(AggregateSpec(SUM, "price", "total"),),
    )
    defaults.update(kwargs)
    return AggregateQuery(**defaults)


def _census_flag_query(dim, measure):
    """The sharing optimizer's combined target/reference query shape."""
    flag = DerivedColumn(
        "seedb_flag", CaseWhen(eq("marital", "Unmarried"), Lit(1), Lit(0))
    )
    return AggregateQuery(
        table="census_like",
        group_by=(dim, "seedb_flag"),
        aggregates=(AggregateSpec(AVG, measure, "a"),),
        derived=(flag,),
    )


def _assert_batch_matches_serial(store, queries, assert_backends_agree):
    shared = SharedScanExecutor(store)
    serial = QueryExecutor(store)
    outcomes = shared.execute_batch(queries)
    assert len(outcomes) == len(queries)
    for query, (result, stats) in zip(queries, outcomes):
        expected, expected_stats = serial.execute(query)
        assert_backends_agree(expected, result)
        assert stats.queries_issued == 1
        assert stats.groups_maintained == expected_stats.groups_maintained
        assert stats.agg_rows_processed == expected_stats.agg_rows_processed
        assert stats.spill_passes == expected_stats.spill_passes
    return outcomes


class TestEquivalence:
    def test_plain_groupby_batch(self, tiny_table, assert_backends_agree):
        store = make_store("col", tiny_table)
        queries = [
            _query("tiny"),
            _query("tiny", group_by=("size",)),
            _query(
                "tiny",
                group_by=("color", "size"),
                aggregates=(
                    AggregateSpec(AVG, "weight", "avg_w"),
                    AggregateSpec(COUNT, None, "n"),
                ),
            ),
        ]
        _assert_batch_matches_serial(store, queries, assert_backends_agree)

    def test_shared_flag_and_predicate_batch(self, census_like, assert_backends_agree):
        store = make_store("col", census_like)
        flag = DerivedColumn(
            "seedb_flag", CaseWhen(eq("marital", "Unmarried"), Lit(1), Lit(0))
        )
        queries = [
            AggregateQuery(
                table="census_like",
                group_by=(dim, "seedb_flag"),
                aggregates=(AggregateSpec(AVG, measure, "a"),),
                derived=(flag,),
                predicate=eq("sex", "F"),
            )
            for dim in ("race", "sex")
            for measure in ("capital", "age")
        ]
        _assert_batch_matches_serial(store, queries, assert_backends_agree)

    def test_row_ranges_and_global_aggregates(self, census_like, assert_backends_agree):
        store = make_store("col", census_like)
        queries = [
            _query("census_like", group_by=("race",),
                   aggregates=(AggregateSpec(SUM, "capital", "s"),),
                   row_range=(0, 5_000)),
            _query("census_like", group_by=("race",),
                   aggregates=(AggregateSpec(SUM, "capital", "s"),),
                   row_range=(5_000, 20_000)),
            # Global aggregate (no group-by) in the same batch.
            _query("census_like", group_by=(),
                   aggregates=(AggregateSpec(COUNT, None, "n"),),
                   row_range=(0, 5_000)),
        ]
        outcomes = _assert_batch_matches_serial(
            store, queries, assert_backends_agree
        )
        assert outcomes[0][0].input_rows == 5_000
        assert outcomes[1][0].input_rows == 15_000

    def test_expression_aggregate_arguments_shared(
        self, tiny_table, assert_backends_agree
    ):
        store = make_store("col", tiny_table)
        case_arm = CaseWhen(eq("color", "red"), Col("price"), Lit(0.0))
        queries = [
            _query("tiny", aggregates=(AggregateSpec(SUM, case_arm, "s"),)),
            _query(
                "tiny",
                group_by=("size",),
                aggregates=(AggregateSpec(SUM, case_arm, "s"),),
            ),
        ]
        _assert_batch_matches_serial(store, queries, assert_backends_agree)

    def test_predicate_on_derived_alias_stays_private_but_correct(
        self, tiny_table, assert_backends_agree
    ):
        """A WHERE over a derived alias can't share a selector; still exact."""
        store = make_store("col", tiny_table)
        flag = DerivedColumn("flag", CaseWhen(eq("color", "red"), Lit(1), Lit(0)))
        queries = [
            AggregateQuery(
                table="tiny",
                group_by=("size",),
                aggregates=(AggregateSpec(COUNT, None, "n"),),
                derived=(flag,),
                predicate=eq("flag", 1),
            ),
            _query("tiny"),
        ]
        outcomes = _assert_batch_matches_serial(
            store, queries, assert_backends_agree
        )
        assert outcomes[0][0].input_rows == 3  # the red rows

    def test_spill_accounting_matches_per_query(
        self, census_like, assert_backends_agree
    ):
        store = make_store("col", census_like)
        queries = [
            _query(
                "census_like",
                group_by=("race", "sex"),
                aggregates=(AggregateSpec(SUM, "capital", "s"),),
                group_budget=2,
            )
        ]
        outcomes = _assert_batch_matches_serial(
            store, queries, assert_backends_agree
        )
        assert outcomes[0][1].spill_passes > 0

    def test_same_alias_different_expressions_not_conflated(
        self, tiny_table, assert_backends_agree
    ):
        """Two queries reusing one derived alias for different expressions."""
        store = make_store("col", tiny_table)
        red = DerivedColumn("f", CaseWhen(eq("color", "red"), Lit(1), Lit(0)))
        small = DerivedColumn("f", CaseWhen(eq("size", "S"), Lit(1), Lit(0)))
        queries = [
            AggregateQuery(
                table="tiny",
                group_by=("f",),
                aggregates=(AggregateSpec(SUM, "f", "s"),),
                derived=(derived,),
            )
            for derived in (red, small)
        ]
        outcomes = _assert_batch_matches_serial(
            store, queries, assert_backends_agree
        )
        red_sums = outcomes[0][0].values["s"]
        small_sums = outcomes[1][0].values["s"]
        assert red_sums.tolist() == [0.0, 3.0]  # 3 red rows
        assert small_sums.tolist() == [0.0, 4.0]  # 4 small rows

    def test_derived_alias_shadowing_base_column(self, assert_backends_agree):
        """An alias shadowing a scanned base column must use derived values.

        Regression: the shareability check once compared references against
        the batch-wide union of scanned columns, so a predicate (or derived
        chain) over a shadowing alias was evaluated against the raw base
        column instead of the derived values.
        """
        from repro.db.table import Table

        table = Table(
            "shadow",
            {"k": ["a", "a", "b", "b"], "price": [1.0, 2.0, 3.0, 4.0]},
        )
        store = make_store("col", table)
        # Derived column reusing the base column's own name.
        shadow = DerivedColumn(
            "price", CaseWhen(Comparison(">", Col("price"), Lit(2.0)), Lit(1), Lit(0))
        )
        shadowed_query = AggregateQuery(
            table="shadow",
            group_by=("k",),
            aggregates=(AggregateSpec(COUNT, None, "n"),),
            derived=(shadow,),
            predicate=eq("price", 1),  # refers to the DERIVED flag, not base
        )
        plain_query = AggregateQuery(
            table="shadow",
            group_by=("k",),
            aggregates=(AggregateSpec(SUM, "price", "s"),),  # base column
        )
        outcomes = _assert_batch_matches_serial(
            store, [shadowed_query, plain_query], assert_backends_agree
        )
        assert outcomes[0][0].input_rows == 2  # rows with base price > 2
        assert outcomes[1][0].values["s"].tolist() == [3.0, 7.0]

    def test_cross_query_alias_base_collision(self, assert_backends_agree):
        """Query A's derived alias colliding with query B's base column.

        Regression: A's predicate over its alias ``flag`` was evaluated
        against B's base column ``flag`` pulled into the union scan.
        """
        from repro.db.table import Table

        table = Table(
            "coll",
            {
                "k": ["a", "a", "b", "b"],
                "flag": [9.0, 9.0, 9.0, 9.0],  # base column named like A's alias
                "m": [1.0, 2.0, 3.0, 4.0],
            },
        )
        store = make_store("col", table)
        a = AggregateQuery(
            table="coll",
            group_by=("k",),
            aggregates=(AggregateSpec(SUM, "m", "s"),),
            derived=(
                DerivedColumn(
                    "flag",
                    CaseWhen(Comparison(">", Col("m"), Lit(2.0)), Lit(1), Lit(0)),
                ),
            ),
            predicate=eq("flag", 1),  # A's derived flag: rows m > 2
        )
        b = AggregateQuery(
            table="coll",
            group_by=("k",),
            aggregates=(AggregateSpec(SUM, "flag", "s"),),  # B's BASE flag
        )
        outcomes = _assert_batch_matches_serial(store, [a, b], assert_backends_agree)
        assert outcomes[0][0].values["s"].tolist() == [7.0]  # only group 'b'
        assert outcomes[1][0].values["s"].tolist() == [18.0, 18.0]

    def test_alias_shadowing_a_dictionary_backed_column(self, assert_backends_agree):
        """A shadowing alias is never tested on the base column's codes.

        ``k`` is dictionary-backed (grouping caches its dictionary), and the
        derived ``k`` has the same type as its categories: only dropping the
        shadowed dictionary keeps ``k = 'a'`` on the derived values.
        """
        from repro.db.table import Table

        table = Table(
            "shadow",
            {"k": ["a", "a", "b", "b"], "g": ["u", "v", "u", "v"], "m": [1.0, 2.0, 3.0, 4.0]},
        )
        table.dictionary("k")
        store = make_store("col", table)
        swapped = DerivedColumn(
            "k", CaseWhen(Comparison(">", Col("m"), Lit(1.0)), Lit("a"), Lit("b"))
        )
        shadowed = AggregateQuery(
            table="shadow",
            group_by=("g",),
            aggregates=(AggregateSpec(SUM, "m", "s"),),
            derived=(swapped,),
            predicate=eq("k", "a"),  # the DERIVED k: rows with m > 1
        )
        plain = _query(
            "shadow", group_by=("g",), aggregates=(AggregateSpec(SUM, "m", "s"),),
            predicate=eq("k", "a"),  # the base k, on its codes
        )
        outcomes = _assert_batch_matches_serial(
            store, [shadowed, plain], assert_backends_agree
        )
        assert outcomes[0][0].values["s"].tolist() == [3.0, 6.0]
        assert outcomes[1][0].values["s"].tolist() == [1.0, 2.0]

    def test_literal_tests_never_decode_a_dictionary_column(
        self, tmp_path, monkeypatch, assert_backends_agree
    ):
        """A column only compared with literals is served from its codes."""
        import numpy as np

        from repro.db import chunks
        from repro.db.table import Table

        rng = np.random.default_rng(3)
        n = 300
        table = Table(
            "enc",
            {
                "who": rng.choice(["ann", "bob", "cy"], n),
                "where": rng.choice(["north", "south"], n),
                "tag": rng.choice(["p", "q"], n),
                "m": rng.random(n),
            },
        )
        chunks.write_table(table, tmp_path / "ds", chunk_rows=128)
        stored = chunks.open_table(tmp_path / "ds")
        decoded: list[str] = []
        materialize = chunks.DictEncodedColumn.materialize
        monkeypatch.setattr(
            chunks.DictEncodedColumn,
            "materialize",
            lambda self, start, stop: decoded.append(self.name) or materialize(self, start, stop),
        )
        flag = DerivedColumn("flag", CaseWhen(eq("who", "bob"), Lit(1), Lit(0)))
        queries = [
            _query(
                "enc", group_by=("where", "flag"), derived=(flag,),
                aggregates=(AggregateSpec(AVG, "m", "a"),), predicate=eq("tag", "p"),
            ),
            # ``tag`` as a value (compared with a column): this one decodes.
            _query(
                "enc", group_by=("where",), aggregates=(AggregateSpec(COUNT, None, "n"),),
                predicate=Comparison("!=", Col("tag"), Col("where")),
            ),
        ]
        expected = SharedScanExecutor(make_store("col", table)).execute_batch(queries)
        for executor in (QueryExecutor, SharedScanExecutor):
            decoded.clear()
            # Pages align with chunks, so each is touched (and charged) once.
            store = make_store("col", stored, page_rows=64)
            if executor is QueryExecutor:
                result, stats = executor(store).execute(queries[0])
            else:
                (result, stats), = executor(store).execute_batch(queries[:1])
            assert decoded == []
            assert_backends_agree(expected[0][0], result)
            # Undecoded columns are charged all the same.
            assert stats.bytes_scanned_miss == store.layout.scan_bytes(
                ["m", "tag", "where", "who"], 0, n
            )
        decoded.clear()
        got = SharedScanExecutor(make_store("col", stored)).execute_batch(queries)
        assert set(decoded) == {"tag", "where"}
        for (want, _), (have, _) in zip(expected, got):
            assert_backends_agree(want, have)

    def test_empty_batch_and_wrong_table(self, tiny_table):
        store = make_store("col", tiny_table)
        shared = SharedScanExecutor(store)
        assert shared.execute_batch([]) == []
        with pytest.raises(QueryError):
            shared.execute_batch([_query("other")])


class TestSingleChargeAccounting:
    """Acceptance: a shared-scan batch charges each shared page once."""

    def test_batch_charges_shared_pages_once(self, census_like):
        store = make_store("col", census_like)
        shared = SharedScanExecutor(store)
        # Three queries over the same two base columns.
        queries = [
            _query(
                "census_like",
                group_by=("race",),
                aggregates=(AggregateSpec(agg, "capital", "a"),),
            )
            for agg in (SUM, AVG, COUNT)
        ]
        store.buffer_pool.clear()
        store.buffer_pool.reset_counters()
        outcomes = shared.execute_batch(queries)
        total_missed = sum(stats.pages_missed for _, stats in outcomes)
        total_hit = sum(stats.pages_hit for _, stats in outcomes)
        total_bytes = sum(
            stats.bytes_scanned_miss + stats.bytes_scanned_hit
            for _, stats in outcomes
        )
        # One cold scan of the union {race, capital}: every page missed
        # exactly once, no re-reads, bytes equal to one scan's worth.
        assert total_hit == 0
        assert total_missed == store.buffer_pool.total_misses
        assert total_missed == len(
            [
                page
                for rng in store.layout.pages_for_scan(
                    ["capital", "race"], 0, store.nrows
                )
                for page in rng
            ]
        )
        assert total_bytes == store.scan_bytes(["capital", "race"], 0, store.nrows)
        # Rows are charged once for the batch, not once per query.
        assert sum(stats.rows_scanned for _, stats in outcomes) == store.nrows

    def test_per_query_path_charges_more(self, census_like):
        """The ablation baseline re-touches pages; shared scan does not."""
        store_shared = make_store("col", census_like)
        store_loop = make_store("col", census_like)
        queries = [
            _query(
                "census_like",
                group_by=("race",),
                aggregates=(AggregateSpec(agg, "capital", "a"),),
            )
            for agg in (SUM, AVG, COUNT)
        ]
        shared_outcomes = SharedScanExecutor(store_shared).execute_batch(queries)
        loop = QueryExecutor(store_loop)
        loop_outcomes = [loop.execute(query) for query in queries]
        shared_total = sum(
            s.bytes_scanned_miss + s.bytes_scanned_hit for _, s in shared_outcomes
        )
        loop_total = sum(
            s.bytes_scanned_miss + s.bytes_scanned_hit for _, s in loop_outcomes
        )
        assert shared_total * 3 == loop_total

    def test_scan_split_sums_exactly_and_deterministically(self, census_like):
        store = make_store("col", census_like)
        queries = [
            _query(
                "census_like",
                group_by=("race",),
                aggregates=(AggregateSpec(SUM, "capital", "s"),),
            )
            for _ in range(7)
        ]
        store.buffer_pool.clear()
        outcomes = SharedScanExecutor(store).execute_batch(queries)
        # The even split is exact: no bytes invented or lost to rounding,
        # even when the batch size does not divide the scan size.
        total = sum(s.bytes_scanned_miss + s.bytes_scanned_hit for _, s in outcomes)
        assert total == store.scan_bytes(["capital", "race"], 0, store.nrows)


class TestFanout:
    def test_fanout_results_match_serial(self, census_like, assert_backends_agree):
        from concurrent.futures import ThreadPoolExecutor

        store = make_store("col", census_like)
        shared = SharedScanExecutor(store)
        queries = [
            _census_flag_query(dim, measure)
            for dim in ("race", "sex")
            for measure in ("capital", "age")
        ]
        serial = shared.execute_batch(queries)
        with ThreadPoolExecutor(max_workers=4) as pool:

            def fanout(fn, items):
                return list(pool.map(fn, items))

            fanned = shared.execute_batch(queries, fanout=fanout)
        for (sr, ss), (fr, fs) in zip(serial, fanned):
            assert_backends_agree(sr, fr)
            assert fs.queries_issued == ss.queries_issued
            assert fs.groups_maintained == ss.groups_maintained
        assert sum(s.pages_missed + s.pages_hit for _, s in serial) == sum(
            s.pages_missed + s.pages_hit for _, s in fanned
        )
