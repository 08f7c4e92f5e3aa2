"""Unit tests for the pluggable execution backends.

The differential suite (tests/test_backends_differential.py) checks
whole-engine agreement; these tests pin the backend contract itself —
registry, capabilities, semantics adaptation (NULL → NaN, empty results,
global aggregates, quoting, row ranges, derived flags), per-thread sqlite
connections, and the clear errors for data sqlite cannot represent.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import EngineConfig
from repro.core.engine import ExecutionEngine
from repro.core.parallel import ParallelDispatcher
from repro.db import expressions as E
from repro.db.backends import (
    NativeBackend,
    SQLiteBackend,
    available_backends,
    make_backend,
    register_backend,
)
from repro.db.backends.sqlite import COUNT_ALIAS
from repro.db.cost import CostModel
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    DerivedColumn,
)
from repro.db.storage import make_store
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.exceptions import BackendError, QueryError, StorageError


def _avg(alias: str = "a", measure: str = "price") -> AggregateSpec:
    return AggregateSpec(AggregateFunction.AVG, measure, alias)


class TestRegistry:
    def test_both_backends_registered(self):
        assert {"native", "sqlite"} <= set(available_backends())

    def test_unknown_backend_raises_with_choices(self, tiny_table):
        store = make_store("col", tiny_table)
        with pytest.raises(BackendError, match="native"):
            make_backend("postgres", store)

    def test_custom_backend_registration(self, tiny_table):
        calls = []

        class Recording(NativeBackend):
            name = "recording"

            def execute(self, query):
                calls.append(query)
                return super().execute(query)

        register_backend("recording", Recording)
        try:
            store = make_store("col", tiny_table)
            engine = ExecutionEngine(
                store,
                EngineConfig(store="col", backend="recording"),
                CostModel(),
            )
            assert engine.backend.name == "recording"
        finally:
            from repro.db.backends import base

            base._REGISTRY.pop("recording", None)

    def test_engine_run_records_backend(self, tiny_table):
        from repro.core.view import ViewSpace
        from repro.db.catalog import TableMeta

        store = make_store("col", tiny_table)
        engine = ExecutionEngine(
            store,
            EngineConfig(store="col", backend="sqlite", n_phases=2),
            CostModel(),
        )
        views = list(ViewSpace.enumerate(TableMeta.of(tiny_table)))
        run = engine.run(views, E.eq("color", "red"), k=1, strategy="sharing", pruner="none")
        assert run.backend == "sqlite"

    def test_capabilities(self, tiny_table):
        store = make_store("col", tiny_table)
        native = make_backend("native", store)
        sqlite = make_backend("sqlite", store)
        assert native.capabilities().supports_group_budget
        assert native.capabilities().accounts_io
        assert not sqlite.capabilities().supports_group_budget
        assert not sqlite.capabilities().accounts_io
        assert sqlite.capabilities().parallel_safe
        sqlite.close()


class TestSQLiteSemantics:
    @pytest.fixture(scope="class")
    def backends(self, tiny_table):
        store = make_store("col", tiny_table)
        sqlite = SQLiteBackend(store)
        yield NativeBackend(store), sqlite
        sqlite.close()

    def test_grouped_aggregates_match(self, backends, assert_backends_agree):
        native, sqlite = backends
        query = AggregateQuery(
            "tiny",
            ("color", "size"),
            (
                _avg("a"),
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
                AggregateSpec(AggregateFunction.SUM, "weight", "s"),
                AggregateSpec(AggregateFunction.MIN, "price", "lo"),
                AggregateSpec(AggregateFunction.MAX, "price", "hi"),
            ),
        )
        assert_backends_agree(native.execute(query)[0], sqlite.execute(query)[0])

    def test_empty_filter_yields_zero_groups(self, backends, assert_backends_agree):
        native, sqlite = backends
        query = AggregateQuery(
            "tiny", ("color",), (_avg(),), predicate=E.eq("color", "absent")
        )
        native_result, _ = native.execute(query)
        sqlite_result, _ = sqlite.execute(query)
        assert sqlite_result.n_groups == 0
        assert sqlite_result.input_rows == 0
        assert_backends_agree(native_result, sqlite_result)

    def test_global_aggregate_matches_native_synthetic_group(self, backends, assert_backends_agree):
        native, sqlite = backends
        query = AggregateQuery("tiny", (), (_avg(), ))
        native_result, _ = native.execute(query)
        sqlite_result, _ = sqlite.execute(query)
        assert sqlite_result.groups["__all__"].tolist() == ["all"]
        assert_backends_agree(native_result, sqlite_result)

    def test_global_aggregate_over_empty_input_collapses(self, backends, assert_backends_agree):
        native, sqlite = backends
        query = AggregateQuery(
            "tiny", (), (_avg(),), predicate=E.eq("color", "absent")
        )
        native_result, _ = native.execute(query)
        sqlite_result, _ = sqlite.execute(query)
        assert sqlite_result.n_groups == 0
        assert_backends_agree(native_result, sqlite_result)

    def test_row_range_matches(self, backends, assert_backends_agree):
        native, sqlite = backends
        query = AggregateQuery("tiny", ("color",), (_avg(),), row_range=(2, 5))
        assert_backends_agree(native.execute(query)[0], sqlite.execute(query)[0])

    def test_derived_flag_column_matches(self, backends, assert_backends_agree):
        native, sqlite = backends
        flag = DerivedColumn("flag", E.CaseWhen(E.eq("color", "red"), E.lit(1), E.lit(0)))
        query = AggregateQuery(
            "tiny",
            ("size", "flag"),
            (
                AggregateSpec(
                    AggregateFunction.SUM,
                    E.CaseWhen(E.eq("color", "red"), E.col("price"), E.lit(0)),
                    "s",
                ),
            ),
            derived=(flag,),
        )
        assert_backends_agree(native.execute(query)[0], sqlite.execute(query)[0])

    def test_group_budget_is_ignored_but_results_match(self, backends, assert_backends_agree):
        native, sqlite = backends
        query = AggregateQuery(
            "tiny", ("color", "size"), (_avg(),), group_budget=1
        )
        native_result, native_stats = native.execute(query)
        sqlite_result, sqlite_stats = sqlite.execute(query)
        assert native_stats.spill_passes > 0
        assert sqlite_stats.spill_passes == 0  # no spill simulation
        assert_backends_agree(native_result, sqlite_result)

    def test_infinite_extrema_match(self, assert_backends_agree):
        """MIN/MAX of a group holding ±inf is that infinity on both backends."""
        inf = float("inf")
        table = Table(
            "inf",
            {"g": ["a", "a", "b", "b", "c"], "x": [1.0, inf, -inf, 2.0, 3.0]},
            roles={"g": ColumnRole.DIMENSION, "x": ColumnRole.MEASURE},
        )
        query = AggregateQuery(
            "inf",
            ("g",),
            (
                AggregateSpec(AggregateFunction.MIN, "x", "lo"),
                AggregateSpec(AggregateFunction.MAX, "x", "hi"),
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
            ),
        )
        store = make_store("col", table)
        with SQLiteBackend(store) as sqlite:
            expected, _ = sqlite.execute(query)
        got, _ = NativeBackend(store).execute(query)
        assert expected.values["lo"].tolist() == [1.0, -inf, 3.0]
        assert expected.values["hi"].tolist() == [inf, 2.0, 3.0]
        assert_backends_agree(expected, got)

    def test_wrong_table_raises(self, backends):
        _, sqlite = backends
        with pytest.raises(QueryError):
            sqlite.execute(AggregateQuery("other", ("color",), (_avg(),)))

    def test_bad_row_range_raises(self, backends):
        _, sqlite = backends
        with pytest.raises(StorageError):
            sqlite.execute(
                AggregateQuery("tiny", ("color",), (_avg(),), row_range=(0, 99))
            )

    def test_reserved_count_alias_raises(self, backends):
        _, sqlite = backends
        query = AggregateQuery(
            "tiny", ("color",), (AggregateSpec(AggregateFunction.AVG, "price", COUNT_ALIAS),)
        )
        with pytest.raises(BackendError, match="reserved"):
            sqlite.execute(query)

    def test_keyword_alias_rejected_with_clear_error(self, backends):
        # A derived alias that is a SQL keyword would be a raw sqlite
        # syntax error; the backend must refuse it with its own error.
        _, sqlite = backends
        query = AggregateQuery(
            "tiny",
            ("order",),
            (_avg(),),
            derived=(
                DerivedColumn(
                    "order", E.CaseWhen(E.eq("color", "red"), E.lit(1), E.lit(0))
                ),
            ),
        )
        with pytest.raises(BackendError, match="identifier-safe"):
            sqlite.execute(query)

    def test_stats_mirror_native_work_counters(self, backends):
        native, sqlite = backends
        query = AggregateQuery("tiny", ("color",), (_avg(), ))
        _, native_stats = native.execute(query)
        _, sqlite_stats = sqlite.execute(query)
        assert sqlite_stats.queries_issued == 1
        assert sqlite_stats.rows_scanned == native_stats.rows_scanned
        assert sqlite_stats.agg_rows_processed == native_stats.agg_rows_processed
        assert sqlite_stats.groups_maintained == native_stats.groups_maintained


class TestSQLiteQuoting:
    def test_quoted_string_values_round_trip(self, assert_backends_agree):
        table = Table(
            "q",
            {
                "d": ["O'Brien", "it''s", "plain", "O'Brien", "x from y", "plain"],
                "m": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            },
            roles={"d": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        store = make_store("col", table)
        native, sqlite = NativeBackend(store), SQLiteBackend(store)
        try:
            query = AggregateQuery(
                "q", ("d",), (_avg("a", "m"),), predicate=E.neq("d", "O'Brien")
            )
            assert_backends_agree(native.execute(query)[0], sqlite.execute(query)[0])
        finally:
            sqlite.close()

    def test_unsafe_column_name_rejected(self):
        table = Table("t", {"group": ["a", "b"], "m": [1.0, 2.0]})
        with pytest.raises(BackendError, match="identifier-safe"):
            SQLiteBackend(make_store("col", table))

    def test_reserved_row_column_name_rejected(self):
        table = Table("t", {"__seedb_row__": [1, 2], "m": [1.0, 2.0]})
        with pytest.raises(BackendError, match="reserved"):
            SQLiteBackend(make_store("col", table))

    def test_derived_alias_shadowing_physical_column_rejected(self):
        # Regression: SQLite resolves a bare GROUP BY name to the real
        # column while the native executor prefers the derived CASE alias —
        # silently divergent results, so the backend must refuse instead.
        table = Table(
            "t",
            {"seedb_flag": ["a", "b", "a"], "m": [1.0, 2.0, 3.0]},
            roles={"seedb_flag": ColumnRole.DIMENSION, "m": ColumnRole.MEASURE},
        )
        sqlite = SQLiteBackend(make_store("col", table))
        try:
            flag = DerivedColumn(
                "seedb_flag", E.CaseWhen(E.eq("seedb_flag", "a"), E.lit(1), E.lit(0))
            )
            query = AggregateQuery(
                "t",
                ("seedb_flag",),
                (AggregateSpec(AggregateFunction.AVG, "m", "x"),),
                derived=(flag,),
            )
            with pytest.raises(BackendError, match="shadows"):
                sqlite.execute(query)
        finally:
            sqlite.close()

    def test_nan_column_rejected_with_clear_error(self):
        table = Table("t", {"d": ["a", "b"], "m": [1.0, float("nan")]})
        with pytest.raises(BackendError, match="NaN"):
            SQLiteBackend(make_store("col", table))


class TestSQLiteConcurrency:
    def test_per_thread_connections(self, tiny_table):
        sqlite = SQLiteBackend(make_store("col", tiny_table))
        try:
            query = AggregateQuery("tiny", ("color",), (_avg(),))
            expected, _ = sqlite.execute(query)
            connections_before = len(sqlite._connections)
            errors: list[Exception] = []
            barrier = threading.Barrier(6)
            done = threading.Barrier(6)

            def worker():
                try:
                    barrier.wait()
                    for _ in range(10):
                        result, _ = sqlite.execute(query)
                        assert result.to_rows() == expected.to_rows()
                    # Stay alive until every worker has connected, so the
                    # connection count below is deterministic (a worker that
                    # exits early would be reclaimed by a later one).
                    done.wait()
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # One new connection per worker thread, none shared.
            assert len(sqlite._connections) == connections_before + 6
            # A later connection (fresh thread) reclaims the six left behind
            # by the dead workers, so long-lived backends do not accumulate.
            reaper = threading.Thread(target=lambda: sqlite.execute(query))
            reaper.start()
            reaper.join()
            assert len(sqlite._connections) <= connections_before + 1
        finally:
            sqlite.close()

    def test_dispatcher_runs_sqlite_batches(self, tiny_table):
        sqlite = SQLiteBackend(make_store("col", tiny_table))
        try:
            queries = [
                AggregateQuery("tiny", ("color",), (_avg(),), row_range=(0, i))
                for i in range(1, 7)
            ]
            with ParallelDispatcher(sqlite, n_workers=4) as dispatcher:
                outcomes = dispatcher.run_batch(queries)
            serial = [sqlite.execute(q) for q in queries]
            for (pr, _), (sr, _) in zip(outcomes, serial):
                assert pr.to_rows() == sr.to_rows()
        finally:
            sqlite.close()

    def test_execute_after_close_raises(self, tiny_table):
        sqlite = SQLiteBackend(make_store("col", tiny_table))
        sqlite.execute(AggregateQuery("tiny", ("color",), (_avg(),)))
        sqlite.close()
        sqlite.close()  # idempotent
        with pytest.raises(BackendError, match="closed"):
            sqlite.execute(AggregateQuery("tiny", ("color",), (_avg(),)))

    def test_parallel_unsafe_backend_runs_serially(self, tiny_table):
        from repro.core.view import ViewSpace
        from repro.db.backends.base import BackendCapabilities
        from repro.db.catalog import TableMeta

        class Unsafe(NativeBackend):
            name = "unsafe"

            def capabilities(self):
                return BackendCapabilities(parallel_safe=False)

        register_backend("unsafe", Unsafe)
        try:
            engine = ExecutionEngine(
                make_store("col", tiny_table),
                EngineConfig(store="col", backend="unsafe", n_parallel_queries=8),
                CostModel(),
            )
            views = list(ViewSpace.enumerate(TableMeta.of(tiny_table)))
            run = engine.run(
                views, E.eq("color", "red"), k=1,
                strategy="sharing", pruner="none", parallelism="real",
            )
            # The engine must not drive an unsafe backend from many threads.
            assert run.n_workers == 1
        finally:
            from repro.db.backends import base

            base._REGISTRY.pop("unsafe", None)

    def test_non_finite_predicate_runs_on_native_backend(self, tiny_table):
        # Regression: the engine logs generated SQL for introspection; a
        # predicate with a NaN literal is unrenderable as SQL text but must
        # not abort a run on the native backend (which never ships SQL).
        from repro.core.view import ViewSpace
        from repro.db.catalog import TableMeta

        engine = ExecutionEngine(
            make_store("col", tiny_table),
            EngineConfig(store="col"),
            CostModel(),
        )
        views = list(ViewSpace.enumerate(TableMeta.of(tiny_table)))
        run = engine.run(
            views,
            E.Not(E.eq("price", float("nan"))),
            k=1,
            strategy="sharing",
            pruner="none",
        )
        assert run.selected
        assert any(sql.startswith("-- unrenderable") for sql in run.sql)

    def test_engine_close_releases_backend(self, tiny_table):
        engine = ExecutionEngine(
            make_store("col", tiny_table),
            EngineConfig(store="col", backend="sqlite"),
            CostModel(),
        )
        with engine:
            pass
        with pytest.raises(BackendError, match="closed"):
            engine.backend.execute(AggregateQuery("tiny", ("color",), (_avg(),)))
