"""Concurrency tests: the real parallel engine must be deterministic.

The hard requirement (paper §4.1 made real): an engine run with
``parallelism="real"`` and any worker count produces byte-identical
``selected`` views and utilities within 1e-9 of the serial ("modeled") run.
These tests also hammer the shared structures (buffer pool, dictionary
cache) from many threads to check the locking.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.parallel import ParallelDispatcher, make_dispatcher
from repro.core.recommender import SeeDB, tuned_config
from repro.db.backends import NativeBackend
from repro.db.buffer import BufferPool
from repro.db.executor import QueryExecutor
from repro.db.query import AggregateFunction, AggregateQuery, AggregateSpec
from repro.db.storage import make_store
from repro.db.table import Table
from repro.db.expressions import eq


def _count_query(table: str, dim: str, lo: int, hi: int) -> AggregateQuery:
    return AggregateQuery(
        table=table,
        group_by=(dim,),
        aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        row_range=(lo, hi),
    )


class TestDispatcher:
    def test_run_batch_preserves_submission_order(self, census_like):
        executor = QueryExecutor(make_store("col", census_like))
        # Distinct row ranges make each result identify its query.
        queries = [
            _count_query("census_like", "sex", i * 1000, i * 1000 + 500)
            for i in range(8)
        ]
        with ParallelDispatcher(executor, n_workers=4) as dispatcher:
            outcomes = dispatcher.run_batch(queries)
        assert len(outcomes) == len(queries)
        for result, stats in outcomes:
            assert result.input_rows == 500
            assert stats.queries_issued == 1
        serial = [executor.execute(q) for q in queries]
        for (pr, _), (sr, _) in zip(outcomes, serial):
            assert pr.to_rows() == sr.to_rows()

    def test_single_worker_runs_inline_without_pool(self, tiny_table):
        executor = QueryExecutor(make_store("col", tiny_table))
        dispatcher = make_dispatcher(executor, "modeled", 8)
        outcomes = dispatcher.run_batch(
            [_count_query("tiny", "color", 0, 6) for _ in range(3)]
        )
        assert len(outcomes) == 3
        assert dispatcher._pool is None  # never materialized
        dispatcher.close()

    def test_worker_exception_propagates(self, tiny_table):
        executor = QueryExecutor(make_store("col", tiny_table))
        bad = AggregateQuery(
            table="other",  # wrong table -> QueryError inside the worker
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        queries = [_count_query("tiny", "color", 0, 6), bad]
        with ParallelDispatcher(executor, n_workers=2) as dispatcher:
            with pytest.raises(Exception):
                dispatcher.run_batch(queries)

    def test_make_dispatcher_modes(self, tiny_table):
        executor = QueryExecutor(make_store("col", tiny_table))
        assert make_dispatcher(executor, "real", 4).n_workers == 4
        assert make_dispatcher(executor, "modeled", 4).n_workers == 1
        for mode in ("async", "process"):
            with pytest.raises(ValueError):
                make_dispatcher(executor, mode, 4)
        with pytest.raises(ValueError):
            ParallelDispatcher(executor, 0)

    def test_batch_mode_routes_through_execute_batch(self, census_like):
        """use_batch hands the whole batch to the executor's batch method."""
        backend = NativeBackend(make_store("col", census_like))
        calls: list[tuple[int, bool]] = []
        original = backend.execute_batch

        def spying_execute_batch(queries, fanout=None):
            calls.append((len(queries), fanout is not None))
            return original(queries, fanout=fanout)

        backend.execute_batch = spying_execute_batch  # type: ignore[method-assign]
        queries = [_count_query("census_like", "sex", 0, 1000) for _ in range(6)]
        with ParallelDispatcher(backend, n_workers=3, use_batch=True) as dispatcher:
            outcomes = dispatcher.run_batch(queries)
        assert calls == [(6, True)]  # one batch call, fanout provided
        serial = [backend.execute(q) for q in queries]
        for (pr, _), (sr, _) in zip(outcomes, serial):
            assert pr.to_rows() == sr.to_rows()

    def test_batch_mode_falls_back_without_execute_batch(self, tiny_table):
        """A bare QueryExecutor (no batch method) keeps the per-query path."""
        executor = QueryExecutor(make_store("col", tiny_table))
        with ParallelDispatcher(executor, n_workers=2, use_batch=True) as dispatcher:
            outcomes = dispatcher.run_batch(
                [_count_query("tiny", "color", 0, 6) for _ in range(3)]
            )
        assert len(outcomes) == 3
        assert all(stats.queries_issued == 1 for _, stats in outcomes)

    def test_batch_mode_single_worker_runs_inline(self, census_like):
        """Modeled mode + shared scan: batch call, no pool, no fanout."""
        backend = NativeBackend(make_store("col", census_like))
        dispatcher = make_dispatcher(backend, "modeled", 8, use_batch=True)
        outcomes = dispatcher.run_batch(
            [_count_query("census_like", "race", 0, 2000) for _ in range(4)]
        )
        assert len(outcomes) == 4
        assert dispatcher._pool is None  # never materialized
        dispatcher.close()


def _engine_run(table, target, *, parallelism, n_parallel, strategy, pruner, **cfg):
    config = tuned_config("col").with_(n_parallel_queries=n_parallel, **cfg)
    seedb = SeeDB.over_table(table, store="col", config=config)
    return seedb.run_engine(
        target, k=5, strategy=strategy, pruner=pruner, parallelism=parallelism
    )


class TestEngineDeterminism:
    """selected byte-identical, utilities within 1e-9 of the serial run."""

    @pytest.mark.parametrize("strategy,pruner", [
        ("sharing", "none"),
        ("comb", "ci"),
        ("comb", "mab"),
        ("comb_early", "ci"),
    ])
    @pytest.mark.parametrize("n_workers", [4, 8])
    def test_real_matches_modeled(self, census_like, strategy, pruner, n_workers):
        target = eq("marital", "Unmarried")
        serial = _engine_run(
            census_like, target,
            parallelism="modeled", n_parallel=n_workers,
            strategy=strategy, pruner=pruner,
        )
        parallel = _engine_run(
            census_like, target,
            parallelism="real", n_parallel=n_workers,
            strategy=strategy, pruner=pruner,
        )
        assert parallel.selected == serial.selected
        assert set(parallel.utilities) == set(serial.utilities)
        for key, value in serial.utilities.items():
            assert parallel.utilities[key] == pytest.approx(value, abs=1e-9)
        # The work accounting must match too: same queries, same rows.
        assert parallel.stats.queries_issued == serial.stats.queries_issued
        assert parallel.stats.rows_scanned == serial.stats.rows_scanned
        assert parallel.stats.agg_rows_processed == serial.stats.agg_rows_processed

    def test_determinism_across_worker_counts(self, census_like):
        target = eq("marital", "Unmarried")
        runs = [
            _engine_run(
                census_like, target,
                parallelism="real", n_parallel=n,
                strategy="sharing", pruner="none",
            )
            for n in (1, 2, 4, 8)
        ]
        baseline = runs[0]
        for run in runs[1:]:
            assert run.selected == baseline.selected
            for key, value in baseline.utilities.items():
                assert run.utilities[key] == pytest.approx(value, abs=1e-9)

    def test_determinism_with_spilling_groupby(self, census_like):
        """Parallel + budget-forced multi-pass aggregation stays exact."""
        target = eq("marital", "Unmarried")
        kwargs = dict(
            strategy="sharing", pruner="none",
            col_group_budget=2, use_binpacking=False, max_group_bys_per_query=2,
        )
        serial = _engine_run(
            census_like, target, parallelism="modeled", n_parallel=4, **kwargs
        )
        parallel = _engine_run(
            census_like, target, parallelism="real", n_parallel=4, **kwargs
        )
        assert serial.stats.spill_passes > 0
        assert parallel.stats.spill_passes == serial.stats.spill_passes
        assert parallel.selected == serial.selected
        for key, value in serial.utilities.items():
            assert parallel.utilities[key] == pytest.approx(value, abs=1e-9)

    def test_run_reports_mode_and_workers(self, census_like):
        target = eq("marital", "Unmarried")
        run = _engine_run(
            census_like, target, parallelism="real", n_parallel=4,
            strategy="sharing", pruner="none",
        )
        assert run.parallelism == "real"
        assert run.n_workers == 4
        serial = _engine_run(
            census_like, target, parallelism="modeled", n_parallel=4,
            strategy="sharing", pruner="none",
        )
        assert serial.parallelism == "modeled"
        assert serial.n_workers == 1


class TestChunkStoreDispatch:
    """The thread dispatcher over a memmapped chunk store, no memory budget.

    Worker threads read the same ``np.memmap`` columns and stream them at
    the store's chunk granularity; whole queries per thread must stay
    bitwise-identical to the serial run (carry-seeded accumulation makes
    the chunk walk irrelevant to results).
    """

    @pytest.fixture(scope="class")
    def chunked_census(self, census_like, tmp_path_factory):
        from repro.db.chunks import open_table, write_table

        root = tmp_path_factory.mktemp("chunked_dispatch") / "census_like"
        write_table(census_like, root, chunk_rows=4096)
        return open_table(root)

    def test_run_batch_preserves_submission_order(self, chunked_census):
        backend = NativeBackend(make_store("col", chunked_census))
        queries = [
            _count_query("census_like", "sex", i * 1000, i * 1000 + 500)
            for i in range(8)
        ]
        with make_dispatcher(backend, "real", 4) as dispatcher:
            outcomes = dispatcher.run_batch(queries)
        assert len(outcomes) == len(queries)
        serial = [backend.execute(q) for q in queries]
        for (pr, _), (sr, _) in zip(outcomes, serial):
            assert pr.input_rows == 500
            assert pr.to_rows() == sr.to_rows()

    def test_batch_mode_matches_serial(self, chunked_census):
        backend = NativeBackend(make_store("col", chunked_census))
        queries = [
            _count_query("census_like", "race", i * 500, i * 500 + 400)
            for i in range(6)
        ]
        with make_dispatcher(backend, "real", 3, use_batch=True) as dispatcher:
            outcomes = dispatcher.run_batch(queries)
        serial = [backend.execute(q) for q in queries]
        for (pr, _), (sr, _) in zip(outcomes, serial):
            assert pr.to_rows() == sr.to_rows()

    def test_single_worker_runs_inline(self, chunked_census):
        backend = NativeBackend(make_store("col", chunked_census))
        dispatcher = make_dispatcher(backend, "real", 1)
        outcomes = dispatcher.run_batch(
            [_count_query("census_like", "sex", 0, 600) for _ in range(3)]
        )
        assert len(outcomes) == 3
        assert all(stats.queries_issued == 1 for _, stats in outcomes)
        assert dispatcher._pool is None
        dispatcher.close()

    @pytest.mark.parametrize("use_batch", [False, True])
    def test_stream_granularity_does_not_change_results(
        self, chunked_census, use_batch
    ):
        """A finer ``stream_chunk_rows`` on the store changes the walk only."""
        backend = NativeBackend(make_store("col", chunked_census))
        queries = [
            _count_query("census_like", "sex", i * 1000, i * 1000 + 2500)
            for i in range(4)
        ]
        baseline = [backend.execute(q) for q in queries]
        backend.store.stream_chunk_rows = 512
        assert backend.store.effective_stream_chunk_rows() == 512
        with make_dispatcher(backend, "real", 2, use_batch=use_batch) as dispatcher:
            outcomes = dispatcher.run_batch(queries)
        for (pr, _), (sr, _) in zip(outcomes, baseline):
            assert pr.to_rows() == sr.to_rows()

    def test_close_is_idempotent_and_pool_reopens(self, chunked_census):
        backend = NativeBackend(make_store("col", chunked_census))
        queries = [_count_query("census_like", "sex", 0, 1000) for _ in range(2)]
        dispatcher = make_dispatcher(backend, "real", 2)
        first = dispatcher.run_batch(queries)
        dispatcher.close()
        dispatcher.close()  # second call: nothing to do, no raise
        assert dispatcher._pool is None
        again = dispatcher.run_batch(queries)  # a fresh pool on demand
        assert dispatcher._pool is not None
        dispatcher.close()
        assert [r.to_rows() for r, _ in again] == [r.to_rows() for r, _ in first]

    def test_worker_exception_leaves_dispatcher_usable(self, chunked_census):
        backend = NativeBackend(make_store("col", chunked_census))
        good = _count_query("census_like", "sex", 0, 1000)
        bad = AggregateQuery(
            table="other",
            group_by=("sex",),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        with make_dispatcher(backend, "real", 2) as dispatcher:
            with pytest.raises(Exception):
                dispatcher.run_batch([good, bad])
            ((result, _), _) = dispatcher.run_batch([good, good])
        assert result.to_rows() == backend.execute(good)[0].to_rows()

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_engine_rejects_process_mode(self, census_like, chunked_census, on_disk):
        """``"process"`` is not a mode, whatever the table lives on."""
        with pytest.raises(ValueError, match="unknown parallelism mode"):
            _engine_run(
                chunked_census if on_disk else census_like,
                eq("marital", "Unmarried"),
                parallelism="process", n_parallel=2,
                strategy="sharing", pruner="none",
            )

    @pytest.mark.parametrize("strategy,pruner", [
        ("sharing", "none"),
        ("comb", "ci"),
    ])
    def test_real_matches_modeled_bitwise(self, chunked_census, strategy, pruner):
        target = eq("marital", "Unmarried")
        serial = _engine_run(
            chunked_census, target,
            parallelism="modeled", n_parallel=4,
            strategy=strategy, pruner=pruner,
        )
        parallel = _engine_run(
            chunked_census, target,
            parallelism="real", n_parallel=4,
            strategy=strategy, pruner=pruner,
        )
        assert parallel.selected == serial.selected
        assert set(parallel.utilities) == set(serial.utilities)
        for key, value in serial.utilities.items():
            assert parallel.utilities[key] == value  # bitwise, not approx
        assert parallel.stats.queries_issued == serial.stats.queries_issued
        assert parallel.parallelism == "real"

    def test_determinism_across_worker_counts(self, chunked_census):
        target = eq("marital", "Unmarried")
        runs = [
            _engine_run(
                chunked_census, target,
                parallelism="real", n_parallel=n,
                strategy="sharing", pruner="none",
            )
            for n in (1, 2, 4)
        ]
        baseline = runs[0]
        for run in runs[1:]:
            assert run.selected == baseline.selected
            for key, value in baseline.utilities.items():
                assert run.utilities[key] == value  # bitwise across counts


class TestSharedStructureThreadSafety:
    def test_buffer_pool_concurrent_access_keeps_totals_exact(self):
        pool = BufferPool(capacity_bytes=64 * 1024)
        n_threads, n_accesses, page_bytes = 8, 2_000, 512
        barrier = threading.Barrier(n_threads)

        def hammer(tid: int) -> None:
            barrier.wait()
            for i in range(n_accesses):
                # Overlapping key space across threads: contended hits,
                # misses, and evictions (capacity is 128 pages).
                key = ("t", "c", (tid * i) % 400)
                pool.access(key, page_bytes)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert pool.total_hits + pool.total_misses == n_threads * n_accesses
        assert pool.resident_bytes <= pool.capacity_bytes
        assert pool.resident_bytes == len(pool) * page_bytes

    def test_table_dictionary_concurrent_fill_is_shared(self):
        rng = np.random.default_rng(7)
        table = Table("d", {"dim": rng.choice(["a", "b", "c", "d"], 50_000)})
        results: list[tuple[np.ndarray, np.ndarray]] = [None] * 8  # type: ignore[list-item]
        barrier = threading.Barrier(8)

        def fetch(i: int) -> None:
            barrier.wait()
            results[i] = table.dictionary("dim")

        threads = [threading.Thread(target=fetch, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        codes0, cats0 = results[0]
        for codes, cats in results[1:]:
            assert codes is codes0  # one cached encoding shared by all
            assert cats is cats0
