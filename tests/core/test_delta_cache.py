"""Delta-aware view maintenance: partial-state cache + append refresh.

The fix under test: an append must NOT blow the caches away.  The
delta-state cache keeps each query's mergeable aggregation snapshot keyed
*without* the table fingerprint, so after an append the engine restores
the snapshot, scans only the new rows, and produces results bitwise
identical to a full recompute — while the view-result cache keeps its old
(still content-correct) entries with no invalidation at all.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.config import EngineConfig, ExecutionStats
from repro.core.cache import (
    DeltaStateCache,
    FileCacheTier,
    TieredViewResultCache,
    delta_state_key,
)
from repro.core.engine import ExecutionEngine
from repro.core.view import ViewSpace
from repro.db import expressions as E
from repro.db.catalog import TableMeta
from repro.db.chunks import append_rows, open_table, write_table
from repro.db.cost import CostModel
from repro.db.executor import QueryExecutor
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    QueryResult,
)
from repro.db.storage import make_store
from repro.db.table import Table
from repro.db.types import ColumnRole


def _full_table(n: int = 300, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    values = rng.gamma(2.0, 10.0, n)
    part = rng.choice(["t", "r"], n)
    values[part == "t"] *= 1.4  # plant a deviation so utilities order stably
    return Table(
        "deltas",
        {
            "d0": rng.choice(["a", "b", "c"], n),
            "d1": rng.choice(["x", "y"], n),
            "m0": values,
            "part": part,
        },
        roles={
            "d0": ColumnRole.DIMENSION,
            "d1": ColumnRole.DIMENSION,
            "m0": ColumnRole.MEASURE,
            "part": ColumnRole.OTHER,
        },
    )


def _columns(table: Table, start: int, stop: int) -> dict[str, np.ndarray]:
    return {
        col.name: np.asarray(table.column(col.name))[start:stop]
        for col in table.schema
    }


def _query() -> AggregateQuery:
    return AggregateQuery(
        table="deltas",
        group_by=("d0",),
        aggregates=(AggregateSpec(AggregateFunction.AVG, "m0", "a"),),
    )


# --------------------------------------------------------------------------- #
# key + cache unit behaviour
# --------------------------------------------------------------------------- #


class TestDeltaStateKey:
    def test_key_survives_an_append(self, tmp_path):
        """The whole point: the key matches after fingerprint and rows move."""
        full = _full_table()
        write_table(full.slice_rows(0, 250), tmp_path / "ds", chunk_rows=64)
        chunked = open_table(tmp_path / "ds")
        store = make_store("col", chunked)
        before = delta_state_key(store, _query())
        append_rows(tmp_path / "ds", _columns(full, 250, 300))
        chunked.refresh_from_disk()
        store.sync_layout()
        assert delta_state_key(store, _query()) == before
        assert str(tmp_path / "ds") in before  # anchored on the dataset path

    def test_key_separates_tables_and_plans(self, tmp_path):
        full = _full_table()
        write_table(full, tmp_path / "a", chunk_rows=64)
        write_table(full, tmp_path / "b", chunk_rows=64)
        store_a = make_store("col", open_table(tmp_path / "a"))
        store_b = make_store("col", open_table(tmp_path / "b"))
        assert delta_state_key(store_a, _query()) != delta_state_key(
            store_b, _query()
        )
        other = AggregateQuery(
            table="deltas",
            group_by=("d1",),
            aggregates=(AggregateSpec(AggregateFunction.AVG, "m0", "a"),),
        )
        assert delta_state_key(store_a, _query()) != delta_state_key(
            store_a, other
        )


class TestDeltaStateCache:
    def test_lru_eviction_by_entries_and_counters(self):
        cache = DeltaStateCache(max_entries=2)
        for i in range(3):
            cache.put(f"k{i}", {"s": i}, rows=10, fingerprint=f"f{i}", nbytes=8)
        assert len(cache) == 2
        assert cache.get("k0") is None  # oldest evicted
        entry = cache.get("k2")
        assert entry is not None and entry.rows == 10 and entry.fingerprint == "f2"
        counters = cache.counters()
        assert counters["insertions"] == 3 and counters["evictions"] == 1
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_byte_budget_eviction(self):
        cache = DeltaStateCache(max_bytes=1)
        cache.put("a", {}, rows=1, fingerprint="f", nbytes=10_000)
        # A single over-budget entry cannot stay resident.
        assert len(cache) == 0 and cache.counters()["evictions"] == 1

    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ValueError):
            DeltaStateCache(max_bytes=0)
        with pytest.raises(ValueError):
            DeltaStateCache(max_entries=0)


class TestFileTierTmpSweep:
    def _put_one(self, tier: FileCacheTier) -> None:
        result = QueryResult(
            groups={"d0": np.asarray(["a"])},
            values={"a": np.asarray([1.0])},
            n_groups=1,
        )
        assert tier.put("some|key", result, ExecutionStats())

    def test_prune_sweeps_orphaned_tmp_files(self, tmp_path):
        tier = FileCacheTier(tmp_path)
        orphan = tmp_path / "deadbeef.tmp-123-456"
        orphan.write_bytes(b"half-written entry from a crashed worker")
        stale = time.time() - 16 * 60
        os.utime(orphan, (stale, stale))
        fresh = tmp_path / "cafef00d.tmp-123-789"
        fresh.write_bytes(b"a write that may still be in flight")
        self._put_one(tier)  # every successful put prunes
        assert not orphan.exists()
        assert fresh.exists()  # inside the grace window: never swept
        assert len(tier) == 1  # tmp files are not entries either way

    def test_orphans_do_not_count_against_the_budget(self, tmp_path):
        tier = FileCacheTier(tmp_path, max_bytes=1 << 20)
        (tmp_path / "x.tmp-1-1").write_bytes(b"\0" * (2 << 20))
        self._put_one(tier)
        assert len(tier) == 1  # the real entry survived the oversized orphan


# --------------------------------------------------------------------------- #
# the seeded parameter value of the chunk pipeline
# --------------------------------------------------------------------------- #


class TestSeededExecution:
    def _filtered_query(self) -> AggregateQuery:
        return AggregateQuery(
            table="deltas",
            group_by=("d0",),
            aggregates=(
                AggregateSpec(AggregateFunction.AVG, "m0", "a"),
                AggregateSpec(AggregateFunction.COUNT, None, "n"),
            ),
            predicate=E.eq("part", "t"),
            group_budget=2,  # spills: its bytes follow the rows folded too
        )

    def test_aggregation_charges_the_rows_folded_in_this_execution(self):
        """agg_rows_processed == predicate rows in [scan_from, stop) × aggregates.

        Cold, refresh after an append, and a repeat with no new rows: the
        restored prefix was charged to the execution that folded it.
        """
        full = _full_table(n=330, seed=4)
        passing = np.asarray(full.column("part")) == "t"
        table = full.slice_rows(0, 300)
        store = make_store("col", table)
        executor = QueryExecutor(store, DeltaStateCache())
        query = self._filtered_query()

        def execute(scan_from: int, stop: int):
            result, stats = executor.execute(query)
            n_new = int(passing[scan_from:stop].sum())
            assert stats.rows_scanned == stop - scan_from
            assert stats.agg_rows_processed == n_new * len(query.aggregates)
            assert result.input_rows == int(passing[:stop].sum())  # cumulative
            assert stats.delta_hits == (1 if scan_from else 0)
            return stats

        cold = execute(0, 300)
        table.append(_columns(full, 300, 330))
        store.sync_layout()
        refresh = execute(300, 330)
        repeat = execute(330, 330)
        assert cold.spill_passes == refresh.spill_passes == repeat.spill_passes > 0
        assert 0 == repeat.bytes_scanned_miss < refresh.bytes_scanned_miss < cold.bytes_scanned_miss

    def test_concurrent_execute_matches_serial_bitwise(self):
        """Stateless per call: eight threads share one seeded executor."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        table = _full_table(n=400, seed=5)
        queries = [_query(), self._filtered_query(), _query().with_range(50, 350)]
        plain = QueryExecutor(make_store("col", table))
        serial = [plain.execute(query)[0] for query in queries]
        cache = DeltaStateCache()
        executor = QueryExecutor(make_store("col", table), cache)

        def worker(_):
            return [[executor.execute(query)[0] for query in queries] for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                rounds = [r for rs in pool.map(worker, range(8), timeout=60) for r in rs]
        finally:
            sys.setswitchinterval(interval)
        assert len(rounds) == 40 and len(cache) == 2  # the two full-table queries
        for results in rounds:
            for want, got in zip(serial, results):
                assert got.input_rows == want.input_rows
                for name in want.groups:
                    assert np.array_equal(want.groups[name], got.groups[name])
                for name in want.values:
                    assert np.asarray(want.values[name]).tobytes() == (
                        np.asarray(got.values[name]).tobytes()
                    )


# --------------------------------------------------------------------------- #
# engine-level refresh behaviour
# --------------------------------------------------------------------------- #


def _engine(chunked, result_cache=None, page_rows=4096):
    config = EngineConfig(
        store="col", n_phases=4, backend="native", n_parallel_queries=4
    ).with_(result_cache=True, delta_cache=True)
    return ExecutionEngine(
        make_store("col", chunked, page_rows=page_rows),
        config,
        CostModel(),
        result_cache=result_cache,
    )


def _run(engine, chunked):
    views = list(ViewSpace.enumerate(TableMeta.of(chunked)))
    return engine.run(
        views,
        E.eq("part", "t"),
        k=3,
        strategy="sharing",
        pruner="none",
        reference_mode="all",
    )


class TestEngineDeltaRefresh:
    def test_append_refresh_scans_only_new_rows_bitwise(self, tmp_path):
        full = _full_table(n=330, seed=1)
        n_delta = 30
        write_table(full.slice_rows(0, 300), tmp_path / "ds", chunk_rows=64)
        chunked = open_table(tmp_path / "ds")
        engine = _engine(chunked)
        assert engine.delta_cache is not None

        cold = _run(engine, chunked)
        assert cold.stats.delta_hits == 0
        assert len(engine.delta_cache) > 0  # snapshots were captured

        append_rows(tmp_path / "ds", _columns(full, 300, 330))
        chunked.refresh_from_disk()
        engine.store.sync_layout()
        engine.meta = TableMeta.of(chunked)

        refresh = _run(engine, chunked)
        # Every query carry-merged a snapshot and scanned only the delta.
        assert refresh.stats.delta_hits == refresh.stats.queries_issued > 0
        assert refresh.stats.rows_scanned == (
            refresh.stats.queries_issued * n_delta
        )
        assert refresh.stats.rows_scanned < cold.stats.rows_scanned

        # Bitwise oracle: a fresh engine recomputing over the extended
        # store from scratch must agree exactly — order, utility bits,
        # and every distribution array.
        oracle = _run(_engine(open_table(tmp_path / "ds")), chunked)
        assert refresh.selected == oracle.selected
        assert set(refresh.utilities) == set(oracle.utilities)
        for key, value in oracle.utilities.items():
            assert refresh.utilities[key] == value  # exact, not approx
        for key, dists in oracle.distributions.items():
            other = refresh.distributions[key]
            assert np.array_equal(dists.keys, other.keys)
            assert np.array_equal(dists.target, other.target, equal_nan=True)
            assert np.array_equal(
                dists.reference, other.reference, equal_nan=True
            )

    def test_refresh_is_charged_for_the_tail_pages_only(self, tmp_path):
        """Conservation: a delta refresh pays page-granular reads of the tail.

        The appended rows [300, 330) straddle the chunk boundary at 320 and
        touch three of the store's 21 sixteen-row pages; no query may be
        charged more than those pages at full row width, however many rows
        its restored aggregation state had folded before.
        """
        full = _full_table(n=330, seed=1)
        write_table(full.slice_rows(0, 300), tmp_path / "ds", chunk_rows=64)
        chunked = open_table(tmp_path / "ds")
        engine = _engine(chunked, page_rows=16)
        cold = _run(engine, chunked).stats

        append_rows(tmp_path / "ds", _columns(full, 300, 330))
        chunked.refresh_from_disk()
        engine.store.sync_layout()
        engine.meta = TableMeta.of(chunked)
        stats = _run(engine, chunked).stats

        assert stats.delta_hits == stats.queries_issued > 0
        assert stats.rows_scanned == stats.queries_issued * 30
        tail_pages = (330 - 1) // 16 - 300 // 16 + 1
        page_bytes = 16 * chunked.schema.row_byte_width()
        charged = stats.bytes_scanned_miss + stats.bytes_scanned_hit
        assert 0 < charged <= tail_pages * page_bytes * stats.queries_issued
        assert stats.pages_hit + stats.pages_missed <= (
            tail_pages * len(chunked.schema) * stats.queries_issued
        )
        assert charged < (cold.bytes_scanned_miss + cold.bytes_scanned_hit) / 4

    def test_delta_cache_keeps_one_shared_scan_per_phase(self, tmp_path, monkeypatch):
        """The delta fork used to switch sharing off: every query ran alone.

        With a delta cache attached a ``comb`` run still issues one
        ``execute_batch`` per phase and every phase charges its row range
        once — the first included: a prefix short of the table's end is
        never snapshotted, so seeding its queries one by one bought one
        scan per query and a futile cache lookup each — and nothing differs
        from a run without the delta cache.
        """
        from repro.db.shared_scan import SharedScanExecutor

        full = _full_table(n=400, seed=6)
        write_table(full, tmp_path / "ds", chunk_rows=64)
        chunked = open_table(tmp_path / "ds")
        batches: list[tuple[tuple[int, int], int, int]] = []
        execute_batch = SharedScanExecutor.execute_batch

        def spy(self, queries, fanout=None):
            outcomes = execute_batch(self, queries, fanout=fanout)
            (row_range,) = {query.row_range for query in queries}
            scanned = sum(stats.rows_scanned for _, stats in outcomes)
            batches.append((row_range, len(queries), scanned))
            return outcomes

        monkeypatch.setattr(SharedScanExecutor, "execute_batch", spy)
        views = list(ViewSpace.enumerate(TableMeta.of(chunked)))

        def run(delta_cache: bool):
            config = EngineConfig(store="col", n_phases=4, n_parallel_queries=4).with_(
                result_cache=True, delta_cache=delta_cache
            )
            engine = ExecutionEngine(
                make_store("col", chunked), config, CostModel()
            )
            return engine.run(views, E.eq("part", "t"), k=3, strategy="comb", pruner="none")

        seeded = run(delta_cache=True)
        seeded_batches, batches[:] = list(batches), []
        plain = run(delta_cache=False)

        assert len(seeded_batches) == seeded.phases_executed == 4
        assert batches == seeded_batches
        assert all(scanned == stop - start for (start, stop), _, scanned in batches)
        assert seeded.stats.rows_scanned == plain.stats.rows_scanned == chunked.nrows
        assert seeded.selected == plain.selected
        assert seeded.utilities == plain.utilities  # exact, not approx
        for key, dists in plain.distributions.items():
            assert np.array_equal(dists.target, seeded.distributions[key].target, equal_nan=True)
            assert np.array_equal(
                dists.reference, seeded.distributions[key].reference, equal_nan=True
            )

    def test_result_cache_stays_warm_across_the_append(self, tmp_path):
        """No invalidation: the cache keeps serving after rows arrive."""
        full = _full_table(n=260, seed=2)
        write_table(full.slice_rows(0, 240), tmp_path / "ds", chunk_rows=64)
        chunked = open_table(tmp_path / "ds")
        engine = _engine(chunked)

        cold = _run(engine, chunked)
        append_rows(tmp_path / "ds", _columns(full, 240, 260))
        chunked.refresh_from_disk()
        engine.store.sync_layout()
        engine.meta = TableMeta.of(chunked)

        refresh = _run(engine, chunked)  # repopulates under the new identity
        warm = _run(engine, chunked)
        assert warm.stats.queries_issued == 0
        assert warm.cache_hits > 0  # warm hit-rate > 0 across the append
        assert warm.selected == refresh.selected
        for key, value in refresh.utilities.items():
            assert warm.utilities[key] == value

    def test_l2_entries_are_retained_not_invalidated(self, tmp_path):
        """Appends leave the shared L2 tier alone; old entries age out."""
        full = _full_table(n=260, seed=3)
        write_table(full.slice_rows(0, 240), tmp_path / "ds", chunk_rows=64)
        chunked = open_table(tmp_path / "ds")
        cache = TieredViewResultCache(tmp_path / "l2")
        engine = _engine(chunked, result_cache=cache)

        _run(engine, chunked)
        entries_before = len(cache.l2)
        assert entries_before > 0

        append_rows(tmp_path / "ds", _columns(full, 240, 260))
        chunked.refresh_from_disk()
        engine.store.sync_layout()
        engine.meta = TableMeta.of(chunked)
        _run(engine, chunked)

        # The old fingerprint's files are all still there (plus the new
        # identity's): nothing was invalidated by the append.
        assert len(cache.l2) > entries_before

        # A sibling worker sharing only the L2 directory serves the
        # post-append results from files the first engine paid for.
        sibling_cache = TieredViewResultCache(tmp_path / "l2")
        sibling = _engine(open_table(tmp_path / "ds"), result_cache=sibling_cache)
        warm = _run(sibling, chunked)
        assert warm.stats.queries_issued == 0
        assert sibling_cache.tier_counters()["l2_hits"] > 0
