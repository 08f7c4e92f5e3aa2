"""The cross-session view-result cache: fingerprints, LRU, engine wiring.

The hard requirements pinned here:

* fingerprints separate everything that must be separated (query plan, row
  range, table contents *and* version, backend semantics, store kind);
* LRU + byte-budget eviction and invalidation behave;
* a warm engine run executes **zero** queries and returns bitwise-identical
  results to both its own cold run and a cache-off run — including under
  ``parallelism="real"`` with concurrent sessions sharing one engine.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import EngineConfig, ExecutionStats
from repro.core.cache import (
    ViewResultCache,
    execution_fingerprint,
    query_fingerprint,
)
from repro.core.engine import ExecutionEngine
from repro.core.sharing import plan_queries
from repro.core.view import ViewSpace
from repro.db import expressions as E
from repro.db.backends import make_backend
from repro.db.catalog import TableMeta
from repro.db.query import AggregateFunction, AggregateQuery, AggregateSpec, DerivedColumn
from repro.db.storage import make_store
from repro.db.table import Table
from repro.metrics import list_metrics


def _query(**overrides) -> AggregateQuery:
    base = dict(
        table="tiny",
        group_by=("color",),
        aggregates=(AggregateSpec(AggregateFunction.AVG, "price", "avg_price"),),
    )
    base.update(overrides)
    return AggregateQuery(**base)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #


class TestFingerprints:
    def test_equal_queries_equal_fingerprints(self):
        assert query_fingerprint(_query()) == query_fingerprint(_query())

    def test_row_range_separates(self):
        assert query_fingerprint(_query()) != query_fingerprint(
            _query().with_range(0, 3)
        )
        assert query_fingerprint(_query().with_range(0, 3)) != query_fingerprint(
            _query().with_range(3, 6)
        )

    def test_plan_fields_separate(self):
        base = query_fingerprint(_query())
        assert query_fingerprint(_query(group_by=("size",))) != base
        assert query_fingerprint(_query(predicate=E.eq("size", "S"))) != base
        assert query_fingerprint(_query(group_budget=4)) != base
        assert (
            query_fingerprint(
                _query(
                    aggregates=(
                        AggregateSpec(AggregateFunction.SUM, "price", "avg_price"),
                    )
                )
            )
            != base
        )

    def test_alias_separates(self):
        """QueryResult keys by alias, so aliases are part of the plan."""
        renamed = _query(
            aggregates=(AggregateSpec(AggregateFunction.AVG, "price", "other"),)
        )
        assert query_fingerprint(renamed) != query_fingerprint(_query())

    def test_non_finite_literals_fingerprint_without_error(self):
        """to_sql() rejects inf literals; the fingerprint must not."""
        query = _query(predicate=E.Comparison("<", E.col("price"), E.lit(float("inf"))))
        assert "inf" in query_fingerprint(query)

    def test_a_requests_memo_never_changes_a_character(self, tiny_table):
        """Keys outlive the process (the L2 tier): what a request's shared memo
        returns is, character for character, the standalone function's string
        — here also spelled out as the parent commit wrote it."""
        three_clauses = E.And(
            (
                E.eq("color", "red"),
                E.Comparison("<", E.col("price"), E.lit(float("inf"))),
                E.isin("size", ("S", "L")),
            )
        )
        unhashable = E.Comparison("=", E.col("size"), E.lit(["S", float("nan")]))
        with pytest.raises(TypeError):
            hash(unhashable)
        meta = TableMeta.of(tiny_table)
        views = ViewSpace.enumerate(meta).views
        spelled_out = set()
        for target in (three_clauses, unhashable):
            for combine in (True, False):
                for mode, reference in (("all", None), ("complement", None), ("query", unhashable)):
                    config = EngineConfig(combine_target_reference=combine)
                    memo: dict = {}
                    for start in (0, 3):  # two phases plan twice: a new flag expression each
                        plan = plan_queries(views, meta, config, target, mode, reference)
                        for planned in plan.queries:
                            query = planned.query.with_range(start, start + 3)
                            standalone = query_fingerprint(query)
                            assert query_fingerprint(query, memo=memo) == standalone
                            assert query_fingerprint(query, memo=memo) == standalone
                            spelled_out.add(standalone)
                    assert any(kept is target for kept, _ in memo.values())
        clauses = (
            "And([Comparison('=',Col('color'),Lit('red')),Comparison('<',Col('price'),Lit(inf)),"
            "In(Col('size'),['S','L'])])"
        )
        aggregates = "AVG:'price':avg__price;AVG:'weight':avg__weight"
        assert {
            f"tiny|size,seedb_flag|{aggregates}|-|"
            f"seedb_flag=CaseWhen({clauses},Lit(1),Lit(0))|[0,3]|10000",
            f"tiny|color|{aggregates}|{clauses}||[3,6]|10000",
            f"tiny|color|{aggregates}|Not({clauses})||[0,3]|10000",
        } <= spelled_out

    def test_equal_predicates_in_distinct_objects_get_equal_keys(self):
        def request_keys():
            target = E.And((E.eq("color", "red"), E.eq("size", "S")))
            memo: dict = {}
            flagged = _query(
                derived=(DerivedColumn("flag", E.CaseWhen(target, E.lit(1), E.lit(0))),),
                group_by=("color", "flag"),
            )
            queries = (_query(predicate=target), _query(predicate=E.Not(target)), flagged)
            return [query_fingerprint(query, memo=memo) for query in queries]

        first, second = request_keys(), request_keys()
        assert first == second and len(set(first)) == 3

    def test_execution_fingerprint_separates_context(self, tiny_table):
        row = make_store("row", tiny_table)
        col = make_store("col", tiny_table)
        native_row = execution_fingerprint(row, make_backend("native", row))
        native_col = execution_fingerprint(col, make_backend("native", col))
        assert native_row != native_col  # store kind changes accounting
        with make_backend("sqlite", col) as sqlite_backend:
            sqlite_col = execution_fingerprint(col, sqlite_backend)
        assert sqlite_col != native_col  # backend semantics differ

    def test_table_fingerprint_content_and_version(self):
        data = {"d": ["a", "b", "a"], "m": [1.0, 2.0, 3.0]}
        table_a = Table("t", data)
        table_b = Table("t", data)
        # Equal contents, distinct objects: same fingerprint (cross-session).
        assert table_a.fingerprint() == table_b.fingerprint()
        changed = Table("t", {"d": ["a", "b", "a"], "m": [1.0, 2.0, 9.0]})
        assert changed.fingerprint() != table_a.fingerprint()
        # A version bump invalidates without changing contents.
        before = table_a.fingerprint()
        assert table_a.version == 0
        assert table_a.bump_version() == 1
        assert table_a.fingerprint() != before
        assert table_b.fingerprint() == before  # other object untouched


# --------------------------------------------------------------------------- #
# LRU / byte budget / invalidation
# --------------------------------------------------------------------------- #


def _entry_payload(n_groups: int = 4):
    result_groups = {"color": np.arange(n_groups)}
    result_values = {
        "avg_price": np.linspace(1.0, 2.0, n_groups),
        "__group_count__": np.ones(n_groups),
    }
    from repro.db.query import QueryResult

    result = QueryResult(
        groups=result_groups, values=result_values, n_groups=n_groups, input_rows=10
    )
    stats = ExecutionStats(
        queries_issued=1, bytes_scanned_miss=1000, bytes_scanned_hit=24
    )
    return result, stats


class TestViewResultCache:
    def test_hit_miss_and_bytes_saved(self):
        cache = ViewResultCache()
        assert cache.get("k") is None
        result, stats = _entry_payload()
        cache.put("k", result, stats)
        entry = cache.get("k")
        assert entry is not None
        assert entry.bytes_saved() == 1024
        snapshot = cache.snapshot()
        assert (snapshot.hits, snapshot.misses) == (1, 1)
        assert snapshot.bytes_saved == 1024
        assert snapshot.hit_rate == 0.5

    def test_cached_arrays_are_read_only(self):
        cache = ViewResultCache()
        entry = cache.put("k", *_entry_payload())
        with pytest.raises(ValueError):
            np.asarray(entry.result.values["avg_price"])[0] = 99.0

    def test_entry_count_eviction_is_lru(self):
        cache = ViewResultCache(max_entries=2)
        for name in ("a", "b"):
            cache.put(name, *_entry_payload())
        assert cache.get("a") is not None  # refresh "a" -> "b" becomes LRU
        cache.put("c", *_entry_payload())
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.snapshot().evictions == 1

    def test_byte_budget_eviction(self):
        result, stats = _entry_payload()
        entry_bytes = ViewResultCache().put("probe", result, stats).nbytes
        cache = ViewResultCache(max_bytes=2 * entry_bytes)
        for name in ("a", "b", "c"):
            cache.put(name, *_entry_payload())
        assert len(cache) == 2
        assert cache.nbytes <= 2 * entry_bytes
        assert cache.get("a") is None

    def test_invalidate_table_drops_only_that_prefix(self):
        cache = ViewResultCache()
        cache.put("fp1|col|native|v1|q1", *_entry_payload())
        cache.put("fp1|col|native|v1|q2", *_entry_payload())
        cache.put("fp2|col|native|v1|q1", *_entry_payload())
        assert cache.invalidate_table("fp1") == 2
        assert len(cache) == 1
        assert cache.get("fp2|col|native|v1|q1") is not None

    def test_clear(self):
        cache = ViewResultCache()
        cache.put("k", *_entry_payload())
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_rejects_nonpositive_budgets(self):
        with pytest.raises(ValueError):
            ViewResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            ViewResultCache(max_entries=0)


# --------------------------------------------------------------------------- #
# engine wiring
# --------------------------------------------------------------------------- #


def _engine(table, cache=None, enabled=True, **config_overrides):
    config = EngineConfig(
        store="col", n_phases=4, result_cache=enabled, n_parallel_queries=4
    ).with_(**config_overrides)
    return ExecutionEngine(
        make_store("col", table), config, result_cache=cache
    )


def _run(engine, table, **kwargs):
    views = list(ViewSpace.enumerate(TableMeta.of(table)))
    kwargs.setdefault("strategy", "sharing")
    kwargs.setdefault("pruner", "none")
    return engine.run(views, kwargs.pop("target", E.eq("marital", "Unmarried")), k=3, **kwargs)


def _assert_bitwise_identical(run_a, run_b):
    assert run_a.selected == run_b.selected
    assert set(run_a.utilities) == set(run_b.utilities)
    for key, value in run_a.utilities.items():
        assert run_b.utilities[key] == value  # bitwise, not approx
    for key, dists in run_a.distributions.items():
        other = run_b.distributions[key]
        assert dists.keys == other.keys
        assert np.array_equal(dists.target, other.target)
        assert np.array_equal(dists.reference, other.reference)


class TestEngineWiring:
    @pytest.mark.parametrize("strategy", ["sharing", "comb"])
    def test_warm_run_executes_nothing_and_matches(self, census_like, strategy):
        engine = _engine(census_like)
        pruner = "ci" if strategy == "comb" else "none"
        cold = _run(engine, census_like, strategy=strategy, pruner=pruner)
        warm = _run(engine, census_like, strategy=strategy, pruner=pruner)
        assert cold.result_cache and warm.result_cache
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        assert warm.stats.queries_issued == 0
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert warm.cache_bytes_saved > 0
        _assert_bitwise_identical(cold, warm)

    def test_cache_on_matches_cache_off_bitwise(self, census_like):
        on = _run(_engine(census_like), census_like)
        off_run = _run(_engine(census_like, enabled=False), census_like)
        assert not off_run.result_cache and off_run.cache_hits == 0
        _assert_bitwise_identical(on, off_run)

    def test_shared_cache_crosses_engines(self, census_like):
        """Two engines (two 'sessions') share hits through one cache."""
        cache = ViewResultCache()
        first = _run(_engine(census_like, cache=cache), census_like)
        second = _run(_engine(census_like, cache=cache), census_like)
        assert first.cache_hits == 0
        assert second.cache_hits == first.cache_misses
        assert second.stats.queries_issued == 0
        _assert_bitwise_identical(first, second)

    def test_no_opt_and_per_query_paths_cache_too(self, census_like):
        engine = _engine(census_like)
        cold = _run(engine, census_like, strategy="no_opt")
        warm = _run(engine, census_like, strategy="no_opt")
        assert warm.cache_hits == cold.cache_misses > 0
        assert warm.stats.queries_issued == 0
        _assert_bitwise_identical(cold, warm)

    def test_version_bump_invalidates(self, census_like):
        # A private table (session fixtures must not see the bump).
        table = census_like.slice_rows(0, 4000, name="census_bump")
        engine = _engine(table)
        cold = _run(engine, table)
        table.bump_version()
        rerun = _run(engine, table)
        assert rerun.cache_hits == 0  # every key changed with the version
        assert rerun.cache_misses == cold.cache_misses

    def test_row_ranges_never_cross_phases(self, census_like):
        """comb's partial-range results must not collide with sharing's."""
        engine = _engine(census_like)
        comb = _run(engine, census_like, strategy="comb", pruner="none")
        sharing = _run(engine, census_like, strategy="sharing")
        # sharing runs over the full range; comb cached only per-phase
        # ranges, so the sharing run cannot have hit any of them.  (The
        # two strategies agree on the ranking but accumulate in different
        # phase orders, so this is approx, not bitwise.)
        assert sharing.cache_hits == 0
        assert sharing.selected == comb.selected
        for key, value in comb.utilities.items():
            assert sharing.utilities[key] == pytest.approx(value, rel=1e-9)

    def test_real_parallelism_concurrent_sessions_bitwise_identical(
        self, census_like
    ):
        """Concurrent sessions on one engine: cache on == cache off, bitwise.

        This is the satellite acceptance test: many threads hammer the same
        engine (shared cache, ``parallelism="real"``) while a cache-off
        engine provides the reference result.
        """
        reference = _run(
            _engine(census_like, enabled=False), census_like, parallelism="real"
        )
        engine = _engine(census_like)
        cold = _run(engine, census_like, parallelism="real")
        _assert_bitwise_identical(reference, cold)
        results: list = [None] * 6
        errors: list = []

        def session(index: int) -> None:
            try:
                results[index] = _run(engine, census_like, parallelism="real")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=session, args=(index,)) for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for run in results:
            assert run is not None
            _assert_bitwise_identical(reference, run)
            # The cold run above filled the cache, so every concurrent
            # session is fully warm: nothing executes, everything hits.
            assert run.stats.queries_issued == 0
            assert run.cache_hits == cold.cache_misses


class TestChunkedTableCache:
    """Cache identity and invalidation on chunked / memmap-backed tables."""

    @pytest.fixture()
    def chunked_census(self, census_like, tmp_path):
        from repro.db.chunks import open_table, write_table

        write_table(census_like, tmp_path / "census", chunk_rows=512)
        return open_table(tmp_path / "census")

    def test_fingerprint_is_process_stable_so_hits_cross_engines(
        self, chunked_census, tmp_path
    ):
        """Two independently opened tables share keys via the manifest digest."""
        from repro.db.chunks import open_table

        cache = ViewResultCache()
        reopened = open_table(tmp_path / "census")
        assert reopened.fingerprint() == chunked_census.fingerprint()
        first = _run(_engine(chunked_census, cache=cache), chunked_census)
        second = _run(_engine(reopened, cache=cache), reopened)
        assert first.cache_hits == 0
        assert second.cache_hits == first.cache_misses
        assert second.stats.queries_issued == 0
        _assert_bitwise_identical(first, second)

    def test_streamed_run_matches_resident_cache_off(self, census_like, chunked_census):
        resident = _run(_engine(census_like, enabled=False), census_like)
        streamed = _run(_engine(chunked_census, enabled=False), chunked_census)
        _assert_bitwise_identical(resident, streamed)

    def test_bump_version_evicts_through_invalidate_table(self, chunked_census):
        """bump_version + invalidate_table: stale entries gone, keys rerouted."""
        cache = ViewResultCache()
        engine = _engine(chunked_census, cache=cache)
        cold = _run(engine, chunked_census)
        assert cold.cache_misses > 0 and len(cache) == cold.cache_misses
        stale_fingerprint = chunked_census.fingerprint()

        chunked_census.bump_version()
        dropped = cache.invalidate_table(stale_fingerprint)
        assert dropped == cold.cache_misses and len(cache) == 0
        assert cache.snapshot().invalidations == dropped

        rerun = _run(engine, chunked_census)
        assert rerun.cache_hits == 0  # new version => new keys, no stale hits
        assert rerun.cache_misses == cold.cache_misses
        _assert_bitwise_identical(cold, rerun)

    def test_bump_version_alone_reroutes_lookups(self, chunked_census):
        """Even without eager eviction, bumped tables never hit stale keys."""
        engine = _engine(chunked_census)
        cold = _run(engine, chunked_census)
        chunked_census.bump_version()
        rerun = _run(engine, chunked_census)
        assert rerun.cache_hits == 0
        assert rerun.cache_misses == cold.cache_misses


# --------------------------------------------------------------------------- #
# the file-backed L2 tier and the two-tier cache
# --------------------------------------------------------------------------- #


class TestFileCacheTier:
    def test_roundtrip_and_atomic_files(self, tmp_path):
        from repro.core.cache import FileCacheTier

        tier = FileCacheTier(tmp_path / "l2")
        assert tier.get("k") is None
        result, stats = _entry_payload()
        assert tier.put("k", result, stats) is True
        got = tier.get("k")
        assert got is not None
        cached_result, cached_stats = got
        assert np.array_equal(
            cached_result.values["avg_price"], result.values["avg_price"]
        )
        assert cached_stats.queries_issued == stats.queries_issued
        # One finished entry file, no leftover temp files.
        names = [p.name for p in (tmp_path / "l2").iterdir()]
        assert len(names) == 1 and names[0].endswith(".viewcache")
        assert len(tier) == 1 and tier.nbytes > 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        from repro.core.cache import FileCacheTier

        tier = FileCacheTier(tmp_path / "l2")
        tier.put("k", *_entry_payload())
        entry_file = next((tmp_path / "l2").iterdir())
        entry_file.write_bytes(b"not a pickle")
        assert tier.get("k") is None

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        """A bad entry is removed on first read, not re-parsed forever."""
        from repro.core.cache import FileCacheTier

        tier = FileCacheTier(tmp_path / "l2")
        tier.put("k", *_entry_payload())
        entry_file = next((tmp_path / "l2").iterdir())
        entry_file.write_bytes(b"garbage" * 10)
        assert tier.get("k") is None
        assert tier.quarantined == 1
        assert not entry_file.exists()
        # Quarantine cleared the slot: the key can be re-cached cleanly.
        assert tier.put("k", *_entry_payload()) is True
        assert tier.get("k") is not None
        assert tier.quarantined == 1

    def test_truncated_entry_fails_the_sha256_trailer(self, tmp_path):
        """A torn write (partial flush) is caught by the checksum, not
        by luck in the unpickler."""
        from repro.core.cache import FileCacheTier

        tier = FileCacheTier(tmp_path / "l2")
        tier.put("k", *_entry_payload())
        entry_file = next((tmp_path / "l2").iterdir())
        blob = entry_file.read_bytes()
        entry_file.write_bytes(blob[: len(blob) // 2])
        assert tier.get("k") is None
        assert tier.quarantined == 1
        assert not entry_file.exists()

    def test_fault_injected_truncation_end_to_end(self, tmp_path):
        """The ``truncate_l2_entry`` chaos fault corrupts a fresh write
        and the tier survives it as a quarantined miss."""
        from repro.core.cache import FileCacheTier
        from repro.testing import faults

        tier = FileCacheTier(tmp_path / "l2")
        faults.install("truncate_l2_entry:arg=0.5")
        try:
            assert tier.put("k", *_entry_payload()) is True
        finally:
            faults.uninstall()
        assert tier.get("k") is None
        assert tier.quarantined == 1
        assert list((tmp_path / "l2").iterdir()) == []

    def test_key_is_verified_inside_payload(self, tmp_path):
        """A renamed/foreign entry file must miss, not answer wrongly."""
        import shutil as sh

        from repro.core.cache import FileCacheTier

        tier = FileCacheTier(tmp_path / "l2")
        tier.put("k", *_entry_payload())
        source = next((tmp_path / "l2").iterdir())
        fake = source.with_name("0" * 64 + ".viewcache")
        sh.copy(source, fake)
        # The forged name's hash does not match the embedded key "k".
        assert tier.get("other-key") is None

    def test_invalidate_prefix(self, tmp_path):
        from repro.core.cache import FileCacheTier

        tier = FileCacheTier(tmp_path / "l2")
        tier.put("tableA|q1", *_entry_payload())
        tier.put("tableA|q2", *_entry_payload())
        tier.put("tableB|q1", *_entry_payload())
        assert tier.invalidate("tableA") == 2
        assert tier.get("tableA|q1") is None
        assert tier.get("tableB|q1") is not None

    def test_byte_budget_prunes_oldest(self, tmp_path):
        from repro.core.cache import FileCacheTier

        tier = FileCacheTier(tmp_path / "l2")
        tier.put("first", *_entry_payload())
        entry_bytes = tier.nbytes
        bounded = FileCacheTier(tmp_path / "l2", max_bytes=int(entry_bytes * 2.5))
        for index in range(4):
            bounded.put(f"k{index}", *_entry_payload())
        assert bounded.nbytes <= int(entry_bytes * 2.5)
        assert len(bounded) < 5

    def test_unwritable_dir_degrades_to_dropped_writes(self, tmp_path):
        # Replace the tier directory with a regular file (chmod tricks are
        # ineffective when the suite runs as root): every write then hits
        # ENOTDIR and the tier must degrade to dropped writes, not raise.
        import shutil

        from repro.core.cache import FileCacheTier

        target = tmp_path / "l2"
        tier = FileCacheTier(target)
        shutil.rmtree(target)
        target.write_text("not a directory")
        assert tier.put("k", *_entry_payload()) is False
        assert tier.get("k") is None


class TestTieredViewResultCache:
    def test_l2_hit_promotes_and_counts_as_hit(self, tmp_path):
        from repro.core.cache import TieredViewResultCache

        writer = TieredViewResultCache(tmp_path / "l2")
        writer.put("k", *_entry_payload())
        # A fresh instance over the same directory: cold L1, warm L2 —
        # the sibling-worker scenario.
        reader = TieredViewResultCache(tmp_path / "l2")
        entry = reader.get("k")
        assert entry is not None
        assert reader.tier_counters() == {
            "l1_hits": 0, "l1_misses": 1, "l2_hits": 1, "l2_misses": 0,
            "l2_quarantined": 0,
        }
        # The overall cache stats count the L2 hit as a hit, not a miss.
        snapshot = reader.snapshot()
        assert (snapshot.hits, snapshot.misses) == (1, 0)
        assert snapshot.bytes_saved > 0
        # Promotion: the second read is a pure L1 hit.
        assert reader.get("k") is not None
        assert reader.tier_counters()["l1_hits"] == 1

    def test_full_miss_counts_in_both_tiers(self, tmp_path):
        from repro.core.cache import TieredViewResultCache

        cache = TieredViewResultCache(tmp_path / "l2")
        assert cache.get("missing") is None
        assert cache.tier_counters() == {
            "l1_hits": 0, "l1_misses": 1, "l2_hits": 0, "l2_misses": 1,
            "l2_quarantined": 0,
        }
        snapshot = cache.snapshot()
        assert (snapshot.hits, snapshot.misses) == (0, 1)

    def test_invalidate_table_clears_both_tiers(self, tmp_path):
        from repro.core.cache import TieredViewResultCache

        cache = TieredViewResultCache(tmp_path / "l2")
        cache.put("fp1|q", *_entry_payload())
        cache.put("fp2|q", *_entry_payload())
        assert cache.invalidate_table("fp1") >= 1
        sibling = TieredViewResultCache(tmp_path / "l2")
        assert sibling.get("fp1|q") is None
        assert sibling.get("fp2|q") is not None

    def test_engine_results_cross_processes_via_l2(self, census_like, tmp_path):
        """Engine wiring: a warm L2 serves a cold-L1 engine bitwise."""
        from repro.core.cache import TieredViewResultCache

        first = _engine(census_like, cache=TieredViewResultCache(tmp_path / "l2"))
        cold = _run(first, census_like)
        assert cold.cache_misses > 0
        # A second engine over a *fresh* tiered cache sharing only the dir.
        second = _engine(census_like, cache=TieredViewResultCache(tmp_path / "l2"))
        warm = _run(second, census_like)
        assert warm.stats.queries_issued == 0
        assert warm.cache_misses == 0
        _assert_bitwise_identical(cold, warm)

    @pytest.mark.parametrize("combine", [True, False], ids=["combined", "split"])
    def test_an_l2_filled_under_standalone_keys_serves_every_request(
        self, census_like, tmp_path, combine
    ):
        """An L2 directory written by the commit before requests shared their
        keys must still hit: fill a file tier under ``execution_fingerprint |
        query_fingerprint(query)`` — the standalone function, the oracle —
        and replay the requests through an engine with zero misses."""
        from repro.core.cache import FileCacheTier, TieredViewResultCache

        requests = [
            (E.eq("marital", "Unmarried"), "comb", "ci"),
            (E.And((E.eq("sex", "F"), E.eq("marital", "Married"))), "sharing", "none"),
            (E.eq("sex", "M"), "sharing", "none"),
        ]
        uncached = _engine(census_like, enabled=False, combine_target_reference=combine)
        tier = FileCacheTier(tmp_path / "l2")
        prefix = execution_fingerprint(uncached.store, uncached.backend)
        cold = []
        for target, strategy, pruner in requests:
            run = _run(uncached, census_like, strategy=strategy, pruner=pruner, target=target)
            assert 0 < len(run.queries) == run.stats.queries_issued  # all recorded
            for query in run.queries:
                tier.put(f"{prefix}|{query_fingerprint(query)}", *uncached.backend.execute(query))
            cold.append(run)

        cache = TieredViewResultCache(tmp_path / "l2")
        served = _engine(census_like, cache=cache, combine_target_reference=combine)
        for (target, strategy, pruner), want in zip(requests, cold):
            run = _run(served, census_like, strategy=strategy, pruner=pruner, target=target)
            assert run.stats.queries_issued == run.cache_misses == 0
            assert run.cache_hits == want.stats.queries_issued
            _assert_bitwise_identical(want, run)
        counters = cache.tier_counters()
        assert counters["l2_misses"] == 0 and counters["l2_hits"] == len(tier)


class TestLruMemo:
    def test_bound_recency_and_rebuild(self):
        from repro.core.cache import LruMemo

        memo, built = LruMemo(2), []

        def get(key):
            return memo.get(key, lambda: built.append(key) or key.upper())

        assert [get("a"), get("b"), get("a"), get("c")] == ["A", "B", "A", "C"]
        assert len(memo) == 2 and built == ["a", "b", "c"]  # "b" was the oldest
        assert [get("a"), get("b")] == ["A", "B"] and built == ["a", "b", "c", "b"]
        with pytest.raises(KeyError):
            memo.get("z", lambda: {}["z"])  # a build that raises keeps nothing
        assert len(memo) == 2


# --------------------------------------------------------------------------- #
# view answers kept on entries
# --------------------------------------------------------------------------- #


def _assert_same_bits(run_a, run_b):
    """:func:`_assert_bitwise_identical`, and the utilities' order and the
    distributions' bytes too."""
    _assert_bitwise_identical(run_a, run_b)
    assert list(run_a.utilities) == list(run_b.utilities)
    for key, dists in run_a.distributions.items():
        other = run_b.distributions[key]
        assert dists.target.tobytes() == other.target.tobytes()
        assert dists.reference.tobytes() == other.reference.tobytes()


def _memos(cache: ViewResultCache) -> list[dict]:
    return [entry.memo for entry in cache._entries.values()]


class TestKeptAnswers:
    """A hit result keeps the scores of the views it alone feeds; a later hit
    reads them instead of routing and scoring, to the same bits."""

    def test_kept_answers_equal_cold_and_cache_off_runs(self, census_like):
        """Every registered metric x reference mode, on one engine and one
        cache: "all" and "complement" issue the same flagged queries, so their
        answers differ only by the memo's key, and so do the metrics'."""
        cache = ViewResultCache()
        plain, cached = (
            ExecutionEngine(
                make_store("col", census_like),
                EngineConfig(store="col", result_cache=enabled),
                result_cache=cache,
            )
            for enabled in (False, True)
        )
        for metric in list_metrics():
            for reference in ("all", "complement", "query"):
                kwargs = {"reference_mode": reference, "metric": metric}
                if reference == "query":
                    kwargs["reference_predicate"] = E.eq("sex", "M")
                off = _run(plain, census_like, **kwargs)
                first, hit = _run(cached, census_like, **kwargs), _run(cached, census_like, **kwargs)
                reused = cache.snapshot().scores_reused
                kept = _run(cached, census_like, **kwargs)
                assert cache.snapshot().scores_reused - reused == len(kept.utilities)
                assert hit.cache_misses == kept.cache_misses == 0, (metric, reference)
                for run in (first, hit, kept):
                    _assert_same_bits(off, run)

    def test_a_fully_kept_request_routes_and_scores_nothing(self, census_like, monkeypatch):
        from repro.core.state import ViewState

        calls: list[str] = []
        route, utility = ExecutionEngine._route_result, ViewState.utility

        def spy_route(self, *args):
            calls.append("route")
            return route(self, *args)

        def spy_utility(self, *args):
            calls.append("utility")
            return utility(self, *args)

        monkeypatch.setattr(ExecutionEngine, "_route_result", spy_route)
        monkeypatch.setattr(ViewState, "utility", spy_utility)
        engine = _engine(census_like)
        counts = []
        for _ in range(3):  # cold, first hit, kept
            calls.clear()
            _run(engine, census_like)
            counts.append((calls.count("route"), calls.count("utility")))
        assert counts[0] == counts[1] and min(counts[0]) > 0
        assert counts[2] == (0, 0)

    def test_only_a_hit_one_range_flagged_run_keeps_answers(self, census_like):
        """``comb`` (phases) and held runs neither read nor fill a memo, and an
        entry that is put but never hit keeps none."""
        from repro.core.recommender import serving_config

        engine = _engine(census_like)
        cache = engine.result_cache
        for _ in range(2):
            _run(engine, census_like, strategy="comb", pruner="ci")
            _run(engine, census_like, strategy="no_opt")
        _run(engine, census_like)  # put, never hit
        assert len(cache) and not any(_memos(cache))
        held = ExecutionEngine(
            make_store("col", census_like),
            serving_config("col", result_cache=True),
            result_cache=cache,
        )
        # An OR is no held target cell: the held run queries its target side.
        target = E.eq("marital", "Unmarried").or_(E.eq("sex", "F"))
        runs = [_run(held, census_like, target=target) for _ in range(2)]
        assert runs[1].cache_hits > 0 and runs[1].stats.queries_issued == 0
        assert not any(_memos(cache)) and cache.snapshot().scores_reused == 0

    def test_kept_answers_are_read_only_and_charged(self, census_like):
        engine = _engine(census_like)
        cache = engine.result_cache
        _run(engine, census_like)
        before = cache.nbytes
        _run(engine, census_like)
        kept = [answer for memo in _memos(cache) for answers in memo.values()
                for answer in answers.values()]
        assert kept and cache.nbytes > before
        assert cache.nbytes == sum(entry.nbytes for entry in cache._entries.values())
        for _, dists in kept:
            for array in (dists.target, dists.reference):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_concurrent_first_hits_keep_exact_bytes_and_bits(self, census_like):
        """Threads racing to fill and read one result's answers: every run has
        the cache-off bits and the budget holds exactly what the entries keep."""
        import sys

        reference = _run(_engine(census_like, enabled=False), census_like)
        engine = _engine(census_like)
        _run(engine, census_like)
        runs, errors = [], []

        def session() -> None:
            try:
                runs.extend(_run(engine, census_like) for _ in range(4))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=session) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(runs) == 32
        for run in runs:
            _assert_same_bits(reference, run)
        cache = engine.result_cache
        assert cache.nbytes == sum(entry.nbytes for entry in cache._entries.values())
        assert cache.snapshot().scores_reused > 0
