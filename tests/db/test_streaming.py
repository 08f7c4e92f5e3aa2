"""Streaming (chunk-at-a-time) execution is bitwise-identical at any chunking.

The carry-seeded partial-state merge (:mod:`repro.db.streaming`, the one
group-by kernel) promises *value-identical* results at any chunk
granularity — these tests enforce it bitwise (``tobytes()`` equality on
every aggregate array) across aggregate functions, predicates, derived CASE
keys, the spill path, and memmap-backed tables, for both the per-query
executor and the shared-scan batch executor, and hold the kernel itself to a
row-order Python reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import chunks as C
from repro.db import expressions as E
from repro.db import streaming as streaming_module
from repro.db.executor import QueryExecutor
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    DerivedColumn,
)
from repro.db.shared_scan import SharedScanExecutor
from repro.db.storage import make_store
from repro.db.streaming import StreamingGroupAggregator
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.exceptions import QueryError

CHUNK_SIZES = (7, 64, 250, 5000)


def _table(seed: int = 0, n: int = 997) -> Table:
    rng = np.random.default_rng(seed)
    data = {
        "d0": rng.choice(["a", "b'c", "O'Brien", "z"], n),
        "d1": rng.integers(0, 5, n),
        "m0": rng.gamma(2.0, 10.0, n),
        "m1": rng.normal(0.0, 1.0, n),
        "part": rng.choice(["t", "r"], n),
    }
    roles = {
        "d0": ColumnRole.DIMENSION,
        "d1": ColumnRole.DIMENSION,
        "m0": ColumnRole.MEASURE,
        "m1": ColumnRole.MEASURE,
        "part": ColumnRole.OTHER,
    }
    return Table("rand", data, roles=roles)


def _queries() -> list[AggregateQuery]:
    flag = DerivedColumn("flag", E.CaseWhen(E.eq("part", "t"), E.lit(1), E.lit(0)))
    return [
        # Plain AVG group-by.
        AggregateQuery(
            "rand", ("d0",), (AggregateSpec(AggregateFunction.AVG, "m0", "a0"),)
        ),
        # Every aggregate function at once, grouped by a derived CASE flag.
        AggregateQuery(
            "rand",
            ("d0", "flag"),
            (
                AggregateSpec(AggregateFunction.AVG, "m0", "avg0"),
                AggregateSpec(AggregateFunction.SUM, "m1", "sum1"),
                AggregateSpec(AggregateFunction.MIN, "m1", "min1"),
                AggregateSpec(AggregateFunction.MAX, "m0", "max0"),
                AggregateSpec(AggregateFunction.COUNT, None, "cnt"),
            ),
            derived=(flag,),
        ),
        # Global aggregate (no GROUP BY) under a predicate.
        AggregateQuery(
            "rand",
            (),
            (AggregateSpec(AggregateFunction.AVG, "m0", "a0"),),
            predicate=E.eq("part", "t"),
        ),
        # Spill path: tiny group budget over a composite key, partial range.
        AggregateQuery(
            "rand",
            ("d0", "d1"),
            (AggregateSpec(AggregateFunction.AVG, "m0", "a0"),),
            predicate=E.eq("part", "t"),
            group_budget=3,
            row_range=(100, 900),
        ),
        # Expression aggregate argument.
        AggregateQuery(
            "rand",
            ("d1",),
            (
                AggregateSpec(
                    AggregateFunction.SUM,
                    E.CaseWhen(E.eq("part", "t"), E.col("m0"), E.lit(0.0)),
                    "s",
                ),
            ),
        ),
        # Predicate selecting zero rows.
        AggregateQuery(
            "rand",
            ("d0",),
            (AggregateSpec(AggregateFunction.AVG, "m0", "a0"),),
            predicate=E.eq("part", "no-such-value"),
        ),
    ]


def _assert_same_result(r0, r1, label: str) -> None:
    assert r1.n_groups == r0.n_groups, label
    assert r1.input_rows == r0.input_rows, label
    assert set(r1.groups) == set(r0.groups) and set(r1.values) == set(r0.values)
    for key in r0.groups:
        a, b = np.asarray(r0.groups[key]), np.asarray(r1.groups[key])
        assert a.dtype == b.dtype and np.array_equal(a, b), (label, key)
    for key in r0.values:
        a, b = np.asarray(r0.values[key]), np.asarray(r1.values[key])
        assert a.tobytes() == b.tobytes(), (label, key)


def _assert_bitwise(one_shot, streamed, label: str) -> None:
    r0, s0 = one_shot
    r1, s1 = streamed
    _assert_same_result(r0, r1, label)
    # Accounting parity where streaming promises it.
    assert s1.queries_issued == s0.queries_issued
    assert s1.spill_passes == s0.spill_passes, label
    assert s1.rows_scanned == s0.rows_scanned, label
    assert s1.agg_rows_processed == s0.agg_rows_processed, label
    assert s1.groups_maintained == s0.groups_maintained, label


class TestPerQueryStreaming:
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_streamed_equals_one_shot(self, chunk_rows):
        table = _table()
        baseline = QueryExecutor(make_store("col", table))
        store = make_store("col", table)
        store.stream_chunk_rows = chunk_rows
        streaming = QueryExecutor(store)
        for i, query in enumerate(_queries()):
            _assert_bitwise(
                baseline.execute(query),
                streaming.execute(query),
                f"chunk={chunk_rows} q={i}",
            )

    def test_memmap_backed_table(self, tmp_path):
        table = _table(seed=3)
        C.write_table(table, tmp_path / "ds", chunk_rows=83)
        # A quarter of the dataset's bytes: a budget the whole table exceeds.
        budget = table.physical_row_bytes() * table.nrows // 4
        chunked = C.open_table(tmp_path / "ds", memory_budget_bytes=budget)
        baseline = QueryExecutor(make_store("col", table))
        streaming = QueryExecutor(make_store("col", chunked))
        for i, query in enumerate(_queries()):
            _assert_bitwise(
                baseline.execute(query), streaming.execute(query), f"memmap q={i}"
            )
        assert 0 < chunked.residency.peak_bytes <= budget
        assert chunked.residency.over_budget_events == 0

    def test_row_store_streams_too(self):
        table = _table(seed=5)
        baseline = QueryExecutor(make_store("row", table))
        store = make_store("row", table)
        store.stream_chunk_rows = 100
        streaming = QueryExecutor(store)
        for i, query in enumerate(_queries()):
            _assert_bitwise(
                baseline.execute(query), streaming.execute(query), f"row q={i}"
            )


class TestSharedScanStreaming:
    @pytest.mark.parametrize("chunk_rows", (7, 128, 333))
    def test_batch_equals_one_shot_batch(self, chunk_rows):
        table = _table(seed=7)
        baseline = SharedScanExecutor(make_store("col", table))
        store = make_store("col", table)
        store.stream_chunk_rows = chunk_rows
        streaming = SharedScanExecutor(store)
        queries = _queries()
        base_out = baseline.execute_batch(queries)
        stream_out = streaming.execute_batch(queries)
        for i, (one_shot, streamed) in enumerate(zip(base_out, stream_out)):
            _assert_bitwise(one_shot, streamed, f"shared chunk={chunk_rows} q={i}")

    def test_mixed_ranges_and_fanout(self):
        """Batches mixing streamed and unstreamed ranges route correctly."""
        table = _table(seed=11)
        store = make_store("col", table)
        store.stream_chunk_rows = 200
        streaming = SharedScanExecutor(store)
        baseline = SharedScanExecutor(make_store("col", table))
        base_query = _queries()[0]
        batch = [
            base_query.with_range(0, 150),   # single chunk
            base_query.with_range(0, 997),   # streams
            base_query.with_range(100, 900),  # streams
        ]

        def fanout(fn, items):
            return [fn(item) for item in items]

        base_out = baseline.execute_batch(batch, fanout=fanout)
        stream_out = streaming.execute_batch(batch, fanout=fanout)
        for i, (one_shot, streamed) in enumerate(zip(base_out, stream_out)):
            _assert_bitwise(one_shot, streamed, f"mixed q={i}")

    def test_scan_accounting_sums_once(self):
        """Streamed shared scans still charge each page to the batch once.

        Chunks are page-aligned here (``stream_chunk_rows`` a multiple of
        ``page_rows``), so no page is re-touched across chunks and the
        batch's summed bytes equal a single one-shot union scan.  (Chunks
        narrower than a page re-touch it — charged as cheap buffer-pool
        hits, which is the page-granular I/O model working as intended.)
        """
        table = _table(seed=13)
        store = make_store("col", table, page_rows=50)
        store.stream_chunk_rows = 100
        streaming = SharedScanExecutor(store)
        queries = [_queries()[0], _queries()[1]]
        outcomes = streaming.execute_batch(queries)
        total = sum(s.bytes_scanned_miss + s.bytes_scanned_hit for _, s in outcomes)
        # One fresh-store scan of the union columns charges every touched
        # page exactly once; the union here is d0, m0, m1, part.
        expected = store.layout.scan_bytes(["d0", "m0", "m1", "part"], 0, table.nrows)
        assert total == expected
        assert sum(s.bytes_scanned_hit for _, s in outcomes) == 0


def _columns(table: Table, start: int, stop: int) -> dict[str, np.ndarray]:
    return {name: np.asarray(table.column(name))[start:stop] for name in table.column_names}


def _thread_fanout(fn, items):
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(fn, items, timeout=60))


class TestPipelineParameterValues:
    """Every way of running a batch is one pipeline with other parameters.

    The same six queries — five over the whole table, one over rows
    [100, 900) — through each parameter value of ``execute_batch`` give
    byte-identical results, and the scan counters conserve: a batch charges
    each distinct range once, batches of one charge every query its own.
    """

    N = 997
    BASE = 800  # rows in the store before the refresh case appends the rest
    RANGE = (100, 900)

    def _run(self, case: str, tmp_path):
        from repro.core.cache import DeltaStateCache

        table, queries = _table(seed=19, n=self.N), _queries()
        store = make_store("col", table)
        if case == "batches_of_one":
            pipeline = SharedScanExecutor(store)
            return [pipeline.execute_batch([query])[0] for query in queries]
        if case == "per_query_executor":
            executor = QueryExecutor(store)
            return [executor.execute(query) for query in queries]
        if case == "many_ranges":
            store.stream_chunk_rows = 64
        elif case == "memmap":
            C.write_table(table, tmp_path / "ds", chunk_rows=83)
            store = make_store("col", C.open_table(tmp_path / "ds"))
        elif case == "delta_refresh":
            C.write_table(table.slice_rows(0, self.BASE), tmp_path / "ds", chunk_rows=128)
            store = make_store("col", C.open_table(tmp_path / "ds"))
            pipeline = SharedScanExecutor(store, DeltaStateCache())
            cold = pipeline.execute_batch([q for q in queries if q.row_range is None])
            assert all(stats.delta_hits == 0 for _, stats in cold)
            C.append_rows(tmp_path / "ds", _columns(table, self.BASE, self.N))
            assert store.table.refresh_from_disk()
            store.sync_layout()
            return pipeline.execute_batch(queries)
        delta_cache = DeltaStateCache() if case == "delta_cold" else None
        fanout = _thread_fanout if case == "thread_fanout" else None
        return SharedScanExecutor(store, delta_cache).execute_batch(queries, fanout=fanout)

    @pytest.mark.parametrize(
        "case, scans_per_query",
        [
            ("one_batch", False),
            ("batches_of_one", True),
            ("per_query_executor", True),
            ("many_ranges", False),
            ("memmap", False),
            ("thread_fanout", False),
            ("delta_cold", True),  # seeded groups of one: each scans its own rows
            ("delta_refresh", True),
        ],
    )
    def test_same_bytes_and_conserved_scans(self, case, scans_per_query, tmp_path):
        queries = _queries()
        reference = SharedScanExecutor(
            make_store("col", _table(seed=19, n=self.N))
        ).execute_batch(queries)
        outcomes = self._run(case, tmp_path)
        assert len(outcomes) == len(queries)
        for i, ((want, want_stats), (got, stats)) in enumerate(zip(reference, outcomes)):
            _assert_same_result(want, got, f"{case} q={i}")
            assert stats.queries_issued == 1
            assert stats.spill_passes == want_stats.spill_passes
            assert stats.groups_maintained == want_stats.groups_maintained
            if case != "delta_refresh":  # a refresh folds (and charges) only new rows
                assert stats.agg_rows_processed == want_stats.agg_rows_processed

        full = self.N - self.BASE if case == "delta_refresh" else self.N
        part = self.RANGE[1] - self.RANGE[0]
        n_full = sum(query.row_range is None for query in queries)
        assert n_full == 5 and queries[3].row_range == self.RANGE
        scanned = sum(stats.rows_scanned for _, stats in outcomes)
        assert scanned == (n_full * full if scans_per_query else full) + part
        if case == "delta_refresh":
            assert [stats.delta_hits for _, stats in outcomes] == [1, 1, 1, 0, 1, 1]

    def test_batch_bytes_equal_one_scan_and_a_loop_n_scans(self):
        """Bytes conserve like rows: one union scan per range, or one per query."""
        table, queries = _table(seed=19, n=self.N), _queries()[:3]
        store = make_store("col", table)
        batch = SharedScanExecutor(store).execute_batch(queries)
        loop_store = make_store("col", table)
        loop = [QueryExecutor(loop_store).execute(query) for query in queries]

        def total(outcomes):
            return sum(s.bytes_scanned_miss + s.bytes_scanned_hit for _, s in outcomes)

        union = sorted(set().union(*(q.base_columns_needed() for q in queries)))
        assert total(batch) == store.scan_bytes(union, 0, self.N)
        assert total(loop) == sum(
            store.scan_bytes(sorted(q.base_columns_needed()), 0, self.N) for q in queries
        )


class TestSpillAccountingParity:
    """Any chunking charges a budget-forced spill alike; none partitions for it."""

    @pytest.mark.parametrize("chunk_rows", (7, 250))
    def test_aggregator_charges_what_group_aggregate_charges(self, chunk_rows):
        from repro.db.groupby import GroupKeyColumn, group_aggregate

        rng = np.random.default_rng(chunk_rows)
        n = 997
        keys = [
            GroupKeyColumn(f"k{i}", rng.integers(0, 6, n).astype(np.int32), np.arange(6))
            for i in range(2)
        ]
        inputs = [(AggregateFunction.AVG, rng.random(n)), (AggregateFunction.COUNT, None)]
        for budget in (None, 5, 36, 1000):
            resident = group_aggregate(keys, inputs, budget)
            aggregator = StreamingGroupAggregator([f for f, _ in inputs], budget)
            for start in range(0, n, chunk_rows):
                rows = slice(start, start + chunk_rows)
                aggregator.update(
                    [GroupKeyColumn(kc.name, kc.codes[rows], kc.categories) for kc in keys],
                    [(f, None if v is None else v[rows]) for f, v in inputs],
                )
            streamed = aggregator.finalize()
            assert streamed.spill_passes == resident.spill_passes
            assert (streamed.spill_passes > 0) == (budget == 5)
            assert streamed.estimated_groups == resident.estimated_groups == 36
            assert streamed.group_counts.tobytes() == resident.group_counts.tobytes()
            for a, b in zip(resident.aggregate_values, streamed.aggregate_values):
                assert a.tobytes() == b.tobytes()

    def test_executors_charge_the_same_spill_bytes(self):
        table = _table(seed=17)
        spilling = _queries()[3]
        assert spilling.group_budget == 3
        store = make_store("col", table)
        store.stream_chunk_rows = 64
        _, resident = QueryExecutor(make_store("col", table)).execute(spilling)
        _, streamed = QueryExecutor(store).execute(spilling)
        (_, shared), = SharedScanExecutor(make_store("col", table)).execute_batch([spilling])
        assert resident.spill_passes > 0
        for stats in (streamed, shared):
            assert stats.spill_passes == resident.spill_passes
            assert stats.bytes_scanned_miss == resident.bytes_scanned_miss


def _assert_equal_unaliased(want, got, where: str) -> None:
    """Same value at every level, and no array or container shared."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), where
        assert not np.shares_memory(want, got), where
    elif isinstance(want, (list, dict)):
        assert got is not want and len(got) == len(want), where
        pairs = want.items() if isinstance(want, dict) else enumerate(want)
        for key, item in pairs:
            _assert_equal_unaliased(item, got[key], f"{where}[{key!r}]")
    else:
        assert got == want, where


class TestSnapshotRoundTrip:
    """The delta cache's contract: a snapshot is the whole running state."""

    FUNCS = [
        AggregateFunction.AVG,
        AggregateFunction.MIN,
        AggregateFunction.MAX,
        AggregateFunction.COUNT,
    ]

    def _chunk(self, rng, n_categories: int, n: int = 40):
        from repro.db.groupby import GroupKeyColumn

        keys = [
            GroupKeyColumn("a", rng.integers(0, n_categories, n).astype(np.int32),
                           np.arange(n_categories)),
            GroupKeyColumn("b", rng.integers(0, 2, n).astype(np.int32), np.asarray(["x", "y"])),
        ]
        inputs = [(f, None if f is AggregateFunction.COUNT else rng.random(n)) for f in self.FUNCS]
        return keys, inputs

    @pytest.mark.parametrize(
        "mode, dense_limit, categories",
        [
            ("dense", None, (3, 3)),
            ("sparse", 4, (3, 3)),  # 3 x 2 keys never fit a 4-slot domain
            ("sparse", 8, (3, 6)),  # fits, then the second chunk outgrows it
        ],
        ids=["dense", "sparse", "converted"],
    )
    def test_restored_state_equals_the_original_field_by_field(
        self, mode, dense_limit, categories, monkeypatch
    ):
        if dense_limit is not None:
            monkeypatch.setattr(streaming_module, "_DENSE_GROUP_LIMIT", dense_limit)
        rng = np.random.default_rng(23)
        aggregator = StreamingGroupAggregator(self.FUNCS, budget=3)
        for n_categories in categories:
            aggregator.update(*self._chunk(rng, n_categories))
        assert aggregator._mode == mode

        snapshot = aggregator.snapshot()
        restored = StreamingGroupAggregator.from_snapshot(snapshot)
        assert set(vars(restored)) == set(vars(aggregator))
        for name, value in vars(aggregator).items():
            _assert_equal_unaliased(value, vars(restored)[name], name)
            _assert_equal_unaliased(value, snapshot[name], f"snapshot {name}")
        assert restored.snapshot_nbytes() == aggregator.snapshot_nbytes() > 0

        # Copy-on-restore: folding into one restored copy leaves the
        # snapshot (and a second copy made from it) where the original is.
        restored.update(*self._chunk(rng, categories[-1]))
        assert restored.total_rows == aggregator.total_rows + 40
        again = StreamingGroupAggregator.from_snapshot(snapshot)
        for name, value in vars(aggregator).items():
            _assert_equal_unaliased(value, vars(again)[name], f"again {name}")
        want, got = aggregator.finalize(), again.finalize()
        assert want.group_counts.tobytes() == got.group_counts.tobytes()
        for a, b in zip(want.aggregate_values, got.aggregate_values):
            assert a.tobytes() == b.tobytes()


    @pytest.mark.parametrize("dense_limit", [None, 4], ids=["dense", "sparse"])
    def test_finalize_shares_no_array_with_a_released_state(self, dense_limit, monkeypatch):
        """The delta cache keeps a refreshed aggregator's own state
        (:meth:`release`, uncopied): finalize returns none of its arrays and
        changes none of them."""
        if dense_limit is not None:
            monkeypatch.setattr(streaming_module, "_DENSE_GROUP_LIMIT", dense_limit)
        rng = np.random.default_rng(29)
        aggregator = StreamingGroupAggregator(self.FUNCS, budget=3)
        for _ in range(2):
            aggregator.update(*self._chunk(rng, 3))
        state = aggregator.release()
        before = StreamingGroupAggregator.from_snapshot(state).snapshot()
        result = aggregator.finalize()
        returned = [*result.key_values.values(), *result.aggregate_values, result.group_counts]
        held = [
            item
            for value in state.values()
            for item in (
                value.values() if isinstance(value, dict)
                else value if isinstance(value, list) else [value]
            )
            if isinstance(item, np.ndarray)
        ]
        assert not any(np.shares_memory(a, b) for a in returned for b in held)
        for name, value in before.items():
            _assert_equal_unaliased(value, state[name], name)


class TestAggregatorContract:
    def test_finalize_before_update_raises(self):
        aggregator = StreamingGroupAggregator([AggregateFunction.COUNT])
        with pytest.raises(QueryError):
            aggregator.finalize()

    def test_key_mismatch_raises(self):
        from repro.db.groupby import GroupKeyColumn

        aggregator = StreamingGroupAggregator([AggregateFunction.COUNT])
        key = GroupKeyColumn("a", np.zeros(2, np.int32), np.asarray(["x"]))
        aggregator.update([key], [(AggregateFunction.COUNT, None)])
        other = GroupKeyColumn("b", np.zeros(2, np.int32), np.asarray(["x"]))
        with pytest.raises(QueryError):
            aggregator.update([other], [(AggregateFunction.COUNT, None)])

    def test_all_empty_chunks_finalize_empty(self):
        from repro.db.groupby import GroupKeyColumn

        aggregator = StreamingGroupAggregator([AggregateFunction.AVG])
        cats = np.asarray(["x", "y"])
        empty = GroupKeyColumn("a", np.empty(0, np.int32), cats)
        aggregator.update([empty], [(AggregateFunction.AVG, np.empty(0))])
        result = aggregator.finalize()
        assert result.n_groups == 0
        assert result.key_values["a"].dtype == cats.dtype
        assert len(result.aggregate_values[0]) == 0


def _row_order_reference(keys, inputs):
    """Per group in key order: ``(key, rows, aggregates)``, every aggregate
    folded row by row in Python — a SUM is ``((0.0 + v1) + v2) + ...``."""
    rows_of: dict[tuple, list[int]] = {}
    for row in range(len(keys[0].codes)):
        key = tuple(kc.categories[kc.codes[row]].item() for kc in keys)
        rows_of.setdefault(key, []).append(row)
    out = []
    for key in sorted(rows_of):
        rows = rows_of[key]
        aggregates = []
        for func, values in inputs:
            if func is AggregateFunction.COUNT:
                aggregates.append(float(len(rows)))
                continue
            column = [float(values[row]) for row in rows]
            if func is AggregateFunction.MIN:
                aggregates.append(min(column))
            elif func is AggregateFunction.MAX:
                aggregates.append(max(column))
            else:
                total = 0.0
                for value in column:
                    total += value
                aggregates.append(total / len(rows) if func is AggregateFunction.AVG else total)
        out.append((key, len(rows), aggregates))
    return out


class TestRowOrderReference:
    """The one kernel, at every chunking and in both plans, against Python.

    Keys come with the column's own categories (a physical dimension) or
    with the categories of each chunk's rows (a derived key, whose union
    grows chunk by chunk and can push the dense plan over its limit
    mid-stream).  MIN/MAX read a measure holding ±inf.
    """

    N = 613

    def _inputs(self, seed: int):
        from repro.db.groupby import GroupKeyColumn

        rng = np.random.default_rng(seed)
        keys = [
            GroupKeyColumn(
                name, rng.integers(0, len(categories), self.N).astype(np.int32), categories
            )
            for name, categories in (
                ("k0", np.asarray(["a", "b'c", "d", "e", "f"])),
                ("k1", np.arange(7) * 10),
            )
        ]
        finite = rng.normal(0.0, 1e3, self.N)
        extreme = rng.gamma(2.0, 10.0, self.N)
        extreme[rng.integers(0, self.N, 9)] = np.inf
        extreme[rng.integers(0, self.N, 9)] = -np.inf
        inputs = [
            (AggregateFunction.SUM, finite),
            (AggregateFunction.AVG, finite),
            (AggregateFunction.COUNT, None),
            (AggregateFunction.MIN, extreme),
            (AggregateFunction.MAX, extreme),
        ]
        return keys, inputs

    @pytest.mark.parametrize("dense_limit", [None, 12, 0], ids=["dense", "converts", "sparse"])
    @pytest.mark.parametrize("per_chunk_categories", [False, True], ids=["global", "derived"])
    @pytest.mark.parametrize("chunk_rows", (1, 7, 64, 250, 613))
    def test_bitwise_equal_to_python(
        self, chunk_rows, per_chunk_categories, dense_limit, monkeypatch
    ):
        from repro.db.groupby import GroupKeyColumn

        if dense_limit is not None:
            monkeypatch.setattr(streaming_module, "_DENSE_GROUP_LIMIT", dense_limit)
        keys, inputs = self._inputs(chunk_rows)
        aggregator = StreamingGroupAggregator([func for func, _ in inputs])
        for start in range(0, self.N, chunk_rows):
            rows = slice(start, start + chunk_rows)
            chunk_keys = []
            for kc in keys:
                codes, categories = kc.codes[rows], kc.categories
                if per_chunk_categories:
                    categories, codes = np.unique(categories[codes], return_inverse=True)
                chunk_keys.append(GroupKeyColumn(kc.name, codes.astype(np.int32), categories))
            aggregator.update(
                chunk_keys, [(func, None if v is None else v[rows]) for func, v in inputs]
            )
        result = aggregator.finalize()

        want = _row_order_reference(keys, inputs)
        assert result.n_groups == len(want)
        got_keys = list(zip(*(result.key_values[kc.name].tolist() for kc in keys)))
        assert got_keys == [key for key, _, _ in want]
        assert result.group_counts.tolist() == [n for _, n, _ in want]
        for j in range(len(inputs)):
            expected = np.array([aggregates[j] for _, _, aggregates in want])
            assert result.aggregate_values[j].tobytes() == expected.tobytes(), inputs[j][0]
        assert np.isinf(result.aggregate_values[3]).any()
        assert np.isinf(result.aggregate_values[4]).any()
