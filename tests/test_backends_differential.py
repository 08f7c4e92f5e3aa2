"""Differential testing: the whole planning and execution stack vs an independent engine.

Every case builds a seeded random table, runs the full SeeDB engine twice —
once on the native numpy backend, once on the SQLite backend executing the
generated SQL text — and requires identical ``selected`` top-k and
utilities within 1e-9.  A disagreement localizes a bug in the planner, the
SQL generator, or one of the executors.

Coverage math (the acceptance bar is >= 200 randomized engine runs):

* ``test_differential_engine_run``: |SEEDS| x |STRATEGIES| x |REF_MODES|
  cases, two engine runs each — 12 x 3 x 3 x 2 = 216 runs (the native
  side runs the shared-scan batch path, its default) — and, for SHARING and
  COMB, two more with the target/reference rewrite off (12 x 2 x 3 x 2 =
  144): split native vs split SQLite, and split native vs *combined* SQLite
  (SHARING: without the rewrite COMB is one exact pass), so the engine-held
  reference side (reference "all") meets an oracle that shares neither its
  plan nor its fold.
* ``test_differential_real_parallelism`` adds 8 x 2 = 16 runs through the
  thread-pool dispatcher (per-thread sqlite connections).
* ``test_differential_comb_early`` adds 6 x 2 = 12 early-return runs.
* ``test_differential_shared_scan_sweep`` adds 5 x 2 x 2 x 2 = 40 runs
  over modeled/real dispatch: the native run and the sqlite oracle agree
  on top-k and utilities within 1e-9, and the queries the native run
  planned, run once as one batch and once a query at a time through the
  native pipeline, give bit-equal results while the batch reads no more
  bytes.
* ``test_differential_result_cache_sweep`` adds 4 x 2 x 4 = 32 runs
  growing the oracle a result-cache leg: a cold cache-on native run, a
  fully-warm rerun (zero queries executed), and a cache-on sqlite run must
  all match the cache-off sqlite oracle — on both backends the cache may
  change accounting, never results.
* ``test_differential_out_of_core`` adds 4 x 2 x 2 x 3 = 48 runs growing
  the oracle an out-of-core leg: a memmap-backed chunked run under a
  memory budget smaller than the dataset must produce **bitwise**-identical
  top-k, utilities, and distributions to the resident native path (and
  match the SQLite oracle), for SHARING and COMB, serial and
  ``parallelism="real"`` — streaming may change peak memory and
  accounting, never results.
* ``test_differential_memmap_threads`` adds 4 x 2 x 3 = 24 runs growing
  the oracle a thread leg: ``parallelism="real"`` batches fanned out over
  one memmapped chunk store opened without a memory budget, so worker
  threads fold and finalize the queries' aggregations over the same
  ``np.memmap`` columns.  It must produce **bitwise**-identical top-k,
  utilities, and distributions to the resident serial path (and match the
  SQLite oracle) — thread fan-out may change I/O accounting, never results
  or the number of queries issued.
* ``test_differential_append_refresh`` adds 5 x 2 x 4 = 40 runs growing
  the oracle an append leg: an engine with the delta-state cache runs
  cold over ~90% of the rows, the remaining ~10% are appended to the
  chunk store on disk, and the refreshed run — which must carry-merge
  every query's cached partial state and scan **only** the appended rows
  — has to produce **bitwise**-identical top-k, utilities, and
  distributions to a resident native run over the full table, and agree
  with the SQLite oracle.  Delta maintenance changes I/O accounting,
  never results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.cache import ViewResultCache
from repro.core.engine import ExecutionEngine
from repro.core.view import ViewSpace
from repro.db import expressions as E
from repro.db.catalog import TableMeta
from repro.db.cost import CostModel
from repro.db.storage import make_store
from repro.db.table import Table
from repro.db.types import ColumnRole

SEEDS = range(12)
STRATEGIES = ("no_opt", "sharing", "comb")
REF_MODES = ("all", "complement", "query")

CASES = [
    (seed, strategy, ref_mode)
    for seed in SEEDS
    for strategy in STRATEGIES
    for ref_mode in REF_MODES
]


def test_coverage_floor():
    """The parametrization below performs >= 200 randomized engine runs."""
    assert len(CASES) * 2 + 8 * 2 + 6 * 2 >= 200
    assert len(SHARED_SCAN_CASES) * 2 >= 40
    assert len(RESULT_CACHE_CASES) * 4 >= 32
    assert len(OUT_OF_CORE_CASES) * 3 >= 48
    assert len(MEMMAP_THREAD_CASES) * 3 >= 24
    assert len(APPEND_CASES) * 4 >= 40


def _random_table(seed: int) -> Table:
    """A seeded random table with string/quote-y dims and planted skew."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(80, 200))
    dim_pool = ["a", "b'c", "O'Brien", "d", "e"]
    n_dims = int(rng.integers(1, 4))
    n_measures = int(rng.integers(1, 3))
    data: dict[str, object] = {"part": rng.choice(["t", "r"], n)}
    roles = {"part": ColumnRole.OTHER}
    for i in range(n_dims):
        cardinality = int(rng.integers(2, len(dim_pool) + 1))
        data[f"d{i}"] = rng.choice(dim_pool[:cardinality], n)
        roles[f"d{i}"] = ColumnRole.DIMENSION
    for j in range(n_measures):
        values = rng.gamma(2.0, 10.0, n)
        # Plant a deviation so utilities are informative, not uniform noise.
        values[np.asarray(data["part"]) == "t"] *= 1.0 + 0.5 * j + 0.1 * seed
        data[f"m{j}"] = values
        roles[f"m{j}"] = ColumnRole.MEASURE
    return Table("rand", data, roles=roles)


def _run(table: Table, backend: str, strategy: str, ref_mode: str, **overrides):
    parallelism = overrides.pop("parallelism", "modeled")
    result_cache = overrides.pop("result_cache_obj", None)
    config = EngineConfig(
        store="col", n_phases=4, backend=backend, n_parallel_queries=4
    ).with_(result_cache=result_cache is not None, **overrides)
    views = list(ViewSpace.enumerate(TableMeta.of(table)))
    pruner = "ci" if strategy.startswith("comb") else "none"
    with ExecutionEngine(
        make_store("col", table),
        config,
        CostModel(),
        result_cache=result_cache,
    ) as engine:
        return engine.run(
            views,
            E.eq("part", "t"),
            k=3,
            strategy=strategy,  # type: ignore[arg-type]
            pruner=pruner,
            reference_mode=ref_mode,  # type: ignore[arg-type]
            reference_predicate=E.eq("part", "r") if ref_mode == "query" else None,
            parallelism=parallelism,  # type: ignore[arg-type]
        )


def _assert_equivalent(native_run, sqlite_run):
    assert sqlite_run.selected == native_run.selected
    assert set(sqlite_run.utilities) == set(native_run.utilities)
    for key, value in native_run.utilities.items():
        assert sqlite_run.utilities[key] == pytest.approx(value, rel=1e-9, abs=1e-9)
    assert sqlite_run.phases_executed == native_run.phases_executed
    assert sqlite_run.stats.queries_issued == native_run.stats.queries_issued


@pytest.mark.parametrize("seed,strategy,ref_mode", CASES)
def test_differential_engine_run(seed, strategy, ref_mode):
    table = _random_table(seed)
    native = _run(table, "native", strategy, ref_mode)
    sqlite = _run(table, "sqlite", strategy, ref_mode)
    assert native.backend == "native" and sqlite.backend == "sqlite"
    _assert_equivalent(native, sqlite)
    if strategy == "no_opt":
        return  # NO_OPT plans one way whatever the rewrite says
    # The rewrite off, as extra legs on the same table: filter-first target
    # queries, and for reference "all" the engine-held reference side.  SQLite
    # running the same split plan is one oracle; SQLite running the *combined*
    # plan is the other — a planning or fold bug is engine-side, identical on
    # both backends, and only the second sees it.  Without the rewrite COMB is
    # one exact pass, so the combined oracle is SHARING.
    split = _run(table, "native", strategy, ref_mode, combine_target_reference=False)
    _assert_equivalent(
        split, _run(table, "sqlite", strategy, ref_mode, combine_target_reference=False)
    )
    combined = sqlite if strategy == "sharing" else _run(table, "sqlite", "sharing", ref_mode)
    assert split.selected == combined.selected
    assert split.phases_executed == combined.phases_executed == 1
    for key, value in combined.utilities.items():
        assert split.utilities[key] == pytest.approx(value, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_differential_real_parallelism(seed):
    """Thread-pool execution on per-thread sqlite connections stays exact."""
    table = _random_table(100 + seed)
    native = _run(table, "native", "sharing", "all", parallelism="modeled")
    sqlite = _run(table, "sqlite", "sharing", "all", parallelism="real")
    _assert_equivalent(native, sqlite)


@pytest.mark.parametrize("seed", range(6))
def test_differential_comb_early(seed):
    """COMB_EARLY's stop decision depends only on results, so it agrees too."""
    table = _random_table(200 + seed)
    native = _run(table, "native", "comb_early", "all")
    sqlite = _run(table, "sqlite", "comb_early", "all")
    _assert_equivalent(native, sqlite)


SHARED_SCAN_CASES = [
    (seed, strategy, parallelism)
    for seed in range(5)
    for strategy in ("sharing", "comb")
    for parallelism in ("modeled", "real")
]


def _thread_fanout(fn, items):
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(fn, items, timeout=60))


@pytest.mark.parametrize("seed,strategy,parallelism", SHARED_SCAN_CASES)
def test_differential_shared_scan_sweep(seed, strategy, parallelism):
    """One batch vs a query at a time through the native pipeline, and the
    SQLite oracle.

    The queries a native run planned, run as one batch (fanned out onto
    threads under ``"real"``) and as batches of one, must give bit-equal
    results and issue as many queries: the shared scan changes accounting
    only, and never reads a byte the loop does not.
    """
    from repro.db.shared_scan import SharedScanExecutor

    table = _random_table(300 + seed)
    native = _run(table, "native", strategy, "all", parallelism=parallelism)
    _assert_equivalent(native, _run(table, "sqlite", strategy, "all", parallelism=parallelism))

    queries = native.queries
    assert queries
    fanout = _thread_fanout if parallelism == "real" else None
    batch = SharedScanExecutor(make_store("col", table)).execute_batch(queries, fanout=fanout)
    one_by_one = SharedScanExecutor(make_store("col", table))
    loop = [one_by_one.execute_batch([query])[0] for query in queries]
    for (want, _), (got, _) in zip(loop, batch):
        assert got.n_groups == want.n_groups and got.input_rows == want.input_rows
        for name, keys in want.groups.items():
            assert np.array_equal(got.groups[name], keys)
        for name, values in want.values.items():
            assert np.asarray(got.values[name]).tobytes() == np.asarray(values).tobytes()

    def total(outcomes, field):
        return sum(getattr(stats, field) for _, stats in outcomes)

    assert total(batch, "queries_issued") == total(loop, "queries_issued") == len(queries)
    batch_bytes = total(batch, "bytes_scanned_miss") + total(batch, "bytes_scanned_hit")
    loop_bytes = total(loop, "bytes_scanned_miss") + total(loop, "bytes_scanned_hit")
    assert batch_bytes <= loop_bytes


RESULT_CACHE_CASES = [
    (seed, strategy) for seed in range(4) for strategy in ("sharing", "comb")
]


@pytest.mark.parametrize("seed,strategy", RESULT_CACHE_CASES)
def test_differential_result_cache_sweep(seed, strategy):
    """The cache-on leg of the oracle: memoization changes accounting only.

    Four runs per table: cache-on native (cold), cache-on native (fully
    warm — zero queries executed, everything served from the cache),
    cache-on sqlite (cold, its own cache: backend semantics are part of
    the key, so native entries must never leak into it), and the cache-off
    sqlite oracle as ground truth.
    """
    table = _random_table(400 + seed)
    native_cache = ViewResultCache()
    cold = _run(
        table, "native", strategy, "all", result_cache_obj=native_cache
    )
    warm = _run(
        table, "native", strategy, "all", result_cache_obj=native_cache
    )
    sqlite_cached = _run(
        table, "sqlite", strategy, "all", result_cache_obj=ViewResultCache()
    )
    oracle = _run(table, "sqlite", strategy, "all")
    assert cold.result_cache and warm.result_cache and sqlite_cached.result_cache
    assert not oracle.result_cache

    # Cold legs do full work and agree with the oracle exactly as before.
    assert cold.cache_hits == 0 and cold.cache_misses > 0
    _assert_equivalent(cold, oracle)
    assert sqlite_cached.cache_hits == 0
    _assert_equivalent(sqlite_cached, oracle)

    # The warm leg executes nothing yet reproduces the oracle's results
    # (queries_issued is the one accounting field memoization changes, so
    # the standard equivalence assertion is inlined minus that check).
    assert warm.stats.queries_issued == 0
    assert warm.cache_hits == cold.cache_misses and warm.cache_misses == 0
    assert warm.selected == oracle.selected
    assert set(warm.utilities) == set(oracle.utilities)
    for key, value in oracle.utilities.items():
        assert warm.utilities[key] == pytest.approx(value, rel=1e-9, abs=1e-9)
    assert warm.phases_executed == oracle.phases_executed
    # And bitwise-identically matches its own cold run.
    assert warm.selected == cold.selected
    for key, value in cold.utilities.items():
        assert warm.utilities[key] == value


OUT_OF_CORE_CASES = [
    (seed, strategy, parallelism)
    for seed in range(4)
    for strategy in ("sharing", "comb")
    for parallelism in ("modeled", "real")
]


@pytest.mark.parametrize("seed,strategy,parallelism", OUT_OF_CORE_CASES)
def test_differential_out_of_core(tmp_path, seed, strategy, parallelism):
    """The out-of-core leg: memmap-chunked streaming is bitwise-exact.

    Three runs per table: the resident native path, a memmap-backed
    chunked run whose memory budget is *half* the dataset's physical bytes
    (so streaming genuinely engages, with several chunks per phase), and
    the SQLite oracle.  The chunked run must match the resident run
    bitwise — selected order, every utility, every distribution array —
    and both must agree with the oracle.  Peak tracked residency must stay
    under the budget.
    """
    from repro.db.chunks import open_table, write_table

    table = _random_table(500 + seed)
    write_table(table, tmp_path / "ds", chunk_rows=16)
    budget = max(table.physical_row_bytes() * table.nrows // 2, 1)
    chunked = open_table(tmp_path / "ds", memory_budget_bytes=budget)
    assert budget < table.physical_row_bytes() * table.nrows

    resident = _run(table, "native", strategy, "all", parallelism=parallelism)
    out_of_core = _run(
        chunked,
        "native",
        strategy,
        "all",
        parallelism=parallelism,
        memory_budget_bytes=budget,
    )
    sqlite = _run(table, "sqlite", strategy, "all", parallelism=parallelism)

    # Bitwise agreement with the resident native path.
    assert out_of_core.selected == resident.selected
    assert set(out_of_core.utilities) == set(resident.utilities)
    for key, value in resident.utilities.items():
        assert out_of_core.utilities[key] == value  # exact, not approx
    for key, dists in resident.distributions.items():
        other = out_of_core.distributions[key]
        assert np.array_equal(dists.keys, other.keys)
        assert np.array_equal(dists.target, other.target, equal_nan=True)
        assert np.array_equal(dists.reference, other.reference, equal_nan=True)
    assert out_of_core.stats.queries_issued == resident.stats.queries_issued
    assert out_of_core.phases_executed == resident.phases_executed

    # And with the independent SQL engine.
    _assert_equivalent(out_of_core, sqlite)

    # The streaming executors honoured the residency budget.
    assert chunked.residency is not None
    assert chunked.residency.peak_bytes <= budget
    assert chunked.residency.over_budget_events == 0


def test_differential_out_of_core_with_spill(tmp_path):
    """Streaming + budget-forced spill accounting still matches exactly."""
    from repro.db.chunks import open_table, write_table

    table = _random_table(7)
    write_table(table, tmp_path / "ds", chunk_rows=16)
    chunked = open_table(tmp_path / "ds")
    kwargs = dict(col_group_budget=2, use_binpacking=False, max_group_bys_per_query=2)
    resident = _run(table, "native", "sharing", "all", **kwargs)
    out_of_core = _run(chunked, "native", "sharing", "all", **kwargs)
    assert resident.stats.spill_passes > 0
    assert out_of_core.stats.spill_passes == resident.stats.spill_passes
    assert out_of_core.selected == resident.selected
    for key, value in resident.utilities.items():
        assert out_of_core.utilities[key] == value


MEMMAP_THREAD_CASES = [
    (seed, strategy)
    for seed in range(4)
    for strategy in ("sharing", "comb")
]


@pytest.mark.parametrize("seed,strategy", MEMMAP_THREAD_CASES)
def test_differential_memmap_threads(tmp_path, seed, strategy):
    """The thread leg over a memmapped store is bitwise-exact.

    Three runs per table: the resident serial native path, a
    ``parallelism="real"`` run over the on-disk chunk store (each phase is
    one batch whose queries' aggregations fan out onto worker threads,
    reading the same ``np.memmap`` columns; the dispatcher gathers in
    submission order), and the SQLite oracle.  The threaded run must match the
    resident run bitwise — selected order, every utility, every
    distribution array, and the query count — and agree with the oracle.
    I/O accounting is deliberately NOT compared.
    """
    from repro.db.chunks import open_table, write_table

    table = _random_table(900 + seed)
    write_table(table, tmp_path / "ds", chunk_rows=16)
    chunked = open_table(tmp_path / "ds")

    resident = _run(table, "native", strategy, "all")
    threaded = _run(chunked, "native", strategy, "all", parallelism="real")
    sqlite = _run(table, "sqlite", strategy, "all")

    # Bitwise agreement with the resident serial path.
    assert threaded.selected == resident.selected
    assert set(threaded.utilities) == set(resident.utilities)
    for key, value in resident.utilities.items():
        assert threaded.utilities[key] == value  # exact, not approx
    for key, dists in resident.distributions.items():
        other = threaded.distributions[key]
        assert np.array_equal(dists.keys, other.keys)
        assert np.array_equal(dists.target, other.target, equal_nan=True)
        assert np.array_equal(dists.reference, other.reference, equal_nan=True)
    assert threaded.stats.queries_issued == resident.stats.queries_issued
    assert threaded.phases_executed == resident.phases_executed

    # And with the independent SQL engine.
    _assert_equivalent(threaded, sqlite)


APPEND_CASES = [
    (seed, strategy)
    for seed in range(5)
    for strategy in ("no_opt", "sharing")
]


@pytest.mark.parametrize("seed,strategy", APPEND_CASES)
def test_differential_append_refresh(tmp_path, seed, strategy):
    """The append leg: delta-maintained refresh is bitwise-exact.

    Four runs per table: a cold delta-cache-enabled run over a chunk
    store holding ~90% of the rows (captures every query's partial
    aggregation state), the refreshed run on the *same* engine after the
    remaining ~10% were appended on disk (must restore each snapshot and
    scan only the new rows), a resident native run over the full table,
    and the SQLite oracle.  The refreshed run must match the resident
    run bitwise — selected order, every utility, every distribution
    array — and agree with the oracle; its scan accounting must prove
    the base rows were never re-read.
    """
    from repro.db.chunks import append_rows, open_table, write_table

    full = _random_table(600 + seed)
    n_delta = max(full.nrows // 10, 2)
    base_rows = full.nrows - n_delta
    write_table(full.slice_rows(0, base_rows), tmp_path / "ds", chunk_rows=16)
    chunked = open_table(tmp_path / "ds")

    config = EngineConfig(
        store="col", n_phases=4, backend="native", n_parallel_queries=4
    ).with_(result_cache=True, delta_cache=True)
    views = list(ViewSpace.enumerate(TableMeta.of(chunked)))
    with ExecutionEngine(
        make_store("col", chunked), config, CostModel()
    ) as engine:

        def run_once():
            return engine.run(
                views,
                E.eq("part", "t"),
                k=3,
                strategy=strategy,  # type: ignore[arg-type]
                pruner="none",
                reference_mode="all",
            )

        cold = run_once()
        assert engine.delta_cache is not None and len(engine.delta_cache) > 0
        assert cold.stats.delta_hits == 0

        append_rows(
            tmp_path / "ds",
            {
                col.name: np.asarray(full.column(col.name))[base_rows:]
                for col in full.schema
            },
        )
        chunked.refresh_from_disk()
        engine.store.sync_layout()
        engine.meta = TableMeta.of(chunked)
        refreshed = run_once()

    # Every query carry-merged its snapshot and scanned only the delta.
    assert refreshed.stats.delta_hits == refreshed.stats.queries_issued > 0
    assert refreshed.stats.rows_scanned == (
        refreshed.stats.queries_issued * n_delta
    )

    resident = _run(full, "native", strategy, "all")
    sqlite = _run(full, "sqlite", strategy, "all")

    # Bitwise agreement with the resident full-table path.
    assert refreshed.selected == resident.selected
    assert set(refreshed.utilities) == set(resident.utilities)
    for key, value in resident.utilities.items():
        assert refreshed.utilities[key] == value  # exact, not approx
    for key, dists in resident.distributions.items():
        other = refreshed.distributions[key]
        assert np.array_equal(dists.keys, other.keys)
        assert np.array_equal(dists.target, other.target, equal_nan=True)
        assert np.array_equal(dists.reference, other.reference, equal_nan=True)
    assert refreshed.stats.queries_issued == resident.stats.queries_issued
    assert refreshed.phases_executed == resident.phases_executed

    # And with the independent SQL engine.
    _assert_equivalent(refreshed, sqlite)


def test_differential_with_spilling_group_budget():
    """Budget-forced multi-pass aggregation (native) changes accounting only."""
    table = _random_table(7)
    kwargs = dict(
        col_group_budget=2, use_binpacking=False, max_group_bys_per_query=2
    )
    native = _run(table, "native", "sharing", "all", **kwargs)
    sqlite = _run(table, "sqlite", "sharing", "all", **kwargs)
    assert native.stats.spill_passes > 0
    _assert_equivalent(native, sqlite)
