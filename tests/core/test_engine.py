"""Tests for the execution engine: strategies, phases, routing, reference modes."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import SeeDB
from repro.config import EngineConfig
from repro.core import cache as cache_module
from repro.core import engine as engine_module
from repro.core import sharing as sharing_module
from repro.core.cache import delta_state_key, execution_fingerprint, query_fingerprint
from repro.core.engine import ExecutionEngine
from repro.core.parallel import ParallelDispatcher
from repro.core.phases import phase_ranges
from repro.core.recommender import serving_config, tuned_config
from repro.core.view import AggregateView, ViewSpace
from repro.data import build_info
from repro.db.catalog import TableMeta
from repro.db.cost import CostModel
from repro.db.expressions import eq, true
from repro.db.query import AggregateFunction
from repro.db.storage import make_store
from repro.exceptions import QueryError, RecommendationError
from repro.metrics import DistanceFunction, get_metric

TARGET = eq("marital", "Unmarried")


@pytest.fixture()
def engine(census_like):
    store = make_store("col", census_like)
    return ExecutionEngine(
        store, EngineConfig(store="col"), CostModel.for_store("col")
    )


@pytest.fixture()
def views(census_like):
    meta = TableMeta.of(census_like)
    return list(ViewSpace.enumerate(meta))


class TestPhaseRanges:
    def test_exact_partition(self):
        ranges = phase_ranges(100, 10)
        assert ranges[0] == (0, 10)
        assert ranges[-1] == (90, 100)
        assert sum(hi - lo for lo, hi in ranges) == 100

    def test_remainder_spread(self):
        ranges = phase_ranges(103, 10)
        sizes = [hi - lo for lo, hi in ranges]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_rows_than_phases(self):
        ranges = phase_ranges(3, 10)
        assert len(ranges) == 3

    def test_zero_rows(self):
        assert phase_ranges(0, 10) == [(0, 0)]

    def test_invalid(self):
        with pytest.raises(QueryError):
            phase_ranges(10, 0)
        with pytest.raises(QueryError):
            phase_ranges(-1, 2)


class TestStrategyEquivalence:
    def test_no_opt_and_sharing_agree_exactly(self, engine, views):
        base = engine.run(views, TARGET, k=4, strategy="no_opt", pruner="none")
        shared = engine.run(views, TARGET, k=4, strategy="sharing", pruner="none")
        assert base.selected == shared.selected
        for key in base.utilities:
            assert base.utilities[key] == pytest.approx(shared.utilities[key])

    def test_comb_without_pruning_matches_sharing(self, engine, views):
        shared = engine.run(views, TARGET, k=4, strategy="sharing", pruner="none")
        phased = engine.run(views, TARGET, k=4, strategy="comb", pruner="none")
        assert phased.selected == shared.selected
        for key in shared.utilities:
            assert phased.utilities[key] == pytest.approx(
                shared.utilities[key], rel=1e-9
            )

    def test_planted_view_wins(self, engine, views):
        run = engine.run(views, TARGET, k=1, strategy="sharing", pruner="none")
        assert run.selected[0] == ("sex", "capital", "AVG")

    def test_row_and_col_engines_agree(self, census_like, views):
        results = []
        for store_kind in ("row", "col"):
            store = make_store(store_kind, census_like)
            engine = ExecutionEngine(
                store,
                EngineConfig(store=store_kind),
                CostModel.for_store(store_kind),
            )
            results.append(
                engine.run(views, TARGET, k=4, strategy="sharing", pruner="none")
            )
        assert results[0].selected == results[1].selected


class TestReferenceModes:
    def test_complement_differs_from_all(self, engine, views):
        run_all = engine.run(views, TARGET, k=2, strategy="sharing", pruner="none")
        run_complement = engine.run(
            views, TARGET, k=2, strategy="sharing", pruner="none",
            reference_mode="complement",
        )
        key = ("sex", "capital", "AVG")
        # Complement reference removes the target rows from the reference,
        # so the deviation grows.
        assert run_complement.utilities[key] > run_all.utilities[key]

    def test_query_reference_equals_complement_when_predicates_mirror(
        self, engine, views
    ):
        run_complement = engine.run(
            views, TARGET, k=3, strategy="sharing", pruner="none",
            reference_mode="complement",
        )
        run_query = engine.run(
            views, TARGET, k=3, strategy="sharing", pruner="none",
            reference_mode="query", reference_predicate=eq("marital", "Married"),
        )
        for key in run_complement.utilities:
            assert run_query.utilities[key] == pytest.approx(
                run_complement.utilities[key], rel=1e-9
            )

    def test_query_reference_requires_predicate(self, engine, views):
        with pytest.raises(RecommendationError):
            engine.run(
                views, TARGET, k=2, strategy="sharing", pruner="none",
                reference_mode="query",
            )

    def test_uncombined_engine_matches_combined(self, census_like, views):
        store = make_store("col", census_like)
        config = EngineConfig(store="col", combine_target_reference=False)
        engine = ExecutionEngine(store, config, CostModel())
        split = engine.run(views, TARGET, k=3, strategy="sharing", pruner="none")
        combined_engine = ExecutionEngine(
            make_store("col", census_like),
            EngineConfig(store="col"),
            CostModel(),
        )
        combined = combined_engine.run(
            views, TARGET, k=3, strategy="sharing", pruner="none"
        )
        for key in split.utilities:
            assert split.utilities[key] == pytest.approx(
                combined.utilities[key], rel=1e-9
            )


class TestPruningIntegration:
    def test_ci_pruning_shrinks_active_set(self, engine, views):
        # k=1: the planted view's utility gap is wide enough for CI's
        # worst-case intervals to separate it from everything else.
        run = engine.run(views, TARGET, k=1, strategy="comb", pruner="ci")
        assert run.active_per_phase[0] == len(views)
        assert run.active_per_phase[-1] < len(views)
        assert len(run.selected) == 1

    def test_early_return_stops_before_all_phases(self, engine, views):
        run = engine.run(views, TARGET, k=1, strategy="comb_early", pruner="ci")
        assert run.phases_executed <= engine.config.n_phases
        assert run.selected[0] == ("sex", "capital", "AVG")

    def test_random_pruner_selects_k(self, engine, views):
        run = engine.run(views, TARGET, k=3, strategy="comb", pruner="random")
        assert len(run.selected) == 3

    def test_stats_and_sql_populated(self, engine, views):
        run = engine.run(views, TARGET, k=2, strategy="sharing", pruner="none")
        assert run.stats.queries_issued == len(run.stats.batch_costs[0]) * len(
            run.stats.batch_costs
        ) or run.stats.queries_issued > 0
        assert run.modeled_latency > 0
        assert run.sql
        assert all(sql.startswith("SELECT") for sql in run.sql)

    def test_sql_is_rendered_when_read_not_when_run(self, engine, views, monkeypatch):
        rendered: list[str] = []
        generate = engine_module.generate_sql
        monkeypatch.setattr(
            engine_module, "generate_sql", lambda query: rendered.append(query) or generate(query)
        )
        run = engine.run(views, TARGET, k=2, strategy="comb", pruner="ci")
        assert not rendered and 0 < len(run.queries) <= 64
        assert run.sql == [generate(query) for query in run.queries] and rendered == run.queries
        assert run.sql is run.sql and len(rendered) == len(run.queries)
        assert {query.row_range for query in run.queries} > {(0, engine.store.nrows // 10)}

    def test_invalid_k_rejected(self, engine, views):
        with pytest.raises(RecommendationError):
            engine.run(views, TARGET, k=0)

    def test_empty_views_rejected(self, engine):
        with pytest.raises(RecommendationError):
            engine.run([], TARGET, k=1)

    def test_unknown_strategy_rejected(self, engine, views):
        with pytest.raises(RecommendationError):
            engine.run(views, TARGET, k=1, strategy="warp")  # type: ignore[arg-type]


_ALL_TIED = """
import json
from repro import SeeDB
from repro.core.recommender import tuned_config
from repro.data import build_info
from repro.db.catalog import TableMeta
from repro.db.expressions import eq
from repro.db.query import AggregateFunction

table, _ = build_info("census", scale="smoke", seed=7)
target = eq(TableMeta.of(table).dimensions[0], "no-such-value")
out = {}
with SeeDB.over_table(table, store="col", config=tuned_config("col")) as seedb:
    for strategy, pruner in (("sharing", "none"), ("comb", "random"), ("comb", "mab")):
        run = seedb.run_engine(target, k=5, strategy=strategy, pruner=pruner)
        assert set(run.utilities.values()) == {0.0}
        out[pruner] = [run.selected, list(run.utilities), list(run.distributions)]
# The held engine's layout groups views by dimension and function.
with SeeDB.over_table(table, store="col", funcs=(AggregateFunction.AVG, AggregateFunction.SUM)) as seedb:
    run = seedb.run_engine(target, k=5, strategy="comb", pruner="ci")
    assert set(run.utilities.values()) == {0.0}
    out["held"] = [run.selected, list(run.utilities), list(run.distributions)]
    out["held_keys"] = [view.key for view in seedb.view_space()]
print(json.dumps(out))
"""


class TestTiesRankInViewOrder:
    """Exactly tied utilities resolve to the earlier view — never to the
    iteration order of a set, which changes with ``PYTHONHASHSEED``."""

    def test_all_tied_selects_the_first_k_views(self):
        table, _ = build_info("census", scale="smoke", seed=7)
        target = eq(TableMeta.of(table).dimensions[0], "no-such-value")
        # The paper's config: only with the rewrite on does COMB prune.
        with SeeDB.over_table(table, store="col", config=tuned_config("col")) as seedb:
            keys = [view.key for view in seedb.view_space()]
            run = seedb.run_engine(target, k=5, strategy="sharing", pruner="none")
            assert set(run.utilities.values()) == {0.0}
            assert run.selected == keys[:5]
            assert list(run.utilities) == list(run.distributions) == keys
            run = seedb.run_engine(target, k=5, strategy="comb", pruner="random")
            assert run.selected == [key for key in keys if key in set(run.selected)]
            assert list(run.utilities) == run.selected

    def test_a_held_engine_restores_view_order(self):
        """The held layout groups views by dimension and function; its answers
        come back in the request's view order, whatever that order."""
        table, spec = build_info("census", scale="smoke", seed=7)
        target = eq(TableMeta.of(table).dimensions[0], "no-such-value")
        funcs = (AggregateFunction.AVG, AggregateFunction.SUM)
        with SeeDB.over_table(
            table, store="col", config=serving_config("col"), funcs=funcs
        ) as seedb:
            views = list(seedb.view_space())
            # The view space's order, reversed, and every AVG view before every SUM view.
            for order in (views, views[::-1], views[::2] + views[1::2]):
                keys = [view.key for view in order]
                run = seedb.engine.run(order, target, k=5, strategy="comb", pruner="ci")
                assert set(run.utilities.values()) == {0.0}
                assert run.selected == keys[:5]
                assert list(run.utilities) == list(run.distributions) == keys
                # Each view gets its own answer: NO_OPT's, a per-view partial.
                for predicate in (target, spec.target_predicate()):
                    held = seedb.engine.run(order, predicate, k=5, strategy="sharing", pruner="none")
                    split = seedb.engine.run(order, predicate, k=5, strategy="no_opt", pruner="none")
                    assert held.selected == split.selected
                    assert held.utilities == split.utilities
                    for key, dists in split.distributions.items():
                        assert held.distributions[key].keys == dists.keys
                        assert held.distributions[key].target.tobytes() == dists.target.tobytes()
                        assert held.distributions[key].reference.tobytes() == dists.reference.tobytes()

    def test_all_tied_is_the_same_under_any_hash_seed(self):
        root = Path(__file__).resolve().parents[2]
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(root / "src")}
            done = subprocess.run(
                [sys.executable, "-c", _ALL_TIED],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(json.loads(done.stdout))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]["none"][0]) == 5
        held_keys = outputs[0]["held_keys"]
        assert outputs[0]["held"] == [held_keys[:5], held_keys, held_keys]


class TestSharedScan:
    """Every strategy hands the backend whole phases but NO_OPT, which sends
    batches of one: the no-sharing baseline."""

    def test_no_opt_sends_batches_of_one(self, engine, views):
        sizes: list[int] = []
        execute_batch = engine.backend.execute_batch

        def spy(queries, **kwargs):
            sizes.append(len(queries))
            return execute_batch(queries, **kwargs)

        engine.backend.execute_batch = spy
        run = engine.run(views, TARGET, k=2, strategy="no_opt", pruner="none")
        assert sizes == [1] * run.stats.queries_issued
        sizes.clear()
        run = engine.run(views, TARGET, k=2, strategy="sharing", pruner="none")
        assert sizes == [run.stats.queries_issued] and sizes[0] > 1


class TestAggregateFunctions:
    @pytest.mark.parametrize(
        "func",
        [
            AggregateFunction.COUNT,
            AggregateFunction.SUM,
            AggregateFunction.MIN,
            AggregateFunction.MAX,
        ],
    )
    def test_phased_equals_unphased_for_every_function(self, engine, func):
        views = [AggregateView("sex", "capital", func), AggregateView("race", "age", func)]
        shared = engine.run(views, TARGET, k=2, strategy="sharing", pruner="none")
        phased = engine.run(views, TARGET, k=2, strategy="comb", pruner="none")
        for key in shared.utilities:
            assert phased.utilities[key] == pytest.approx(
                shared.utilities[key], rel=1e-9, abs=1e-12
            )


# --------------------------------------------------------------------------- #
# what a request computes once: the kept plan skeletons, the stacked metric
# --------------------------------------------------------------------------- #


def _hex_utilities(run) -> list[tuple]:
    return [(key, float(value).hex()) for key, value in run.utilities.items()]


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"store": "row", "use_binpacking": True},
        {"combine_target_reference": False},
        {"combine_target_reference": False, "max_aggregates_per_query": 2},
    ],
    ids=["combined", "row-binpacked", "held", "held-chunked"],
)
def test_plans_from_kept_skeletons_equal_plans_from_scratch(overrides, monkeypatch):
    """Every plan a run builds — whole view sets, the shrinking active sets of
    a pruned run, each reference mode,
    repeats that hit a kept skeleton — equals ``plan_queries`` with nothing
    kept, ``==`` on the frozen dataclasses; the bound holds and evicts.  A new
    ``meta`` of the same planning catalog keeps what was planned; one where a
    dimension gained a category drops it."""
    table, spec = build_info("census", scale="smoke", seed=7)
    monkeypatch.setattr(engine_module, "_MAX_PLAN_SKELETONS", 3)
    plan, skeleton, planned, built = engine_module.plan_queries, sharing_module._skeleton, [], []

    def counted(views, *args):
        built.append(len(views))
        return skeleton(views, *args)

    def checked(*args):
        *scratch, skeletons = args
        assert isinstance(skeletons, engine_module.LruMemo)
        got = plan(*args)
        planned.append(len(scratch[0]))
        assert got == plan(*scratch) and len(skeletons) <= 3
        return got

    monkeypatch.setattr(engine_module, "plan_queries", checked)
    config = EngineConfig(**{"store": "col", **overrides})
    # A clause on no column each: a held engine plans no view for a conjunction
    # of one-category clauses (its target side is held too).
    targets = tuple(target.and_(true()) for target in (spec.target_predicate(), eq("sex", "sex_0")))
    with SeeDB.over_table(table, store=config.store, config=config) as seedb:
        n_views = len(seedb.view_space())
        monkeypatch.setattr(sharing_module, "_skeleton", counted)
        for target in targets:
            seedb.run_engine(target, k=3, strategy="sharing", pruner="none")
        # Two plans, one kept skeleton (each check builds its own from scratch).
        assert planned == [n_views] * 2 and built == [n_views] * 3
        pruned = [seedb.run_engine(target, k=3, strategy="comb", pruner="ci") for target in targets]
        phased = config.combine_target_reference
        if phased:
            assert any(len(set(run.active_per_phase)) > 2 for run in pruned)
            assert len(seedb.engine._planning[1]) == 3 < len(set(built))
        else:  # one exact pass: the whole view set's kept plan
            assert [run.active_per_phase for run in pruned] == [[n_views]] * 2
        for mode, reference in (("complement", None), ("query", targets[1])):
            seedb.run_engine(
                targets[0], k=3, strategy="sharing", pruner="none",
                reference=mode, reference_predicate=reference,
                dimensions=seedb.meta.dimensions[:3],
            )
        kept = seedb.engine._planning[1]
        # Held: two skeletons and the state layout of the split reference modes.
        assert len(kept) == 3
        seedb.engine.meta = TableMeta.of(table)
        assert seedb.engine._planning[1] is kept and len(kept) == 3
        grown = dict(seedb.meta.distinct_counts)
        grown[seedb.meta.dimensions[0]] += 1
        seedb.engine.meta = dataclasses.replace(seedb.meta, distinct_counts=grown)
        assert seedb.engine._planning[1] is not kept and len(seedb.engine._planning[1]) == 0


@pytest.mark.parametrize("delta_cache", [True, False], ids=["rewrite", "held"])
def test_keys_joined_from_skeleton_parts_equal_keys_from_scratch(delta_cache, monkeypatch):
    """A warm request of the service's default config (the §4.1 rewrite under a
    delta cache; held cells without one) keys each query from its skeleton's
    ``head`` and the request's rendered predicate: byte for byte the result-cache
    key and the delta-state key rendered from scratch (file-backed cache tiers
    outlive the process).  The repeat renders no aggregate spec of the skeleton."""
    table, spec = build_info("census", scale="smoke", seed=7)
    config = serving_config("col", result_cache=True, delta_cache=delta_cache)
    # A clause on no column: a held engine queries the target side of every view.
    target = spec.target_predicate().and_(true())
    batches: list[tuple] = []
    run_batch = ParallelDispatcher.run_batch

    def spy(self, queries, cache=None, cache_keys=None, delta_keys=None):
        batches.append((list(queries), cache_keys, delta_keys))
        return run_batch(self, queries, cache, cache_keys, delta_keys)

    monkeypatch.setattr(ParallelDispatcher, "run_batch", spy)
    rendered: list[object] = []
    value_key = cache_module._value_key

    def counted(value, memo=None):
        rendered.append(value)
        return value_key(value, memo)

    monkeypatch.setattr(cache_module, "_value_key", counted)
    with SeeDB.over_table(table, store="col", config=config) as seedb:
        seedb.run_engine(target, k=3, strategy="sharing", pruner="none")
        cold, rendered[:], batches[:] = list(rendered), [], []
        seedb.run_engine(target, k=3, strategy="sharing", pruner="none")
        warm = list(rendered)
        monkeypatch.setattr(cache_module, "_value_key", value_key)

        ((queries, cache_keys, delta_keys),) = batches
        arguments = {id(spec.argument) for query in queries for spec in query.aggregates}
        assert any(id(value) in arguments for value in cold)
        assert not any(id(value) in arguments for value in warm)
        engine = seedb.engine
        prefix = execution_fingerprint(engine.store, engine.backend)
        assert queries and cache_keys == [f"{prefix}|{query_fingerprint(q)}" for q in queries]
        if delta_cache:
            assert delta_keys == [delta_state_key(engine.store, q) for q in queries]
        else:
            assert delta_keys is None


def test_a_warm_repeat_renders_no_delta_key(monkeypatch):
    """Under the service default a query's delta-state key is rendered only
    when the dispatcher reads it, for a result-cache miss: the cold request
    renders one per query, its warm repeat (every query a hit) none."""
    table, spec = build_info("census", scale="smoke", seed=7)
    config = serving_config("col", result_cache=True, delta_cache=True)
    rendered: list[object] = []
    key = engine_module.delta_state_key

    def counted(store, query, *args, **kwargs):
        rendered.append(query)
        return key(store, query, *args, **kwargs)

    monkeypatch.setattr(engine_module, "delta_state_key", counted)
    target = spec.target_predicate()
    with SeeDB.over_table(table, store="col", config=config) as seedb:
        cold = seedb.run_engine(target, k=3, strategy="sharing", pruner="none")
        assert len(rendered) == cold.stats.queries_issued > 0
        rendered.clear()
        warm = seedb.run_engine(target, k=3, strategy="sharing", pruner="none")
        assert warm.stats.cache_hits == cold.stats.queries_issued
        assert warm.stats.queries_issued == 0 and rendered == []


def _example_metric():
    """``examples/custom_metric.py``'s metric: 1-D ``compute``, nothing declared."""
    path = Path(__file__).resolve().parents[2] / "examples" / "custom_metric.py"
    spec = importlib.util.spec_from_file_location("_example_custom_metric", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SurpriseDistance()


class _OneCallPerView(DistanceFunction):
    """How the engine called a metric before it took stacks: row by row,
    each row validated on its own.  The oracle for the stacked entry point."""

    def __init__(self, inner):
        self.inner, self.name, self.bounded = inner, inner.name, inner.bounded

    def __call__(self, p, q):
        if np.ndim(p) == 1:
            return self.inner(p, q)
        return np.array([self.inner(p[r], q[r]) for r in range(len(p))])

    def compute(self, p, q):
        return self.inner.compute(p, q)


@pytest.mark.parametrize("name", ["surprise", "emd", "euclidean", "js", "kl", "maxdiff"])
def test_the_stacked_entry_point_answers_as_one_call_per_view(name):
    """A user metric that declares nothing — and every registered one — ranks
    the same views with the same utility bits whether the engine hands it a
    state table at a time or one view at a time; and a table at a time is
    what the engine does (one ``__call__`` per table, ``compute`` per view
    only for a metric that did not declare the stacked form)."""
    metric = _example_metric() if name == "surprise" else get_metric(name)
    calls = {"stacks": 0, "rows": 0, "computes": 0}

    class Counted(type(metric)):
        def __call__(self, p, q):
            calls["stacks"] += 1
            calls["rows"] += len(p)
            return super().__call__(p, q)

        def compute(self, p, q):
            calls["computes"] += 1
            return super().compute(p, q)

    table, spec = build_info("census", scale="smoke", seed=7)
    for strategy, pruner in (("sharing", "none"), ("comb", "ci")):
        runs = []
        for candidate in (Counted(), _OneCallPerView(metric)):
            with SeeDB.over_table(
                table, store="col", metric=candidate, config=tuned_config("col")
            ) as seedb:
                runs.append(
                    seedb.run_engine(spec.target_predicate(), k=5, strategy=strategy, pruner=pruner)
                )
        stacked, per_view = runs
        assert stacked.selected == per_view.selected
        assert _hex_utilities(stacked) == _hex_utilities(per_view)
        assert stacked.active_per_phase == per_view.active_per_phase
    n_dimensions = len(TableMeta.of(table).dimensions)
    assert calls["stacks"] <= 2 * n_dimensions * 11 < calls["rows"]
    assert calls["computes"] == (calls["stacks"] if metric.stacked else calls["rows"])
