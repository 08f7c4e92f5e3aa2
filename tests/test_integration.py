"""End-to-end integration tests across the whole stack."""

import pytest

from repro.core.recommender import SeeDB
from repro.core.result import accuracy
from repro.data import build_info
from repro.db.backends import SQLiteBackend
from repro.db.storage import make_store
from repro.metrics import get_metric


@pytest.fixture(scope="module")
def census():
    return build_info("census", scale="smoke")


class TestEndToEnd:
    def test_recommendations_find_planted_views(self, census):
        table, spec = census
        seedb = SeeDB.over_table(table)
        result = seedb.recommend(spec.target_predicate(), k=3)
        # The strongest planting (sex, capital_gain) must be #1.
        assert result[0].view.key == ("sex", "capital_gain", "AVG")

    def test_all_strategies_agree_on_top1(self, census):
        table, spec = census
        seedb = SeeDB.over_table(table)
        top1 = set()
        for strategy, pruner in (
            ("no_opt", "none"),
            ("sharing", "none"),
            ("comb", "ci"),
            ("comb", "mab"),
            ("comb_early", "ci"),
        ):
            run = seedb.run_engine(
                spec.target_predicate(), k=3, strategy=strategy, pruner=pruner
            )
            top1.add(run.selected[0])
        assert len(top1) == 1

    def test_emitted_sql_runs_on_sqlite(self, census):
        """Every SQL string the middleware records runs verbatim on a real
        SQL engine holding the table — the SQLite backend's own
        materialization of it — and returns rows."""
        table, spec = census
        seedb = SeeDB.over_table(table)
        run = seedb.run_engine(spec.target_predicate(), k=3, strategy="sharing")
        assert run.sql
        backend = SQLiteBackend(make_store("col", table))
        try:
            connection = backend._connection()
            for sql in run.sql:
                assert connection.execute(sql).fetchall(), sql
        finally:
            backend.close()

    def test_row_col_same_recommendations(self, census):
        table, spec = census
        keys = []
        for store in ("row", "col"):
            seedb = SeeDB.over_table(table, store=store)
            keys.append(seedb.true_top_k(spec.target_predicate(), k=5).selected)
        assert keys[0] == keys[1]

    def test_metrics_agree_on_strong_signal(self, census):
        table, spec = census
        for metric in ("emd", "euclidean", "js", "maxdiff"):
            seedb = SeeDB.over_table(table, metric=metric)
            run = seedb.true_top_k(spec.target_predicate(), k=1)
            assert run.selected[0] == ("sex", "capital_gain", "AVG"), metric

    def test_pruned_run_accuracy_on_bank(self):
        table, spec = build_info("bank", scale="smoke")
        seedb = SeeDB.over_table(table, store="col")
        truth = seedb.true_top_k(spec.target_predicate(), k=10)
        run = seedb.run_engine(
            spec.target_predicate(), k=10, strategy="comb", pruner="ci"
        )
        assert accuracy(run.selected, truth.selected) >= 0.7

    def test_latency_ordering_no_opt_worst(self, census):
        table, spec = census
        seedb = SeeDB.over_table(table, store="row")
        latencies = {}
        for strategy in ("no_opt", "sharing"):
            seedb.store.buffer_pool.clear()
            run = seedb.run_engine(
                spec.target_predicate(), k=5, strategy=strategy, pruner="none"
            )
            latencies[strategy] = run.modeled_latency
        assert latencies["no_opt"] > 5 * latencies["sharing"]

    def test_utilities_bounded_for_bounded_metric(self, census):
        table, spec = census
        seedb = SeeDB.over_table(table)
        run = seedb.true_top_k(spec.target_predicate(), k=5)
        assert all(0.0 <= u <= 1.0 for u in run.utilities.values())
        metric = get_metric("emd")
        assert metric.bounded
