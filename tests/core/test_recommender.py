"""Tests for the SeeDB facade and recommendation results."""

import dataclasses
import json
from itertools import product

import pytest

from repro.config import EngineConfig
from repro.core import recommender as recommender_module
from repro.core.recommender import SeeDB, serving_config, tuned_config
from repro.core.result import accuracy, utility_distance
from repro.core.view import ViewSpace
from repro.db.catalog import TableMeta
from repro.db.database import Database
from repro.db.expressions import eq
from repro.exceptions import RecommendationError
from repro.viz import recommendations_to_json, render_recommendation

TARGET = eq("marital", "Unmarried")


@pytest.fixture()
def seedb(census_like):
    return SeeDB.over_table(census_like, store="col")


class TestFacade:
    def test_over_table_registers(self, census_like):
        seedb = SeeDB.over_table(census_like)
        assert seedb.database.table("census_like") is census_like

    def test_recommend_returns_ranked_set(self, seedb):
        result = seedb.recommend(TARGET, k=3)
        assert len(result) == 3
        assert result[0].rank == 1
        assert result[0].utility >= result[1].utility >= result[2].utility
        assert result[0].view.key == ("sex", "capital", "AVG")

    def test_view_space_size(self, seedb):
        assert len(seedb.view_space()) == 2 * 2  # 2 dims x 2 measures x AVG

    def test_restricted_dimensions(self, seedb, monkeypatch):
        enumerated = []
        enumerate_views = ViewSpace.enumerate.__func__

        def spy(cls, *args, **kwargs):
            enumerated.append(args)
            return enumerate_views(cls, *args, **kwargs)

        monkeypatch.setattr(ViewSpace, "enumerate", classmethod(spy))
        result = seedb.recommend(TARGET, k=2, dimensions=["race"])
        assert all(rec.view.dimension == "race" for rec in result)
        assert len(enumerated) == 1  # one view space per recommend, looked up in

    def test_view_spaces_are_kept_per_restriction_bounded_and_dropped_with_meta(
        self, seedb, monkeypatch
    ):
        whole, by_race = seedb.view_space(), seedb.view_space(["race"])
        assert seedb.view_space() is whole and seedb.view_space(dimensions=("race",)) is by_race
        assert [view.key[:2] for view in by_race] == [("race", "capital"), ("race", "age")]
        assert seedb.view_space(measures=["age"]) is not seedb.view_space(["race"], ["age"])
        with pytest.raises(RecommendationError):
            seedb.view_space(["capital"])  # nothing is kept for a restriction that fails
        assert len(seedb._view_spaces[1]) == 4
        orders = lambda a, b: (None, [a], [b], [a, b], [b, a])  # noqa: E731
        for dimensions, measures in product(orders("sex", "race"), orders("capital", "age")):
            seedb.view_space(dimensions, measures)  # 25 restrictions through a bound of 16
        assert len(seedb._view_spaces[1]) == recommender_module._MAX_VIEW_SPACES == 16
        again = seedb.view_space()
        assert again is not whole and again.views == whole.views  # evicted, enumerated again
        # A new entry of the same planning catalog keeps the spaces ...
        seedb.engine.meta = TableMeta.of(seedb.table)
        assert seedb.view_space() is again and len(seedb._view_spaces[1]) == 16
        # ... one where a dimension gained a category drops them.
        grown = dict(seedb.meta.distinct_counts, race=seedb.meta.distinct_counts["race"] + 1)
        seedb.engine.meta = dataclasses.replace(seedb.meta, distinct_counts=grown)
        assert seedb.view_space() is not again and len(seedb._view_spaces[1]) == 1

    def test_true_top_k_is_exact(self, seedb):
        truth = seedb.true_top_k(TARGET, k=2)
        comb = seedb.recommend(TARGET, k=2, strategy="comb", pruner="ci")
        assert accuracy(comb.keys, truth.selected) == 1.0

    def test_describe_renders(self, seedb):
        text = seedb.recommend(TARGET, k=2).describe()
        assert "top-2" in text
        assert "AVG(capital) BY sex" in text

    def test_tuned_config_row_vs_col(self, seedb):
        assert tuned_config("row").use_binpacking is True
        assert tuned_config("col").use_binpacking is False
        # The paper's settings keep its rewrite; the default engine holds the
        # reference side as table state instead.
        assert tuned_config("col").combine_target_reference is True
        assert seedb.config == tuned_config("col").with_(combine_target_reference=False)

    @pytest.mark.parametrize("result_cache", [False, True])
    @pytest.mark.parametrize("delta_cache", [False, True])
    def test_serving_config_splits_exactly_where_no_delta_cache_is_kept(
        self, census_like, result_cache, delta_cache
    ):
        # One rule, stated once and shared with the engine: the rewrite stays
        # on iff the engine built from the config attaches a delta cache.
        config = serving_config("col", result_cache, delta_cache)
        assert config == tuned_config("col").with_(
            result_cache=result_cache,
            delta_cache=delta_cache,
            combine_target_reference=result_cache and delta_cache,
        )
        with SeeDB.over_table(census_like, config=config) as built:
            assert (built.engine.delta_cache is not None) == config.combine_target_reference
        assert SeeDB.over_table(census_like).config == serving_config("col")

    def test_store_mismatch_corrected(self, census_like):
        seedb = SeeDB.over_table(
            census_like, store="col", config=EngineConfig(store="row")
        )
        assert seedb.config.store == "col"

    def test_unknown_table(self):
        with pytest.raises(Exception):
            SeeDB(Database(), "ghost")


class TestResultMetrics:
    def test_accuracy(self):
        truth = [("a", "m", "AVG"), ("b", "m", "AVG")]
        assert accuracy([("a", "m", "AVG"), ("x", "m", "AVG")], truth) == 0.5
        assert accuracy(truth, truth) == 1.0
        with pytest.raises(RecommendationError):
            accuracy([("a", "m", "AVG")], [])

    def test_utility_distance(self):
        utilities = {
            ("a", "m", "AVG"): 0.9,
            ("b", "m", "AVG"): 0.8,
            ("c", "m", "AVG"): 0.2,
        }
        truth = [("a", "m", "AVG"), ("b", "m", "AVG")]
        picked = [("a", "m", "AVG"), ("c", "m", "AVG")]
        assert utility_distance(picked, truth, utilities) == pytest.approx(0.3)
        assert utility_distance(truth, truth, utilities) == 0.0

    def test_utility_distance_empty_rejected(self):
        with pytest.raises(RecommendationError):
            utility_distance([], [("a", "m", "AVG")], {})


class TestVisualizationOutput:
    def test_chart_spec_structure(self, seedb):
        result = seedb.recommend(TARGET, k=1)
        spec = result[0].chart_spec()
        assert spec["mark"] == "bar"
        assert spec["usermeta"]["dimension"] == "sex"
        values = spec["data"]["values"]
        assert {row["series"] for row in values} == {"target", "reference"}

    def test_ascii_render(self, seedb):
        result = seedb.recommend(TARGET, k=1)
        art = render_recommendation(result[0])
        assert "AVG(capital) BY sex" in art
        assert "target" in art and "reference" in art

    def test_json_export_round_trips(self, seedb, tmp_path):
        result = seedb.recommend(TARGET, k=2)
        payload = json.loads(recommendations_to_json(result))
        assert payload["k"] == 2
        assert len(payload["recommendations"]) == 2
        from repro.viz import export_recommendations

        path = export_recommendations(result, tmp_path / "recs.json")
        assert json.loads(path.read_text())["k"] == 2
