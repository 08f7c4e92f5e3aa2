"""Tests for dataset generators, planting, and the registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.recommender import SeeDB
from repro.data import build, build_info, real, registry, synthetic
from repro.data.distributions import (
    categorical_column,
    category_labels,
    measure_column,
    zipf_weights,
)
from repro.data.planting import (
    PlantedView,
    apply_planting,
    apply_plantings,
    strength_ladder,
)
from repro.data.synthetic import SyntheticConfig, make_syn_star, make_synthetic
from repro.exceptions import DatasetError


class TestDistributions:
    def test_zipf_weights_normalized(self):
        rng = np.random.default_rng(0)
        weights = zipf_weights(10, 1.0, rng)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()

    def test_zero_skew_is_uniform(self):
        rng = np.random.default_rng(0)
        weights = zipf_weights(5, 0.0, rng)
        np.testing.assert_allclose(weights, 0.2)

    def test_categorical_column_distinct(self):
        rng = np.random.default_rng(0)
        col, codes = categorical_column(10_000, 7, rng, prefix="g")
        assert len(np.unique(col)) == 7
        assert codes.tolist() == np.unique(col, return_inverse=True)[1].tolist()

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 1000])
    def test_category_labels_sort_in_index_order(self, n):
        labels = category_labels("d07_", n).tolist()
        assert labels == sorted(labels) and len(set(labels)) == n

    def test_measure_kinds_nonnegative(self):
        rng = np.random.default_rng(0)
        for kind in ("gamma", "lognormal", "uniform"):
            values = measure_column(1000, rng, kind=kind, scale=10.0)
            assert (values >= 0).all()

    def test_unknown_measure_kind(self):
        with pytest.raises(ValueError):
            measure_column(10, np.random.default_rng(0), kind="cauchy")


class TestGeneratorCodes:
    """``build_real`` plants the codes it drew, and they are a sort's codes."""

    @pytest.mark.parametrize(
        "name, n_rows",
        [
            ("bank", None), ("diab", None), ("air", None),
            ("census", None), ("housing", None), ("movies", None),
            ("air", 50),  # fewer rows than airports: undrawn labels compact away
        ],
    )
    def test_planted_codes_are_np_unique_codes(self, monkeypatch, name, n_rows):
        drawn: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        planted: list[np.ndarray] = []
        draw, plant = real.categorical_column, real.apply_plantings

        def spy_draw(n, distinct, rng, prefix, skew):
            drawn[prefix[:-1]] = draw(n, distinct, rng, prefix=prefix, skew=skew)
            return drawn[prefix[:-1]]

        def spy_plant(values, plantings, in_target, rng):
            planted.extend(codes for codes, _, _ in plantings)
            return plant(values, plantings, in_target, rng)

        monkeypatch.setattr(real, "categorical_column", spy_draw)
        monkeypatch.setattr(real, "apply_plantings", spy_plant)
        table = registry.build(name, scale="smoke", n_rows=n_rows)
        kept = [codes for _, codes in drawn.values()]
        assert planted and all(any(c is k for k in kept) for c in planted)
        for dim, (column, codes) in drawn.items():
            np.testing.assert_array_equal(table.column(dim), column)
            assert codes.tolist() == np.unique(column, return_inverse=True)[1].tolist()
        if n_rows == 50:
            assert table.distinct_count("origin_airport") < 300


class TestPlanting:
    def test_planting_changes_target_only(self):
        rng = np.random.default_rng(0)
        values = np.ones(1000)
        codes = np.tile([0, 1], 500)
        in_target = np.arange(1000) < 500
        planted = apply_planting(values, codes, 2, in_target, 0.5, rng)
        assert not np.allclose(planted[:500], 1.0)
        np.testing.assert_allclose(planted[500:], 1.0)

    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(0)
        values = np.ones(10)
        out = apply_planting(values, np.zeros(10, dtype=int), 1, np.ones(10, bool), 0.0, rng)
        assert out is values

    def test_apply_plantings_matches_sequential(self):
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        values = np.full(2000, 10.0)
        codes = np.tile([0, 1, 2, 3], 500)
        in_target = np.arange(2000) % 2 == 0
        sequential = apply_planting(values, codes, 4, in_target, 0.4, rng1)
        batched = apply_plantings(values, [(codes, 4, 0.4)], in_target, rng2)
        np.testing.assert_allclose(sequential, batched)

    def test_strength_bounds(self):
        with pytest.raises(ValueError):
            PlantedView("d", "m", 1.5)

    def test_strength_ladder(self):
        assert strength_ladder(0) == []
        assert strength_ladder(1) == [0.8]
        ladder = strength_ladder(5, top=0.8, bottom=0.2)
        assert ladder[0] == 0.8 and ladder[-1] == pytest.approx(0.2)
        assert ladder == sorted(ladder, reverse=True)

    @settings(max_examples=10, deadline=None)
    @given(strength=st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    def test_property_utility_grows_with_strength(self, strength):
        """Stronger planting -> higher measured EMD utility."""
        config = SyntheticConfig(
            name="probe",
            n_rows=20_000,
            n_dimensions=1,
            n_measures=1,
            distinct_values=4,
            plantings=(PlantedView("d00", "m00", strength),),
            seed=11,
        )
        table = make_synthetic(config)
        seedb = SeeDB.over_table(table)
        run = seedb.true_top_k(
            registry.DATASETS["syn"].target_predicate(), k=1
        )
        weak = SeeDB.over_table(
            make_synthetic(
                SyntheticConfig(
                    name="probe",
                    n_rows=20_000,
                    n_dimensions=1,
                    n_measures=1,
                    distinct_values=4,
                    plantings=(PlantedView("d00", "m00", strength / 2),),
                    seed=11,
                )
            )
        ).true_top_k(registry.DATASETS["syn"].target_predicate(), k=1)
        key = ("d00", "m00", "AVG")
        assert run.utilities[key] > weak.utilities[key]


class TestSynthetic:
    def test_syn_shape_matches_table1(self):
        table = synthetic.make_syn(n_rows=2000)
        assert len(table.dimension_names()) == 50
        assert len(table.measure_names()) == 20
        assert synthetic.SPLIT_COLUMN not in table.dimension_names()

    def test_syn_star_distinct_counts(self):
        table = make_syn_star(10, n_rows=5000)
        for dim in table.dimension_names():
            assert table.distinct_count(dim) == 10

    def test_syn_star_invalid_distinct(self):
        with pytest.raises(DatasetError):
            make_syn_star(37)

    def test_determinism(self):
        a = synthetic.make_syn(n_rows=500, seed=5)
        b = synthetic.make_syn(n_rows=500, seed=5)
        np.testing.assert_array_equal(a.column("m00"), b.column("m00"))
        c = synthetic.make_syn(n_rows=500, seed=6)
        assert not np.array_equal(a.column("m00"), c.column("m00"))

    def test_invalid_config(self):
        with pytest.raises(DatasetError):
            SyntheticConfig("bad", n_rows=0, n_dimensions=1, n_measures=1)
        with pytest.raises(DatasetError):
            SyntheticConfig("bad", n_rows=10, n_dimensions=1, n_measures=1, target_fraction=1.5)

    def test_unknown_planting_dimension(self):
        config = SyntheticConfig(
            "bad",
            n_rows=10,
            n_dimensions=1,
            n_measures=1,
            plantings=(PlantedView("d99", "m00", 0.5),),
        )
        with pytest.raises(DatasetError):
            make_synthetic(config)


class TestRegistry:
    @pytest.mark.parametrize(
        "name,expected_views",
        [
            ("bank", 77), ("diab", 88), ("air", 108),
            ("census", 40), ("housing", 40), ("movies", 64),
        ],
    )
    def test_table1_view_counts(self, name, expected_views):
        table, spec = build_info(name, scale="smoke")
        n_views = len(table.dimension_names()) * len(table.measure_names())
        assert n_views == expected_views
        assert spec.split_column not in table.dimension_names()

    def test_target_predicate_selects_rows(self):
        table, spec = build_info("census", scale="smoke")
        mask = spec.target_predicate().evaluate(
            {spec.split_column: table.column(spec.split_column)}
        )
        assert 0 < mask.sum() < table.nrows

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            build("mnist")

    def test_scales_change_rows(self):
        smoke = build("air", scale="smoke")
        small = build("air", scale="small")
        assert smoke.nrows < small.nrows

    def test_explicit_rows_override(self):
        table = build("bank", n_rows=123)
        assert table.nrows == 123

    def test_bad_scale_env(self, monkeypatch):
        monkeypatch.setenv("SEEDB_SCALE", "galactic")
        with pytest.raises(DatasetError):
            registry.current_scale()

    def test_inventory_covers_all_datasets(self):
        rows = registry.table_one_inventory(scale="smoke")
        assert {r["name"] for r in rows} == {
            "SYN", "SYN_STAR_10", "SYN_STAR_100", "BANK", "DIAB",
            "AIR", "AIR10", "CENSUS", "HOUSING", "MOVIES",
        }

    def test_planted_views_dominate_background(self):
        """The strength ladder puts planted views at the top of the ranking.

        At smoke scale (4K rows) sampling noise can swap neighbours, so the
        check is membership in the top-5 rather than an exact rank.
        """
        table, spec = build_info("bank", scale="smoke")
        seedb = SeeDB.over_table(table)
        run = seedb.true_top_k(spec.target_predicate(), k=5)
        planted = {("job", "balance", "AVG"), ("month", "duration", "AVG")}
        assert planted & set(run.selected)


# --------------------------------------------------------------------------- #
# CSV ingestion + on-disk registry
# --------------------------------------------------------------------------- #


class TestIngestCSV:
    @pytest.fixture()
    def toy_csv(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(
            "region,score,count,label\n"
            "north, 1.5 ,10,alpha\n"
            "south,2.5,20,beta\n"
            "north,,30,alpha\n"
            "east,4.0,40,gamma delta\n"
        )
        return path

    def test_types_roles_and_values(self, tmp_path, toy_csv):
        from repro.data.ingest import ingest_csv
        from repro.db.chunks import open_table

        manifest = ingest_csv(toy_csv, tmp_path / "ds", chunk_rows=2)
        assert manifest.n_rows == 4 and manifest.chunk_rows == 2
        table = open_table(tmp_path / "ds")
        assert table.n_chunks == 2
        # score has a missing cell -> float64 with NaN; count all-int ->
        # int64; strings keep their widest width.
        score = np.asarray(table.column("score"))
        assert score.dtype == np.float64 and np.isnan(score[2])
        assert table.column("count").dtype == np.int64
        assert table.schema["region"].role.value == "dimension"
        assert table.schema["score"].role.value == "measure"
        assert list(table.column("label")) == ["alpha", "beta", "alpha", "gamma delta"]

    def test_split_column_and_registry_roundtrip(self, tmp_path, toy_csv):
        from repro.data import registry
        from repro.data.ingest import ingest_csv

        ingest_csv(
            toy_csv,
            tmp_path / "ds",
            name="toyset",
            chunk_rows=2,
            split_column="region",
            target_value="north",
            other_value="south",
        )
        entry = registry.register_on_disk(tmp_path / "ds")
        try:
            assert entry.name == "toyset"
            assert entry.split_column == "region"
            spec = registry.spec("toyset")
            assert spec.target_predicate().to_sql() == "region = 'north'"
            table = registry.build("toyset")
            assert table.nrows == 4 and table.is_chunked
            assert "toyset" in registry.available_datasets()
            # Same digest re-registration is a no-op; built-in clash fails.
            registry.register_on_disk(tmp_path / "ds")
            with pytest.raises(DatasetError):
                registry.register_on_disk(tmp_path / "ds", name="bank")
        finally:
            registry.unregister_on_disk("toyset")
        with pytest.raises(DatasetError):
            registry.spec("toyset")

    def test_role_overrides_and_errors(self, tmp_path, toy_csv):
        from repro.data.ingest import ingest_csv
        from repro.db.chunks import open_table

        ingest_csv(tmp_path / "toy.csv", tmp_path / "ds", roles={"count": "dimension"})
        table = open_table(tmp_path / "ds")
        assert table.schema["count"].role.value == "dimension"
        with pytest.raises(DatasetError):
            ingest_csv(toy_csv, tmp_path / "ds2", roles={"nope": "measure"})
        with pytest.raises(DatasetError):
            ingest_csv(toy_csv, tmp_path / "ds3", split_column="nope")
        with pytest.raises(DatasetError):
            ingest_csv(tmp_path / "missing.csv", tmp_path / "ds4")

    def test_ragged_rows_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n")
        from repro.data.ingest import ingest_csv

        with pytest.raises(DatasetError, match="expected 2 cells"):
            ingest_csv(bad, tmp_path / "ds")

    def test_cli_entry(self, tmp_path, toy_csv, capsys):
        from repro.data.ingest import main

        main([str(toy_csv), str(tmp_path / "ds"), "--name", "cli_toy"])
        out = capsys.readouterr().out
        assert "ingested 4 rows" in out

    def test_materialize_dataset_keeps_split_metadata(self, tmp_path):
        from repro.data.ingest import materialize_dataset
        from repro.db.chunks import open_table

        manifest = materialize_dataset(
            "housing", tmp_path / "housing", scale="smoke", chunk_rows=128
        )
        assert manifest.split_column == "sold_above_asking"
        table = open_table(tmp_path / "housing")
        assert table.nrows == 500 and table.is_chunked

    def test_recommendations_from_ingested_csv(self, tmp_path):
        """End-to-end: CSV -> chunk store -> SeeDB recommendation."""
        rng = np.random.default_rng(5)
        n = 600
        lines = ["region,flavor,sales,segment"]
        for _ in range(n):
            seg = "t" if rng.random() < 0.4 else "r"
            sales = rng.gamma(2.0, 10.0) * (2.0 if seg == "t" else 1.0)
            lines.append(
                f"r{rng.integers(0, 4)},f{rng.integers(0, 3)},{sales:.4f},{seg}"
            )
        csv_path = tmp_path / "sales.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        from repro.data.ingest import ingest_csv
        from repro.db.chunks import open_table
        from repro.db.expressions import eq

        ingest_csv(csv_path, tmp_path / "ds", chunk_rows=100,
                   split_column="segment", target_value="t", other_value="r")
        table = open_table(tmp_path / "ds", memory_budget_bytes=1 << 16)
        seedb = SeeDB.over_table(table)
        run = seedb.run_engine(eq("segment", "t"), k=2, strategy="sharing", pruner="none")
        assert len(run.selected) == 2
        assert table.residency.peak_bytes > 0


class TestStrictNumericInference:
    """Regression: ingestion must use strict decimal parsing, not Python's.

    ``int("1_000")`` and ``float("inf")`` succeed, so a CSV cell like
    ``"1_0"`` used to be silently ingested as the number 10.  The strict
    parsers accept plain decimal (and scientific float) notation only;
    anything else keeps the column a string dimension.
    """

    def test_strict_int(self):
        from repro.data.ingest import strict_int

        assert strict_int("12") == 12
        assert strict_int("+3") == 3
        assert strict_int("-40") == -40
        for bad in ("1_000", "0x10", "1.0", "", " 5", "5 ", "1e3", "①"):
            with pytest.raises(ValueError):
                strict_int(bad)

    def test_strict_float(self):
        from repro.data.ingest import strict_float

        assert strict_float("1.5") == 1.5
        assert strict_float(".5") == 0.5
        assert strict_float("2.") == 2.0
        assert strict_float("1e3") == 1000.0
        assert strict_float("-2.5E-2") == -0.025
        for bad in ("1_000.5", "inf", "Infinity", "NaN", "nan", "0x10", "", "1 000"):
            with pytest.raises(ValueError):
                strict_float(bad)

    def test_underscored_cells_stay_strings(self, tmp_path):
        """The headline regression: "1_0" is a label, not the number 10."""
        from repro.data.ingest import ingest_csv
        from repro.db.chunks import open_table

        path = tmp_path / "toy.csv"
        path.write_text("code,value\n1_0,1.5\n2_0,2.5\n1_0,3.5\n")
        ingest_csv(path, tmp_path / "ds")
        table = open_table(tmp_path / "ds")
        codes = table.column("code")
        assert codes.dtype.kind == "U"
        assert list(codes) == ["1_0", "2_0", "1_0"]
        assert table.schema["code"].role.value == "dimension"

    def test_inf_and_nan_cells_stay_strings(self, tmp_path):
        from repro.data.ingest import ingest_csv
        from repro.db.chunks import open_table

        path = tmp_path / "toy.csv"
        path.write_text("status,value\ninf,1.5\nNaN,2.5\nok,3.5\n")
        ingest_csv(path, tmp_path / "ds")
        table = open_table(tmp_path / "ds")
        assert table.column("status").dtype.kind == "U"
        assert list(table.column("status")) == ["inf", "NaN", "ok"]

    def test_empty_cells_still_mean_nan_for_floats(self, tmp_path):
        from repro.data.ingest import ingest_csv
        from repro.db.chunks import open_table

        path = tmp_path / "toy.csv"
        path.write_text("label,value\nx,1.5\ny,\nz,2.5\n")
        ingest_csv(path, tmp_path / "ds")
        values = np.asarray(open_table(tmp_path / "ds").column("value"))
        assert values.dtype == np.float64 and np.isnan(values[1])

    def test_write_pass_detects_file_changed_between_passes(
        self, tmp_path, monkeypatch
    ):
        """The write pass re-checks row widths instead of trusting pass one."""
        import builtins

        from repro.data.ingest import ingest_csv

        path = tmp_path / "racy.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        real_open = builtins.open
        opens = {"count": 0}

        def racy_open(file, *args, **kwargs):
            if str(file) == str(path):
                opens["count"] += 1
                if opens["count"] == 2:  # shrink a row between the passes
                    with real_open(path, "w") as handle:
                        handle.write("a,b\n1,2\n3\n")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", racy_open)
        with pytest.raises(DatasetError, match="changed between passes"):
            ingest_csv(path, tmp_path / "ds")


class TestRegistryAppendRefresh:
    @pytest.fixture()
    def store_dir(self, tmp_path):
        from repro.data.ingest import ingest_csv

        csv_path = tmp_path / "toy.csv"
        csv_path.write_text(
            "region,score\nnorth,1.5\nsouth,2.5\nnorth,3.5\neast,4.0\n"
        )
        ingest_csv(csv_path, tmp_path / "ds", name="toyappend", chunk_rows=2)
        return tmp_path / "ds"

    def test_refresh_on_disk_picks_up_appends(self, store_dir):
        from repro.db.chunks import append_rows, read_manifest

        entry = registry.register_on_disk(store_dir)
        try:
            assert entry.name == "toyappend" and entry.n_rows == 4
            append_rows(store_dir, {"region": ["west"], "score": [9.9]})
            # The registry entry is stale until refreshed — by name, no path.
            assert registry.spec("toyappend").n_rows == 4
            refreshed = registry.refresh_on_disk("toyappend")
            assert refreshed.n_rows == 5
            assert refreshed.digest == read_manifest(store_dir).digest
            assert registry.spec("toyappend").n_rows == 5
        finally:
            registry.unregister_on_disk("toyappend")
        with pytest.raises(DatasetError, match="no on-disk dataset"):
            registry.refresh_on_disk("toyappend")

    def test_reregister_same_path_after_append(self, store_dir, tmp_path):
        from repro.data.ingest import ingest_csv
        from repro.db.chunks import append_rows

        registry.register_on_disk(store_dir)
        try:
            append_rows(store_dir, {"region": ["west"], "score": [9.9]})
            # Same directory, new digest: updated in place, not rejected.
            entry = registry.register_on_disk(store_dir)
            assert entry.n_rows == 5
            # A *different* directory claiming the name is still an error.
            other_csv = tmp_path / "other.csv"
            other_csv.write_text("region,score\nwest,0.5\n")
            ingest_csv(other_csv, tmp_path / "other", name="toyappend")
            with pytest.raises(DatasetError, match="different contents"):
                registry.register_on_disk(tmp_path / "other")
        finally:
            registry.unregister_on_disk("toyappend")
