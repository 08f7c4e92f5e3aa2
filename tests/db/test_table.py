"""Tests for the Table container."""

import numpy as np
import pytest

from repro import SeeDB
from repro.db.catalog import TableMeta
from repro.db.chunks import open_table, write_table
from repro.db.expressions import eq
from repro.db.table import Table
from repro.db.types import ColumnRole, ColumnType
from repro.exceptions import SchemaError


class TestConstruction:
    def test_basic_roles_and_types(self, tiny_table):
        assert tiny_table.nrows == 6
        assert tiny_table.dimension_names() == ("color", "size")
        assert tiny_table.measure_names() == ("price", "weight")
        assert tiny_table.schema["price"].ctype is ColumnType.FLOAT

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", {"a": [1, 2], "b": [1, 2, 3]})

    def test_empty_data_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", {})

    def test_roles_for_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", {"a": [1]}, roles={"zzz": ColumnRole.MEASURE})

    def test_a_role_given_by_name_is_the_role(self, tmp_path):
        """``"dimension"`` means :attr:`ColumnRole.DIMENSION`: the catalog sees it,
        a recommendation runs, and the table writes to a chunk store."""
        table = Table(
            "named",
            {"s": ["a", "b", "c"] * 20, "n": np.arange(60.0)},
            roles={"s": "dimension", "n": "measure"},
        )
        assert {c.name: c.role for c in table.schema} == {
            "s": ColumnRole.DIMENSION,
            "n": ColumnRole.MEASURE,
        }
        meta = TableMeta.of(table)
        assert (meta.dimensions, meta.measures) == (("s",), ("n",))
        result = SeeDB.over_table(table, store="col").recommend(eq("s", "a"), k=1)
        assert [rec.view.dimension for rec in result] == ["s"]
        write_table(table, tmp_path / "named")
        reopened = open_table(tmp_path / "named")
        assert [c.role for c in reopened.schema] == [ColumnRole.DIMENSION, ColumnRole.MEASURE]

    def test_an_unknown_role_name_rejected(self):
        with pytest.raises(SchemaError, match="unknown role 'dimensoin'"):
            Table("bad", {"a": [1]}, roles={"a": "dimensoin"})

    def test_two_dimensional_column_rejected(self):
        with pytest.raises(SchemaError):
            Table("bad", {"a": np.zeros((2, 2))})

    def test_role_inference(self):
        n = 40
        table = Table(
            "inferred",
            {
                "category": ["a", "b"] * (n // 2),
                "flag": [True, False] * (n // 2),
                "small_int": [1, 2, 3, 4] * (n // 4),
                "big_int": list(range(n)),  # 40 distinct > threshold
                "ratio": [0.1] * n,
            },
        )
        roles = {c.name: c.role for c in table.schema}
        assert roles["category"] is ColumnRole.DIMENSION
        assert roles["flag"] is ColumnRole.DIMENSION
        assert roles["small_int"] is ColumnRole.DIMENSION
        assert roles["big_int"] is ColumnRole.MEASURE
        assert roles["ratio"] is ColumnRole.MEASURE


class TestDictionary:
    def test_codes_round_trip(self, tiny_table):
        codes, categories = tiny_table.dictionary("color")
        assert sorted(categories) == ["blue", "green", "red"]
        reconstructed = categories[codes]
        np.testing.assert_array_equal(reconstructed, tiny_table.column("color"))

    def test_dictionary_is_cached(self, tiny_table):
        first = tiny_table.dictionary("size")
        second = tiny_table.dictionary("size")
        assert first[0] is second[0]

    def test_distinct_count(self, tiny_table):
        assert tiny_table.distinct_count("color") == 3
        assert tiny_table.distinct_count("size") == 2

    def test_missing_column(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.column("nope")


class TestDerivedTables:
    def test_where_filters_rows(self, tiny_table):
        reds = tiny_table.where(tiny_table.column("color") == "red")
        assert reds.nrows == 3
        assert set(reds.column("color")) == {"red"}

    def test_where_requires_bool_mask(self, tiny_table):
        with pytest.raises(SchemaError):
            tiny_table.where(np.array([1, 0, 1, 0, 1, 0]))

    def test_take_orders_rows(self, tiny_table):
        picked = tiny_table.take(np.array([5, 0]))
        assert picked.column("price").tolist() == [60.0, 10.0]

    def test_slice_rows(self, tiny_table):
        part = tiny_table.slice_rows(2, 5)
        assert part.nrows == 3
        assert part.column("weight").tolist() == [3.0, 4.0, 5.0]

    def test_shuffled_is_permutation_and_deterministic(self, tiny_table):
        a = tiny_table.shuffled(seed=7)
        b = tiny_table.shuffled(seed=7)
        assert a.column("price").tolist() == b.column("price").tolist()
        assert sorted(a.column("price").tolist()) == sorted(
            tiny_table.column("price").tolist()
        )
        assert a.column("price").tolist() != tiny_table.column("price").tolist()

    def test_roles_survive_derivation(self, tiny_table):
        derived = tiny_table.slice_rows(0, 3)
        assert derived.dimension_names() == ("color", "size")

    def test_concat(self, tiny_table):
        double = Table.concat("double", [tiny_table, tiny_table])
        assert double.nrows == 12
        with pytest.raises(SchemaError):
            Table.concat("none", [])

    def test_concat_schema_mismatch(self, tiny_table):
        other = Table("other", {"x": [1.0]})
        with pytest.raises(SchemaError):
            Table.concat("bad", [tiny_table, other])


class TestSizing:
    def test_logical_size(self, tiny_table):
        per_row = tiny_table.schema.row_byte_width()
        assert tiny_table.logical_size_bytes() == 6 * per_row

    def test_head(self, tiny_table):
        rows = tiny_table.head(2)
        assert len(rows) == 2
        assert rows[0]["color"] == "red"
        assert rows[0]["price"] == 10.0
