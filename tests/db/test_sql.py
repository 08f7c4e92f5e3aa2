"""Tests for the SQL generator: the text the engine records and backends run."""

from repro.db import expressions as E
from repro.db.query import AggregateFunction, AggregateQuery, AggregateSpec
from repro.db.sql import generate_sql


class TestGenerator:
    def test_generated_sql_is_stable(self):
        query = AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.AVG, "price", "p"),),
        )
        assert generate_sql(query) == (
            "SELECT color, AVG(price) AS p FROM tiny GROUP BY color"
        )


class TestBackendRenderingOptions:
    """Backend-only rendering knobs default off: the engine records the text
    a deployment would send, without the backend's row bounds or ordering."""

    def _query(self, **kwargs):
        return AggregateQuery(
            table="tiny",
            group_by=("color",),
            aggregates=(AggregateSpec(AggregateFunction.AVG, "price", "p"),),
            **kwargs,
        )

    def test_row_range_is_ignored_by_default(self):
        assert generate_sql(self._query(row_range=(2, 5))) == (
            "SELECT color, AVG(price) AS p FROM tiny GROUP BY color"
        )

    def test_row_bounds_column_renders_range(self):
        sql = generate_sql(
            self._query(row_range=(2, 5)), row_bounds_column="__seedb_row__"
        )
        assert sql == (
            "SELECT color, AVG(price) AS p FROM tiny "
            "WHERE __seedb_row__ >= 2 AND __seedb_row__ < 5 GROUP BY color"
        )

    def test_row_bounds_combine_with_predicate(self):
        sql = generate_sql(
            self._query(row_range=(0, 4), predicate=E.eq("size", "S")),
            row_bounds_column="r",
        )
        assert sql == (
            "SELECT color, AVG(price) AS p FROM tiny "
            "WHERE size = 'S' AND r >= 0 AND r < 4 GROUP BY color"
        )

    def test_order_by_groups(self):
        query = AggregateQuery(
            table="tiny",
            group_by=("color", "size"),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        sql = generate_sql(query, order_by_groups=True)
        assert sql.endswith("GROUP BY color, size ORDER BY color, size")

    def test_global_aggregate_gets_no_order_by(self):
        query = AggregateQuery(
            table="tiny",
            group_by=(),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, None, "n"),),
        )
        assert "ORDER BY" not in generate_sql(query, order_by_groups=True)
