"""Logical query → SQL text.

SeeDB is middleware that ships SQL text to the underlying DBMS.  This is
the string a deployment would send: :func:`generate_sql` renders every
logical :class:`~repro.db.query.AggregateQuery` as one SELECT, and the
SQLite backend (:mod:`repro.db.backends.sqlite`) runs that text verbatim,
so a real SQL engine — not a parser of our own — checks it.  Derived
group-by columns (the target/reference flag of the combined query) are
rendered as CASE expressions in the select list and referenced by alias
in GROUP BY (accepted by Postgres, MySQL and SQLite).
"""

from __future__ import annotations

from repro.db.query import AggregateQuery


def generate_sql(
    query: AggregateQuery,
    *,
    row_bounds_column: str | None = None,
    order_by_groups: bool = False,
) -> str:
    """Render ``query`` as a single-line SQL SELECT statement.

    Two rendering options serve execution backends and default off, because
    the engine records the text a deployment would send:

    * ``row_bounds_column`` — render the query's ``row_range`` (the phased
      framework's partition) as a WHERE condition on an explicit row-number
      column the backend materialized; without it the range is silently a
      property only the native executor honours.
    * ``order_by_groups`` — append ``ORDER BY <group columns>`` so an
      external engine returns groups in the native executor's order
      (ascending by group value, column by column), which keeps results
      byte-comparable.
    """
    derived_by_alias = {d.alias: d for d in query.derived}
    select_parts: list[str] = []
    group_parts: list[str] = []
    for name in query.group_by:
        if name in derived_by_alias:
            select_parts.append(derived_by_alias[name].to_sql())
            group_parts.append(name)
        else:
            select_parts.append(name)
            group_parts.append(name)
    for spec in query.aggregates:
        select_parts.append(spec.to_sql())
    sql = f"SELECT {', '.join(select_parts)} FROM {query.table}"
    where_parts: list[str] = []
    if query.predicate is not None:
        where_parts.append(query.predicate.to_sql())
    if row_bounds_column is not None and query.row_range is not None:
        start, stop = query.row_range
        where_parts.append(
            f"{row_bounds_column} >= {start} AND {row_bounds_column} < {stop}"
        )
    if where_parts:
        sql += f" WHERE {' AND '.join(where_parts)}"
    if group_parts:
        sql += f" GROUP BY {', '.join(group_parts)}"
        if order_by_groups:
            sql += f" ORDER BY {', '.join(group_parts)}"
    return sql
