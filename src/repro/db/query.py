"""Logical aggregate queries.

Every SeeDB view query — target, reference, or any sharing-optimized
combination — is an :class:`AggregateQuery`: scan a table (optionally a row
range, for phased execution), filter by a predicate, compute derived columns,
group by a set of columns, and evaluate a list of aggregates.

This is the object the executor runs and the SQL generator prints; the SQL
parser/planner produces it back from text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.db.expressions import Dictionaries, Expression
from repro.exceptions import QueryError


class AggregateFunction(enum.Enum):
    """The aggregate functions SeeDB's view space draws from (set F)."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"

    @classmethod
    def parse(cls, name: str) -> "AggregateFunction":
        try:
            return cls[name.upper()]
        except KeyError:
            raise QueryError(f"unknown aggregate function {name!r}") from None

    @property
    def needs_argument(self) -> bool:
        """COUNT may be argument-free (``COUNT(*)``); the rest need one."""
        return self is not AggregateFunction.COUNT


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output column: ``func(expr) AS alias``.

    ``argument`` may be a column name (the common case), an
    :class:`Expression` (e.g. a CASE arm from the sharing optimizer), or
    ``None`` for ``COUNT(*)``.
    """

    func: AggregateFunction
    argument: str | Expression | None
    alias: str

    def __post_init__(self) -> None:
        if self.argument is None and self.func.needs_argument:
            raise QueryError(f"{self.func.value} requires an argument")
        if not self.alias:
            raise QueryError("aggregate alias must be non-empty")

    def referenced_columns(self) -> frozenset[str]:
        if self.argument is None:
            return frozenset()
        if isinstance(self.argument, str):
            return frozenset({self.argument})
        return self.argument.referenced_columns()

    def argument_sql(self) -> str:
        if self.argument is None:
            return "*"
        if isinstance(self.argument, str):
            return self.argument
        return self.argument.to_sql()

    def to_sql(self) -> str:
        return f"{self.func.value}({self.argument_sql()}) AS {self.alias}"


@dataclass(frozen=True)
class DerivedColumn:
    """A computed column available to group-by and aggregates.

    The sharing optimizer uses one of these as the target/reference flag:
    ``CASE WHEN <target predicate> THEN 1 ELSE 0 END AS seedb_flag`` and then
    groups by it alongside the dimension attribute (paper §4.1, "Combine
    target and reference view query").
    """

    alias: str
    expression: Expression

    def to_sql(self) -> str:
        return f"{self.expression.to_sql()} AS {self.alias}"


@dataclass(frozen=True)
class AggregateQuery:
    """A grouped aggregation over (a range of) one table."""

    table: str
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    predicate: Expression | None = None
    derived: tuple[DerivedColumn, ...] = ()
    #: Row range [start, stop) for phased execution; None means full table.
    row_range: tuple[int, int] | None = None
    #: Distinct-group memory budget; None means unbounded (no spill).
    group_budget: int | None = None

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise QueryError("query must compute at least one aggregate")
        aliases = [spec.alias for spec in self.aggregates] + [d.alias for d in self.derived]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate output aliases in query: {aliases}")
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError(f"duplicate group-by columns: {self.group_by}")
        if self.row_range is not None:
            start, stop = self.row_range
            if start < 0 or stop < start:
                raise QueryError(f"bad row range: {self.row_range}")

    @cached_property
    def derived_aliases(self) -> frozenset[str]:
        return frozenset(d.alias for d in self.derived)

    def base_dictionaries(self, dictionaries: Dictionaries) -> Dictionaries:
        """``dictionaries`` less the columns a derived alias shadows.

        A name this query redefines may mean the derived values, so none of
        its expressions may read that name's base-column codes.
        """
        if not dictionaries or self.derived_aliases.isdisjoint(dictionaries):
            return dictionaries
        return {n: d for n, d in dictionaries.items() if n not in self.derived_aliases}

    def base_columns_needed(self) -> frozenset[str]:
        """Physical table columns the executor must scan for this query."""
        needed: set[str] = set()
        for name in self.group_by:
            if name not in self.derived_aliases:
                needed.add(name)
        return frozenset(needed | self.value_columns_needed())

    def value_columns_needed(self, dictionaries: Dictionaries = None) -> frozenset[str]:
        """Base columns whose *values* feed expressions or aggregates.

        The complement of this within :meth:`base_columns_needed` is the
        columns the executor only ever consumes as dictionary codes — pure
        group-by keys and, given the ``dictionaries`` of the
        dictionary-backed columns, those only tested against literals —
        which dictionary-encoded storage serves without decoding a single
        value (see ``StorageEngine.scan``'s ``skip_materialize``).
        """
        dictionaries = self.base_dictionaries(dictionaries)
        needed: set[str] = set()
        for spec in self.aggregates:
            if isinstance(spec.argument, Expression):
                needed |= spec.argument.value_columns(dictionaries) - self.derived_aliases
            else:
                needed |= spec.referenced_columns() - self.derived_aliases
        if self.predicate is not None:
            needed |= self.predicate.value_columns(dictionaries) - self.derived_aliases
        for d in self.derived:
            needed |= d.expression.value_columns(dictionaries)
        return frozenset(needed)

    def with_range(self, start: int, stop: int) -> "AggregateQuery":
        """Copy of this query restricted to rows ``[start, stop)``."""
        return AggregateQuery(
            table=self.table,
            group_by=self.group_by,
            aggregates=self.aggregates,
            predicate=self.predicate,
            derived=self.derived,
            row_range=(start, stop),
            group_budget=self.group_budget,
        )


@dataclass
class QueryResult:
    """Result of executing an :class:`AggregateQuery`.

    ``groups`` maps each group-by column (or derived alias) to an array of
    per-group key values; ``values`` maps each aggregate alias to the
    per-group aggregate array.  Rows are aligned across all arrays and sorted
    by composite group key.
    """

    groups: dict[str, "object"]
    values: dict[str, "object"]
    n_groups: int
    input_rows: int = 0

    def to_rows(self) -> list[dict[str, object]]:
        """Result as a list of dicts (tests and examples)."""
        names = list(self.groups) + list(self.values)
        arrays = {**self.groups, **self.values}
        rows = []
        for i in range(self.n_groups):
            row = {}
            for name in names:
                value = arrays[name][i]
                row[name] = value.item() if hasattr(value, "item") else value
            rows.append(row)
        return rows
