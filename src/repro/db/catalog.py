"""System metadata: what the SeeDB view generator reads.

The view generator (paper §3, "view generator" component) needs to know, for
each table: which columns are dimensions (group-by candidates), which are
measures (aggregation candidates), and the distinct-value count of each
dimension (used both for the bin-packing memory estimate of §4.1 and the
Table-1 inventory).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.table import Table


@dataclass(frozen=True)
class TableMeta:
    """Catalog entry for one table."""

    name: str
    n_rows: int
    dimensions: tuple[str, ...]
    measures: tuple[str, ...]
    distinct_counts: dict[str, int]
    size_bytes: int

    @classmethod
    def of(cls, table: Table) -> "TableMeta":
        dims = table.dimension_names()
        return cls(
            name=table.name,
            n_rows=table.nrows,
            dimensions=dims,
            measures=table.measure_names(),
            distinct_counts={d: table.distinct_count(d) for d in dims},
            size_bytes=table.logical_size_bytes(),
        )

    def plans_like(self, other: "TableMeta") -> bool:
        """Whether ``other`` is the same *planning catalog*: the name, dimensions,
        measures and distinct counts — all that view spaces, plans and bin
        packing read.  Row counts and sizes may differ: an append that brings no
        new category keeps what was planned from ``self``."""
        return (
            self.name == other.name
            and self.dimensions == other.dimensions
            and self.measures == other.measures
            and self.distinct_counts == other.distinct_counts
        )

    @property
    def n_dimensions(self) -> int:
        return len(self.dimensions)

    @property
    def n_measures(self) -> int:
        return len(self.measures)

    def n_views(self, n_aggregate_functions: int = 1) -> int:
        """Size of the aggregate-view space ``|A| x |M| x |F|``."""
        return self.n_dimensions * self.n_measures * n_aggregate_functions

    @property
    def size_mb(self) -> float:
        return self.size_bytes / 1e6
