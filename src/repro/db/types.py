"""Column types, roles, and table schemas.

The type system is deliberately small — the four types SeeDB's aggregate
views need: integers and floats for measures, strings and booleans for
dimensions.  Each :class:`Column` also carries a :class:`ColumnRole` telling
the view generator whether it is a group-by candidate (dimension), an
aggregation candidate (measure), or neither.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import SchemaError

#: An integer column with at most this many distinct values is inferred to
#: be a dimension when roles are not declared — shared by the in-memory
#: table's role heuristic and the CSV ingester so the two cannot drift.
DIMENSION_DISTINCT_THRESHOLD = 12


class ColumnType(enum.Enum):
    """Logical column type, mapped onto a numpy dtype for storage."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    @property
    def byte_width(self) -> int:
        """Bytes per value charged by the cost model.

        Strings are dictionary-encoded in both storage engines, so they are
        charged the width of a 32-bit code rather than their character data.
        """
        return _BYTE_WIDTHS[self]

    @classmethod
    def from_numpy(cls, dtype: np.dtype) -> "ColumnType":
        """Infer the logical type of a numpy array's dtype."""
        kind = np.dtype(dtype).kind
        if kind in ("i", "u"):
            return cls.INT
        if kind == "f":
            return cls.FLOAT
        if kind == "b":
            return cls.BOOL
        if kind in ("U", "S", "O"):
            return cls.STR
        raise SchemaError(f"unsupported numpy dtype: {dtype!r}")


_BYTE_WIDTHS = {
    ColumnType.INT: 8,
    ColumnType.FLOAT: 8,
    ColumnType.STR: 4,
    ColumnType.BOOL: 1,
}


class ColumnRole(enum.Enum):
    """How the SeeDB view generator may use a column."""

    DIMENSION = "dimension"
    MEASURE = "measure"
    OTHER = "other"


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    ctype: ColumnType
    role: ColumnRole = ColumnRole.OTHER

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")
        if self.role is ColumnRole.MEASURE and self.ctype not in (
            ColumnType.INT,
            ColumnType.FLOAT,
        ):
            raise SchemaError(
                f"measure column {self.name!r} must be numeric, got {self.ctype}"
            )

    @property
    def byte_width(self) -> int:
        return self.ctype.byte_width


@dataclass(frozen=True)
class Schema:
    """An ordered, name-unique collection of :class:`Column` objects."""

    columns: tuple[Column, ...]
    _by_name: dict[str, Column] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("schema must contain at least one column")
        by_name: dict[str, Column] = {}
        for col in self.columns:
            if col.name in by_name:
                raise SchemaError(f"duplicate column name: {col.name!r}")
            by_name[col.name] = col
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def of(cls, columns: Iterable[Column]) -> "Schema":
        return cls(tuple(columns))

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no such column: {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def dimensions(self) -> tuple[Column, ...]:
        """Columns usable as group-by attributes."""
        return tuple(c for c in self.columns if c.role is ColumnRole.DIMENSION)

    def measures(self) -> tuple[Column, ...]:
        """Columns usable as aggregation targets."""
        return tuple(c for c in self.columns if c.role is ColumnRole.MEASURE)

    def row_byte_width(self) -> int:
        """Total bytes per row — the unit of row-store scan cost."""
        return sum(col.byte_width for col in self.columns)

    def validate_columns(self, names: Iterable[str]) -> None:
        """Raise :class:`SchemaError` if any name is not in the schema."""
        for name in names:
            if name not in self:
                raise SchemaError(f"no such column: {name!r}")
