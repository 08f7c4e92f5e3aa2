"""Typed expression trees with vectorized evaluation.

Expressions power WHERE predicates and the CASE arms of combined
target/reference queries.  Every node can

* evaluate itself over a mapping of column name → numpy array,
* report the columns it references (so the executor scans only those), and
* print itself as SQL text (so the generator can ship it to a real DBMS).

The tree is deliberately small: column/literal leaves, comparisons, boolean
connectives, IN, arithmetic, and CASE WHEN.

Given the *dictionaries* of dictionary-backed columns, a comparison or IN
between such a column and literals is decided once per category and carried
to the rows through the codes — ``carrier = 'X'`` becomes ``codes == code``
instead of a string comparison per row — with the same result bit for bit,
since ``values`` is ``categories[codes]``.  :meth:`Expression.value_columns`
names the columns whose decoded values are still read.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import QueryError

ColumnValues = Mapping[str, np.ndarray]
#: Dictionary-backed column -> (row-aligned codes, sorted categories).
Dictionaries = Mapping[str, tuple[np.ndarray, np.ndarray]] | None

_COMPARISON_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _sql_literal(value: object) -> str:
    """Render a Python value as a SQL literal.

    Non-finite floats are rejected: ``repr(float("inf"))`` is ``'inf'``,
    which no SQL dialect accepts as a numeric literal, so shipping it to a
    real backend would fail far from the source of the bad value.  Finite
    floats are written with 17 significant digits, which name one double
    exactly: SQLite 3.40 reads about 1 in 10^4 of the shorter spellings
    ``repr`` picks as a neighbouring double (``33.18487661462839``), so a
    comparison against a stored value would lose its boundary row.  A float
    always keeps its ``.`` or exponent, so SQL never reads it as an integer.
    """
    if isinstance(value, (bool, np.bool_)):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float, np.integer, np.floating)):
        number = value if not isinstance(value, (np.integer, np.floating)) else value.item()
        if not isinstance(number, float):
            return repr(number)
        if not math.isfinite(number):
            raise QueryError(
                f"cannot render non-finite float {number!r} as a SQL literal"
            )
        text = f"{number:.17g}"
        return text if "." in text or "e" in text else f"{text}.0"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


class Expression(abc.ABC):
    """Base class for all expression nodes."""

    @abc.abstractmethod
    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        """Vectorized evaluation over column arrays (those :meth:`value_columns`
        lists suffice), testing literals on ``dictionaries``' codes."""

    def children(self) -> tuple["Expression", ...]:
        """Direct sub-expressions (leaves have none)."""
        return ()

    def referenced_columns(self) -> frozenset[str]:
        """Names of all columns this expression reads."""
        return frozenset().union(*(c.referenced_columns() for c in self.children()))

    def value_columns(self, dictionaries: Dictionaries = None) -> frozenset[str]:
        """The referenced columns whose decoded values ``evaluate`` reads:
        all of them, less those only met in tests that run on codes."""
        if self._dictionary(dictionaries) is not None:
            return frozenset()
        children = self.children()
        if not children:
            return self.referenced_columns()
        return frozenset().union(*(c.value_columns(dictionaries) for c in children))

    def _literal_test(self) -> tuple[str, Sequence[object]] | None:
        """``(column, literals)`` if this node tests one against the other."""
        return None

    def _dictionary(self, dictionaries: Dictionaries) -> tuple[str, np.ndarray, np.ndarray] | None:
        """``(column, codes, categories)`` if this node can run on codes.

        It must test a dictionary-backed column against literals of its
        categories' type: how numpy compares a string array with a number
        (or the reverse) is left to value evaluation.
        """
        test = self._literal_test()
        entry = dictionaries.get(test[0]) if dictionaries and test else None
        if entry is None or entry[1].dtype.kind not in "Uiuf":
            return None
        wanted = (str,) if entry[1].dtype.kind == "U" else (int, float, np.integer, np.floating)
        if all(isinstance(v, wanted) and not isinstance(v, bool) for v in test[1]):
            return test[0], *entry
        return None

    def category_hits(self, categories: Mapping[str, np.ndarray]) -> tuple[str, np.ndarray] | None:
        """``(column, codes)`` of the categories this test selects, if it is decided
        per category (:meth:`_dictionary`, given each column's sorted categories):
        the decision :meth:`_on_codes` carries to the rows."""
        coded = self._dictionary({name: (None, values) for name, values in categories.items()})
        if coded is None:
            return None
        name, _, values = coded
        return name, np.flatnonzero(self.evaluate({name: values}))

    def _on_codes(self, dictionaries: Dictionaries) -> np.ndarray | None:
        """This test decided per category, carried to the rows by the codes."""
        coded = self._dictionary(dictionaries)
        if coded is None:
            return None
        name, codes, categories = coded
        truth = self.evaluate({name: categories})
        hits = np.flatnonzero(truth)
        return codes == hits[0] if len(hits) == 1 else truth.take(codes)

    @abc.abstractmethod
    def to_sql(self) -> str:
        """SQL text rendering of this expression."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_sql()})"

    # Convenience combinators -------------------------------------------------

    def and_(self, other: "Expression") -> "Expression":
        return And((self, other))

    def or_(self, other: "Expression") -> "Expression":
        return Or((self, other))

    def not_(self) -> "Expression":
        return Not(self)


@dataclass(frozen=True, repr=False)
class Col(Expression):
    """A column reference."""

    name: str

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        try:
            return columns[self.name]
        except KeyError:
            raise QueryError(f"expression references missing column {self.name!r}") from None

    def referenced_columns(self) -> frozenset[str]:
        return frozenset({self.name})

    def to_sql(self) -> str:
        return self.name


@dataclass(frozen=True, repr=False)
class Lit(Expression):
    """A literal constant."""

    value: object

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        return np.asarray(self.value)

    def to_sql(self) -> str:
        return _sql_literal(self.value)


@dataclass(frozen=True, repr=False)
class Comparison(Expression):
    """Binary comparison producing a boolean array."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def _literal_test(self) -> tuple[str, Sequence[object]] | None:
        if isinstance(self.left, Col) and isinstance(self.right, Lit):
            return self.left.name, (self.right.value,)
        return None

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        coded = self._on_codes(dictionaries)
        if coded is not None:
            return coded
        result = _COMPARISON_OPS[self.op](
            self.left.evaluate(columns, dictionaries),
            self.right.evaluate(columns, dictionaries),
        )
        return np.asarray(result, dtype=bool)

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"


@dataclass(frozen=True, repr=False)
class Arithmetic(Expression):
    """Binary arithmetic over numeric expressions."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC_OPS:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        return _ARITHMETIC_OPS[self.op](
            self.left.evaluate(columns, dictionaries),
            self.right.evaluate(columns, dictionaries),
        )

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True, repr=False)
class And(Expression):
    """N-ary conjunction."""

    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise QueryError("AND requires at least two operands")

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        result = self.operands[0].evaluate(columns, dictionaries).astype(bool)
        for operand in self.operands[1:]:
            result = result & operand.evaluate(columns, dictionaries)
        return result

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def to_sql(self) -> str:
        return "(" + " AND ".join(o.to_sql() for o in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class Or(Expression):
    """N-ary disjunction."""

    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise QueryError("OR requires at least two operands")

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        result = self.operands[0].evaluate(columns, dictionaries).astype(bool)
        for operand in self.operands[1:]:
            result = result | operand.evaluate(columns, dictionaries)
        return result

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def to_sql(self) -> str:
        return "(" + " OR ".join(o.to_sql() for o in self.operands) + ")"


@dataclass(frozen=True, repr=False)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        return ~self.operand.evaluate(columns, dictionaries).astype(bool)

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"


@dataclass(frozen=True, repr=False)
class In(Expression):
    """Membership test against a literal value list."""

    operand: Expression
    values: tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise QueryError("IN requires at least one value")

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        coded = self._on_codes(dictionaries)
        if coded is not None:
            return coded
        arr = self.operand.evaluate(columns, dictionaries)
        return np.isin(arr, np.asarray(self.values))

    def _literal_test(self) -> tuple[str, Sequence[object]] | None:
        return (self.operand.name, self.values) if isinstance(self.operand, Col) else None

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def to_sql(self) -> str:
        rendered = ", ".join(_sql_literal(v) for v in self.values)
        return f"{self.operand.to_sql()} IN ({rendered})"


@dataclass(frozen=True, repr=False)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN a ELSE b END`` (single arm).

    Used by the sharing optimizer to fold target and reference into one
    query, e.g. ``SUM(CASE WHEN <target predicate> THEN m ELSE 0 END)``.
    """

    condition: Expression
    then: Expression
    otherwise: Expression

    def evaluate(self, columns: ColumnValues, dictionaries: Dictionaries = None) -> np.ndarray:
        cond = self.condition.evaluate(columns, dictionaries).astype(bool)
        return np.where(
            cond,
            self.then.evaluate(columns, dictionaries),
            self.otherwise.evaluate(columns, dictionaries),
        )

    def children(self) -> tuple[Expression, ...]:
        return (self.condition, self.then, self.otherwise)

    def to_sql(self) -> str:
        return (
            f"CASE WHEN {self.condition.to_sql()} THEN {self.then.to_sql()} "
            f"ELSE {self.otherwise.to_sql()} END"
        )


# --------------------------------------------------------------------------- #
# convenience constructors
# --------------------------------------------------------------------------- #


def col(name: str) -> Col:
    return Col(name)


def lit(value: object) -> Lit:
    return Lit(value)


def eq(column: str, value: object) -> Comparison:
    """``column = value`` — the most common SeeDB target-selection shape."""
    return Comparison("=", Col(column), Lit(value))


def neq(column: str, value: object) -> Comparison:
    return Comparison("!=", Col(column), Lit(value))


def between(column: str, low: object, high: object) -> Expression:
    """``low <= column AND column <= high``."""
    return And(
        (Comparison("<=", Lit(low), Col(column)), Comparison("<=", Col(column), Lit(high)))
    )


def isin(column: str, values: Sequence[object]) -> In:
    return In(Col(column), tuple(values))


def true() -> Expression:
    """A predicate that keeps every row (SQL renders as ``1 = 1``)."""
    return Comparison("=", Lit(1), Lit(1))
