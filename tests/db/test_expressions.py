"""Tests for the expression tree: evaluation, SQL text, column tracking."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db import expressions as E
from repro.exceptions import QueryError

COLS = {
    "a": np.array([1, 2, 3, 4]),
    "b": np.array([4.0, 3.0, 2.0, 1.0]),
    "s": np.array(["x", "y", "x", "z"]),
}


class TestLeaves:
    def test_col_eval(self):
        np.testing.assert_array_equal(E.col("a").evaluate(COLS), COLS["a"])

    def test_col_missing_raises(self):
        with pytest.raises(QueryError):
            E.col("nope").evaluate(COLS)

    def test_lit_eval(self):
        assert E.lit(5).evaluate(COLS) == 5

    def test_sql_literals(self):
        assert E.lit(5).to_sql() == "5"
        assert E.lit(2.5).to_sql() == "2.5"
        # 17 significant digits, and a float stays a float in SQL.
        assert E.lit(0.1).to_sql() == "0.10000000000000001"
        assert E.lit(100.0).to_sql() == "100.0"
        assert E.lit(1e22).to_sql() == "1e+22"
        assert E.lit("it's").to_sql() == "'it''s'"
        assert E.lit(True).to_sql() == "TRUE"

    def test_non_finite_float_literals_raise(self):
        # Regression: repr(inf) / repr(nan) are not valid SQL literals; a
        # real backend would reject the generated text far from the source
        # of the bad value, so rendering must fail loudly instead.
        for bad in (float("inf"), float("-inf"), float("nan"), np.float64("nan")):
            with pytest.raises(QueryError, match="non-finite"):
                E.lit(bad).to_sql()
            with pytest.raises(QueryError, match="non-finite"):
                E.In(E.col("a"), (1.0, bad)).to_sql()

    def test_numpy_scalar_literals_render_as_plain_numbers(self):
        assert E.lit(np.int64(3)).to_sql() == "3"
        assert E.lit(np.float64(2.5)).to_sql() == "2.5"

    def test_numpy_bool_literals_render_as_sql_booleans(self):
        # Regression: np.bool_ fell through to the string branch and
        # rendered as 'True' — a quoted string no backend reads as a bool.
        assert E.lit(np.True_).to_sql() == "TRUE"
        assert E.lit(np.False_).to_sql() == "FALSE"


class TestComparisons:
    @pytest.mark.parametrize(
        "op,expected",
        [
            ("=", [False, True, False, False]),
            ("!=", [True, False, True, True]),
            ("<", [True, False, False, False]),
            ("<=", [True, True, False, False]),
            (">", [False, False, True, True]),
            (">=", [False, True, True, True]),
        ],
    )
    def test_each_operator(self, op, expected):
        expr = E.Comparison(op, E.col("a"), E.lit(2))
        assert expr.evaluate(COLS).tolist() == expected

    def test_string_equality(self):
        assert E.eq("s", "x").evaluate(COLS).tolist() == [True, False, True, False]

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            E.Comparison("~", E.col("a"), E.lit(1))

    def test_sql_text(self):
        assert E.eq("s", "x").to_sql() == "s = 'x'"


class TestBooleans:
    def test_and_or_not(self):
        both = E.eq("s", "x").and_(E.Comparison(">", E.col("a"), E.lit(1)))
        assert both.evaluate(COLS).tolist() == [False, False, True, False]
        either = E.eq("s", "x").or_(E.eq("s", "z"))
        assert either.evaluate(COLS).tolist() == [True, False, True, True]
        negated = E.eq("s", "x").not_()
        assert negated.evaluate(COLS).tolist() == [False, True, False, True]

    def test_nary_validation(self):
        with pytest.raises(QueryError):
            E.And((E.eq("s", "x"),))
        with pytest.raises(QueryError):
            E.Or((E.eq("s", "x"),))

    def test_between(self):
        expr = E.between("a", 2, 3)
        assert expr.evaluate(COLS).tolist() == [False, True, True, False]

    def test_isin(self):
        expr = E.isin("s", ["x", "z"])
        assert expr.evaluate(COLS).tolist() == [True, False, True, True]
        with pytest.raises(QueryError):
            E.In(E.col("s"), ())

    def test_true_predicate(self):
        assert E.true().evaluate(COLS).tolist() is True or E.true().evaluate(
            COLS
        ).all()


class TestArithmeticAndCase:
    def test_arithmetic(self):
        expr = E.Arithmetic("+", E.col("a"), E.col("b"))
        assert expr.evaluate(COLS).tolist() == [5.0, 5.0, 5.0, 5.0]
        with pytest.raises(QueryError):
            E.Arithmetic("%", E.col("a"), E.col("b"))

    def test_case_when(self):
        expr = E.CaseWhen(E.eq("s", "x"), E.lit(1), E.lit(0))
        assert expr.evaluate(COLS).tolist() == [1, 0, 1, 0]

    def test_case_sql(self):
        expr = E.CaseWhen(E.eq("s", "x"), E.lit(1), E.lit(0))
        assert expr.to_sql() == "CASE WHEN s = 'x' THEN 1 ELSE 0 END"


class TestReferencedColumns:
    def test_collects_across_tree(self):
        expr = E.CaseWhen(
            E.eq("s", "x"), E.col("a"), E.Arithmetic("*", E.col("b"), E.lit(2))
        )
        assert expr.referenced_columns() == {"s", "a", "b"}

    def test_literal_references_nothing(self):
        assert E.lit(1).referenced_columns() == frozenset()


@given(
    values=st.lists(st.integers(-100, 100), min_size=1, max_size=50),
    threshold=st.integers(-100, 100),
)
def test_comparison_matches_numpy_semantics(values, threshold):
    """Property: expression eval agrees with direct numpy comparison."""
    cols = {"v": np.asarray(values)}
    expr = E.Comparison("<", E.col("v"), E.lit(threshold))
    np.testing.assert_array_equal(expr.evaluate(cols), np.asarray(values) < threshold)


@given(
    values=st.lists(st.integers(0, 10), min_size=1, max_size=50),
    low=st.integers(0, 10),
    high=st.integers(0, 10),
)
def test_between_is_conjunction_of_bounds(values, low, high):
    cols = {"v": np.asarray(values)}
    result = E.between("v", low, high).evaluate(cols)
    expected = (np.asarray(values) >= low) & (np.asarray(values) <= high)
    np.testing.assert_array_equal(result, expected)


# --------------------------------------------------------------------------- #
# code-space evaluation: dictionaries change the route, never the result
# --------------------------------------------------------------------------- #


def _coded_table(tmp_path=None):
    """A table with string, int and float columns; memmap-backed if a path."""
    from repro.db import chunks
    from repro.db.table import Table

    rng = np.random.default_rng(5)
    n = 400
    table = Table(
        "t",
        {
            "s": rng.choice(["x", "y", "it's", "zz"], n),
            "t": rng.choice(["p", "q"], n),
            "i": rng.integers(0, 7, n),
            "f": rng.normal(size=n),
        },
    )
    if tmp_path is None:
        for name in ("s", "t", "i"):
            table.dictionary(name)  # what grouping on a dimension leaves cached
        return table
    chunks.write_table(table, tmp_path / "ds", chunk_rows=64)
    return chunks.open_table(tmp_path / "ds")


_SHAPES = {
    "eq present": E.eq("s", "x"),
    "eq absent": E.eq("s", "nope"),
    "neq present": E.neq("s", "it's"),
    "neq absent": E.neq("s", "nope"),
    "eq wrong type": E.eq("s", 3),
    "int eq": E.eq("i", 3),
    "int eq float literal": E.eq("i", 3.0),
    "int eq wrong type": E.eq("i", "3"),
    "int eq bool literal": E.eq("i", True),
    "ordering on codes": E.Comparison("<", E.col("s"), E.lit("y")),
    "literal on the left": E.between("i", 2, 4),
    "in present and absent": E.isin("s", ["x", "nope", "zz"]),
    "in all absent": E.isin("s", ["nope"]),
    "in mixed types": E.isin("s", ["x", 3]),
    "in ints": E.isin("i", [0, 6, 9]),
    "float column": E.Comparison(">", E.col("f"), E.lit(0.0)),
    "column vs column": E.Comparison("=", E.col("s"), E.col("t")),
    "and": E.And((E.eq("s", "x"), E.eq("t", "p"), E.Comparison(">", E.col("f"), E.lit(0.0)))),
    "or": E.Or((E.eq("s", "x"), E.eq("t", "nope"))),
    "not": E.Not(E.isin("s", ["y", "zz"])),
    "case flag": E.CaseWhen(E.eq("s", "x"), E.lit(1), E.lit(0)),
    "case value": E.CaseWhen(E.eq("t", "p"), E.col("f"), E.lit(0.0)),
    "nested case": E.CaseWhen(
        E.eq("s", "x"),
        E.CaseWhen(E.neq("t", "p"), E.lit(2), E.lit(1)),
        E.CaseWhen(E.isin("i", [1, 2]), E.col("i"), E.lit(-1)),
    ),
    "two-bit flag": E.Arithmetic(
        "+",
        E.Arithmetic("*", E.lit(2), E.CaseWhen(E.eq("s", "x"), E.lit(1), E.lit(0))),
        E.CaseWhen(E.eq("t", "q"), E.lit(1), E.lit(0)),
    ),
    "constant": E.true(),
}


@pytest.mark.parametrize("backing", ["resident", "memmap"])
@pytest.mark.parametrize("shape", list(_SHAPES))
def test_code_space_equals_value_evaluation(shape, backing, tmp_path):
    from repro.db.storage import make_store

    expr = _SHAPES[shape]
    table = _coded_table(tmp_path if backing == "memmap" else None)
    store = make_store("col", table)
    start, stop = 37, 311
    values = store.scan(list(table.column_names), start, stop)
    dictionaries = table.dictionaries(table.column_names, start, stop)
    # The float column is never dictionary-backed; the int one only where a
    # dictionary is already cached (the chunk store encodes strings only).
    assert set(dictionaries) == ({"s", "t", "i"} if backing == "resident" else {"s", "t"})

    expected = np.asarray(expr.evaluate(values))
    needed = expr.value_columns(dictionaries)
    assert needed <= expr.referenced_columns()
    assert expr.value_columns() == expr.referenced_columns()
    # Only the columns value_columns() names are handed over decoded.
    got = np.asarray(expr.evaluate({name: values[name] for name in needed}, dictionaries))
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_code_space_skips_decoding_where_it_can():
    dictionaries = {"s": (np.array([0, 1, 0], np.int32), np.array(["x", "y"]))}
    assert E.eq("s", "x").value_columns(dictionaries) == frozenset()
    assert E.isin("s", ["x"]).value_columns(dictionaries) == frozenset()
    assert E.CaseWhen(E.eq("s", "x"), E.col("m"), E.lit(0)).value_columns(dictionaries) == {"m"}
    # A literal of another type, or a second use as a value, needs the values.
    assert E.eq("s", 1).value_columns(dictionaries) == {"s"}
    both = E.And((E.eq("s", "x"), E.Comparison("=", E.col("s"), E.col("u"))))
    assert both.value_columns(dictionaries) == {"s", "u"}
    assert E.eq("s", "x").evaluate({}, dictionaries).tolist() == [True, False, True]
    with pytest.raises(QueryError):
        E.eq("s", 1).evaluate({}, dictionaries)
