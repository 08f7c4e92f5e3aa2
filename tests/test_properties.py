"""Cross-cutting property-based tests over the whole stack.

These are the heavyweight invariants: randomly generated queries must agree
with direct numpy computation, and — with nested AND/OR/NOT/IN/range
predicates — give the same results on the native executor and on SQLite
running the generated SQL text; EMD must agree with scipy's Wasserstein
distance; and the engine's utility estimates must converge monotonically in
expectation as phases accumulate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.core.engine import ExecutionEngine
from repro.config import EngineConfig
from repro.core.view import ViewSpace
from repro.db import expressions as E
from repro.db.backends import NativeBackend, SQLiteBackend
from repro.db.catalog import TableMeta
from repro.db.cost import CostModel
from repro.db.executor import QueryExecutor
from repro.db.query import (
    AggregateFunction,
    AggregateQuery,
    AggregateSpec,
    DerivedColumn,
)
from repro.db.storage import make_store
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.metrics import get_metric, normalize_distribution


# --------------------------------------------------------------------------- #
# random tables and queries
# --------------------------------------------------------------------------- #

@st.composite
def _random_table(draw) -> Table:
    n = draw(st.integers(5, 120))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n_dims = draw(st.integers(1, 3))
    n_measures = draw(st.integers(1, 2))
    data: dict[str, np.ndarray] = {}
    roles: dict[str, ColumnRole] = {}
    for i in range(n_dims):
        cardinality = draw(st.integers(1, 6))
        data[f"d{i}"] = rng.integers(0, cardinality, n).astype(str)
        roles[f"d{i}"] = ColumnRole.DIMENSION
    for j in range(n_measures):
        data[f"m{j}"] = rng.gamma(2.0, 10.0, n)
        roles[f"m{j}"] = ColumnRole.MEASURE
    return Table("rand", data, roles=roles)


@st.composite
def _random_query(draw, table: Table) -> AggregateQuery:
    dims = list(table.dimension_names())
    measures = list(table.measure_names())
    group_by = tuple(
        draw(
            st.lists(st.sampled_from(dims), min_size=1, max_size=len(dims), unique=True)
        )
    )
    funcs = draw(
        st.lists(
            st.sampled_from(list(AggregateFunction)), min_size=1, max_size=3
        )
    )
    aggregates = []
    for i, func in enumerate(funcs):
        argument = None if func is AggregateFunction.COUNT else draw(
            st.sampled_from(measures)
        )
        aggregates.append(AggregateSpec(func, argument, f"agg_{i}"))
    predicate = None
    if draw(st.booleans()):
        dim = draw(st.sampled_from(dims))
        value = draw(st.sampled_from(sorted(set(table.column(dim).tolist()))))
        predicate = E.eq(dim, value)
        if draw(st.booleans()):
            predicate = E.Not(predicate)
    return AggregateQuery(
        table="rand",
        group_by=group_by,
        aggregates=tuple(aggregates),
        predicate=predicate,
    )


@st.composite
def _table_and_query(draw):
    table = draw(_random_table())
    return table, draw(_random_query(table))


@settings(max_examples=40, deadline=None)
@given(_table_and_query())
def test_property_executor_matches_numpy(table_and_query):
    """The executor must agree with a naive numpy group-by on every query."""
    table, query = table_and_query
    executor = QueryExecutor(make_store("row", table))
    result, _ = executor.execute(query)

    mask = (
        query.predicate.evaluate(
            {c: table.column(c) for c in table.column_names}
        ).astype(bool)
        if query.predicate is not None
        else np.ones(table.nrows, dtype=bool)
    )
    key_arrays = [table.column(g)[mask] for g in query.group_by]
    rows = list(zip(*key_arrays)) if key_arrays else []
    expected_groups = sorted(set(rows))
    assert result.n_groups == len(expected_groups)

    got_groups = list(
        zip(*(result.groups[g].tolist() for g in query.group_by))
    )
    assert got_groups == expected_groups

    for spec in query.aggregates:
        values = (
            table.column(spec.argument)[mask]
            if isinstance(spec.argument, str)
            else None
        )
        for gi, group in enumerate(expected_groups):
            member = np.array([r == group for r in rows])
            if spec.func is AggregateFunction.COUNT:
                expected = member.sum()
            else:
                subset = values[member]
                expected = {
                    AggregateFunction.SUM: subset.sum(),
                    AggregateFunction.AVG: subset.mean(),
                    AggregateFunction.MIN: subset.min(),
                    AggregateFunction.MAX: subset.max(),
                }[spec.func]
            got = result.values[spec.alias][gi]
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------------------- #
# cross-backend equivalence
# --------------------------------------------------------------------------- #

#: Dimension value pool for the backend property: plain values, values with
#: embedded single quotes (SQL escaping), and SQL-looking text.
_QUOTEY_VALUES = ("a", "b'c", "O'Brien", "it''s", "x from y")


@st.composite
def _backend_table(draw) -> Table:
    """Random table whose dimension values exercise SQL string quoting."""
    n = draw(st.integers(5, 120))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n_dims = draw(st.integers(1, 3))
    n_measures = draw(st.integers(1, 2))
    data: dict[str, np.ndarray] = {}
    roles: dict[str, ColumnRole] = {}
    for i in range(n_dims):
        cardinality = draw(st.integers(1, len(_QUOTEY_VALUES)))
        data[f"d{i}"] = rng.choice(_QUOTEY_VALUES[:cardinality], n)
        roles[f"d{i}"] = ColumnRole.DIMENSION
    for j in range(n_measures):
        data[f"m{j}"] = rng.gamma(2.0, 10.0, n)
        roles[f"m{j}"] = ColumnRole.MEASURE
    return Table("rand", data, roles=roles)


_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def _backend_predicate(draw, table: Table, depth: int = 2) -> E.Expression:
    """A nested predicate: AND/OR of 2-3 operands, NOT, ``=`` and IN over
    quoted dimension values, every comparison and BETWEEN on a measure.

    Dimension literals come from the full value pool (not just present
    values), so some match zero rows — the empty-group edge case.  Measure
    literals are stored values, so every comparison hits its boundary.
    """
    kinds = ["eq", "in", "compare", "between"]
    if depth:
        kinds += ["and", "or", "not"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("and", "or"):
        operands = draw(
            st.lists(_backend_predicate(table, depth - 1), min_size=2, max_size=3)
        )
        return (E.And if kind == "and" else E.Or)(tuple(operands))
    if kind == "not":
        return E.Not(draw(_backend_predicate(table, depth - 1)))
    if kind == "eq":
        dim = draw(st.sampled_from(list(table.dimension_names())))
        return E.eq(dim, draw(st.sampled_from(_QUOTEY_VALUES)))
    if kind == "in":
        dim = draw(st.sampled_from(list(table.dimension_names())))
        values = st.lists(
            st.sampled_from(_QUOTEY_VALUES), min_size=1, max_size=3, unique=True
        )
        return E.isin(dim, draw(values))
    measure = draw(st.sampled_from(list(table.measure_names())))
    stored = st.sampled_from(table.column(measure).tolist())
    if kind == "between":
        low, high = sorted((draw(stored), draw(stored)))
        return E.between(measure, low, high)
    op = draw(st.sampled_from(_COMPARISONS))
    return E.Comparison(op, E.col(measure), E.lit(draw(stored)))


@st.composite
def _backend_query(draw, table: Table) -> AggregateQuery:
    """Random query: quoted predicates, empty groups, derived flag columns."""
    dims = list(table.dimension_names())
    measures = list(table.measure_names())
    group_by = tuple(
        draw(
            st.lists(st.sampled_from(dims), min_size=0, max_size=len(dims), unique=True)
        )
    )
    derived: tuple[DerivedColumn, ...] = ()
    if draw(st.booleans()):
        # The sharing optimizer's combined-query shape: group by a CASE flag.
        flag_dim = draw(st.sampled_from(dims))
        flag_value = draw(st.sampled_from(_QUOTEY_VALUES))
        derived = (
            DerivedColumn(
                "flag", E.CaseWhen(E.eq(flag_dim, flag_value), E.lit(1), E.lit(0))
            ),
        )
        group_by = group_by + ("flag",)
    funcs = draw(
        st.lists(st.sampled_from(list(AggregateFunction)), min_size=1, max_size=3)
    )
    aggregates = []
    for i, func in enumerate(funcs):
        argument = None if func is AggregateFunction.COUNT else draw(
            st.sampled_from(measures)
        )
        aggregates.append(AggregateSpec(func, argument, f"agg_{i}"))
    predicate = draw(_backend_predicate(table)) if draw(st.booleans()) else None
    if not group_by and not aggregates:  # pragma: no cover - unreachable guard
        group_by = (dims[0],)
    return AggregateQuery(
        table="rand",
        group_by=group_by,
        aggregates=tuple(aggregates),
        predicate=predicate,
        derived=derived,
    )


@st.composite
def _backend_table_and_query(draw):
    table = draw(_backend_table())
    return table, draw(_backend_query(table))


#: A fixed table for the explicit examples below: dimension values from the
#: quoted pool, and ``m0`` holds the boundaries the comparisons name plus a
#: value whose shortest spelling SQLite 3.40 reads as a neighbouring double.
_EXAMPLE_TABLE = Table(
    "rand",
    {
        "d0": ["a", "b'c", "O'Brien", "a", "x from y", "b'c", "a"],
        "d1": ["it''s", "a", "it''s", "O'Brien", "a", "it''s", "a"],
        "m0": [1.5, 2.5, 4.0, 8.0, 16.0, 32.0, 33.18487661462839],
    },
    roles={
        "d0": ColumnRole.DIMENSION,
        "d1": ColumnRole.DIMENSION,
        "m0": ColumnRole.MEASURE,
    },
)


def _example(predicate: E.Expression) -> tuple[Table, AggregateQuery]:
    """A count and sum by ``d0`` over ``_EXAMPLE_TABLE`` under ``predicate``."""
    return _EXAMPLE_TABLE, AggregateQuery(
        table="rand",
        group_by=("d0",),
        aggregates=(
            AggregateSpec(AggregateFunction.COUNT, None, "agg_0"),
            AggregateSpec(AggregateFunction.SUM, "m0", "agg_1"),
        ),
        predicate=predicate,
    )


# Each example below fails for one way of rendering a predicate wrongly,
# whatever Hypothesis draws: IN read as NOT IN; an AND that loses an
# operand; ``<=``/``>=`` read as ``<``/``>`` (the boundary rows drop out);
# a float literal SQLite reads as a neighbouring double.
@settings(max_examples=60, deadline=None)
@example(table_and_query=_example(E.isin("d0", ["b'c", "O'Brien"])))
@example(
    table_and_query=_example(
        E.And((E.eq("d0", "a"), E.isin("d1", ["it''s", "a"]), E.Not(E.eq("d1", "a"))))
    )
)
@example(
    table_and_query=_example(
        E.Or(
            (
                E.Comparison("<=", E.col("m0"), E.lit(2.5)),
                E.Comparison(">=", E.col("m0"), E.lit(32.0)),
                E.between("m0", 4.0, 8.0),
            )
        )
    )
)
@example(table_and_query=_example(E.eq("m0", 33.18487661462839)))
@given(table_and_query=_backend_table_and_query())
def test_property_backends_agree(assert_backends_agree, table_and_query):
    """Every random query yields identical results on native and sqlite.

    Covers quoted-string dimension values, nested AND/OR/NOT/IN/comparison
    predicates, predicates matching zero rows (empty groups / empty global
    aggregates), and derived CASE flag columns — the combined
    target/reference query shape.
    """
    table, query = table_and_query
    store = make_store("col", table)
    native = NativeBackend(store)
    sqlite = SQLiteBackend(store)
    try:
        native_result, _ = native.execute(query)
        sqlite_result, _ = sqlite.execute(query)
        assert_backends_agree(native_result, sqlite_result)
    finally:
        sqlite.close()


# --------------------------------------------------------------------------- #
# metric cross-checks
# --------------------------------------------------------------------------- #

@given(
    raw_p=st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=10),
    raw_q=st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=10),
)
def test_property_emd_matches_scipy_wasserstein(raw_p, raw_q):
    """Our normalized EMD equals scipy's Wasserstein distance / (n-1)."""
    n = min(len(raw_p), len(raw_q))
    p = normalize_distribution(np.array(raw_p[:n]))
    q = normalize_distribution(np.array(raw_q[:n]))
    positions = np.arange(n, dtype=float)
    expected = scipy_stats.wasserstein_distance(positions, positions, p, q) / (n - 1)
    assert get_metric("emd")(p, q) == pytest.approx(expected, abs=1e-9)


@given(
    raw=st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=10),
    shift=st.floats(0.0, 0.5),
)
def test_property_euclidean_scales_with_perturbation(raw, shift):
    """Moving mass monotonically increases Euclidean distance from the start."""
    p = normalize_distribution(np.array(raw))
    q = p.copy()
    q[0] += shift
    q = q / q.sum()
    small = get_metric("euclidean")(p, q)
    q2 = p.copy()
    q2[0] += 2 * shift
    q2 = q2 / q2.sum()
    large = get_metric("euclidean")(p, q2)
    assert large >= small - 1e-12


# --------------------------------------------------------------------------- #
# engine-level invariants
# --------------------------------------------------------------------------- #

@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 100), n_phases=st.sampled_from([2, 5, 10]))
def test_property_phase_count_never_changes_final_utilities(seed, n_phases):
    """Without pruning, phased execution is exact for any phase count."""
    rng = np.random.default_rng(seed)
    n = 600
    table = Table(
        "rand",
        {
            "d": rng.integers(0, 4, n).astype(str),
            "part": rng.choice(["t", "r"], n),
            "m": rng.gamma(2.0, 5.0, n),
        },
        roles={
            "d": ColumnRole.DIMENSION,
            "part": ColumnRole.OTHER,
            "m": ColumnRole.MEASURE,
        },
    )
    views = list(ViewSpace.enumerate(TableMeta.of(table)))
    target = E.eq("part", "t")

    def run(config):
        engine = ExecutionEngine(
            make_store("col", table), config, CostModel()
        )
        return engine.run(views, target, k=1, strategy="comb", pruner="none")

    base = run(EngineConfig(store="col", n_phases=1))
    phased = run(EngineConfig(store="col", n_phases=n_phases))
    for key in base.utilities:
        assert phased.utilities[key] == pytest.approx(base.utilities[key], abs=1e-12)


# --------------------------------------------------------------------------- #
# combined aggregates (§4.1)
# --------------------------------------------------------------------------- #


@st.composite
def _fusion_case(draw):
    """A table plus a fused multi-aggregate query and its per-aggregate split.

    The sharing planner (§4.1) puts every aggregate over one group-by into one
    query, or into chunks of ``max_aggregates_per_query``, so a view must read
    the same bits from a multi-aggregate pass as from its aggregate alone.
    """
    table = draw(_random_table())
    dims = list(table.dimension_names())
    measures = list(table.measure_names())
    group_by = tuple(
        draw(
            st.lists(st.sampled_from(dims), min_size=1, max_size=len(dims), unique=True)
        )
    )
    funcs = draw(
        st.lists(st.sampled_from(list(AggregateFunction)), min_size=2, max_size=4)
    )
    aggregates = []
    for i, func in enumerate(funcs):
        argument = None if func is AggregateFunction.COUNT else draw(
            st.sampled_from(measures)
        )
        aggregates.append(AggregateSpec(func, argument, f"agg_{i}"))
    predicate = None
    if draw(st.booleans()):
        dim = draw(st.sampled_from(dims))
        value = draw(st.sampled_from(sorted(set(table.column(dim).tolist()))))
        predicate = E.eq(dim, value)
    fused = AggregateQuery(
        table="rand",
        group_by=group_by,
        aggregates=tuple(aggregates),
        predicate=predicate,
    )
    separate = [
        AggregateQuery(
            table="rand",
            group_by=group_by,
            aggregates=(spec,),
            predicate=predicate,
        )
        for spec in aggregates
    ]
    chunk_rows = draw(st.sampled_from([None, 3, 7, 16]))
    store = draw(st.sampled_from(["row", "col"]))
    return table, fused, separate, chunk_rows, store


@settings(max_examples=60, deadline=None)
@given(_fusion_case())
def test_property_fused_aggregates_match_separate_queries(case):
    """A fused multi-aggregate pass is bitwise-equal to per-aggregate queries.

    The contract combined aggregates rely on: each aggregate's accumulation
    is independent and the group set is determined by the keys and predicate
    alone, so merging N single-aggregate queries into one multi-aggregate
    query may never change a single bit of any result — for any schema,
    predicate, store layout, or streaming chunk size.
    """
    table, fused, separate, chunk_rows, store_kind = case
    backing = make_store(store_kind, table)
    backing.stream_chunk_rows = chunk_rows
    executor = QueryExecutor(backing)

    fused_result, _ = executor.execute(fused)
    for query in separate:
        single, _ = executor.execute(query)
        assert single.n_groups == fused_result.n_groups
        for dim in fused.group_by:
            assert np.array_equal(single.groups[dim], fused_result.groups[dim])
        alias = query.aggregates[0].alias
        assert np.array_equal(
            single.values[alias], fused_result.values[alias], equal_nan=True
        )
