"""Shared fixtures: small deterministic tables used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.table import Table
from repro.db.types import ColumnRole


def assert_query_results_equal(expected, actual) -> None:
    """Two backends' QueryResults must match: groups, values, accounting.

    The cross-backend equivalence contract (repro/db/backends/base.py),
    shared by the unit tests and the hypothesis property suite.
    """
    assert actual.n_groups == expected.n_groups
    assert actual.input_rows == expected.input_rows
    assert set(actual.groups) == set(expected.groups)
    for name in expected.groups:
        assert (
            np.asarray(actual.groups[name]).tolist()
            == np.asarray(expected.groups[name]).tolist()
        )
    assert set(actual.values) == set(expected.values)
    for name in expected.values:
        np.testing.assert_allclose(
            np.asarray(actual.values[name], dtype=float),
            np.asarray(expected.values[name], dtype=float),
            equal_nan=True,
            rtol=1e-9,
            atol=1e-12,
        )


@pytest.fixture(scope="session")
def assert_backends_agree():
    """Fixture handing tests the shared result-equivalence assertion."""
    return assert_query_results_equal


@pytest.fixture(scope="session")
def air_300k() -> Table:
    """The scoreboard's ``engine_resident`` table; ~4 s to build, so once."""
    from repro.data import registry

    return registry.build("air", n_rows=300_000)


@pytest.fixture(scope="session")
def tiny_table() -> Table:
    """Six rows, fully enumerable by hand in assertions."""
    return Table(
        "tiny",
        {
            "color": ["red", "blue", "red", "blue", "red", "green"],
            "size": ["S", "L", "L", "S", "S", "S"],
            "price": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            "weight": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        },
        roles={
            "color": ColumnRole.DIMENSION,
            "size": ColumnRole.DIMENSION,
            "price": ColumnRole.MEASURE,
            "weight": ColumnRole.MEASURE,
        },
    )


@pytest.fixture(scope="session")
def census_like() -> Table:
    """A 20K-row census-style table with one planted deviation.

    ``capital`` deviates by ``sex`` for unmarried rows only; ``age`` is
    independent of everything — the paper's Figure 1 situation.
    """
    rng = np.random.default_rng(42)
    n = 20_000
    sex = rng.choice(["F", "M"], n)
    marital = rng.choice(["Married", "Unmarried"], n)
    capital = rng.gamma(2.0, 500.0, n)
    unmarried_f = (marital == "Unmarried") & (sex == "F")
    capital[unmarried_f] *= 2.0
    return Table(
        "census_like",
        {
            "sex": sex,
            "marital": marital,
            "race": rng.choice(["A", "B", "C", "D"], n),
            "capital": capital,
            "age": rng.uniform(18, 80, n),
        },
        roles={
            "sex": ColumnRole.DIMENSION,
            "marital": ColumnRole.OTHER,
            "race": ColumnRole.DIMENSION,
            "capital": ColumnRole.MEASURE,
            "age": ColumnRole.MEASURE,
        },
    )
