"""Synthetic dataset generators: SYN and SYN* (paper Table 1).

* ``SYN`` — 1M rows (scale-controllable), 50 dimensions with distinct counts
  log-uniform in [1, 1000], 20 measures → 1000 views.  Used by the sharing
  and baseline experiments (Figures 6, 7, 8b, 9).
* ``SYN*-10`` / ``SYN*-100`` — 20 dimensions with exactly 10 (resp. 100)
  distinct values each and a single measure.  Used by the group-by
  memory-budget experiment (Figure 8a), where a query grouping by ``p``
  attributes needs memory ~ ``min(10^p, num_rows)``.

Every synthetic table also carries a ``part`` column (role OTHER, so it is
not a view dimension) splitting rows into target (``'t'``) and reference
(``'r'``) slices, plus optional planted deviations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.distributions import categorical_column, measure_column
from repro.data.planting import PlantedView, apply_planting
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.exceptions import DatasetError

#: Name of the target/reference split column on generated datasets.
SPLIT_COLUMN = "part"
TARGET_VALUE = "t"
REFERENCE_VALUE = "r"


@dataclass(frozen=True)
class SyntheticConfig:
    """Recipe for one synthetic table."""

    name: str
    n_rows: int
    n_dimensions: int
    n_measures: int
    #: Either one distinct count for all dimensions, or (low, high) for a
    #: log-uniform draw per dimension (the paper's "varying # distinct").
    distinct_values: int | tuple[int, int] = (2, 1000)
    dimension_skew: float = 0.5
    target_fraction: float = 0.5
    plantings: tuple[PlantedView, ...] = ()
    measure_kind: str = "gamma"
    seed: int = 0
    extra_roles: dict[str, ColumnRole] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_rows <= 0 or self.n_dimensions <= 0 or self.n_measures <= 0:
            raise DatasetError(f"non-positive sizes in config {self.name!r}")
        if not 0.0 < self.target_fraction < 1.0:
            raise DatasetError("target_fraction must be in (0, 1)")


def dimension_name(i: int) -> str:
    return f"d{i:02d}"


def measure_name(i: int) -> str:
    return f"m{i:02d}"


def make_synthetic(config: SyntheticConfig) -> Table:
    """Generate a table from ``config`` (deterministic given the seed)."""
    rng = np.random.default_rng(config.seed)
    n = config.n_rows

    distinct_counts = _distinct_counts(config, rng)
    data: dict[str, np.ndarray] = {}
    roles: dict[str, ColumnRole] = {}
    dim_codes: dict[str, np.ndarray] = {}

    part = np.where(
        rng.random(n) < config.target_fraction, TARGET_VALUE, REFERENCE_VALUE
    )
    data[SPLIT_COLUMN] = part
    roles[SPLIT_COLUMN] = ColumnRole.OTHER
    in_target = part == TARGET_VALUE

    for i in range(config.n_dimensions):
        name = dimension_name(i)
        data[name], dim_codes[name] = categorical_column(
            n, distinct_counts[i], rng, prefix=f"{name}_", skew=config.dimension_skew
        )
        roles[name] = ColumnRole.DIMENSION

    plantings_by_measure: dict[str, list[PlantedView]] = {}
    for planting in config.plantings:
        plantings_by_measure.setdefault(planting.measure, []).append(planting)

    for j in range(config.n_measures):
        name = measure_name(j)
        values = measure_column(n, rng, kind=config.measure_kind)
        for planting in plantings_by_measure.get(name, ()):
            if planting.dimension not in dim_codes:
                raise DatasetError(
                    f"planting references unknown dimension {planting.dimension!r}"
                )
            codes = dim_codes[planting.dimension]
            n_groups = int(codes.max()) + 1 if len(codes) else 0
            values = apply_planting(
                values, codes, n_groups, in_target, planting.strength, rng
            )
        data[name] = values
        roles[name] = ColumnRole.MEASURE

    roles.update(config.extra_roles)
    return Table(config.name, data, roles=roles)


def _distinct_counts(config: SyntheticConfig, rng: np.random.Generator) -> list[int]:
    if isinstance(config.distinct_values, int):
        return [config.distinct_values] * config.n_dimensions
    low, high = config.distinct_values
    if low < 1 or high < low:
        raise DatasetError(f"bad distinct range {config.distinct_values!r}")
    log_draws = rng.uniform(np.log(low), np.log(high), size=config.n_dimensions)
    return [max(int(round(np.exp(x))), 1) for x in log_draws]


def make_syn(
    n_rows: int = 1_000_000,
    n_dimensions: int = 50,
    n_measures: int = 20,
    seed: int = 0,
) -> Table:
    """The paper's SYN table: 1000 views, varying distinct counts."""
    return make_synthetic(
        SyntheticConfig(
            name="syn",
            n_rows=n_rows,
            n_dimensions=n_dimensions,
            n_measures=n_measures,
            distinct_values=(2, 1000),
            plantings=_default_plantings(n_dimensions, n_measures),
            seed=seed,
        )
    )


def make_syn_star(
    distinct: int,
    n_rows: int = 1_000_000,
    n_dimensions: int = 20,
    seed: int = 0,
) -> Table:
    """SYN*-10 / SYN*-100: fixed distinct count per dimension, one measure."""
    if distinct not in (10, 100):
        raise DatasetError(f"paper defines SYN* for 10 or 100 distinct values, got {distinct}")
    return make_synthetic(
        SyntheticConfig(
            name=f"syn_star_{distinct}",
            n_rows=n_rows,
            n_dimensions=n_dimensions,
            n_measures=1,
            distinct_values=distinct,
            dimension_skew=0.0,
            seed=seed,
        )
    )


def _default_plantings(n_dimensions: int, n_measures: int) -> tuple[PlantedView, ...]:
    """A light planting so SYN has a meaningful (non-degenerate) top-k."""
    count = max(2, min(n_dimensions, n_measures, 8))
    strengths = np.linspace(0.7, 0.2, count)
    return tuple(
        PlantedView(dimension_name(i), measure_name(i), float(s))
        for i, s in enumerate(strengths)
    )
