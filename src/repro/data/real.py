"""Surrogates for the paper's real datasets (Table 1).

Each builder reproduces the *shape* of the original: row count, number of
dimension attributes |A|, number of measures |M| (hence the view count
|A| x |M|), plausible per-dimension cardinalities, and a split attribute
defining the analyst's target query.  Planted deviations (strength ladders)
shape the true-utility distribution across views the way the paper's
Figure 10 shows — e.g. BANK has two standout views then a near-tie cluster,
DIAB has ten closely-clustered top views.

The split attribute has role OTHER: like the paper's census task (compare
unmarried vs. married adults), the attribute you condition on is not itself
a view dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.distributions import categorical_column, measure_column
from repro.data.planting import PlantedView, apply_plantings
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class RealRecipe:
    """Schema recipe for one real-dataset surrogate."""

    name: str
    n_rows: int
    #: (column name, distinct values, skew)
    dims: tuple[tuple[str, int, float], ...]
    #: (column name, distribution kind, scale)
    measures: tuple[tuple[str, str, float], ...]
    split_column: str
    target_value: str
    other_value: str
    target_fraction: float
    plantings: tuple[PlantedView, ...] = field(default=())
    #: Maximum strength of the random low-grade deviation every non-planted
    #: (dimension, measure) pair receives.  Real datasets never have views
    #: with *zero* deviation; this background produces the continuous
    #: utility spectrum of the paper's Figure 10 (and gives CI pruning a
    #: boundary it can actually separate).
    background_deviation: float = 0.10


def build_real(recipe: RealRecipe, seed: int = 0, n_rows: int | None = None) -> Table:
    """Materialize a recipe as a :class:`Table` (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    n = n_rows if n_rows is not None else recipe.n_rows
    if n <= 0:
        raise DatasetError(f"n_rows must be positive, got {n}")

    data: dict[str, np.ndarray] = {}
    roles: dict[str, ColumnRole] = {}

    split = np.where(
        rng.random(n) < recipe.target_fraction, recipe.target_value, recipe.other_value
    )
    data[recipe.split_column] = split
    roles[recipe.split_column] = ColumnRole.OTHER
    in_target = split == recipe.target_value

    codes_cache: dict[str, np.ndarray] = {}
    group_counts: dict[str, int] = {}
    for dim_name, distinct, skew in recipe.dims:
        data[dim_name], codes = categorical_column(
            n, distinct, rng, prefix=f"{dim_name}_", skew=skew
        )
        roles[dim_name] = ColumnRole.DIMENSION
        codes_cache[dim_name] = codes
        group_counts[dim_name] = int(codes.max()) + 1

    by_measure: dict[str, list[PlantedView]] = {}
    for planting in recipe.plantings:
        if planting.dimension not in codes_cache:
            raise DatasetError(
                f"{recipe.name}: planting references unknown dimension "
                f"{planting.dimension!r}"
            )
        by_measure.setdefault(planting.measure, []).append(planting)

    for measure_name, kind, scale in recipe.measures:
        values = measure_column(n, rng, kind=kind, scale=scale)
        explicit = by_measure.get(measure_name, ())
        planted_dims = {p.dimension for p in explicit}
        plantings = [
            (
                codes_cache[p.dimension],
                group_counts[p.dimension],
                p.strength,
            )
            for p in explicit
        ]
        # Background: every other (dimension, measure) pair gets a small
        # random deviation so true utilities form a continuous spectrum.
        for dim_name, _, _ in recipe.dims:
            if dim_name in planted_dims:
                continue
            strength = float(rng.uniform(0.0, recipe.background_deviation))
            plantings.append(
                (codes_cache[dim_name], group_counts[dim_name], strength)
            )
        values = apply_plantings(values, plantings, in_target, rng)
        data[measure_name] = values
        roles[measure_name] = ColumnRole.MEASURE

    return Table(recipe.name, data, roles=roles)


# --------------------------------------------------------------------------- #
# recipes — shapes from Table 1 of the paper
# --------------------------------------------------------------------------- #

BANK_RECIPE = RealRecipe(
    name="bank",
    n_rows=40_000,
    dims=(
        ("job", 12, 0.6), ("marital", 3, 0.3), ("education", 8, 0.5),
        ("default", 2, 0.2), ("housing", 2, 0.1), ("loan", 2, 0.3),
        ("contact", 3, 0.4), ("month", 12, 0.4), ("poutcome", 4, 0.6),
        ("day_of_week", 7, 0.0), ("region", 10, 0.5),
    ),
    measures=(
        ("age", "uniform", 45.0), ("balance", "lognormal", 1500.0),
        ("duration", "gamma", 260.0), ("campaign", "gamma", 3.0),
        ("pdays", "gamma", 40.0), ("previous", "gamma", 1.0),
        ("emp_var_rate", "uniform", 2.0),
    ),
    split_column="subscribed",
    target_value="yes",
    other_value="no",
    target_fraction=0.3,
    # Figure 10a shape: #1 and #2 well separated, #3..#9 nearly tied,
    # #10 separated again, the rest a low tail.
    plantings=(
        PlantedView("job", "balance", 0.85),
        PlantedView("month", "duration", 0.70),
        PlantedView("education", "balance", 0.47),
        PlantedView("poutcome", "duration", 0.465),
        PlantedView("contact", "campaign", 0.46),
        PlantedView("region", "pdays", 0.455),
        PlantedView("job", "duration", 0.45),
        PlantedView("month", "campaign", 0.445),
        PlantedView("education", "age", 0.44),
        PlantedView("poutcome", "previous", 0.36),
        PlantedView("marital", "balance", 0.18),
        PlantedView("housing", "age", 0.15),
    ),
)

DIAB_RECIPE = RealRecipe(
    name="diab",
    n_rows=100_000,
    dims=(
        ("race", 6, 0.7), ("gender", 3, 0.2), ("age_bucket", 10, 0.3),
        ("admission_type", 8, 0.6), ("discharge_disposition", 10, 0.7),
        ("admission_source", 9, 0.6), ("insulin", 4, 0.4),
        ("metformin", 4, 0.6), ("change", 2, 0.1),
        ("diabetes_med", 2, 0.3), ("payer_code", 11, 0.5),
    ),
    measures=(
        ("time_in_hospital", "gamma", 4.0), ("num_lab_procedures", "gamma", 43.0),
        ("num_procedures", "gamma", 1.5), ("num_medications", "gamma", 16.0),
        ("number_outpatient", "gamma", 0.8), ("number_emergency", "gamma", 0.6),
        ("number_inpatient", "gamma", 1.2), ("number_diagnoses", "gamma", 7.0),
    ),
    split_column="readmitted",
    target_value="yes",
    other_value="no",
    target_fraction=0.4,
    # Figure 10b shape: top ten utilities closely clustered, sparse after.
    plantings=tuple(
        PlantedView(dim, measure, float(strength))
        for (dim, measure), strength in zip(
            [
                ("race", "time_in_hospital"), ("age_bucket", "num_medications"),
                ("admission_type", "num_lab_procedures"), ("insulin", "time_in_hospital"),
                ("discharge_disposition", "number_inpatient"),
                ("admission_source", "num_medications"), ("payer_code", "num_lab_procedures"),
                ("metformin", "number_diagnoses"), ("age_bucket", "number_outpatient"),
                ("race", "number_emergency"),
            ],
            np.linspace(0.60, 0.57, 10),
        )
    )
    + (
        PlantedView("gender", "num_procedures", 0.30),
        PlantedView("change", "number_diagnoses", 0.22),
        PlantedView("diabetes_med", "num_medications", 0.15),
    ),
)

AIR_RECIPE = RealRecipe(
    name="air",
    n_rows=6_000_000,
    dims=(
        ("carrier", 14, 0.6), ("origin_state", 50, 0.8), ("dest_state", 50, 0.8),
        ("month", 12, 0.1), ("day_of_week", 7, 0.0), ("dep_time_block", 6, 0.3),
        ("arr_time_block", 6, 0.3), ("distance_group", 11, 0.4),
        ("cancellation_code", 4, 0.9), ("origin_airport", 300, 1.0),
        ("dest_airport", 300, 1.0), ("aircraft_type", 30, 0.7),
    ),
    measures=(
        ("dep_delay", "gamma", 12.0), ("arr_delay", "gamma", 10.0),
        ("taxi_out", "gamma", 16.0), ("taxi_in", "gamma", 7.0),
        ("air_time", "gamma", 110.0), ("actual_elapsed", "gamma", 135.0),
        ("distance", "lognormal", 750.0), ("carrier_delay", "gamma", 4.0),
        ("weather_delay", "gamma", 3.0),
    ),
    split_column="delayed",
    target_value="yes",
    other_value="no",
    target_fraction=0.22,
    plantings=(
        PlantedView("carrier", "dep_delay", 0.8),
        PlantedView("month", "weather_delay", 0.65),
        PlantedView("dep_time_block", "taxi_out", 0.5),
        PlantedView("origin_state", "arr_delay", 0.42),
        PlantedView("distance_group", "air_time", 0.35),
        PlantedView("day_of_week", "dep_delay", 0.25),
        PlantedView("aircraft_type", "carrier_delay", 0.18),
    ),
)

CENSUS_RECIPE = RealRecipe(
    name="census",
    n_rows=21_000,
    dims=(
        ("workclass", 8, 0.7), ("education", 16, 0.5), ("occupation", 14, 0.4),
        ("relationship", 6, 0.4), ("race", 5, 0.8), ("sex", 2, 0.1),
        ("native_region", 10, 0.9), ("age_bucket", 9, 0.2),
        ("hours_bucket", 5, 0.3), ("income_bracket", 2, 0.5),
    ),
    measures=(
        ("capital_gain", "lognormal", 900.0), ("capital_loss", "gamma", 90.0),
        ("hours_per_week", "uniform", 40.0), ("fnlwgt", "lognormal", 180_000.0),
    ),
    split_column="marital_status",
    target_value="Unmarried",
    other_value="Married",
    target_fraction=0.45,
    # The user-study task (§6.1): ~6 of the views genuinely interesting,
    # led by (sex, capital_gain) — the paper's Figure 1a example.
    plantings=(
        PlantedView("sex", "capital_gain", 0.80),
        PlantedView("workclass", "capital_gain", 0.65),
        PlantedView("education", "hours_per_week", 0.55),
        PlantedView("occupation", "capital_loss", 0.45),
        PlantedView("age_bucket", "capital_gain", 0.40),
        PlantedView("income_bracket", "hours_per_week", 0.35),
    ),
)

HOUSING_RECIPE = RealRecipe(
    name="housing",
    n_rows=500,
    dims=(
        ("neighborhood", 10, 0.4), ("house_type", 4, 0.3),
        ("condition", 5, 0.2), ("zone", 4, 0.5),
    ),
    measures=(
        ("price", "lognormal", 250_000.0), ("lot_area", "lognormal", 9_000.0),
        ("living_area", "gamma", 1_800.0), ("basement_area", "gamma", 700.0),
        ("garage_area", "gamma", 450.0), ("bedrooms", "gamma", 3.0),
        ("bathrooms", "gamma", 2.0), ("year_age", "gamma", 35.0),
        ("tax", "gamma", 3_500.0), ("insurance", "gamma", 1_200.0),
    ),
    split_column="sold_above_asking",
    target_value="yes",
    other_value="no",
    target_fraction=0.4,
    plantings=(
        PlantedView("neighborhood", "price", 0.75),
        PlantedView("house_type", "living_area", 0.55),
        PlantedView("zone", "tax", 0.45),
        PlantedView("condition", "insurance", 0.30),
    ),
)

MOVIES_RECIPE = RealRecipe(
    name="movies",
    n_rows=1_000,
    dims=(
        ("genre", 12, 0.6), ("studio", 15, 0.7), ("rating", 5, 0.4),
        ("release_month", 12, 0.2), ("country", 8, 0.9), ("language", 6, 0.9),
        ("franchise", 2, 0.3), ("decade", 6, 0.5),
    ),
    measures=(
        ("budget", "lognormal", 40e6), ("gross", "lognormal", 90e6),
        ("opening_weekend", "lognormal", 20e6), ("dvd_sales", "lognormal", 8e6),
        ("runtime", "uniform", 110.0), ("critic_score", "uniform", 55.0),
        ("audience_score", "uniform", 60.0), ("marketing_spend", "lognormal", 25e6),
    ),
    split_column="won_award",
    target_value="yes",
    other_value="no",
    target_fraction=0.3,
    plantings=(
        PlantedView("genre", "gross", 0.7),
        PlantedView("studio", "budget", 0.55),
        PlantedView("release_month", "opening_weekend", 0.45),
        PlantedView("rating", "audience_score", 0.35),
        PlantedView("decade", "critic_score", 0.25),
    ),
)
