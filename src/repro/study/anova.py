"""Two-factor ANOVA with interaction, for the §6.2 significance tests.

The paper analyzes a balanced 2 (tool) x 2 (dataset) within-subjects design
and reports e.g. "significant effect of tool on the number of bookmarks,
F(1,1) = 18.609, p < 0.001".  This is a standard fixed-effects two-way
ANOVA over a balanced table of observations; p-values come from scipy's F
distribution.  scipy is imported by :func:`two_factor_anova`, not by this
module: ``repro.core`` and ``repro.service`` import the §6.2 bookmark model
from this package, and a serving process must not pay ~65 MB for an F-test
only the Table 2 study runs (``pip install seedb-repro[study]``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError


@dataclass(frozen=True)
class FTest:
    """One ANOVA line: F statistic, degrees of freedom, p-value."""

    f_statistic: float
    df_effect: int
    df_error: int
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


@dataclass(frozen=True)
class TwoFactorAnova:
    """Results for factor A, factor B, and their interaction."""

    factor_a: FTest
    factor_b: FTest
    interaction: FTest


def two_factor_anova(table: np.ndarray) -> TwoFactorAnova:
    """Balanced two-way ANOVA.

    ``table`` has shape ``(levels_a, levels_b, replicates)`` — e.g.
    ``(2 tools, 2 datasets, 16 participants)`` of bookmark counts.
    """
    try:
        from scipy import stats
    except ImportError as exc:
        raise ReproError(
            "two_factor_anova needs scipy: pip install seedb-repro[study]"
        ) from exc
    arr = np.asarray(table, dtype=np.float64)
    if arr.ndim != 3:
        raise ReproError(f"expected (a, b, n) observations, got shape {arr.shape}")
    a_levels, b_levels, n = arr.shape
    if a_levels < 2 or b_levels < 2 or n < 2:
        raise ReproError(f"need >=2 levels per factor and >=2 replicates, got {arr.shape}")

    grand = arr.mean()
    mean_a = arr.mean(axis=(1, 2))
    mean_b = arr.mean(axis=(0, 2))
    mean_ab = arr.mean(axis=2)

    ss_a = b_levels * n * float(((mean_a - grand) ** 2).sum())
    ss_b = a_levels * n * float(((mean_b - grand) ** 2).sum())
    ss_ab = n * float(
        (
            (mean_ab - mean_a[:, None] - mean_b[None, :] + grand) ** 2
        ).sum()
    )
    ss_within = float(((arr - mean_ab[:, :, None]) ** 2).sum())

    df_a = a_levels - 1
    df_b = b_levels - 1
    df_ab = df_a * df_b
    df_within = a_levels * b_levels * (n - 1)
    ms_within = ss_within / df_within if df_within else float("nan")

    def f_test(ss: float, df: int) -> FTest:
        ms = ss / df
        if ms_within <= 0:
            return FTest(float("inf"), df, df_within, 0.0)
        f = ms / ms_within
        p = float(stats.f.sf(f, df, df_within))
        return FTest(float(f), df, df_within, p)

    return TwoFactorAnova(
        factor_a=f_test(ss_a, df_a),
        factor_b=f_test(ss_b, df_b),
        interaction=f_test(ss_ab, df_ab),
    )
