"""Seeded value generators for dimensions and measures.

Dimensions are categorical draws with optionally skewed (Zipf-like) group
weights — real datasets rarely have uniform group sizes, and skew is what
makes group-by memory estimates interesting.  Measures are nonnegative
continuous draws (gamma/lognormal/uniform) so normalization into probability
distributions (paper §2) never clips.
"""

from __future__ import annotations

import numpy as np

from repro.db.groupby import factorize_key


def category_labels(prefix: str, n: int) -> np.ndarray:
    """``n`` deterministic category labels, e.g. ``g00 .. g09``, in sort order."""
    width = max(2, len(str(n - 1)))
    return np.asarray([f"{prefix}{i:0{width}d}" for i in range(n)])


def zipf_weights(n: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    """Normalized Zipf-like group weights with a random permutation.

    ``skew = 0`` is uniform; larger values concentrate mass on few groups.
    """
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-skew) if skew > 0 else np.ones(n)
    weights = weights / weights.sum()
    return weights[rng.permutation(n)]


def categorical_column(
    n_rows: int,
    n_distinct: int,
    rng: np.random.Generator,
    prefix: str = "v",
    skew: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """A string dimension column with ``n_distinct`` values, and its codes:
    the drawn label indices (``rng`` moves as if drawing labels) compacted
    over the labels present — labels sort in index order — as a sort would."""
    labels = category_labels(prefix, n_distinct)
    weights = zipf_weights(n_distinct, skew, rng)
    drawn = rng.choice(n_distinct, size=n_rows, p=weights)
    return labels[drawn], factorize_key(drawn)[0]


def measure_column(
    n_rows: int,
    rng: np.random.Generator,
    kind: str = "gamma",
    scale: float = 100.0,
) -> np.ndarray:
    """A nonnegative float measure column.

    ``kind``: "gamma" (right-skewed, income-like), "lognormal" (heavy tail,
    sales-like), or "uniform".
    """
    if kind == "gamma":
        return rng.gamma(shape=2.0, scale=scale / 2.0, size=n_rows)
    if kind == "lognormal":
        return rng.lognormal(mean=np.log(max(scale, 1e-9)), sigma=0.5, size=n_rows)
    if kind == "uniform":
        return rng.uniform(0.0, 2.0 * scale, size=n_rows)
    raise ValueError(f"unknown measure kind {kind!r}")
