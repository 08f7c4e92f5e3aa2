"""Distance-function protocol and registry."""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import MetricError

_REGISTRY: dict[str, "DistanceFunction"] = {}


class DistanceFunction(abc.ABC):
    """Distance between two aligned probability distributions.

    Subclasses set ``name`` (registry key) and ``bounded`` (True when the
    value is guaranteed in [0, 1], which CI pruning's Hoeffding–Serfling
    intervals assume) and implement :meth:`compute` over two 1-D vectors.

    The engine hands a metric a whole state table — two ``(n_views, n_slots)``
    stacks, validated once — for one distance per row.  Rows go through
    ``compute`` one by one unless the metric sets ``stacked``: its ``compute`` is
    then written over the last axis **and** row ``r`` of the stacked value equals
    the 1-D value bit for bit (``cumsum``, elementwise arithmetic, ``max`` and
    ``sum(axis=-1)`` do; BLAS reductions do not — ``tests/test_metrics.py``).
    """

    name: str = ""
    bounded: bool = True
    stacked: bool = False

    def __call__(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        # C order also repairs a ``values[:, mask]`` layout, whose row sums add
        # in another order than the 1-D pairwise sum.
        p = np.asarray(p, dtype=np.float64, order="C")
        q = np.asarray(q, dtype=np.float64, order="C")
        if p.shape != q.shape or p.ndim not in (1, 2):
            raise MetricError(f"shape mismatch, or no vector or stack: {p.shape} vs {q.shape}")
        if p.size == 0:
            raise MetricError("empty distributions")
        # The ``min`` of a NaN is NaN and fails the comparison: still rejected.
        if not (p.min() >= -1e-12 and q.min() >= -1e-12):
            raise MetricError("distributions must be nonnegative")
        if p.ndim == 1:
            return float(self.compute(p, q))
        if self.stacked:
            return self.compute(p, q)
        return np.array([float(self.compute(row_p, row_q)) for row_p, row_q in zip(p, q)])

    @abc.abstractmethod
    def compute(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        """Distance between validated, same-shape distributions: two 1-D
        vectors, or — only if ``stacked`` — two stacks, one value per row."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def register_metric(metric: DistanceFunction) -> DistanceFunction:
    """Add a metric instance to the global registry (by its ``name``)."""
    if not metric.name:
        raise MetricError("metric must define a non-empty name")
    _REGISTRY[metric.name] = metric
    return metric


def get_metric(name: str) -> DistanceFunction:
    """Look up a metric by registry name (e.g. ``"emd"``)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise MetricError(
            f"unknown metric {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_metrics() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
