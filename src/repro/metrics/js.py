"""Jensen–Shannon distance.

The square root of the Jensen–Shannon divergence computed with base-2
logarithms is a metric bounded in [0, 1] — the "Jenson-Shannon Distance" the
paper lists among its supported functions.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import DistanceFunction, register_metric

_EPSILON = 1e-12


class JensenShannonDistance(DistanceFunction):
    """``sqrt(JSD_base2(p, q))`` in [0, 1]."""

    name = "js"
    bounded = True
    stacked = True

    def compute(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        p_s = (p + _EPSILON) / (p + _EPSILON).sum(axis=-1, keepdims=True)
        q_s = (q + _EPSILON) / (q + _EPSILON).sum(axis=-1, keepdims=True)
        mid = 0.5 * (p_s + q_s)
        divergence = 0.5 * np.sum(p_s * np.log2(p_s / mid), axis=-1) + 0.5 * np.sum(
            q_s * np.log2(q_s / mid), axis=-1
        )
        return np.sqrt(np.maximum(divergence, 0.0))


register_metric(JensenShannonDistance())
