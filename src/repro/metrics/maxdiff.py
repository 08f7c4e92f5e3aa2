"""MAX_DIFF: largest per-group probability gap.

Ranks visualizations by the single group where target and reference differ
the most — one of the alternative metrics the paper's §4.2 evaluates its
pruning schemes against.  Bounded in [0, 1] by construction.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import DistanceFunction, register_metric


class MaxDifference(DistanceFunction):
    """``max_i |p_i - q_i|``."""

    name = "maxdiff"
    bounded = True
    stacked = True

    def compute(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        return np.max(np.abs(p - q), axis=-1)


register_metric(MaxDifference())
