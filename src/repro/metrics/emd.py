"""Earth Mover's Distance — SeeDB's default utility metric.

For one-dimensional distributions over ordered category positions with unit
ground distance between neighbours, EMD reduces to the L1 distance between
the CDFs (a classical result; scipy's ``wasserstein_distance`` computes the
same quantity for sample-weight inputs).  We normalize by the maximum
possible value, ``n - 1`` (all mass moved end to end), so utilities live in
[0, 1] as CI pruning requires.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import DistanceFunction, register_metric


class EarthMoversDistance(DistanceFunction):
    """1-D EMD over category positions, normalized into [0, 1]."""

    name = "emd"
    bounded = True
    #: ``cumsum`` is sequential; a row sum over the contiguous last axis is the 1-D sum.
    stacked = True

    def compute(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        n_slots = p.shape[-1]
        if n_slots == 1:
            return np.zeros(p.shape[:-1])
        cdf_gap = np.abs(np.cumsum(p - q, axis=-1))[..., :-1].sum(axis=-1)
        return cdf_gap / (n_slots - 1)


register_metric(EarthMoversDistance())
