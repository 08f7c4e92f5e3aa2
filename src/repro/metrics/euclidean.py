"""Euclidean distance between distributions.

Normalized by ``sqrt(2)``, the maximum L2 distance between two probability
vectors (all mass on different single categories), so values lie in [0, 1].
The paper's technical report proves the consistency property (their
Property 4.1) for this metric via Hoeffding's inequality.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.base import DistanceFunction, register_metric


class EuclideanDistance(DistanceFunction):
    """``||p - q||_2 / sqrt(2)``."""

    name = "euclidean"
    bounded = True
    #: Not ``stacked``: ``np.linalg.norm`` over an axis adds in another order
    #: than its 1-D BLAS path, so a stack is fed through row by row.

    def compute(self, p: np.ndarray, q: np.ndarray) -> float:
        return float(np.linalg.norm(p - q) / math.sqrt(2.0))


register_metric(EuclideanDistance())
