"""Kullback–Leibler divergence.

KL is unbounded and undefined where the reference has zero mass, so both
distributions are smoothed with a small epsilon and renormalized.  Because
the value is not confined to [0, 1], ``bounded`` is False: CI pruning's
worst-case intervals are heuristic under KL (the paper's §4.2 notes the
schemes still "work well for a variety of metrics" — our benchmarks check
exactly that).
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import DistanceFunction, register_metric

_EPSILON = 1e-9


class KullbackLeiblerDivergence(DistanceFunction):
    """``KL(p || q)`` with epsilon smoothing, in nats."""

    name = "kl"
    bounded = False
    stacked = True

    def compute(self, p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
        p_s = (p + _EPSILON) / (p + _EPSILON).sum(axis=-1, keepdims=True)
        q_s = (q + _EPSILON) / (q + _EPSILON).sum(axis=-1, keepdims=True)
        return np.sum(p_s * np.log(p_s / q_s), axis=-1)


register_metric(KullbackLeiblerDivergence())
