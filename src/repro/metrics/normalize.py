"""Turning aggregate summaries into comparable probability distributions.

The paper (§2): "To ensure that all aggregate summaries have the same scale,
we normalize each summary into a probability distribution (i.e. the values
of f(m) sum to 1)."  Negative aggregate values (possible for SUM/AVG of a
signed measure) are clipped to zero before normalizing — a distribution
cannot carry negative mass; the clip is documented behaviour, and callers
with signed measures should shift them first.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import MetricError


def normalize_distribution(values: np.ndarray) -> np.ndarray:
    """Normalize a nonnegative vector — or each row of a 2-D stack — to sum to 1.

    NaNs (empty groups) and negative values are treated as zero mass.  If
    every entry of a row is zero the result is uniform — two all-zero
    summaries are indistinguishable, and uniform keeps every metric finite.
    A stack is made C-contiguous first: only then does each row's sum add in
    the order of the 1-D pairwise sum, so row ``r`` of the result equals
    ``normalize_distribution(values[r])`` bit for bit.
    """
    arr = np.asarray(values, dtype=np.float64, order="C")
    if arr.ndim not in (1, 2):
        raise MetricError(f"distribution must be 1-D or a 2-D stack, got shape {arr.shape}")
    if arr.shape[-1] == 0:
        raise MetricError("cannot normalize an empty summary")
    arr = np.maximum(np.where(np.isfinite(arr), arr, 0.0), 0.0)
    total = arr.sum(axis=-1, keepdims=True)
    uniform = np.full(arr.shape, 1.0 / arr.shape[-1])
    return np.divide(arr, total, out=uniform, where=total > 0.0)


def align_distributions(
    target: dict[object, float], reference: dict[object, float]
) -> tuple[list[object], np.ndarray, np.ndarray]:
    """Align two per-group summaries on the union of their group keys.

    Groups missing from one side get zero mass there (the paper's target and
    reference views may see different group sets when the selection removes
    some groups entirely).  Keys are sorted so EMD's ground distance over
    category positions is deterministic.  Returns ``(keys, p, q)`` with both
    vectors normalized.
    """
    keys = sorted(set(target) | set(reference), key=repr)
    if not keys:
        raise MetricError("cannot align two empty summaries")
    p_raw = np.asarray([target.get(key, 0.0) for key in keys], dtype=np.float64)
    q_raw = np.asarray([reference.get(key, 0.0) for key in keys], dtype=np.float64)
    return keys, normalize_distribution(p_raw), normalize_distribution(q_raw)
