"""Per-route latency histograms for ``/v1/stats`` (stdlib only).

Every worker records each request's wall time under its route-table label
in a :class:`RouteLatencyRegistry`.  The histograms share one fixed
log-scale bucket grid, so the front-end merges its workers' blocks by
bucket addition (:func:`merge_route_payloads`) and reports percentiles
over the union of their samples.

Example::

    routes = RouteLatencyRegistry()
    routes.record("POST /v1/sessions/{id}/recommend", 0.012)
    print(routes.as_dict()["POST /v1/sessions/{id}/recommend"]["p99_ms"])
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, Sequence

# --------------------------------------------------------------------------- #
# latency histograms (per-route request timing in /v1/stats)
# --------------------------------------------------------------------------- #

#: Log-scale bucket grid shared by every histogram: 0.1 ms lower bound,
#: x1.5 per bucket, 48 buckets (~2 hours at the top) — coarse enough that
#: merged cross-worker percentiles stay cheap, fine enough for p999 on a
#: serving path whose latencies span cache-hit microseconds to cold multi-
#: second dataset builds.
_BUCKET_BASE_SECONDS = 1e-4
_BUCKET_RATIO = 1.5
_N_BUCKETS = 48
_LOG_RATIO = math.log(_BUCKET_RATIO)

#: Upper bound of each bucket, seconds (index 0 holds everything faster
#: than the base).  Percentiles report the bound of the bucket the rank
#: falls into — a deterministic, conservative (never understating) answer.
BUCKET_BOUNDS_SECONDS = tuple(
    _BUCKET_BASE_SECONDS * _BUCKET_RATIO**i for i in range(_N_BUCKETS)
)


def _bucket_index(seconds: float) -> int:
    if seconds <= _BUCKET_BASE_SECONDS:
        return 0
    index = int(math.log(seconds / _BUCKET_BASE_SECONDS) / _LOG_RATIO) + 1
    return min(index, _N_BUCKETS - 1)


class LatencyHistogram:
    """A fixed-grid log-scale latency histogram that merges across workers.

    Buckets are identical in every process, so per-worker histograms
    shipped through ``/v1/stats`` merge by plain bucket-count addition —
    the front-end's aggregated percentiles are exact over the union of
    samples (to bucket resolution, ~1.5x).

    Example::

        hist = LatencyHistogram()
        hist.record(0.012)
        print(hist.percentile(0.99) * 1000, "ms", hist.as_dict()["count"])
    """

    def __init__(self) -> None:
        """Create an empty histogram."""
        self.counts = [0] * _N_BUCKETS
        self.count = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one sample (seconds)."""
        self.counts[_bucket_index(seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram."""
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.count += other.count
        self.sum_seconds += other.sum_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile in seconds (nearest-rank over buckets)."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return min(BUCKET_BOUNDS_SECONDS[i], self.max_seconds)
        return self.max_seconds  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict[str, object]:
        """JSON payload: summary percentiles plus the raw sparse buckets.

        The ``buckets`` map (bucket index → count) is what cross-worker
        merging consumes; the ``p*_ms`` fields are for humans and benches.
        """
        return {
            "count": self.count,
            "mean_ms": round(1000.0 * self.sum_seconds / self.count, 3)
            if self.count
            else 0.0,
            "p50_ms": round(1000.0 * self.percentile(0.50), 3),
            "p95_ms": round(1000.0 * self.percentile(0.95), 3),
            "p99_ms": round(1000.0 * self.percentile(0.99), 3),
            "p999_ms": round(1000.0 * self.percentile(0.999), 3),
            "max_ms": round(1000.0 * self.max_seconds, 3),
            "buckets": {
                str(i): count for i, count in enumerate(self.counts) if count
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`as_dict` output (for merging)."""
        hist = cls()
        buckets = payload.get("buckets")
        if isinstance(buckets, Mapping):
            for raw_index, count in buckets.items():
                index = int(raw_index)
                if 0 <= index < _N_BUCKETS:
                    hist.counts[index] += int(count)
        hist.count = sum(hist.counts)
        hist.sum_seconds = float(payload.get("mean_ms", 0.0)) / 1000.0 * hist.count
        hist.max_seconds = float(payload.get("max_ms", 0.0)) / 1000.0
        return hist


class RouteLatencyRegistry:
    """Thread-safe per-route :class:`LatencyHistogram` map.

    The worker's HTTP handler records every request under its route-table
    row's label (:attr:`repro.service.api.Route.label`), and every
    unmatched request under ``"other"``: the table bounds the labels.
    """

    def __init__(self) -> None:
        """Create an empty registry."""
        self._lock = threading.Lock()
        self._routes: dict[str, LatencyHistogram] = {}

    def record(self, route: str, seconds: float) -> None:
        """Add one sample under ``route``."""
        with self._lock:
            hist = self._routes.get(route)
            if hist is None:
                hist = self._routes[route] = LatencyHistogram()
            hist.record(seconds)

    @property
    def count(self) -> int:
        """Total samples recorded across every route."""
        with self._lock:
            return sum(hist.count for hist in self._routes.values())

    def as_dict(self) -> dict[str, object]:
        """The ``routes`` stats block: route label → histogram payload."""
        with self._lock:
            return {
                route: hist.as_dict()
                for route, hist in sorted(self._routes.items())
            }


def merge_route_payloads(
    payloads: Sequence[Mapping[str, object]],
) -> dict[str, object]:
    """Merge per-worker ``routes`` stats blocks into one (the front-end's).

    Bucket counts add exactly; means are sample-weighted; percentiles are
    recomputed over the merged buckets, so they reflect the union of every
    worker's samples rather than an average of averages.
    """
    merged: dict[str, LatencyHistogram] = {}
    for payload in payloads:
        for route, hist_payload in payload.items():
            if not isinstance(hist_payload, Mapping):
                continue
            hist = merged.setdefault(route, LatencyHistogram())
            hist.merge(LatencyHistogram.from_dict(hist_payload))
    return {route: hist.as_dict() for route, hist in sorted(merged.items())}


__all__ = [
    "BUCKET_BOUNDS_SECONDS",
    "LatencyHistogram",
    "RouteLatencyRegistry",
    "merge_route_payloads",
]
