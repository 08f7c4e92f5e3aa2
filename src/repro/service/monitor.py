"""Service observability: latency histograms + CPU / RSS sampling (stdlib only).

The load benchmark reports how the sharded front-end spends the machine:
per-worker CPU utilisation and resident set size over the ramp.  With no
third-party dependencies available, samples come straight from Linux's
``/proc/<pid>/stat`` (fields 14/15: utime+stime in clock ticks) and
``/proc/<pid>/statm`` (resident pages).  On platforms without ``/proc``
the monitor degrades to empty samples — the harness still measures
latency and throughput, it just can't attribute CPU.

Example::

    monitor = ProcessMonitor([frontend_pid, *worker_pids])
    monitor.sample()          # prime the CPU deltas
    ... run load ...
    for s in monitor.sample():
        print(s.pid, f"{s.cpu_percent:.0f}%", s.rss_bytes >> 20, "MiB")
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
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



def proc_available() -> bool:
    """Whether ``/proc/<pid>/stat`` sampling works on this platform."""
    return os.path.isdir("/proc") and os.path.exists("/proc/self/stat")


def cpu_seconds(pid: int) -> float | None:
    """Cumulative user+system CPU seconds of ``pid``, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # comm may contain spaces/parens; fields are counted after the last ')'.
    fields = raw.rsplit(")", 1)[-1].split()
    try:
        utime, stime = int(fields[11]), int(fields[12])
    except (IndexError, ValueError):  # pragma: no cover - malformed stat
        return None
    ticks = os.sysconf("SC_CLK_TCK") or 100
    return (utime + stime) / ticks


def rss_bytes(pid: int) -> int | None:
    """Resident set size of ``pid`` in bytes, or None if gone."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            fields = handle.read().split()
        resident_pages = int(fields[1])
    except (OSError, IndexError, ValueError):
        return None
    return resident_pages * os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class ProcessSample:
    """One process's resource usage over the last sampling interval."""

    pid: int
    #: Average CPU utilisation since the previous :meth:`ProcessMonitor.
    #: sample` call, in percent of one core (can exceed 100 with threads).
    cpu_percent: float
    #: Resident set size at sampling time, bytes.
    rss_bytes: int

    def as_dict(self) -> dict[str, object]:
        """JSON-ready dict for the benchmark payload."""
        return {
            "pid": self.pid,
            "cpu_percent": round(self.cpu_percent, 1),
            "rss_bytes": self.rss_bytes,
        }


class ProcessMonitor:
    """Samples CPU%/RSS for a fixed set of pids via ``/proc``.

    CPU utilisation is a delta against the previous :meth:`sample` call,
    so call it once before the measured interval to prime the baseline.
    Dead or unreadable pids are silently dropped from the results.
    """

    def __init__(self, pids: Sequence[int]) -> None:
        """Track ``pids`` (typically the front-end and its workers)."""
        self.pids = list(pids)
        self._last: dict[int, tuple[float, float]] = {}

    def track(self, pid: int) -> None:
        """Add ``pid`` to the tracked set (idempotent).

        The chaos harness hooks this up as the front-end's
        ``on_worker_respawn`` callback so supervisor-respawned workers
        show up in resource samples alongside the original fleet.
        """
        if pid not in self.pids:
            self.pids.append(pid)

    def sample(self) -> list[ProcessSample]:
        """One sample per live pid (empty where ``/proc`` is unavailable)."""
        if not proc_available():
            return []
        now = time.monotonic()
        samples: list[ProcessSample] = []
        for pid in self.pids:
            cpu = cpu_seconds(pid)
            rss = rss_bytes(pid)
            if cpu is None or rss is None:
                continue
            percent = 0.0
            previous = self._last.get(pid)
            if previous is not None:
                last_time, last_cpu = previous
                elapsed = now - last_time
                if elapsed > 0:
                    percent = 100.0 * (cpu - last_cpu) / elapsed
            self._last[pid] = (now, cpu)
            samples.append(
                ProcessSample(pid=pid, cpu_percent=max(percent, 0.0), rss_bytes=rss)
            )
        return samples


__all__ = [
    "BUCKET_BOUNDS_SECONDS",
    "LatencyHistogram",
    "ProcessMonitor",
    "ProcessSample",
    "RouteLatencyRegistry",
    "cpu_seconds",
    "merge_route_payloads",
    "proc_available",
    "rss_bytes",
]
