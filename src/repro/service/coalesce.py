"""Cross-request coalescing: the serving tier's micro-batching gateway.

SeeDB's §4 sharing optimizations merge queries *within* one recommendation
run; this module lifts the same idea across users.  Handler threads submit
their recommendation step to a :class:`CoalescingGateway` and block on a
future; a per-(dataset, store, metric) collector thread drains the queue
under a bounded window (``max_batch_size`` / ``max_wait_ms`` on
:class:`~repro.config.CoalesceConfig`) and executes the union of all
pending requests as ONE workload through
:meth:`~repro.core.engine.ExecutionEngine.run_union` — the engine's one
phase loop, the same code a solo ``run`` is — so one shared scan per phase
serves many users, whatever the strategy.

Two sharing layers compose here:

* **Union batching** — concurrent *different* requests on the same engine
  with the same strategy and parallelism concatenate, phase by phase, into
  a single shared-scan dispatcher batch: distinct base columns are read
  once and buffer-pool pages are charged once per batch (the split-charge
  scheme, extended across requests).  Phased requests (``comb``,
  ``comb_early``) share each phase's scan while each prunes on its own.
* **Single-flight** — concurrent *identical* requests (same result-cache
  fingerprint) attach to one in-flight execution: one compute, N
  responses.  This is the thundering-herd case the result cache only
  fixes for *sequential* repeats — concurrent identical misses would all
  execute before the first one's result lands in the cache.

Results are bitwise-identical coalesced vs. not: each request is planned
and routed exactly as its solo run would be (see ``run_union``; asserted
by ``tests/core/test_engine.py::test_union_equals_solo_and_conserves``);
only the accounting moves.  The gateway is off by default and never
constructed when disabled.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Hashable

from repro.config import CoalesceConfig
from repro.core.engine import EngineRun, ExecutionEngine, UnionRequest
from repro.exceptions import ServiceError
from repro.service.api import ErrorCode

__all__ = ["CoalesceRequest", "CoalescingGateway"]

#: Queue sentinel telling a collector thread to finish its batch and exit.
_STOP = object()


@dataclass(frozen=True)
class CoalesceRequest:
    """One handler thread's submission to the gateway.

    ``fingerprint`` is the request's identity for single-flight
    deduplication — built on the engine's execution fingerprint (table
    identity + version + backend semantics, the same prefix the
    view-result cache keys on) plus every request parameter, so two
    requests share a flight only when their responses are guaranteed
    identical.  ``union`` is the request's
    :class:`~repro.core.engine.UnionRequest`; requests of one window that
    agree on ``engine``, ``parallelism`` and ``strategy`` execute as one
    ``run_union`` call.
    """

    fingerprint: str
    engine: ExecutionEngine
    parallelism: str
    strategy: str
    union: UnionRequest


@dataclass
class _Pending:
    """A queued request plus the future its submitter blocks on."""

    request: CoalesceRequest
    future: "Future[EngineRun]" = field(default_factory=Future)


class CoalescingGateway:
    """Batches concurrent recommendation steps into shared executions.

    One instance per :class:`~repro.service.server.RecommendationService`.
    Requests queue per engine key — ``(dataset, store, metric)`` — so
    requests on different datasets never co-batch (they could not share a
    scan anyway).  Collector threads are spawned lazily per key and joined
    deterministically by :meth:`close`.

    Example::

        gateway = CoalescingGateway(CoalesceConfig(enabled=True))
        run = gateway.submit(("census", "col", "emd"), request)  # blocks
        print(gateway.stats_snapshot()["batches"])
    """

    def __init__(self, config: CoalesceConfig) -> None:
        """Create the gateway; ``config`` must have ``enabled=True``."""
        if not config.enabled:
            raise ValueError("CoalescingGateway requires an enabled config")
        self.config = config
        self._lock = threading.Lock()
        self._queues: dict[Hashable, "queue.Queue[object]"] = {}
        self._collectors: dict[Hashable, threading.Thread] = {}
        self._inflight: dict[str, "Future[EngineRun]"] = {}
        self._closed = False
        self._counters = {
            "requests": 0,
            "batches": 0,
            "unions": 0,
            "requests_coalesced": 0,
            "singleflight_hits": 0,
        }
        self._occupancy_sum = 0
        self._occupancy_max = 0
        self._per_key: dict[Hashable, dict[str, int]] = {}

    # -------------------------------------------------------------- #
    # submission (handler threads)
    # -------------------------------------------------------------- #

    def submit(self, key: Hashable, request: CoalesceRequest) -> EngineRun:
        """Submit one request and block until its run is available.

        With single-flight on, an identical in-flight request (same
        fingerprint) absorbs this one: nothing is enqueued, the call
        just waits on the existing future.  Otherwise the request joins
        ``key``'s window and is executed by that key's collector thread.
        Exceptions raised by the execution propagate to every attached
        submitter.
        """
        attach: "Future[EngineRun] | None" = None
        with self._lock:
            if self._closed:
                raise ServiceError(
                    "coalescing gateway is closed",
                    status=503,
                    code=ErrorCode.SHUTTING_DOWN,
                )
            self._counters["requests"] += 1
            if self.config.singleflight:
                attach = self._inflight.get(request.fingerprint)
            if attach is not None:
                self._counters["singleflight_hits"] += 1
                future = attach
            else:
                pending = _Pending(request)
                future = pending.future
                if self.config.singleflight:
                    self._inflight[request.fingerprint] = future
                # Enqueued under the lock (the queue is unbounded, put cannot
                # block): close() takes the same lock before it posts _STOP,
                # so everything queued precedes the sentinel and is served.
                self._queue_for(key).put(pending)
        return future.result()

    def _queue_for(self, key: Hashable) -> "queue.Queue[object]":
        """The key's queue, spawning its collector lazily.  Caller holds the lock."""
        work_queue = self._queues.get(key)
        if work_queue is None:
            work_queue = queue.Queue()
            self._queues[key] = work_queue
            collector = threading.Thread(
                target=self._collect,
                args=(key, work_queue),
                name=f"seedb-coalesce-{key}",
                daemon=True,
            )
            self._collectors[key] = collector
            collector.start()
        return work_queue

    # -------------------------------------------------------------- #
    # collection (one daemon thread per engine key)
    # -------------------------------------------------------------- #

    def _collect(self, key: Hashable, work_queue: "queue.Queue[object]") -> None:
        """Drain ``key``'s queue forever: window, batch, execute, resolve."""
        limit = max(self.config.max_batch_size, 1)
        wait_seconds = max(self.config.max_wait_ms, 0.0) / 1000.0
        while True:
            item = work_queue.get()
            if item is _STOP:
                return
            batch = [item]
            stop = False
            if wait_seconds > 0.0 and limit > 1:
                # Bounded window: the first request opens it, later ones
                # join until the batch is full or the deadline passes.
                deadline = time.monotonic() + wait_seconds
                while len(batch) < limit:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        nxt = work_queue.get(timeout=remaining)
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stop = True
                        break
                    batch.append(nxt)
            else:
                # max_wait_ms=0 degenerates to pass-through: take whatever
                # is already queued, never wait.
                while len(batch) < limit:
                    try:
                        nxt = work_queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _STOP:
                        stop = True
                        break
                    batch.append(nxt)
            self._execute(key, batch)
            if stop:
                return

    def _execute(self, key: Hashable, batch: list[_Pending]) -> None:
        """Execute one window's batch and resolve every future."""
        with self._lock:
            self._counters["batches"] += 1
            self._occupancy_sum += len(batch)
            self._occupancy_max = max(self._occupancy_max, len(batch))
            if len(batch) > 1:
                self._counters["requests_coalesced"] += len(batch)
            per_key = self._per_key.setdefault(
                key, {"batches": 0, "requests": 0, "max_batch": 0}
            )
            per_key["batches"] += 1
            per_key["requests"] += len(batch)
            per_key["max_batch"] = max(per_key["max_batch"], len(batch))

        # Requests group by (engine, parallelism, strategy) — what picks the
        # config, the phase ranges and the dispatcher — and each group is
        # one run_union: one shared scan per phase.
        union_groups: dict[tuple[int, str, str], list[_Pending]] = {}
        for pending in batch:
            request = pending.request
            group_key = (id(request.engine), request.parallelism, request.strategy)
            union_groups.setdefault(group_key, []).append(pending)
        for group in union_groups.values():
            first = group[0].request
            if len(group) > 1:
                with self._lock:
                    self._counters["unions"] += 1
            try:
                runs = first.engine.run_union(
                    [pending.request.union for pending in group],
                    first.strategy,  # type: ignore[arg-type]
                    first.parallelism,  # type: ignore[arg-type]
                )
            except BaseException as exc:  # noqa: BLE001 - must reach submitters
                for pending in group:
                    self._unregister(pending)
                    pending.future.set_exception(exc)
            else:
                for pending, run in zip(group, runs):
                    self._unregister(pending)
                    pending.future.set_result(run)

    def _unregister(self, pending: _Pending) -> None:
        """Drop the in-flight entry *before* resolving the future, so a
        request arriving after resolution starts a fresh flight instead of
        attaching to a completed one."""
        with self._lock:
            fingerprint = pending.request.fingerprint
            if self._inflight.get(fingerprint) is pending.future:
                del self._inflight[fingerprint]

    # -------------------------------------------------------------- #
    # stats + lifecycle
    # -------------------------------------------------------------- #

    def stats_snapshot(self) -> dict[str, object]:
        """The ``coalesce`` stats block served under ``GET /v1/stats``."""
        with self._lock:
            batches = self._counters["batches"]
            snapshot: dict[str, object] = {
                "enabled": True,
                "max_batch_size": self.config.max_batch_size,
                "max_wait_ms": self.config.max_wait_ms,
                "singleflight": self.config.singleflight,
                "requests": self._counters["requests"],
                "batches": batches,
                "unions": self._counters["unions"],
                "requests_coalesced": self._counters["requests_coalesced"],
                "singleflight_hits": self._counters["singleflight_hits"],
                "window_occupancy_mean": (
                    self._occupancy_sum / batches if batches else 0.0
                ),
                "window_occupancy_max": self._occupancy_max,
                "keys": {
                    "|".join(str(part) for part in key)
                    if isinstance(key, tuple)
                    else str(key): dict(counters)
                    for key, counters in self._per_key.items()
                },
            }
        return snapshot

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting, drain queued work, join every collector.  Idempotent.

        Requests enqueued before the close are still executed (the stop
        sentinel lands behind them in FIFO order); submissions after it
        answer 503.  Collector threads are *joined*, not abandoned:
        nothing the gateway started still runs when this returns.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queues = list(self._queues.values())
            collectors = list(self._collectors.values())
        for work_queue in queues:
            work_queue.put(_STOP)
        for collector in collectors:
            collector.join(timeout=timeout)
