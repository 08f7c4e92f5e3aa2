"""In-memory span recorder installed around the layers' public functions.

The program under ``src/`` carries no tracing of its own yet, so the
scoreboard wraps each layer's public entry points from here: a wrapper
records ``(name, start, end, parent)`` on a per-thread stack and, where a
layer reports work counts in its return value, the counts too.  Spans stay
in memory until the run ends; :func:`Tracer.uninstall` restores every
original attribute so an untraced run in the same process is unaffected.

A span's *self time* is its duration minus the durations of its direct
children on the same thread.  ``LAYERS`` below is the one table that says
which function backs which per-layer metric name; the README's table is
written from it.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable

#: (span name, module, owner class or None, attribute).  A ``None`` owner
#: means a module-level function; those are patched in every ``repro``
#: module that imported them by name.  An owner ending in ``*`` means
#: "every class in the module that defines the attribute itself".
LAYERS: tuple[tuple[str, str, str | None, str], ...] = (
    ("data.build", "repro.data.registry", "DatasetSpec", "build"),
    ("data.write_table", "repro.db.chunks", None, "write_table"),
    ("data.open_table", "repro.db.chunks", None, "open_table"),
    ("engine.run", "repro.core.engine", "ExecutionEngine", "run"),
    ("sharing.plan", "repro.core.sharing", None, "plan_queries"),
    ("parallel.run_batch", "repro.core.parallel", "ParallelDispatcher", "run_batch"),
    ("shared_scan.execute_batch", "repro.db.shared_scan", "SharedScanExecutor", "execute_batch"),
    ("executor.execute", "repro.db.executor", "QueryExecutor", "execute"),
    ("storage.scan", "repro.db.storage", "StorageEngine", "scan"),
    ("expressions.evaluate", "repro.db.expressions", "*", "evaluate"),
    ("groupby.group_aggregate", "repro.db.groupby", None, "group_aggregate"),
    ("streaming.update", "repro.db.streaming", "StreamingGroupAggregator", "update"),
    ("chunks.materialize", "repro.db.chunks", "*", "materialize"),
    ("chunks.append_rows", "repro.db.chunks", None, "append_rows"),
    ("state.record_estimate", "repro.core.state", "ViewState", "record_estimate"),
    ("metrics.compute", "repro.metrics.base", "DistanceFunction", "__call__"),
    ("pruning.observe", "repro.core.pruning.base", "Pruner", "observe"),
    ("cache.fingerprint", "repro.core.cache", None, "query_fingerprint"),
    ("cache.fingerprint", "repro.core.cache", None, "execution_fingerprint"),
    ("cache.get", "repro.core.cache", "ViewResultCache", "get"),
    ("cache.get", "repro.core.cache", "TieredViewResultCache", "get"),
    ("cache.put", "repro.core.cache", "ViewResultCache", "put"),
    ("cache.put", "repro.core.cache", "TieredViewResultCache", "put"),
    ("service.recommend", "repro.service.server", "RecommendationService", "recommend"),
    ("service.create_session", "repro.service.server", "RecommendationService", "create_session"),
    ("service.append_dataset", "repro.service.server", "RecommendationService", "append_dataset"),
)


def _engine_run_counts(run: Any) -> dict[str, float]:
    """Work counts one ``ExecutionEngine.run`` reports about itself."""
    stats = run.stats
    return {
        "queries": stats.queries_issued,
        "rows_scanned": stats.rows_scanned,
        "bytes_scanned": stats.bytes_scanned_miss + stats.bytes_scanned_hit,
        "pages_hit": stats.pages_hit,
        "pages_missed": stats.pages_missed,
        "groups": stats.groups_maintained,
        "cache_hits": stats.cache_hits,
        "cache_lookups": stats.cache_hits + run.cache_misses,
        "delta_hits": stats.delta_hits,
        "phases": run.phases_executed,
        "views": run.active_per_phase[0],
    }


#: Span name -> function turning the wrapped call's result into counts.
COUNTERS: dict[str, Callable[[Any], dict[str, float]]] = {
    "engine.run": _engine_run_counts,
    "pruning.observe": lambda decision: {"views_pruned": len(decision.pruned)},
}


class Span:
    """One recorded call.  ``parent`` indexes the same thread's span list."""

    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs, records and uninstalls the layer wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: thread ident -> that thread's spans, in start order.
        self.threads: dict[int, list[Span]] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- #
    # recording
    # -------------------------------------------------------------- #

    def _state(self) -> tuple[list[Span], list[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            spans: list[Span] = []
            state = self._local.state = (spans, [])
            with self._lock:
                self.threads[threading.get_ident()] = spans
        return state

    def begin(self, name: str) -> Span:
        """Open a span on the calling thread (the harness's own op spans)."""
        spans, stack = self._state()
        span = Span(name, time.perf_counter(), stack[-1] if stack else -1)
        stack.append(len(spans))
        spans.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close the span most recently opened on the calling thread."""
        span.end = time.perf_counter()
        self._state()[1].pop()

    def _wrap(self, name: str, function: Callable) -> Callable:
        counter = COUNTERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.counts = counter(result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # -------------------------------------------------------------- #
    # install / uninstall
    # -------------------------------------------------------------- #

    def _patch(self, owner: object, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if getattr(original, "__wrapped__", None) is not None:
            raise RuntimeError(f"{owner}.{attribute} is already wrapped")
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(name, original))

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` and start recording."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for name, module_name, owner_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            if owner_name is None:
                function = getattr(module, attribute)
                # ``from x import f`` copies the binding: patch each copy.
                # (server.py binds append_rows as chunk_append_rows.)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro."):
                        for alias, value in list(vars(other).items()):
                            if value is function:
                                self._patch(other, alias, name)
            elif owner_name == "*":
                for candidate in vars(module).values():
                    if (
                        isinstance(candidate, type)
                        and candidate.__module__ == module_name
                        and attribute in candidate.__dict__
                        and not getattr(
                            candidate.__dict__[attribute], "__isabstractmethod__", False
                        )
                    ):
                        self._patch(candidate, attribute, name)
            else:
                self._patch(getattr(module, owner_name), attribute, name)

    def uninstall(self) -> None:
        """Restore every original attribute.  Idempotent."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    @property
    def installed(self) -> bool:
        return bool(self._originals)


# --------------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------------- #


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def root_of(spans: list[Span]) -> list[int]:
    """Index of the outermost ancestor of each span (itself for a root)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent < 0 else roots[span.parent])
    return roots


def span_rows(spans: list[Span], first: int, last: int, origin: float) -> list[dict[str, object]]:
    """JSON rows for ``spans[first:last]`` (the trace file's raw section)."""
    own = self_times(spans)
    depth: list[int] = []
    for span in spans:
        depth.append(0 if span.parent < 0 else depth[span.parent] + 1)
    return [
        {
            "name": spans[i].name,
            "depth": depth[i],
            "start_ms": round((spans[i].start - origin) * 1e3, 4),
            "duration_ms": round(spans[i].duration * 1e3, 4),
            "self_ms": round(own[i] * 1e3, 4),
            **({"counts": spans[i].counts} if spans[i].counts else {}),
        }
        for i in range(first, last)
    ]
