"""Per-layer metrics of a traced run, and the trace file.

Time metrics are medians over the traced region's recommend operations
(appends and session opens for the three metrics that belong to those),
each divided by the host-speed factor around the operation.  A name ending
in ``_self_ms`` (and ``engine.self_ms``) is self time; any other ``_ms`` is
the inclusive time of that layer's outermost spans inside one operation.
Counts are totals over the region divided by its recommends, ratios are
totals over totals; both repeat exactly for a fixed seed.
"""

from __future__ import annotations

import bisect
import json
import shutil
import statistics
import tempfile
import threading
import time
from typing import TYPE_CHECKING

import numpy as np

from harness import OUT
from tracing import Span, root_of, self_times, span_rows

if TYPE_CHECKING:
    from runner import Region, Runner

#: metric -> (operation kind, span name, "incl" or "self").
SPAN_METRICS: dict[str, tuple[str, str, str]] = {
    "sharing.plan_ms": ("recommend", "sharing.plan", "incl"),
    "parallel.run_batch_self_ms": ("recommend", "parallel.run_batch", "self"),
    "shared_scan.execute_batch_self_ms": ("recommend", "shared_scan.execute_batch", "self"),
    "executor.execute_self_ms": ("recommend", "executor.execute", "self"),
    "storage.scan_ms": ("recommend", "storage.scan", "incl"),
    "expressions.evaluate_ms": ("recommend", "expressions.evaluate", "incl"),
    "groupby.group_aggregate_ms": ("recommend", "groupby.group_aggregate", "incl"),
    "streaming.update_ms": ("recommend", "streaming.update", "incl"),
    "chunks.materialize_ms": ("recommend", "chunks.materialize", "incl"),
    "chunks.append_rows_ms": ("append", "chunks.append_rows", "incl"),
    "state.record_estimate_ms": ("recommend", "state.record_estimate", "incl"),
    "metrics.compute_ms": ("recommend", "metrics.compute", "incl"),
    "pruning.observe_ms": ("recommend", "pruning.observe", "incl"),
    "engine.run_ms": ("recommend", "engine.run", "incl"),
    "engine.self_ms": ("recommend", "engine.run", "self"),
    "cache.fingerprint_ms": ("recommend", "cache.fingerprint", "incl"),
    "cache.get_ms": ("recommend", "cache.get", "incl"),
    "cache.put_ms": ("recommend", "cache.put", "incl"),
    "service.recommend_self_ms": ("recommend", "service.recommend", "self"),
    "service.create_session_ms": ("create_session", "service.create_session", "incl"),
    "service.append_dataset_ms": ("append", "service.append_dataset", "incl"),
}


class _Op:
    """One harness operation with what the spans under it add up to."""

    __slots__ = ("kind", "start", "end", "incl", "own", "calls", "counts", "handler")

    def __init__(self, span: Span) -> None:
        self.kind = span.name[3:]
        self.start, self.end = span.start, span.end
        self.incl: dict[str, float] = {}
        self.own: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        #: Seconds the server-side handler spent in ``service.recommend``.
        self.handler = 0.0

    def add(self, spans: list[Span], own: list[float], index: int) -> None:
        span = spans[index]
        name = span.name
        self.own[name] = self.own.get(name, 0.0) + own[index]
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = span.parent
        while parent >= 0 and spans[parent].name != name:
            parent = spans[parent].parent
        if parent < 0:
            self.incl[name] = self.incl.get(name, 0.0) + span.duration
        if span.counts:
            for key, value in span.counts.items():
                self.counts[key] = self.counts.get(key, 0.0) + value


def collect_ops(threads: dict[int, list[Span]]) -> list[_Op]:
    """Fold every span into the harness operation it ran under.

    On a load thread that is the ``op.*`` root above the span.  Spans on
    other threads (the in-process HTTP handler's) belong to the operation
    that was in flight when they started; with one client per server that
    is unambiguous.
    """
    ops: list[_Op] = []
    strays: list[tuple[list[Span], list[float], list[int]]] = []
    for spans in threads.values():
        own, roots = self_times(spans), root_of(spans)
        by_root: dict[int, _Op] = {}
        if not any(span.name.startswith("op.") for span in spans if span.parent < 0):
            strays.append((spans, own, roots))
            continue
        for index, span in enumerate(spans):
            if span.parent < 0:
                if span.name.startswith("op."):
                    by_root[index] = _Op(span)
                continue
            op = by_root.get(roots[index])
            if op is not None:
                op.add(spans, own, index)
        ops.extend(by_root.values())
    ops.sort(key=lambda op: op.start)
    starts = [op.start for op in ops]
    for spans, own, roots in strays:
        for index, span in enumerate(spans):
            at = bisect.bisect_right(starts, spans[roots[index]].start) - 1
            if at >= 0 and spans[roots[index]].start <= ops[at].end:
                ops[at].add(spans, own, index)
                if span.parent < 0 and span.name == "service.recommend":
                    ops[at].handler += span.duration
    return ops


def _l2_probe() -> tuple[float, float]:
    """Median put and get seconds of a direct ``FileCacheTier`` round trip."""
    from repro.config import ExecutionStats
    from repro.core.cache import FileCacheTier
    from repro.db.query import QueryResult

    rng = np.random.default_rng(7)
    result = QueryResult(
        groups={"dim": np.array([f"group_{i:02d}" for i in range(50)])},
        values={f"agg_{i}": rng.random(50) for i in range(10)},
        n_groups=50,
        input_rows=300_000,
    )
    directory = tempfile.mkdtemp(prefix="l2-probe-")
    try:
        tier = FileCacheTier(directory)
        puts, gets = [], []
        for i in range(32):
            started = time.perf_counter()
            tier.put(f"probe|{i}", result, ExecutionStats())
            middle = time.perf_counter()
            if tier.get(f"probe|{i}") is None:
                raise RuntimeError("L2 probe entry did not read back")
            gets.append(time.perf_counter() - middle)
            puts.append(middle - started)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return statistics.median(puts), statistics.median(gets)


def layer_metrics(
    runner: "Runner",
    region: "Region",
    plain: "Region",
    setup_spans: dict[int, list[Span]],
    counters: dict[str, float],
) -> dict[str, tuple[float, int]]:
    """Every per-layer metric of one traced run: name -> (value, n)."""
    calibrator, workload = runner.calibrator, runner.workload
    ops = collect_ops(runner.tracer.threads)
    by_kind: dict[str, list[_Op]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    recommends = by_kind.get("recommend", [])
    n = len(recommends)
    metrics: dict[str, tuple[float, int]] = {}

    def median_ms(kind: str, value) -> tuple[float, int]:
        chosen = by_kind.get(kind, [])
        if not chosen:
            return 0.0, 0
        samples = [value(op) / calibrator.factor_at((op.start + op.end) / 2) for op in chosen]
        return statistics.median(samples) * 1e3, len(samples)

    for name, (kind, span_name, mode) in SPAN_METRICS.items():
        table = "incl" if mode == "incl" else "own"
        metrics[name] = median_ms(kind, lambda op: getattr(op, table).get(span_name, 0.0))

    def total(key: str) -> float:
        return sum(op.counts.get(key, 0.0) for op in recommends)

    def calls(span_name: str) -> float:
        return float(sum(op.calls.get(span_name, 0) for op in recommends))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    executed = {k[9:]: v for k, v in counters.items() if k.startswith("executed.")}
    queries = total("queries") or executed.get("queries_executed", 0.0)
    rows = total("rows_scanned") or executed.get("rows_scanned", 0.0)
    scanned = total("bytes_scanned") or executed.get("bytes_scanned", 0.0)
    for name, value in {
        "sharing.queries_per_recommend": ratio(queries, n),
        "shared_scan.batches_per_recommend": ratio(calls("shared_scan.execute_batch"), n),
        "storage.rows_scanned_per_recommend": ratio(rows, n),
        "storage.bytes_scanned_per_recommend": ratio(scanned, n),
        "buffer.page_hit_ratio": ratio(
            total("pages_hit"), total("pages_hit") + total("pages_missed")
        ),
        "groupby.groups_per_recommend": ratio(total("groups"), n),
        "streaming.chunks_per_recommend": ratio(calls("streaming.update"), n),
        "pruning.views_pruned_ratio": ratio(total("views_pruned"), total("views")),
        "pruning.phases_executed": ratio(total("phases"), n),
        "cache.hit_ratio": ratio(total("cache_hits"), total("cache_lookups")),
        "cache.delta_hit_ratio": ratio(total("delta_hits"), total("queries")),
        "fleet.executed_rows_per_recommend": ratio(executed.get("rows_scanned", 0.0), n),
    }.items():
        metrics[name] = (value, n)

    worker_requests = [v for k, v in counters.items() if k.startswith("worker.")]
    metrics["fleet.busiest_worker_share"] = (
        ratio(max(worker_requests, default=0.0), sum(worker_requests)),
        len(worker_requests),
    )
    appends = len(by_kind.get("append", []))
    metrics["chunks.bytes_written_per_user_byte"] = (
        ratio(counters.get("store.bytes", 0.0), appends * workload.user_bytes_per_batch),
        appends,
    )

    # data.*: the set-up that ran under the first tracer.
    def setup_durations(span_name: str) -> list[float]:
        return [
            span.duration
            for spans in setup_spans.values()
            for span in spans
            if span.name == span_name
        ]

    built, written, opened = map(
        setup_durations, ("data.build", "data.write_table", "data.open_table")
    )
    metrics["data.build_s"] = (float(sum(built)), len(built))
    metrics["data.write_table_s"] = (float(sum(written)), len(written))
    metrics["data.open_table_ms"] = (
        statistics.median(opened) * 1e3 if opened else 0.0,
        len(opened),
    )

    handled = [op for op in recommends if op.handler]
    metrics["http.overhead_ms"] = (
        statistics.median(
            (op.end - op.start - op.handler) / calibrator.factor_at(op.start)
            for op in handled
        )
        * 1e3
        if handled
        else 0.0,
        len(handled),
    )
    sizes = workload.response_bytes
    metrics["http.response_bytes"] = (
        float(statistics.median(sizes)) if sizes else 0.0,
        len(sizes),
    )

    put_s, get_s = _l2_probe()
    factor = calibrator.factor_at(time.perf_counter())
    metrics["cache.l2_put_ms"] = (put_s / factor * 1e3, 32)
    metrics["cache.l2_get_ms"] = (get_s / factor * 1e3, 32)
    metrics["cache.bytes"] = (0.0, 0)
    metrics["frontend.hop_overhead_ms"] = (0.0, 0)
    for name, value in workload.probe_layers().items():
        if name.endswith("_ms"):
            value /= factor
        metrics[name] = (value, 1)

    covered = sum(sum(op.own.values()) for op in recommends)
    metrics["trace.coverage_ratio"] = (
        ratio(covered, sum(op.end - op.start for op in recommends)),
        n,
    )
    metrics["trace.overhead_ratio"] = (
        runner.latency_percentile(region, 0.5) / runner.latency_percentile(plain, 0.5),
        n,
    )

    write_trace_file(runner, ops, metrics)
    return metrics


def write_trace_file(
    runner: "Runner", ops: list[_Op], metrics: dict[str, tuple[float, int]]
) -> None:
    """``out/trace-<workload>.json``: the table plus the first operations raw."""
    threads = runner.tracer.threads
    origin = min((spans[0].start for spans in threads.values() if spans), default=0.0)
    main = threads.get(threading.main_thread().ident, [])
    roots = [i for i, span in enumerate(main) if span.parent < 0]
    cut = roots[12] if len(roots) > 12 else len(main)
    payload = {
        "workload": runner.workload.name,
        "seed": runner.workload.seed,
        "per_layer": {name: {"value": v, "n": n} for name, (v, n) in metrics.items()},
        "operations": [
            {
                "kind": op.kind,
                "start_ms": round((op.start - origin) * 1e3, 4),
                "duration_ms": round((op.end - op.start) * 1e3, 4),
                "self_ms": {k: round(v * 1e3, 4) for k, v in sorted(op.own.items())},
                "inclusive_ms": {k: round(v * 1e3, 4) for k, v in sorted(op.incl.items())},
                "calls": dict(sorted(op.calls.items())),
                "counts": dict(sorted(op.counts.items())),
            }
            for op in ops[:200]
        ],
        "first_spans_main_thread": span_rows(main, 0, cut, origin),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{runner.workload.name}.json").write_text(json.dumps(payload, indent=1))
