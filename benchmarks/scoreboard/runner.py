"""Runs one workload: set-up, warm-up, timed region, oracle, metrics.

The order of a run is fixed::

    prepare inputs -> set up (x3, median) -> warm up -> gc.freeze
    -> timed passes until --seconds have gone by (peak RSS read after a
       fixed number of them) -> oracle -> report

A traced run (``--trace 1``) sets up once, measures a short untraced
region, installs the span wrappers, measures the traced region, removes
the wrappers and reports the per-layer metrics instead.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import http.client
import itertools
import json
import os
import shutil
import signal
import statistics
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from harness import (
    ROOT,
    Calibrator,
    Pacer,
    peak_rss_mb,
    percentile,
    process_cpu_seconds,
)
from layers import layer_metrics
from repro.exceptions import ReproError
from tracing import Tracer
from workloads import WORKLOADS, Workload

SETUP_REPEATS = 3
#: Seconds of load-thread work between two calibrator ticks.
TICK_INTERVAL = 0.08
_OP_ERRORS = (ReproError, OSError, http.client.HTTPException)


class OperationFailed(Exception):
    """An operation raised; the rest of its pass is skipped."""


class Sample(NamedTuple):
    """One timed operation of a load thread."""

    kind: str
    start: float
    seconds: float
    #: Requests of unlike cost (the HTTP workloads' three datasets) are
    #: kept apart: percentiles are taken per stratum and then averaged.
    stratum: str


class Region:
    """Samples and clocks of one measured stretch of passes."""

    def __init__(self, n_threads: int) -> None:
        self.ops: list[list[Sample]] = [[] for _ in range(n_threads)]
        #: Per load thread, at the start and after each script cycle:
        #: ``(operations so far, wall clock, CPU clock of the whole run)``.
        self.marks: list[list[tuple[int, float, float]]] = [[] for _ in range(n_threads)]
        self.start = self.stop = 0.0
        self.passes = 0
        #: ``VmHWM`` summed over the run's processes once load thread 0 has
        #: done ``Runner.rss_passes`` passes (0 until then).
        self.peak_rss_mb = 0.0

    def recommends(self) -> list[Sample]:
        return [op for ops in self.ops for op in ops if op.kind == "recommend"]


def stratified_percentile(samples: list[tuple[str, float]], q: float) -> float:
    """Mean over strata of each stratum's ``q`` percentile.

    A pooled median of a mixture sits wherever the mixture's proportions
    put it — on ``serve_fleet`` at the edge between the 25 ms and the 42 ms
    dataset, moving by 10 % with the seed's session lengths.
    """
    strata: dict[str, list[float]] = {}
    for stratum, value in samples:
        strata.setdefault(stratum, []).append(value)
    return statistics.fmean(percentile(values, q) for values in strata.values())


class Runner:
    def __init__(self, workload: Workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        #: Passes of the timed region after which peak RSS is read: a fixed
        #: amount of work (0.4 of a nominal run), not the end of the clock.
        #: ``live_append`` grows by every batch it appends, so a peak read
        #: at the deadline would follow the host's speed.
        self.rss_passes = max(1, round(0.4 * seconds / workload.nominal_pass_seconds))
        self.calibrator = Calibrator()
        self.pacer = Pacer(self.calibrator, TICK_INTERVAL)
        self.tracer = Tracer()
        self.attempted = 0
        self._count_lock = threading.Lock()
        self._region: Region | None = None
        self._next_pass = [0] * workload.n_threads
        self._loop_errors: list[BaseException] = []

    # -------------------------------------------------------------- #
    # the op callable handed to the workload
    # -------------------------------------------------------------- #

    def op_for(self, thread: int) -> Callable[[str, Callable[[], Any]], Any]:
        def op(kind: str, call: Callable[[], Any], stratum: str = "") -> Any:
            self.pacer.gate(thread)
            span = self.tracer.begin("op." + kind) if self.tracer.installed else None
            started = time.perf_counter()
            try:
                result = call()
            except _OP_ERRORS as exc:
                self.workload.fail(f"{kind} raised {exc!r}")
                raise OperationFailed(kind) from exc
            finally:
                ended = time.perf_counter()
                if span is not None:
                    self.tracer.end(span)
                with self._count_lock:
                    self.attempted += 1
            region = self._region
            if region is not None:
                region.ops[thread].append(Sample(kind, started, ended - started, stratum))
            return result

        return op

    # -------------------------------------------------------------- #
    # phases
    # -------------------------------------------------------------- #

    def timed_setup(self) -> float:
        """One cold set-up; host-speed-normalised seconds."""
        self.pacer.tick()
        paused = self.pacer.paused_seconds
        started = time.perf_counter()
        self.workload.setup(self.op_for(0))
        ended = time.perf_counter()
        busy = ended - started - (self.pacer.paused_seconds - paused)
        self.pacer.tick()
        return busy / self.calibrator.factor_between(started - 1.0, ended + 1.0)

    def _cpu_clock(self) -> float:
        """CPU seconds of every process of the run so far, ticks left out."""
        return (
            time.process_time()
            - self.pacer.paused_cpu_seconds
            + sum(process_cpu_seconds(pid) for pid in self.workload.worker_pids())
        )

    def _mark(self, thread: int, region: Region) -> None:
        # Only thread 0's CPU clock is read (see end_to_end); sparing the
        # others the /proc reads keeps their marks free.
        cpu = self._cpu_clock() if thread == 0 else 0.0
        region.marks[thread].append((len(region.ops[thread]), time.perf_counter(), cpu))

    def _loop(self, thread: int, region: Region, deadline: float, passes: int) -> None:
        op = self.op_for(thread)
        cycle = self.workload.passes_per_cycle
        try:
            self._mark(thread, region)
            for done in itertools.count(1):
                index = self._next_pass[thread]
                self._next_pass[thread] += 1
                try:
                    self.workload.run_pass(thread, index, op)
                except OperationFailed:
                    pass
                if thread == 0:
                    region.passes += 1
                    if done == self.rss_passes:
                        region.peak_rss_mb = sum(
                            peak_rss_mb(pid) for pid in (os.getpid(), *self.workload.worker_pids())
                        )
                if self._next_pass[thread] % cycle == 0:
                    self._mark(thread, region)
                    if done >= passes and time.perf_counter() >= deadline:
                        break
        except BaseException as exc:
            # Re-raised on the main thread by measure() once all have joined.
            self._loop_errors.append(exc)
        finally:
            if thread != 0:
                self.pacer.retire()

    def measure(self, seconds: float = 0.0, passes: int = 0) -> Region:
        """Whole script cycles on every load thread.

        Until ``seconds`` have passed (the end-to-end run, which the driver
        time-boxes), or for ``passes`` passes per thread (the traced run:
        fixed work, so that every count repeats exactly).
        """
        workload = self.workload
        region = Region(workload.n_threads)
        self.pacer.arm(workload.n_threads)
        self.pacer.tick()
        self._region = region
        region.start = time.perf_counter()
        deadline = region.start + seconds
        others = [
            threading.Thread(
                target=self._loop, args=(t, region, deadline, passes), name=f"load-{t}"
            )
            for t in range(1, workload.n_threads)
        ]
        for thread in others:
            thread.start()
        try:
            self._loop(0, region, deadline, passes)
        finally:
            for thread in others:
                thread.join()
            region.stop = time.perf_counter()
            self._region = None
            self.pacer.arm(1)
        if self._loop_errors:
            raise self._loop_errors[0]
        self.pacer.tick()
        return region

    # -------------------------------------------------------------- #
    # metrics
    # -------------------------------------------------------------- #

    def latency_percentile(self, region: Region, q: float, calibrated: bool = True) -> float:
        """Stratified percentile (seconds) of the region's recommend calls."""
        return stratified_percentile(
            [
                (
                    op.stratum,
                    op.seconds
                    / (self.calibrator.factor_at(op.start + op.seconds / 2) if calibrated else 1.0),
                )
                for op in region.recommends()
            ],
            q,
        )

    def end_to_end(self, region: Region, setups: list[float], accuracy: float) -> dict[str, tuple[float, int]]:
        """name -> (value, samples behind it).

        Throughput and CPU are medians over script cycles, like the
        latencies are medians over requests: a stall of the host lands in
        one cycle and not in the mean of the whole region.
        """
        factor_at = self.calibrator.factor_at
        n = len(region.recommends())
        # Closed loop: a load thread is inside an operation whenever it is
        # not parked at the pacer, so the time a cycle's operations add up
        # to is the wall time the thread offered load for.
        rates = []
        for ops, marks in zip(region.ops, region.marks):
            per_cycle = []
            for (first, _, _), (last, _, _) in itertools.pairwise(marks):
                cycle = ops[first:last]
                busy = sum(op.seconds / factor_at(op.start + op.seconds / 2) for op in cycle)
                per_cycle.append(sum(op.kind == "recommend" for op in cycle) / busy)
            rates.append(per_cycle)
        ended = sorted(op.start + op.seconds for op in region.recommends())
        cpu = [
            (cpu_b - cpu_a)
            / factor_at((wall_a + wall_b) / 2)
            / (bisect.bisect_right(ended, wall_b) - bisect.bisect_right(ended, wall_a))
            for (_, wall_a, cpu_a), (_, wall_b, cpu_b) in itertools.pairwise(region.marks[0])
        ]
        return {
            "setup_s": (statistics.median(setups), len(setups)),
            "recommend_p50_ms": (self.latency_percentile(region, 0.50) * 1e3, n),
            "recommend_p90_ms": (self.latency_percentile(region, 0.90) * 1e3, n),
            "recommends_per_s": (sum(map(statistics.median, rates)), len(rates[0])),
            "cpu_s_per_recommend": (statistics.median(cpu), len(cpu)),
            "peak_rss_mb": (region.peak_rss_mb, 1 + len(self.workload.worker_pids())),
            "topk_accuracy": (accuracy, n),
        }

    def bring_up(self, repeats: int, info: dict[str, tuple[float, int]]) -> list[float]:
        """Prepare the inputs, then set up ``repeats`` times; the set-up times."""
        started = time.perf_counter()
        self.workload.prepare()
        info["prepare_s"] = (time.perf_counter() - started, 1)
        setups = [self.timed_setup()]
        for _ in range(1, repeats):
            self.workload.teardown()
            setups.append(self.timed_setup())
        return setups

    @contextlib.contextmanager
    def collector_frozen(self):
        """No collection inside an operation: the pacer collects between them."""
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
            gc.unfreeze()

    def describe(self, region: Region, info: dict[str, tuple[float, int]]) -> None:
        """The informational lines printed above the metrics."""
        calibrator = self.calibrator
        ticks = slice(*calibrator.ticks_between(region.start, region.stop))
        n = len(region.recommends())
        info["timed_seconds"] = (region.stop - region.start, region.passes)
        info["host.speed_factor"] = (
            calibrator.factor_between(region.start, region.stop),
            ticks.stop - ticks.start,
        )
        for kernel, seconds in zip(calibrator.KERNELS, calibrator.kernel_seconds):
            info[f"host.{kernel}_kernel_ms"] = (
                statistics.median(seconds[ticks]) * 1e3,
                ticks.stop - ticks.start,
            )
        for q in (50, 90):
            info[f"raw.recommend_p{q}_ms"] = (
                self.latency_percentile(region, q / 100, calibrated=False) * 1e3,
                n,
            )
        info["failed_ratio"] = (
            len(self.workload.failures) / max(self.attempted, 1),
            self.attempted,
        )

    def run_plain(self) -> tuple[dict[str, tuple[float, int]], dict[str, tuple[float, int]]]:
        """``--trace 0``: ``(end-to-end metrics, informational values)``."""
        info: dict[str, tuple[float, int]] = {}
        setups = self.bring_up(2 if self.workload.smoke else SETUP_REPEATS, info)
        self.measure(seconds=0.3 if self.workload.smoke else 1.0)
        with self.collector_frozen():
            region = self.measure(seconds=self.seconds, passes=self.rss_passes)
        accuracy = self.workload.verify()
        self.describe(region, info)
        return self.end_to_end(region, setups, accuracy), info

    def run_traced(self) -> tuple[dict[str, tuple[float, int]], dict[str, tuple[float, int]]]:
        """``--trace 1``: ``(per-layer metrics, informational values)``."""
        info: dict[str, tuple[float, int]] = {}
        workload = self.workload
        self.tracer.install()
        try:
            self.bring_up(1, info)
        finally:
            self.tracer.uninstall()
        setup_spans = self.tracer.threads
        # Fixed work from here on: pass counts sized from the pass's nominal
        # length on the reference host, not from the clock.
        per_second = 1.0 / workload.nominal_pass_seconds
        self.measure(passes=round(per_second * (0.3 if workload.smoke else 1.0)))
        with self.collector_frozen():
            plain = self.measure(passes=round(per_second * self.seconds * 0.4))
            before = workload.counters()
            workload.measure_response_bytes = True
            self.tracer = Tracer()
            self.tracer.install()
            try:
                region = self.measure(passes=round(per_second * self.seconds * 0.6))
            finally:
                self.tracer.uninstall()
            after = workload.counters()
        info["topk_accuracy"] = (workload.verify(), len(region.recommends()))
        self.describe(region, info)
        counters = {name: after[name] - before[name] for name in after}
        metrics = layer_metrics(self, region, plain, setup_spans, counters)
        metrics["host.speed_factor"] = info.pop("host.speed_factor")
        return metrics, info


def _sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def run_workload(name: str, seed: int, seconds: float | None, trace: bool, smoke: bool) -> int:
    """Run one workload and print its report; the process exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if seconds is None:
        seconds = 1.5 if smoke else float(spec["run_seconds"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-"))
    # The library's own temporary directories (the fleet's L2 tier) follow.
    tempfile.tempdir = str(workdir)
    signal.signal(signal.SIGTERM, _sigterm)
    workload = WORKLOADS[name](seed, smoke, workdir)
    runner = Runner(workload, seconds)
    try:
        metrics, info = runner.run_traced() if trace else runner.run_plain()
        digest = workload.script_digest()
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(workload.failures)
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} smoke={int(smoke)}")
    print(f"script_sha256 {digest}")
    for label, (value, n) in info.items():
        print(f"{label} {value:.6g} - {n}")
    report = {}
    for metric in wanted:
        value, n = metrics[metric["name"]]
        print(f"{metric['name']} {value:.6g} {metric['unit']} {n}")
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for message in workload.failures[:20]:
        print(f"MISMATCH {message}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": report,
            }
        )
    )
    return 0 if failed == 0 else 1
