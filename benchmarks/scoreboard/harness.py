"""Measurement plumbing shared by the four scoreboard workloads.

Three things live here:

* :class:`Calibrator` — the host-speed probe.  This VM's speed drifts by
  10-15 % over tens of seconds, at times far more (shared cores; CPU
  seconds inflate together with wall time), which no run length the
  driver's budget allows can average out.  Three small fixed kernels are
  run every ~80 ms *between* operations, and every duration is divided by
  the slowdown the kernels saw around it.
* :class:`Pacer` — runs the calibrator (and the garbage collector) only
  between operations and, with several load threads, only while every
  thread is parked, so a tick never overlaps a request.
* process accounting (CPU seconds, peak RSS of the run's processes) and
  the percentile helpers.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import statistics
import sys
import threading
import time

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
#: Root of the checkout: ``benchmarks/scoreboard`` is two levels below it.
ROOT = HERE.parents[1]
#: Everything a run writes (trace files, temporary stores) goes under here.
OUT = HERE / "out"

#: Nominal kernel times on the host the noise record was taken on (2 vCPU,
#: Linux 6.18 Firecracker guest), in the order of ``Calibrator.KERNELS``.
#: ``speed factor = measured / nominal``; 1.10 means the host ran 10 %
#: slower than nominal around that tick.  On other hardware the factor has
#: a constant offset, which cancels between two versions of the code
#: measured on the same host.
REF_KERNEL_SECONDS = (2.9e-3, 1.05e-3, 1.5e-3)

_KERNEL_ROWS = 300_000
_KERNEL_GROUPS = 50
#: Ticks on each side of a timestamp whose median factor normalises it.
_WINDOW = 5


class Calibrator:
    """Interleaved host-speed probe; see the module docstring.

    Three kernels, one for each kind of work the program does: a group-by
    over a large array (``db.groupby`` on resident columns), a JSON round
    trip of a response-sized object (allocation-heavy interpreter work: the
    service tier) and a burst of small-array numpy calls (routing results
    into view state, utilities).  On an 8-minute recording with the host
    swinging by 80 % the geometric mean of the three tracked a warm HTTP
    recommend to 5-6 % and an engine call to 4 % over 15 s windows, against
    13-14 % and 11 % raw; a pure-Python counting loop — cache-resident, so
    barely slowed by a noisy neighbour — tracked neither.
    """

    KERNELS = ("numpy", "json", "small")

    def __init__(self) -> None:
        rng = np.random.default_rng(20150831)
        self._values = rng.random(_KERNEL_ROWS)
        self._codes = rng.integers(0, _KERNEL_GROUPS, _KERNEL_ROWS)
        self._mask = rng.random(_KERNEL_ROWS) > 0.5
        self._small = [rng.random(40) for _ in range(50)]
        self._document = {
            "session_id": "0123456789abcdef",
            "views": [
                {"rank": i, "dimension": f"dim_{i}", "measure": f"m_{i}", "func": "AVG",
                 "utility": 0.1 * i, "top_group": f"group_{i}"}
                for i in range(5)
            ],
            "stats": {f"counter_{i}": i * 1.5 for i in range(10)},
        }
        self._times: list[float] = []
        self._factors: list[float] = []
        #: Per kernel, the seconds each tick took (for the printed report).
        self.kernel_seconds: list[list[float]] = [[] for _ in self.KERNELS]

    def tick(self) -> None:
        """Run the kernels once and record the slowdown they saw."""
        t0 = time.perf_counter()
        for _ in range(2):
            selector = np.flatnonzero(self._mask)
            np.bincount(
                self._codes[selector],
                weights=self._values[selector],
                minlength=_KERNEL_GROUPS,
            )
        t1 = time.perf_counter()
        for _ in range(40):
            json.loads(json.dumps(self._document))
        t2 = time.perf_counter()
        for _ in range(6):
            for array in self._small:
                above = array > 0.5
                array[above].sum() + np.abs(array - 0.3).max()
        t3 = time.perf_counter()
        seconds = (t1 - t0, t2 - t1, t3 - t2)
        for sink, value in zip(self.kernel_seconds, seconds):
            sink.append(value)
        self._times.append(t0)
        self._factors.append(
            math.exp(
                sum(math.log(s / ref) for s, ref in zip(seconds, REF_KERNEL_SECONDS))
                / len(seconds)
            )
        )

    def factor_at(self, when: float) -> float:
        """Median slowdown over the ticks nearest to ``when``."""
        if not self._factors:
            return 1.0
        width = 2 * _WINDOW + 1
        centre = bisect.bisect_left(self._times, when)
        # Near either end the window slides inwards rather than shrinking.
        low = max(0, min(centre - _WINDOW, len(self._factors) - width))
        return statistics.median(self._factors[low : low + width])

    def ticks_between(self, start: float, stop: float) -> tuple[int, int]:
        """Index range of the ticks taken in ``[start, stop]``."""
        return bisect.bisect_left(self._times, start), bisect.bisect_right(self._times, stop)

    def factor_between(self, start: float, stop: float) -> float:
        """Median slowdown over the ticks taken in ``[start, stop]``."""
        low, high = self.ticks_between(start, stop)
        if high - low < 3:
            return self.factor_at((start + stop) / 2)
        return statistics.median(self._factors[low:high])


class Pacer:
    """Calibrate and collect garbage between operations, never inside one.

    Every load thread calls :meth:`gate` before each operation.  Thread 0
    owns the clock: when ``interval`` seconds of work have passed it asks
    the other threads to park at their next gate, waits until they have,
    runs ``gc.collect()`` and one calibrator tick, and releases them.  The
    wall and CPU time of the ticks are accumulated so ``setup_s`` and CPU
    per recommend can leave them out.
    """

    def __init__(self, calibrator: Calibrator, interval: float) -> None:
        self.calibrator = calibrator
        self.interval = interval
        self.paused_seconds = 0.0
        self.paused_cpu_seconds = 0.0
        self._cond = threading.Condition()
        self._active = 1
        self._parked = 0
        self._pausing = False
        self._last_tick = 0.0

    def arm(self, n_threads: int) -> None:
        """Expect ``n_threads`` load threads to pass the gate from now on."""
        with self._cond:
            self._active = n_threads

    def tick(self) -> None:
        """Collect garbage and calibrate now (single-threaded phases)."""
        started, cpu_started = time.perf_counter(), time.process_time()
        gc.collect()
        self.calibrator.tick()
        self._last_tick = time.perf_counter()
        self.paused_seconds += self._last_tick - started
        self.paused_cpu_seconds += time.process_time() - cpu_started

    def gate(self, thread: int) -> None:
        """Called by load thread ``thread`` between two operations."""
        if thread != 0:
            with self._cond:
                if self._pausing:
                    self._parked += 1
                    self._cond.notify_all()
                    self._cond.wait_for(lambda: not self._pausing)
                    self._parked -= 1
            return
        if time.perf_counter() - self._last_tick < self.interval:
            return
        with self._cond:
            self._pausing = True
            self._cond.wait_for(lambda: self._parked >= self._active - 1)
        try:
            self.tick()
        finally:
            with self._cond:
                self._pausing = False
                self._cond.notify_all()

    def retire(self) -> None:
        """A load thread has finished; stop waiting for it to park."""
        with self._cond:
            self._active -= 1
            self._cond.notify_all()


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def interquartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the driver's steadiness measure."""
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


# --------------------------------------------------------------------------- #
# process accounting
# --------------------------------------------------------------------------- #

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The command name may contain spaces; fields resume after ")".
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MiB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_description() -> dict[str, object]:
    """What the noise record and the README state about the host."""
    return {
        "nproc": os.cpu_count(),
        "kernel": os.uname().release,
        "machine": os.uname().machine,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
    }
