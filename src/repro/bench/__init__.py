"""Paper harness: one function per paper table/figure, plus ablations.

:mod:`repro.bench.experiments` contains the experiment implementations; the
``benchmarks/`` directory wraps them as pytest-benchmark targets, and
``benchmarks/run_all.py`` regenerates every series and writes
EXPERIMENTS.md.  The harness measures the engine only.  Serving numbers
come from the scoreboard (``benchmarks/scoreboard/``, declared by
``BENCHMARK.json``); fault recovery is tested, not timed
(``tests/service/test_chaos.py``).  So nothing here imports
:mod:`repro.service` or :mod:`repro.testing`.
"""

from repro.bench.tables import ResultTable
from repro.bench.harness import BenchContext, scaled_buffer_pool

__all__ = ["BenchContext", "ResultTable", "scaled_buffer_pool"]
