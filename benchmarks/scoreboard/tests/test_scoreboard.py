"""Determinism, contract and hygiene tests of the scoreboard harness.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/scoreboard/tests -q

Every test drives ``run.py`` the way the driver does, at ``--smoke`` size.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")
WORKLOADS = ("engine_resident", "live_append", "serve_warm", "serve_fleet")
#: Per-layer metrics that must repeat exactly for a fixed seed.
EXACT = (
    "sharing.queries_per_recommend",
    "shared_scan.batches_per_recommend",
    "storage.rows_scanned_per_recommend",
    "storage.bytes_scanned_per_recommend",
    "groupby.groups_per_recommend",
    "streaming.chunks_per_recommend",
    "chunks.bytes_written_per_user_byte",
    "pruning.views_pruned_ratio",
    "pruning.phases_executed",
    "cache.hit_ratio",
    "cache.delta_hit_ratio",
    "fleet.executed_rows_per_recommend",
)


def run(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "SEEDB_SCOREBOARD_CHILD"}
    done = subprocess.run(
        [sys.executable, RUN, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py {args} exited {done.returncode}\n{done.stdout}\n{done.stderr}")
    return done


def parse(stdout: str) -> tuple[dict, dict[str, str]]:
    """The result object and the ``name value unit n`` lines before it."""
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) in (2, 4) and not line.startswith("#"):
            printed[parts[0]] = parts[1]
    return json.loads(lines[-1]), printed


def worker_pids() -> set[int]:
    """Pids of multiprocessing children alive on this machine."""
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"multiprocessing" in command and b"resource_tracker" not in command:
                found.add(int(entry.name))
    return found


def leftovers() -> list[Path]:
    tmp = HERE / "out" / "tmp"
    return list(tmp.iterdir()) if tmp.is_dir() else []


def test_benchmark_json_keeps_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/scoreboard"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", n) for n in names)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25 and metric["bound"] <= setup["bound"]
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_script_and_counts(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, first_lines = parse(run("--workload", workload, "--smoke", "--seed", "5", "--trace", "1").stdout)
    again, again_lines = parse(run("--workload", workload, "--smoke", "--seed", "5", "--trace", "1").stdout)
    other, other_lines = parse(run("--workload", workload, "--smoke", "--seed", "6", "--trace", "1").stdout)
    for result in (first, again, other):
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert first_lines["script_sha256"] == again_lines["script_sha256"]
    assert first_lines["script_sha256"] != other_lines["script_sha256"]
    assert first_lines["topk_accuracy"] == again_lines["topk_accuracy"]
    assert first_lines["failed_ratio"] == again_lines["failed_ratio"] == "0"
    for name in EXACT:
        assert first["metrics"][name]["value"] == again["metrics"][name]["value"], name
    if workload == "engine_resident":
        assert first["metrics"]["trace.coverage_ratio"]["value"] >= 0.85
    if workload == "serve_warm":
        assert first["metrics"]["cache.hit_ratio"]["value"] == 1.0
    if workload == "live_append":
        assert first["metrics"]["cache.delta_hit_ratio"]["value"] == 1.0
        queries = first["metrics"]["sharing.queries_per_recommend"]["value"]
        assert first["metrics"]["storage.rows_scanned_per_recommend"]["value"] == queries * 1000
    if workload != "engine_resident":
        assert float(first_lines["topk_accuracy"]) == 1.0
    if workload != "serve_fleet":
        assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_smoke_runs_all_four_within_thirty_seconds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = worker_pids()
    started = time.monotonic()
    done = run("--smoke", "--seed", "3")
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0, f"--smoke took {elapsed:.1f} s"
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert worker_pids() <= before
    assert leftovers() == []


def test_interrupt_reaps_workers_and_removes_temp_dirs():
    before = worker_pids()
    process = subprocess.Popen(
        [sys.executable, RUN, "--workload", "serve_fleet", "--smoke", "--seconds", "60"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 60
    while not (worker_pids() - before) and time.monotonic() < deadline:
        time.sleep(0.2)
    assert worker_pids() - before, "the fleet never came up"
    time.sleep(1.0)
    process.send_signal(signal.SIGINT)
    stdout, _ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert not any(line.startswith("{") for line in stdout.splitlines())
    deadline = time.monotonic() + 10
    while worker_pids() - before and time.monotonic() < deadline:
        time.sleep(0.2)
    assert worker_pids() <= before
    assert leftovers() == []


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "scoreboard",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/scoreboard/run.py", "--workload", "serve_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SEEDB_SCOREBOARD_CHILD")},
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_wrappers_are_uninstalled():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from repro.core import engine, sharing
        from repro.core.engine import ExecutionEngine
        from tracing import Tracer

        originals = (ExecutionEngine.__dict__["run"], sharing.plan_queries, engine.plan_queries)
        tracer = Tracer()
        tracer.install()
        assert ExecutionEngine.__dict__["run"] is not originals[0]
        assert engine.plan_queries is not originals[2]
        with pytest.raises(RuntimeError):
            Tracer().install()
        tracer.uninstall()
        tracer.uninstall()
        assert (
            ExecutionEngine.__dict__["run"], sharing.plan_queries, engine.plan_queries
        ) == originals
    finally:
        del sys.path[:2]
