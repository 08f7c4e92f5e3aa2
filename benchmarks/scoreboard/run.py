#!/usr/bin/env python3
"""The scoreboard: one command, four workloads, every metric by name.

    python3 benchmarks/scoreboard/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/scoreboard/run.py [--smoke]            # all four, one after another
    python3 benchmarks/scoreboard/run.py --aa K [--runs R] [--workload W]   # -> NOISE.json

Metric names, units and bounds are read from ``BENCHMARK.json`` at the root
of the checkout; this file computes a value for every name listed there.
Each metric is printed as ``name value unit n`` and the last line of
standard output is the JSON object the driver reads.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOAD_NAMES = ("engine_resident", "live_append", "serve_warm", "serve_fleet")
_CHILD_MARK = "SEEDB_SCOREBOARD_CHILD"


def _reexec_pinned() -> None:
    """Re-exec once with a fixed hash seed and the checkout's ``src`` on the path.

    ``PYTHONHASHSEED`` only takes effect at interpreter start, and the
    fleet's spawned workers inherit the environment, so it is set here and
    not inside the process.  ``TMPDIR`` keeps every temporary file the
    program creates (L2 directories, chunk stores) inside the checkout.
    """
    if os.environ.get(_CHILD_MARK) == "1":
        return
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(
            f"scoreboard: no src/repro or BENCHMARK.json under {ROOT}; "
            "run from a full checkout\n"
        )
        raise SystemExit(2)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env[_CHILD_MARK] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    env.pop("SEEDB_SCALE", None)
    env.pop("SEEDB_FAULTS", None)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, about 1 s per workload")
    parser.add_argument("--aa", type=int, default=0, metavar="K", help="K sets of runs of the same code")
    parser.add_argument("--runs", type=int, default=5, metavar="R", help="runs per set and workload for --aa")
    return parser.parse_args(argv)


def _child_command(args: argparse.Namespace, workload: str, seed: int) -> list[str]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(args.trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    return command


def _run_child(command: list[str], echo: bool) -> dict[str, object]:
    """Run one workload in its own process; return its result object."""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / "aa.log", "a") as log:
            log.write(done.stdout)
    if done.returncode != 0:
        raise SystemExit(f"scoreboard: {' '.join(command[2:])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_all(args: argparse.Namespace) -> int:
    """Every workload once, each in a fresh process so peak RSS is its own."""
    for workload in WORKLOAD_NAMES:
        print(f"== {workload}")
        _run_child(_child_command(args, workload, args.seed), echo=True)
    return 0


def _run_aa(args: argparse.Namespace) -> int:
    """K sets of R runs per workload; record spreads and set-median gaps."""
    import statistics

    from harness import host_description, interquartile_spread

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record: dict[str, object] = {
        "host": host_description(),
        "sets": args.aa,
        "runs_per_set": args.runs,
        "seconds": args.seconds if args.seconds is not None else spec["run_seconds"],
        "workloads": {},
    }
    # With --workload only that one is measured and its rows are merged
    # into the existing record.
    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    noise_path = HERE / "NOISE.json"
    if args.workload and noise_path.is_file():
        record["workloads"] = json.loads(noise_path.read_text())["workloads"]
    seed = args.seed
    values: dict[str, dict[str, list[list[float]]]] = {w: {} for w in names}
    for set_index in range(args.aa):
        for workload in names:
            for _ in range(args.runs):
                seed += 1
                result = _run_child(_child_command(args, workload, seed), echo=False)
                for name, metric in result["metrics"].items():
                    sets = values[workload].setdefault(name, [[] for _ in range(args.aa)])
                    sets[set_index].append(metric["value"])
                print(f"set {set_index} {workload} seed {seed} ok", flush=True)
    for workload, metrics in values.items():
        rows = {}
        for name, sets in metrics.items():
            medians = [statistics.median(s) for s in sets]
            pooled = [v for s in sets for v in s]
            centre = statistics.median(pooled)
            sign = 1.0 if better[name] == "lower" else -1.0
            rows[name] = {
                "set_medians": medians,
                "spread": max(
                    (interquartile_spread(s) for s in sets if len(s) >= 2), default=0.0
                ),
                "largest_gap": (max(medians) - min(medians)) / centre if centre else 0.0,
                "worst_later_set_shift": max(
                    (sign * (later - medians[0]) / medians[0] for later in medians[1:]),
                    default=0.0,
                ),
                "bound": bounds[name],
            }
            print(
                f"{workload:16s} {name:22s} spread {rows[name]['spread']:.4f} "
                f"gap {rows[name]['largest_gap']:.4f} bound {bounds[name]}"
            )
        record["workloads"][workload] = rows  # type: ignore[index]
    noise_path.write_text(json.dumps(record, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    _reexec_pinned()
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.aa:
        return _run_aa(args)
    if args.workload is None:
        return _run_all(args)
    from runner import run_workload

    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
