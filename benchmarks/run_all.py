"""Regenerate every paper table/figure and write EXPERIMENTS.md.

Usage::

    SEEDB_SCALE=small python benchmarks/run_all.py [--only PATTERN] [--quick] [-o PATH]

``smoke`` runs in ~1 minute, ``small`` (default) in several minutes,
``full`` reproduces the paper's dataset sizes (needs tens of GB of RAM for
AIR10 and hours of compute).  ``--only`` filters experiments by name
(shell-style pattern or case-insensitive substring, repeatable) instead of
always running everything; ``--quick`` forces the small-scale ``smoke``
datasets regardless of ``SEEDB_SCALE``.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import sys
import time
from pathlib import Path

from repro.bench import experiments as exp

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by `benchmarks/run_all.py` at scale `{scale}`.

Substrate note (DESIGN.md §2): "modeled latency" comes from the
deterministic cost model over the in-memory DBMS's I/O/CPU accounting — the
substitution for the paper's Postgres/column-store testbed.  Absolute
numbers are not comparable with the paper's wall-clock; the *shapes*
(orderings, speedup factors, crossovers) are what each section checks.

"""


def all_experiments():
    """(name, paper expectation, callable) for every table/figure."""
    return [
        ("Table 1", "dataset inventory shapes match Table 1",
         lambda: exp.table1_datasets()),
        ("Figure 5a (ROW)", "NO_OPT ≫ SHARING ≥ COMB ≥ COMB_EARLY; 50-300x overall",
         lambda: exp.fig5_overall("row")),
        ("Figure 5b (COL)", "same ordering, smaller gains (10-30x)",
         lambda: exp.fig5_overall("col")),
        ("Figure 6", "baseline linear in rows and views; COL ~5x faster",
         exp.fig6_baseline),
        ("Figure 7a", "combining aggregates: 3-4x, sub-linear in n_agg",
         exp.fig7a_aggregates),
        ("Figure 7b", "parallelism U-shape, optimum ~16",
         exp.fig7b_parallelism),
        ("Figure 7b (measured)", "real thread-pool wall-clock speedup to 2x host cores",
         exp.fig7b_measured_speedup),
        ("Figure 8a", "group-by memory cliff: ROW budget 10^4, COL 10^2",
         exp.fig8a_groupby),
        ("Figure 8b", "BP respects budget, ~2.5x on ROW vs MAX_GB(1)",
         exp.fig8b_binpack),
        ("Figure 9", "all sharing: tens-x ROW / several-x COL, grows with size",
         exp.fig9_sharing_all),
        ("Figure 10a", "BANK utilities: top-2 separated, cluster, low tail",
         lambda: exp.fig10_utility_distribution("bank")),
        ("Figure 10b", "DIAB utilities: top-10 closely clustered",
         lambda: exp.fig10_utility_distribution("diab")),
        ("Figure 11", "BANK: CI/MAB accuracy >75%, near-zero utility distance",
         lambda: exp.quality_vs_k("bank")),
        ("Figure 12", "DIAB: accuracy dips at small k, utility distance stays tiny",
         lambda: exp.quality_vs_k("diab")),
        ("Figure 13 (BANK)", "pruning cuts >=50% latency at small k",
         lambda: exp.fig13_latency_vs_k("bank")),
        ("Figure 13 (DIAB)", "same shape on DIAB",
         lambda: exp.fig13_latency_vs_k("diab")),
        ("Figure 15", "interesting views concentrate at top; AUROC ~0.9",
         exp.fig15_user_metric),
        ("Table 2", "SEEDB ~3x bookmarks and rate; tool effect significant",
         exp.table2_user_study),
        ("Ablation: metrics", "other distance functions give comparable top-k",
         exp.ablation_metrics),
        ("Ablation: phases", "phase count trades overhead vs pruning grain",
         exp.ablation_phases),
        ("Ablation: CI delta", "looser delta prunes harder",
         exp.ablation_ci_delta),
        ("Ablation: early return", "COMB_EARLY faster at near-zero quality loss",
         exp.ablation_early_return),
        ("Backends", "native beats sqlite on wall-clock; identical top-k",
         exp.bench_backends_compare),
    ]


def _matches(name: str, patterns: list[str]) -> bool:
    if not patterns:
        return True
    lowered = name.lower()
    for pattern in patterns:
        pattern = pattern.lower()
        if fnmatch.fnmatch(lowered, pattern) or pattern in lowered:
            return True
    return False


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Regenerate paper tables/figures into EXPERIMENTS.md"
    )
    parser.add_argument(
        "output", nargs="?", default="EXPERIMENTS.md",
        help="output markdown path (default: EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--only", action="append", default=[], metavar="PATTERN",
        help="run only experiments whose name matches (glob or substring; "
        "repeatable, e.g. --only 'figure 7*' --only backends)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="force smoke-scale datasets (fast sanity pass)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        os.environ["SEEDB_SCALE"] = "smoke"
    # Imported after --quick so scale-dependent defaults see the override.
    from repro.data.registry import current_scale

    selected = [
        entry for entry in all_experiments() if _matches(entry[0], args.only)
    ]
    if not selected:
        names = [name for name, _, _ in all_experiments()]
        parser.error(f"--only matched nothing; experiments: {names}")
    skipped = len(all_experiments()) - len(selected)
    sections = [HEADER.format(scale=current_scale())]
    for name, expectation, fn in selected:
        started = time.perf_counter()
        print(f"running {name} ...", flush=True)
        table = fn()
        elapsed = time.perf_counter() - started
        sections.append(f"## {name}\n\n**Paper expectation:** {expectation}\n")
        sections.append(table.to_markdown())
        sections.append(f"*(generated in {elapsed:.1f}s)*\n")
        print(table.to_text())
        print()
    if skipped:
        sections.append(f"*({skipped} experiments skipped by --only)*\n")
    Path(args.output).write_text("\n".join(sections))
    print(f"wrote {args.output} ({len(selected)} experiments, {skipped} skipped)")


if __name__ == "__main__":
    main(sys.argv[1:])
