"""One function per paper table/figure (the per-experiment index of DESIGN.md).

Every function returns a :class:`~repro.bench.tables.ResultTable` whose rows
are the series the corresponding figure plots.  ``SEEDB_SCALE`` controls
dataset sizes and repetition counts (smoke/small/full); the *shapes* —
orderings, speedup factors, crossovers — are scale-stable, which is what
EXPERIMENTS.md compares against the paper.
"""

from __future__ import annotations

import os
import time
from typing import Mapping

import numpy as np

from repro.bench.harness import BenchContext, scaled_buffer_pool
from repro.bench.tables import ResultTable
from repro.core.recommender import SeeDB, tuned_config
from repro.core.result import accuracy, utility_distance
from repro.data import registry, synthetic
from repro.data.registry import current_scale
from repro.db.expressions import eq
from repro.study import (
    ExpertPanel,
    consensus_labels,
    roc_curve,
    run_user_study,
)

# --------------------------------------------------------------------------- #
# scale knobs
# --------------------------------------------------------------------------- #


def _runs_for_quality() -> int:
    """Shuffled repetitions for the §5.4 quality experiments (paper: 20)."""
    return {"smoke": 3, "small": 5, "full": 20}[current_scale()]


def _quality_ks() -> list[int]:
    return {
        "smoke": [1, 5, 10],
        "small": [1, 2, 3, 5, 7, 10, 15, 20, 25],
        "full": list(range(1, 26)),
    }[current_scale()]


def _syn_rows() -> list[int]:
    return {
        "smoke": [2_000, 5_000, 10_000],
        "small": [25_000, 50_000, 100_000],
        "full": [100_000, 250_000, 500_000, 1_000_000],
    }[current_scale()]


def _syn_views() -> list[int]:
    return {"smoke": [20, 50], "small": [50, 100, 250], "full": [50, 100, 150, 200, 250]}[
        current_scale()
    ]


# --------------------------------------------------------------------------- #
# Table 1 — dataset inventory
# --------------------------------------------------------------------------- #


def table1_datasets(scale: str | None = None) -> ResultTable:
    table = ResultTable(
        "Table 1: datasets (surrogates; paper_rows = published row count)",
        notes="|A| x |M| = view count; sizes are logical bytes at the built scale",
    )
    for row in registry.table_one_inventory(scale=scale):
        table.add(**row)
    return table


# --------------------------------------------------------------------------- #
# Figure 5 — overall speedups on real datasets
# --------------------------------------------------------------------------- #

_FIG5_STRATEGIES = (
    ("no_opt", "none"),
    ("sharing", "none"),
    ("comb", "ci"),
    ("comb_early", "ci"),
)


def fig5_overall(store: str = "row", datasets: tuple[str, ...] | None = None, k: int = 10) -> ResultTable:
    """NO_OPT vs SHARING vs COMB vs COMB_EARLY, CI pruning, k=10 (Fig. 5a/5b)."""
    if datasets is None:
        datasets = ("bank", "diab", "air") if current_scale() != "full" else (
            "bank", "diab", "air", "air10"
        )
    table = ResultTable(
        f"Figure 5 ({store.upper()}): latency by strategy, k={k}, CI pruning",
        notes="speedup is modeled latency relative to NO_OPT on the same store",
    )
    for dataset in datasets:
        ctx = BenchContext.for_dataset(dataset, store=store)  # type: ignore[arg-type]
        base_latency = None
        for strategy, pruner in _FIG5_STRATEGIES:
            run = ctx.cold_run(k=k, strategy=strategy, pruner=pruner)
            if base_latency is None:
                base_latency = run.modeled_latency
            table.add(
                dataset=dataset.upper(),
                strategy=strategy.upper(),
                modeled_latency_s=run.modeled_latency,
                wall_s=run.wall_seconds,
                queries=run.stats.queries_issued,
                phases=run.phases_executed,
                speedup=base_latency / max(run.modeled_latency, 1e-12),
            )
    return table


# --------------------------------------------------------------------------- #
# Figure 6 — baseline latency vs rows and vs views
# --------------------------------------------------------------------------- #


def fig6_baseline(store_kinds: tuple[str, ...] = ("row", "col")) -> ResultTable:
    """NO_OPT latency vs dataset size (6a) and number of views (6b) on SYN."""
    table = ResultTable(
        "Figure 6: basic framework (NO_OPT) latency scaling on SYN",
        notes="linear in rows and views; COL ~5x faster than ROW",
    )
    views_fixed = min(_syn_views()[-1], 100)
    for n_rows in _syn_rows():
        syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=10, n_measures=5)
        for store in store_kinds:
            seedb = SeeDB.over_table(
                syn, store=store, config=tuned_config(store), buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
            )
            space = list(seedb.view_space())[: views_fixed]
            run = seedb.run_engine(
                eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE),
                k=10,
                strategy="no_opt",
                pruner="none",
                views=space,
            )
            table.add(
                sweep="rows",
                store=store.upper(),
                n_rows=n_rows,
                n_views=len(space),
                modeled_latency_s=run.modeled_latency,
                queries=run.stats.queries_issued,
            )
    rows_fixed = _syn_rows()[0]
    syn = synthetic.make_syn(n_rows=rows_fixed, n_dimensions=25, n_measures=10)
    for n_views in _syn_views():
        for store in store_kinds:
            seedb = SeeDB.over_table(
                syn, store=store, config=tuned_config(store), buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
            )
            space = list(seedb.view_space())[:n_views]
            run = seedb.run_engine(
                eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE),
                k=10,
                strategy="no_opt",
                pruner="none",
                views=space,
            )
            table.add(
                sweep="views",
                store=store.upper(),
                n_rows=rows_fixed,
                n_views=n_views,
                modeled_latency_s=run.modeled_latency,
                queries=run.stats.queries_issued,
            )
    return table


# --------------------------------------------------------------------------- #
# Figure 7a — combine multiple aggregates
# --------------------------------------------------------------------------- #


def fig7a_aggregates(store_kinds: tuple[str, ...] = ("row", "col")) -> ResultTable:
    """Latency vs max aggregates per query, n_agg in 1..20 (Fig. 7a)."""
    table = ResultTable(
        "Figure 7a: effect of combining multiple aggregates (SYN)",
        notes="latency falls with n_agg, sub-linearly; 3-4x total",
    )
    n_rows = _syn_rows()[0]
    syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=5, n_measures=20)
    n_aggs = [1, 2, 5, 10, 20] if current_scale() != "smoke" else [1, 5, 20]
    for store in store_kinds:
        for n_agg in n_aggs:
            config = tuned_config(store).with_(  # type: ignore[arg-type]
                max_aggregates_per_query=n_agg,
                use_binpacking=False,
                max_group_bys_per_query=1,
            )
            seedb = SeeDB.over_table(
                syn, store=store, config=config, buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
            )
            run = seedb.run_engine(
                eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE),
                k=10,
                strategy="sharing",
                pruner="none",
            )
            table.add(
                store=store.upper(),
                n_agg=n_agg,
                modeled_latency_s=run.modeled_latency,
                queries=run.stats.queries_issued,
            )
    return table


# --------------------------------------------------------------------------- #
# Figure 7b — parallel query execution
# --------------------------------------------------------------------------- #


#: Fig. 7b's published x-axis: parallelism levels around the paper's 16 cores.
_FIG7B_MODELED_POINTS = (1, 2, 4, 8, 16, 24, 32, 48, 64)


def _measured_worker_points(limit: int) -> set[int]:
    """Worker counts to measure in the range 1..limit: powers of two plus
    the endpoint — dense enough for the curve shape without making the
    sweep linear in the host's core count."""
    points = {1, limit}
    n = 2
    while n < limit:
        points.add(n)
        n *= 2
    return points


def _measured_rows(scale: str | None = None) -> int:
    """SYN row count for measured-speedup runs (1M rows at full scale —
    the acceptance-criterion table)."""
    return {"smoke": 20_000, "small": 100_000, "full": 1_000_000}[
        scale or current_scale()
    ]


def fig7b_parallelism(store: str = "row", measure: bool = True) -> ResultTable:
    """Latency vs number of parallel queries; optimum near n_cores (Fig. 7b).

    Every sweep point reports the deterministic *modeled* latency (the
    U-shape with its optimum at the modeled core count).  Points spanning 1
    to 2x the **host's** cores (powers of two plus the endpoint)
    additionally execute the same run with ``parallelism="real"`` — genuine
    thread-pool query execution — and report measured wall seconds plus
    speedup over the 1-worker run, so the measured curve sits next to the
    modeled one.  Each measured point also re-checks the determinism
    contract (identical ``selected``).
    """
    host_cores = os.cpu_count() or 1
    table = ResultTable(
        "Figure 7b: effect of parallelism (SYN)",
        notes="modeled U-shape with optimum at ~16 (the modeled core count); "
        f"wall_s/measured_speedup are real thread-pool runs (host cores: {host_cores})",
    )
    n_rows = _syn_rows()[0]
    syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=20, n_measures=10)
    target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
    measured_points = _measured_worker_points(2 * host_cores) if measure else set()
    base_wall: float | None = None
    for n_parallel in sorted(set(_FIG7B_MODELED_POINTS) | measured_points):
        config = tuned_config(store).with_(  # type: ignore[arg-type]
            n_parallel_queries=n_parallel,
            use_binpacking=False,
            max_group_bys_per_query=1,
            max_aggregates_per_query=1,
        )
        seedb = SeeDB.over_table(
            syn, store=store, config=config, buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
        )
        run = seedb.run_engine(target, k=10, strategy="sharing", pruner="none")
        row: dict[str, object] = dict(
            store=store.upper(),
            n_parallel=n_parallel,
            modeled_latency_s=run.modeled_latency,
            queries=run.stats.queries_issued,
        )
        if n_parallel in measured_points:
            seedb.store.buffer_pool.clear()
            real = seedb.run_engine(
                target, k=10, strategy="sharing", pruner="none", parallelism="real"
            )
            if real.selected != run.selected:
                raise AssertionError(
                    f"parallel run ({n_parallel} workers) broke determinism"
                )
            if base_wall is None:
                base_wall = real.wall_seconds
            row.update(
                wall_s=real.wall_seconds,
                measured_speedup=base_wall / max(real.wall_seconds, 1e-12),
            )
        table.add(**row)
    return table


def fig7b_measured_speedup(
    n_rows: int | None = None,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    store: str = "row",
) -> ResultTable:
    """Measured wall-clock speedup of real parallel execution (Fig. 7b).

    Runs the SHARING strategy over a SYN table (default: scale-resolved
    rows — 1M at full scale, the acceptance-criterion table; pass ``n_rows``
    to override) at each worker count and reports wall seconds and speedup
    relative to one worker.  NumPy releases the GIL on the aggregation hot
    paths, so the thread pool yields true parallel speedup when the host
    has the cores.
    """
    n_rows = n_rows or _measured_rows()
    table = ResultTable(
        f"Figure 7b (measured): wall-clock speedup on SYN, {n_rows:,} rows",
        notes=f"host cores: {os.cpu_count() or 1}; speedup relative to 1 worker",
    )
    syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=10, n_measures=5)
    target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
    base_wall: float | None = None
    baseline_selected = None
    for n_workers in worker_counts:
        config = tuned_config(store).with_(  # type: ignore[arg-type]
            n_parallel_queries=n_workers,
            use_binpacking=False,
            max_group_bys_per_query=1,
            max_aggregates_per_query=1,
        )
        seedb = SeeDB.over_table(
            syn, store=store, config=config, buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
        )
        run = seedb.run_engine(
            target, k=10, strategy="sharing", pruner="none", parallelism="real"
        )
        if baseline_selected is None:
            baseline_selected = run.selected
        elif run.selected != baseline_selected:
            raise AssertionError(
                f"parallel run ({n_workers} workers) broke determinism"
            )
        if base_wall is None:
            base_wall = run.wall_seconds
        table.add(
            store=store.upper(),
            n_workers=n_workers,
            wall_s=run.wall_seconds,
            speedup=base_wall / max(run.wall_seconds, 1e-12),
            queries=run.stats.queries_issued,
        )
    return table


# --------------------------------------------------------------------------- #
# Figure 8a — combine multiple group-bys vs memory budget
# --------------------------------------------------------------------------- #


def fig8a_groupby(datasets: tuple[str, ...] = ("syn_star_10", "syn_star_100")) -> ResultTable:
    """Latency vs n_gb on SYN*-10 / SYN*-100; cliff past the budget (Fig. 8a)."""
    table = ResultTable(
        "Figure 8a: effect of combining group-bys (SYN*)",
        notes="ROW budget 10^4 groups, COL budget 10^2; latency cliffs once "
        "the estimated group count 10^p (or 100^p) crosses it",
    )
    # The group-count estimate is min(prod |a_i|, n_rows), so exposing the
    # row store's 10^4-group cliff requires more rows than the budget.
    min_rows = 120_000
    for dataset in datasets:
        spec = registry.spec(dataset)
        n_rows = max(spec.rows_by_scale[current_scale()], min_rows)
        dataset_table = registry.build(dataset, n_rows=n_rows)
        for store in ("row", "col"):
            for n_gb in range(1, 11):
                config = tuned_config(store).with_(  # type: ignore[arg-type]
                    use_binpacking=False, max_group_bys_per_query=n_gb
                )
                seedb = SeeDB.over_table(
                    dataset_table,
                    store=store,  # type: ignore[arg-type]
                    config=config,
                    buffer_pool=scaled_buffer_pool(dataset_table),
                )
                run = seedb.run_engine(
                    eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE),
                    k=5,
                    strategy="sharing",
                    pruner="none",
                )
                table.add(
                    dataset=dataset,
                    store=store.upper(),
                    n_gb=n_gb,
                    modeled_latency_s=run.modeled_latency,
                    spill_passes=run.stats.spill_passes,
                    queries=run.stats.queries_issued,
                )
    return table


# --------------------------------------------------------------------------- #
# Figure 8b — MAX_GB vs bin packing
# --------------------------------------------------------------------------- #


def fig8b_binpack(store_kinds: tuple[str, ...] = ("row", "col")) -> ResultTable:
    """Naive n_gb limits vs bin-packed grouping on SYN (Fig. 8b)."""
    table = ResultTable(
        "Figure 8b: MAX_GB vs BP bin packing (SYN)",
        notes="BP respects the memory budget, so it avoids MAX_GB's spill cliffs",
    )
    n_rows = _syn_rows()[0]
    syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=20, n_measures=5)
    target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
    max_gbs = [1, 2, 3, 5, 10, 20] if current_scale() != "smoke" else [1, 3, 10]
    for store in store_kinds:
        for n_gb in max_gbs:
            config = tuned_config(store).with_(  # type: ignore[arg-type]
                use_binpacking=False, max_group_bys_per_query=n_gb
            )
            seedb = SeeDB.over_table(
                syn, store=store, config=config, buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
            )
            run = seedb.run_engine(target, k=10, strategy="sharing", pruner="none")
            table.add(
                store=store.upper(),
                method=f"MAX_GB({n_gb})",
                modeled_latency_s=run.modeled_latency,
                spill_passes=run.stats.spill_passes,
            )
        config = tuned_config(store).with_(use_binpacking=True)  # type: ignore[arg-type]
        seedb = SeeDB.over_table(
            syn, store=store, config=config, buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
        )
        run = seedb.run_engine(target, k=10, strategy="sharing", pruner="none")
        table.add(
            store=store.upper(),
            method="BP",
            modeled_latency_s=run.modeled_latency,
            spill_passes=run.stats.spill_passes,
        )
    return table


# --------------------------------------------------------------------------- #
# Figure 9 — all sharing optimizations
# --------------------------------------------------------------------------- #


def fig9_sharing_all(store_kinds: tuple[str, ...] = ("row", "col")) -> ResultTable:
    """Speedup of SHARING over NO_OPT vs size and view count (Fig. 9a/9b)."""
    table = ResultTable(
        "Figure 9: all sharing optimizations (SYN)",
        notes="speedups up to ~40x ROW / ~6x COL, growing with size and views",
    )
    for n_rows in _syn_rows():
        syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=20, n_measures=10)
        target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
        for store in store_kinds:
            seedb = SeeDB.over_table(
                syn, store=store, config=tuned_config(store), buffer_pool=scaled_buffer_pool(syn)  # type: ignore[arg-type]
            )
            seedb.store.buffer_pool.clear()
            base = seedb.run_engine(target, k=10, strategy="no_opt", pruner="none")
            seedb.store.buffer_pool.clear()
            shared = seedb.run_engine(target, k=10, strategy="sharing", pruner="none")
            table.add(
                store=store.upper(),
                n_rows=n_rows,
                n_views=len(seedb.view_space()),
                no_opt_s=base.modeled_latency,
                sharing_s=shared.modeled_latency,
                speedup=base.modeled_latency / max(shared.modeled_latency, 1e-12),
            )
    return table


# --------------------------------------------------------------------------- #
# Figure 10 — utility distributions
# --------------------------------------------------------------------------- #


def fig10_utility_distribution(dataset: str) -> ResultTable:
    """Sorted true utilities with top-k cutoffs (Fig. 10a BANK / 10b DIAB)."""
    ctx = BenchContext.for_dataset(dataset, store="col", scale_pool=False)
    run = ctx.seedb.true_top_k(ctx.target, k=25)
    utilities = sorted(run.utilities.values(), reverse=True)
    table = ResultTable(
        f"Figure 10 ({dataset.upper()}): distribution of true view utilities",
        notes="cutoff_k = utility of the k-th best view (the vertical lines)",
    )
    for k in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 25]:
        if k <= len(utilities):
            gap = utilities[k - 1] - utilities[k] if k < len(utilities) else 0.0
            table.add(k=k, cutoff_utility=utilities[k - 1], delta_k=gap)
    return table


# --------------------------------------------------------------------------- #
# Figures 11/12 — pruning result quality; Figure 13 — pruning latency
# --------------------------------------------------------------------------- #


def quality_vs_k(dataset: str, store: str = "col") -> ResultTable:
    """Accuracy and utility distance vs k for CI/MAB/NO_PRU/RANDOM.

    Reproduces Figures 11a/11b (BANK) and 12a/12b (DIAB): averages over
    shuffled runs, exactly the paper's protocol.
    """
    n_runs = _runs_for_quality()
    ks = _quality_ks()
    table = ResultTable(
        f"Figures 11/12 ({dataset.upper()}): pruning result quality",
        notes=f"averaged over {n_runs} shuffled runs; utility distance uses true utilities",
    )
    truth_ctx = BenchContext.for_dataset(dataset, store=store, scale_pool=False)  # type: ignore[arg-type]
    max_k = max(ks)
    truth_run = truth_ctx.seedb.true_top_k(truth_ctx.target, k=max_k)
    ranked_truth = [key for key, _ in sorted(truth_run.utilities.items(), key=lambda kv: -kv[1])]
    for k in ks:
        truth_keys = ranked_truth[:k]
        for pruner in ("ci", "mab", "none", "random"):
            accs, dists = [], []
            for run_index in range(n_runs):
                ctx = BenchContext.for_dataset(
                    dataset, store=store, shuffle_seed=run_index + 1  # type: ignore[arg-type]
                )
                run = ctx.cold_run(k=k, strategy="comb", pruner=pruner)
                accs.append(accuracy(run.selected, truth_keys))
                dists.append(
                    utility_distance(run.selected, truth_keys, truth_run.utilities)
                )
            table.add(
                k=k,
                pruner=pruner.upper(),
                accuracy=float(np.mean(accs)),
                utility_distance=float(np.mean(dists)),
            )
    return table


def fig13_latency_vs_k(dataset: str, store: str = "col") -> ResultTable:
    """% latency reduction of CI/MAB relative to NO_PRU, vs k (Fig. 13).

    Queries run serially within each phase here: with deep parallel batches
    a phase's latency is its single slowest query, which hides the
    query-count savings pruning delivers.  The paper likewise isolates
    pruning by reporting *relative* improvements, noting absolute latencies
    "depend closely on the exact DBMS execution techniques" (§5.4).
    """
    ks = _quality_ks()
    table = ResultTable(
        f"Figure 13 ({dataset.upper()}): pruning latency reduction vs k",
        notes="reduction relative to NO_PRU within the phased framework; "
        "serial query execution isolates the pruning effect",
    )
    config = tuned_config(store).with_(n_parallel_queries=1)  # type: ignore[arg-type]
    ctx = BenchContext.for_dataset(dataset, store=store, config=config)  # type: ignore[arg-type]
    for k in ks:
        base = ctx.cold_run(k=k, strategy="comb", pruner="none").modeled_latency
        for pruner in ("ci", "mab"):
            run = ctx.cold_run(k=k, strategy="comb", pruner=pruner)
            reduction = 100.0 * (1.0 - run.modeled_latency / max(base, 1e-12))
            table.add(
                k=k,
                pruner=pruner.upper(),
                no_pru_s=base,
                latency_s=run.modeled_latency,
                reduction_pct=reduction,
            )
    return table


# --------------------------------------------------------------------------- #
# Figure 15 — deviation metric vs expert ground truth
# --------------------------------------------------------------------------- #


def fig15_user_metric(seed: int = 3) -> ResultTable:
    """Expert heatmap ordering + ROC/AUROC on CENSUS (Fig. 15a/15b)."""
    ctx = BenchContext.for_dataset("census", store="col", scale_pool=False)
    run = ctx.seedb.true_top_k(ctx.target, k=10)
    panel = ExpertPanel.default(seed=seed)
    votes = panel.label_all(run.utilities)
    labels = consensus_labels(votes)
    ranking = [key for key, _ in sorted(run.utilities.items(), key=lambda kv: -kv[1])]
    curve = roc_curve(ranking, labels)
    table = ResultTable(
        "Figure 15 (CENSUS): deviation metric vs simulated expert ground truth",
        notes=f"AUROC={curve.auroc:.3f} (paper: 0.903); "
        f"{sum(labels.values())} of {len(labels)} views interesting (paper: 6 of 48)",
    )
    for rank, key in enumerate(ranking, start=1):
        fpr, tpr = curve.point_at_k(rank)
        table.add(
            rank=rank,
            view=f"{key[2]}({key[1]}) BY {key[0]}",
            utility=run.utilities[key],
            expert_votes=sum(votes[key]),
            interesting=labels[key],
            tpr_at_k=tpr,
            fpr_at_k=fpr,
        )
    return table


# --------------------------------------------------------------------------- #
# Table 2 — SEEDB vs MANUAL user study
# --------------------------------------------------------------------------- #


def table2_user_study(seed: int = 1) -> ResultTable:
    """Simulated 16-participant study on HOUSING and MOVIES (Table 2)."""
    rankings, utils = {}, {}
    for dataset in ("housing", "movies"):
        ctx = BenchContext.for_dataset(dataset, store="col", scale_pool=False)
        run = ctx.seedb.true_top_k(ctx.target, k=10)
        utils[dataset] = run.utilities
        rankings[dataset] = [
            key for key, _ in sorted(run.utilities.items(), key=lambda kv: -kv[1])
        ]
    study = run_user_study(rankings, utils, seed=seed)
    anova_marks = study.anova_bookmarks()
    anova_rate = study.anova_rate()
    table = ResultTable(
        "Table 2: bookmarking behaviour, SEEDB vs MANUAL (simulated study)",
        notes=(
            f"tool effect on bookmarks F={anova_marks.factor_a.f_statistic:.2f} "
            f"p={anova_marks.factor_a.p_value:.4f} (paper 18.609, p<0.001); "
            f"dataset effect F={anova_marks.factor_b.f_statistic:.2f} "
            f"p={anova_marks.factor_b.p_value:.3f} (paper: not significant); "
            f"tool effect on rate F={anova_rate.factor_a.f_statistic:.2f} "
            f"p={anova_rate.factor_a.p_value:.4f} (paper 10.034, p<0.01)"
        ),
    )
    for tool in ("manual", "seedb"):
        row = study.table2_row(tool)
        table.add(
            tool=row["tool"],
            total_viz=row["total_viz"],
            num_bookmarks=row["num_bookmarks"],
            bookmark_rate=row["bookmark_rate"],
        )
    return table


# --------------------------------------------------------------------------- #
# Ablations (DESIGN.md §6)
# --------------------------------------------------------------------------- #


def ablation_metrics(dataset: str = "bank") -> ResultTable:
    """Top-k overlap between EMD and the other metrics (§4.2 consistency)."""
    ctx = BenchContext.for_dataset(dataset, store="col", scale_pool=False)
    table = ResultTable(
        f"Ablation: distance functions on {dataset.upper()}",
        notes="overlap@10 of each metric's top-10 with EMD's top-10",
    )
    baseline: list | None = None
    for metric in ("emd", "euclidean", "js", "maxdiff", "kl"):
        seedb = SeeDB.over_table(ctx.table, store="col", config=tuned_config("col"), metric=metric)
        run = seedb.true_top_k(ctx.target, k=10)
        if baseline is None:
            baseline = run.selected
        overlap = len(set(run.selected) & set(baseline)) / len(baseline)
        table.add(
            metric=metric,
            top1=f"{run.selected[0][2]}({run.selected[0][1]}) BY {run.selected[0][0]}",
            overlap_with_emd=overlap,
        )
    return table


def ablation_phases(dataset: str = "bank", ks: tuple[int, ...] = (5, 10)) -> ResultTable:
    """Pruning accuracy/latency vs the number of phases."""
    table = ResultTable(
        f"Ablation: phase count on {dataset.upper()} (CI pruning)",
        notes="more phases prune earlier but pay per-phase query overhead",
    )
    truth_ctx = BenchContext.for_dataset(dataset, store="col", scale_pool=False)
    truth = truth_ctx.seedb.true_top_k(truth_ctx.target, k=max(ks))
    ranked = [key for key, _ in sorted(truth.utilities.items(), key=lambda kv: -kv[1])]
    for n_phases in (5, 10, 20, 40):
        config = tuned_config("col").with_(n_phases=n_phases)
        for k in ks:
            ctx = BenchContext.for_dataset(dataset, store="col", config=config)
            run = ctx.cold_run(k=k, strategy="comb", pruner="ci")
            table.add(
                n_phases=n_phases,
                k=k,
                accuracy=accuracy(run.selected, ranked[:k]),
                modeled_latency_s=run.modeled_latency,
            )
    return table


def ablation_ci_delta(dataset: str = "bank", k: int = 10) -> ResultTable:
    """CI confidence parameter delta: aggressiveness vs accuracy."""
    table = ResultTable(
        f"Ablation: CI delta on {dataset.upper()}, k={k}",
        notes="smaller delta = wider intervals = safer but slower pruning",
    )
    truth_ctx = BenchContext.for_dataset(dataset, store="col", scale_pool=False)
    truth = truth_ctx.seedb.true_top_k(truth_ctx.target, k=k)
    for delta in (0.01, 0.05, 0.2, 0.5):
        config = tuned_config("col").with_(ci_delta=delta)
        ctx = BenchContext.for_dataset(dataset, store="col", config=config)
        run = ctx.cold_run(k=k, strategy="comb", pruner="ci")
        table.add(
            delta=delta,
            accuracy=accuracy(run.selected, truth.selected),
            modeled_latency_s=run.modeled_latency,
            final_active=run.active_per_phase[-1],
        )
    return table


def ablation_early_return(dataset: str = "diab", k: int = 10) -> ResultTable:
    """COMB vs COMB_EARLY: approximation error of the returned distributions."""
    table = ResultTable(
        f"Ablation: early result return on {dataset.upper()}, k={k}",
        notes="utility_distance measures quality loss from returning partial results",
    )
    truth_ctx = BenchContext.for_dataset(dataset, store="col", scale_pool=False)
    truth = truth_ctx.seedb.true_top_k(truth_ctx.target, k=k)
    for strategy in ("comb", "comb_early"):
        ctx = BenchContext.for_dataset(dataset, store="col")
        run = ctx.cold_run(k=k, strategy=strategy, pruner="ci")
        table.add(
            strategy=strategy.upper(),
            modeled_latency_s=run.modeled_latency,
            phases=run.phases_executed,
            accuracy=accuracy(run.selected, truth.selected),
            utility_distance=utility_distance(run.selected, truth.selected, truth.utilities),
        )
    return table


# --------------------------------------------------------------------------- #
# Execution backends — native numpy engine vs the sqlite differential oracle
# --------------------------------------------------------------------------- #


def _backend_rows(scale: str | None = None) -> int:
    return {"smoke": 5_000, "small": 50_000, "full": 500_000}[scale or current_scale()]


# --------------------------------------------------------------------------- #
# Shared-scan batch execution — the perf trajectory baseline
# --------------------------------------------------------------------------- #


def _shared_scan_rows(scale: str | None = None) -> int:
    """SYN row count for the shared-scan ablation (1M rows at full scale —
    the acceptance-criterion table)."""
    return {"smoke": 20_000, "small": 200_000, "full": 1_000_000}[
        scale or current_scale()
    ]


def bench_shared_scan_compare(
    n_rows: int | None = None,
    out_path: str | None = "BENCH_shared_scan.json",
) -> ResultTable:
    """SHARING wall-clock with the shared-scan batch path on vs off.

    Runs the SHARING strategy over an identical SYN table with
    ``EngineConfig.shared_scan`` toggled, under both dispatch modes
    (``modeled`` = serial grouping, ``real`` = thread-pool fan-out), and
    reports best-of-N wall seconds, the deterministic modeled latency, and
    total bytes charged to the buffer pool.  ``speedup`` is relative to the
    per-query path in the same dispatch mode.  Identical top-k across all
    four configurations is asserted, so the benchmark doubles as a
    bench-scale equivalence check.

    When ``out_path`` is set the measurements are also written as JSON —
    the durable entry in the repo's perf trajectory (CI uploads it as an
    artifact so future changes can diff against it).  A smaller run never
    silently clobbers a bigger committed baseline: when the file at
    ``out_path`` records more rows than this run, the result is diverted
    to a scale-suffixed sibling (e.g. ``BENCH_shared_scan.smoke.json``).
    """
    import json

    n_rows = n_rows or _shared_scan_rows()
    repeats = {"smoke": 2, "small": 3, "full": 3}[current_scale()]
    table = ResultTable(
        f"Shared-scan batch execution: on vs off on SYN, {n_rows:,} rows (SHARING)",
        notes="speedup = per-query wall / shared-scan wall within a dispatch "
        "mode; identical top-k enforced; bytes charge shared pages once",
    )
    syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=5, n_measures=3)
    target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
    baseline_selected = None
    results: list[dict[str, object]] = []
    for parallelism in ("modeled", "real"):
        wall_by_mode: dict[bool, float] = {}
        for shared in (False, True):
            config = tuned_config("row").with_(
                shared_scan=shared,
                use_binpacking=False,
                max_group_bys_per_query=1,
                max_aggregates_per_query=1,
            )
            seedb = SeeDB.over_table(
                syn, store="row", config=config, buffer_pool=scaled_buffer_pool(syn)
            )
            best_wall = None
            for _ in range(repeats):
                seedb.store.buffer_pool.clear()
                run = seedb.run_engine(
                    target,
                    k=10,
                    strategy="sharing",
                    pruner="none",
                    parallelism=parallelism,  # type: ignore[arg-type]
                )
                best_wall = (
                    run.wall_seconds
                    if best_wall is None
                    else min(best_wall, run.wall_seconds)
                )
            if baseline_selected is None:
                baseline_selected = run.selected
            elif run.selected != baseline_selected:
                raise AssertionError(
                    f"shared_scan={shared} ({parallelism}) changed the top-k"
                )
            wall_by_mode[shared] = best_wall
            results.append(
                dict(
                    parallelism=parallelism,
                    shared_scan=shared,
                    wall_s=best_wall,
                    modeled_latency_s=run.modeled_latency,
                    queries=run.stats.queries_issued,
                    bytes_scanned=run.stats.bytes_scanned_miss
                    + run.stats.bytes_scanned_hit,
                )
            )
        for row in results:
            if row["parallelism"] == parallelism and "speedup" not in row:
                row["speedup"] = wall_by_mode[False] / max(
                    float(row["wall_s"]), 1e-12  # type: ignore[arg-type]
                )
    for row in results:
        table.add(**row)
    if out_path:
        try:
            with open(out_path) as handle:
                existing_rows = int(json.load(handle).get("n_rows", 0))
        except (OSError, ValueError):
            existing_rows = 0
        if existing_rows > n_rows:
            root, ext = os.path.splitext(out_path)
            out_path = f"{root}.{current_scale()}{ext}"
        payload = {
            "bench": "shared_scan",
            "generated_unix": time.time(),
            "scale": current_scale(),
            "n_rows": n_rows,
            "host_cores": os.cpu_count() or 1,
            "repeats_best_of": repeats,
            "strategy": "sharing",
            "store": "row",
            "rows": results,
        }
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
    return table


# --------------------------------------------------------------------------- #
# Out-of-core streaming — chunked memmap execution under a memory budget
# --------------------------------------------------------------------------- #


def _out_of_core_rows(scale: str | None = None) -> int:
    """SYN row count for the out-of-core ablation (1M rows at full scale)."""
    return {"smoke": 20_000, "small": 200_000, "full": 1_000_000}[
        scale or current_scale()
    ]


def bench_out_of_core_compare(
    n_rows: int | None = None,
    out_path: str | None = "BENCH_out_of_core.json",
    memory_budget_bytes: int | None = None,
    data_dir: str | None = None,
) -> ResultTable:
    """SHARING on a memmap-backed chunked dataset vs the resident baseline.

    Materializes an identical SYN table as an on-disk chunk store
    (:mod:`repro.db.chunks`), opens it memory-mapped under a **memory
    budget smaller than the dataset** (default: a quarter of its physical
    bytes; override via ``memory_budget_bytes`` or the
    ``SEEDB_OOC_BUDGET_BYTES`` environment variable), and runs the SHARING
    workload on both.  The out-of-core run must return the identical top-k
    and bitwise-equal utilities — the streaming executors' contract — while
    :class:`~repro.db.chunks.ResidencyTracker` proves peak materialized
    chunk bytes stayed under the cap.  ``throughput`` is out-of-core
    wall-clock relative to fully-resident (1.0 = parity).

    When ``out_path`` is set the measurements land in the perf-trajectory
    JSON (CI uploads it); the scale-suffix sibling rule of
    ``BENCH_shared_scan.json`` applies, so a small run never clobbers a
    bigger committed baseline.
    """
    import json
    import shutil
    import tempfile

    from repro.db.chunks import open_table, write_table

    n_rows = n_rows or _out_of_core_rows()
    repeats = {"smoke": 2, "small": 3, "full": 3}[current_scale()]
    syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=5, n_measures=3)
    target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
    dataset_bytes = syn.physical_row_bytes() * syn.nrows
    if memory_budget_bytes is None:
        env_budget = os.environ.get("SEEDB_OOC_BUDGET_BYTES")
        memory_budget_bytes = (
            int(env_budget) if env_budget else max(dataset_bytes // 4, 1 << 16)
        )
    if memory_budget_bytes >= dataset_bytes:
        raise ValueError(
            f"memory budget {memory_budget_bytes} must be smaller than the "
            f"dataset ({dataset_bytes} bytes) for an out-of-core run"
        )
    # Several chunks per budget window so streaming genuinely engages.
    chunk_rows = max(min(n_rows // 8, 65_536), 1_024)

    table = ResultTable(
        f"Out-of-core streaming: SYN {n_rows:,} rows, "
        f"budget {memory_budget_bytes / 1e6:.1f} MB "
        f"of a {dataset_bytes / 1e6:.1f} MB dataset (SHARING)",
        notes="identical top-k + bitwise utilities enforced; peak = max "
        "simultaneously materialized chunk bytes (ResidencyTracker)",
    )
    work_dir = data_dir or tempfile.mkdtemp(prefix="seedb_ooc_")
    try:
        manifest = write_table(
            syn,
            work_dir,
            chunk_rows=chunk_rows,
            split_column=synthetic.SPLIT_COLUMN,
            target_value=synthetic.TARGET_VALUE,
        )
        chunked = open_table(work_dir, memory_budget_bytes=memory_budget_bytes)

        results: list[dict[str, object]] = []
        baseline: dict[str, object] | None = None
        for mode, source in (("resident", syn), ("out_of_core", chunked)):
            config = tuned_config("col").with_(
                memory_budget_bytes=(
                    memory_budget_bytes if mode == "out_of_core" else None
                )
            )
            seedb = SeeDB.over_table(
                source, store="col", config=config,
                buffer_pool=scaled_buffer_pool(source),
            )
            best_wall = None
            for _ in range(repeats):
                seedb.store.buffer_pool.clear()
                run = seedb.run_engine(
                    target, k=10, strategy="sharing", pruner="none"
                )
                best_wall = (
                    run.wall_seconds
                    if best_wall is None
                    else min(best_wall, run.wall_seconds)
                )
            row = dict(
                mode=mode,
                wall_s=best_wall,
                modeled_latency_s=run.modeled_latency,
                queries=run.stats.queries_issued,
                bytes_scanned=run.stats.bytes_scanned_miss
                + run.stats.bytes_scanned_hit,
            )
            if mode == "resident":
                baseline = dict(selected=run.selected, utilities=run.utilities,
                                wall=best_wall)
            else:
                assert baseline is not None
                if run.selected != baseline["selected"]:
                    raise AssertionError("out-of-core run changed the top-k")
                for key, value in baseline["utilities"].items():  # type: ignore[union-attr]
                    if run.utilities[key] != value:
                        raise AssertionError(
                            f"out-of-core utility for {key} diverged"
                        )
                tracker = chunked.residency
                assert tracker is not None
                if tracker.peak_bytes > memory_budget_bytes:
                    raise AssertionError(
                        f"peak residency {tracker.peak_bytes} exceeded the "
                        f"budget {memory_budget_bytes}"
                    )
                row["peak_resident_bytes"] = tracker.peak_bytes
                row["throughput"] = float(baseline["wall"]) / max(best_wall, 1e-12)  # type: ignore[arg-type]
            results.append(row)
        for row in results:
            table.add(**row)

        if out_path:
            try:
                with open(out_path) as handle:
                    existing_rows = int(json.load(handle).get("n_rows", 0))
            except (OSError, ValueError):
                existing_rows = 0
            if existing_rows > n_rows:
                root, ext = os.path.splitext(out_path)
                out_path = f"{root}.{current_scale()}{ext}"
            ooc_row = results[1]
            payload = {
                "bench": "out_of_core",
                "generated_unix": time.time(),
                "scale": current_scale(),
                "n_rows": n_rows,
                "host_cores": os.cpu_count() or 1,
                "repeats_best_of": repeats,
                "strategy": "sharing",
                "store": "col",
                "dataset_bytes": dataset_bytes,
                "on_disk_bytes": manifest.dataset_bytes,
                "memory_budget_bytes": memory_budget_bytes,
                "chunk_rows": chunk_rows,
                "peak_resident_bytes": ooc_row["peak_resident_bytes"],
                "throughput_vs_resident": ooc_row["throughput"],
                "rows": results,
            }
            with open(out_path, "w") as handle:
                json.dump(payload, handle, indent=2)
    finally:
        if data_dir is None:
            shutil.rmtree(work_dir, ignore_errors=True)
    return table


# --------------------------------------------------------------------------- #
# Append refresh — delta-aware view maintenance on a growing chunk store
# --------------------------------------------------------------------------- #


def _append_base_rows(scale: str | None = None) -> int:
    """SYN base row count for the append-refresh bench."""
    return {"smoke": 20_000, "small": 100_000, "full": 500_000}[
        scale or current_scale()
    ]


def bench_append_refresh(
    n_rows: int | None = None,
    out_path: str | None = "BENCH_append.json",
    data_dir: str | None = None,
) -> ResultTable:
    """Refresh cost after on-disk appends: delta-scan vs full recompute.

    Materializes a SYN base table as an on-disk chunk store, runs SHARING
    once with the delta-state cache enabled (capturing every query's
    partial-aggregation snapshot), then appends 1%, 4%, and 5% batches via
    :func:`repro.db.chunks.append_rows` and times the refresh run after
    each.  Every refresh must carry-merge the cached partials and scan
    **only** the appended rows — the per-step row counts in the output
    prove it — while matching a from-scratch recompute over the extended
    store bitwise (top-k, every utility).  A repeat run after each refresh
    must be served entirely from the (never invalidated) result cache, so
    the warm hit-rate stays positive across appends.

    ``speedup`` is full-recompute wall-clock over refresh wall-clock per
    step; refresh latency itself scales with the delta size, not the
    table.  When ``out_path`` is set the measurements land in the
    perf-trajectory JSON; the scale-suffix sibling rule of
    ``BENCH_shared_scan.json`` applies.
    """
    import json
    import shutil
    import tempfile

    from repro.db.catalog import TableMeta
    from repro.db.chunks import append_rows, open_table, write_table

    n_rows = n_rows or _append_base_rows()
    # 1% / 4% / 5% batches: a 10% total extension, three refreshes.
    deltas = [max(n_rows // 100, 1), max(n_rows // 25, 1), max(n_rows // 20, 1)]
    syn = synthetic.make_syn(
        n_rows=n_rows + sum(deltas), n_dimensions=5, n_measures=3
    )
    target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
    chunk_rows = max(min(n_rows // 8, 65_536), 1_024)

    table = ResultTable(
        f"Append refresh: SYN {n_rows:,} base rows + "
        f"{'/'.join(str(d) for d in deltas)} appended (SHARING, delta cache)",
        notes="bitwise match vs full recompute enforced per step; "
        "rows_scanned counts only appended rows on a delta-cache hit",
    )
    work_dir = data_dir or tempfile.mkdtemp(prefix="seedb_append_")
    try:
        write_table(
            syn.slice_rows(0, n_rows),
            work_dir,
            chunk_rows=chunk_rows,
            split_column=synthetic.SPLIT_COLUMN,
            target_value=synthetic.TARGET_VALUE,
        )
        chunked = open_table(work_dir)
        config = tuned_config("col").with_(result_cache=True, delta_cache=True)
        seedb = SeeDB.over_table(chunked, store="col", config=config)

        def run():
            return seedb.run_engine(target, k=10, strategy="sharing", pruner="none")

        cold = run()
        table.add(
            step="cold",
            delta_rows=0,
            n_rows=n_rows,
            wall_s=cold.wall_seconds,
            rows_scanned=cold.stats.rows_scanned,
            delta_hits=cold.stats.delta_hits,
            queries=cold.stats.queries_issued,
        )

        results: list[dict[str, object]] = []
        offset = n_rows
        column_names = [col.name for col in syn.schema]
        for delta in deltas:
            append_rows(
                work_dir,
                {
                    name: np.asarray(syn.column(name))[offset : offset + delta]
                    for name in column_names
                },
            )
            offset += delta
            chunked.refresh_from_disk()
            seedb.store.sync_layout()
            seedb.engine.meta = TableMeta.of(chunked)

            refresh = run()
            if refresh.stats.delta_hits != refresh.stats.queries_issued:
                raise AssertionError(
                    f"refresh after +{delta} rows missed the delta cache: "
                    f"{refresh.stats.delta_hits}/{refresh.stats.queries_issued}"
                )
            if refresh.stats.rows_scanned != refresh.stats.queries_issued * delta:
                raise AssertionError(
                    f"refresh re-read base rows: scanned "
                    f"{refresh.stats.rows_scanned}, expected "
                    f"{refresh.stats.queries_issued * delta}"
                )

            # From-scratch oracle over the extended store (no caches).
            oracle_seedb = SeeDB.over_table(
                open_table(work_dir), store="col", config=tuned_config("col")
            )
            oracle = oracle_seedb.run_engine(
                target, k=10, strategy="sharing", pruner="none"
            )
            if refresh.selected != oracle.selected:
                raise AssertionError("delta refresh changed the top-k")
            for key, value in oracle.utilities.items():
                if refresh.utilities[key] != value:
                    raise AssertionError(f"delta utility for {key} diverged")

            warm = run()
            if warm.cache_hits <= 0 or warm.stats.queries_issued != 0:
                raise AssertionError(
                    "result cache went cold across the append"
                )
            row = dict(
                step=f"+{delta}",
                delta_rows=delta,
                n_rows=offset,
                wall_s=refresh.wall_seconds,
                rows_scanned=refresh.stats.rows_scanned,
                delta_hits=refresh.stats.delta_hits,
                queries=refresh.stats.queries_issued,
                recompute_wall_s=oracle.wall_seconds,
                speedup=oracle.wall_seconds / max(refresh.wall_seconds, 1e-12),
                warm_cache_hits=warm.cache_hits,
            )
            results.append(row)
            table.add(**row)

        if out_path:
            try:
                with open(out_path) as handle:
                    existing_rows = int(json.load(handle).get("n_rows", 0))
            except (OSError, ValueError):
                existing_rows = 0
            if existing_rows > n_rows:
                root, ext = os.path.splitext(out_path)
                out_path = f"{root}.{current_scale()}{ext}"
            payload = {
                "bench": "append",
                "generated_unix": time.time(),
                "scale": current_scale(),
                "n_rows": n_rows,
                "host_cores": os.cpu_count() or 1,
                "strategy": "sharing",
                "store": "col",
                "chunk_rows": chunk_rows,
                "delta_rows": deltas,
                "cold_wall_s": cold.wall_seconds,
                "warm_hit_rate_positive": all(
                    row["warm_cache_hits"] > 0 for row in results  # type: ignore[operator]
                ),
                "rows": results,
            }
            with open(out_path, "w") as handle:
                json.dump(payload, handle, indent=2)
    finally:
        if data_dir is None:
            shutil.rmtree(work_dir, ignore_errors=True)
    return table


# --------------------------------------------------------------------------- #
# Service throughput — the serving layer + cross-session result cache
# --------------------------------------------------------------------------- #


def _service_sessions(scale: str | None = None) -> int:
    return {"smoke": 6, "small": 10, "full": 16}[scale or current_scale()]


def _service_concurrency(scale: str | None = None) -> int:
    return {"smoke": 4, "small": 4, "full": 8}[scale or current_scale()]


def _replay_drilldown(
    address: tuple[str, int], dataset: str, n_steps: int, k: int, seed: int
) -> list[list[tuple[str, str, str]]]:
    """Replay one simulated drill-down session over HTTP.

    Uses one :class:`~repro.service.client.ServiceClient` — one persistent
    keep-alive connection — for the whole session (an analyst UI holds its
    connection open), and returns the per-step ranked view keys so the
    caller can check that every session — and both cache modes —
    recommended identical views.
    """
    from repro.data import registry as data_registry
    from repro.service.client import ServiceClient
    from repro.service.sessions import AnalystDrillDown

    with ServiceClient(*address) as client:
        spec = data_registry.spec(dataset)
        session = client.create_session(dataset=dataset)
        analyst = AnalystDrillDown(
            [(spec.split_column, spec.target_value)], k=k, n_steps=n_steps, seed=seed
        )
        request = analyst.first_request()
        per_step: list[list[tuple[str, str, str]]] = []
        while request is not None:
            response = client.recommend_raw(session.session_id, request)
            per_step.append(
                [(v["dimension"], v["measure"], v["func"]) for v in response["views"]]
            )
            request = analyst.next_request(response)
        return per_step


def bench_service_throughput(
    dataset: str = "diab",
    n_steps: int = 3,
    k: int = 5,
    n_sessions: int | None = None,
    concurrency: int | None = None,
    out_path: str | None = "BENCH_service.json",
) -> ResultTable:
    """Requests/sec of the recommendation service, result cache on vs off.

    The workload is the serving layer's bread and butter: ``n_sessions``
    analysts concurrently replay the *same* three-step drill-down script
    (create session, recommend, drill into the top deviation, repeat) over
    real HTTP against an in-process
    :class:`~repro.service.server.SeeDBHTTPServer`.  One untimed warm-up
    session runs first in both modes (it loads the dataset engine and, in
    cache mode, fills the cache — steady-state throughput is what a
    serving benchmark measures); the timed phase then counts recommend
    requests per wall second.  Every session in both modes must recommend
    identical top-k views at every step, so the speedup is apples-to-
    apples.

    DIAB is the default dataset — at 100K+ rows (small/full scale) it is
    the largest scale-stable real dataset, so per-request execution work
    dominates the HTTP/JSON envelope and the cache's effect is measured
    cleanly (CENSUS, the examples' demo dataset, is only 21K rows).

    When ``out_path`` is set the measurements land in ``BENCH_service.json``
    (CI uploads it as an artifact).  Like the shared-scan baseline, a run
    over fewer rows than an existing committed file diverts to a
    scale-suffixed sibling instead of clobbering it.
    """
    import json
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import RecommendationService, start_server

    n_sessions = n_sessions or _service_sessions()
    concurrency = concurrency or _service_concurrency()
    table = ResultTable(
        f"Service throughput on {dataset.upper()}: cross-session result cache "
        f"on vs off ({n_sessions} sessions x {n_steps} steps, "
        f"{concurrency} concurrent)",
        notes="speedup = recommend requests/sec relative to cache-off; "
        "identical per-step top-k across sessions and modes enforced",
    )
    results: list[dict[str, object]] = []
    reference_steps: list[list[tuple[str, str, str]]] | None = None
    n_rows = 0
    for cache_on in (False, True):
        service = RecommendationService(
            datasets=(dataset,), result_cache=cache_on
        )
        server, _ = start_server(service)
        address = server.server_address[:2]
        try:
            warm_steps = _replay_drilldown(address, dataset, n_steps, k, seed=1)
            n_rows = service.engine(
                dataset, service.default_store, service.default_metric
            ).table.nrows
            before = service.cache.snapshot() if service.cache else None
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                futures = [
                    pool.submit(_replay_drilldown, address, dataset, n_steps, k, 1)
                    for _ in range(n_sessions)
                ]
                sessions_steps = [future.result() for future in futures]
            wall = time.perf_counter() - started
            after = service.cache.snapshot() if service.cache else None
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        for steps in sessions_steps:
            if steps != warm_steps:
                raise AssertionError(
                    f"cache_on={cache_on}: a session diverged from the warm-up"
                )
        if reference_steps is None:
            reference_steps = warm_steps
        elif warm_steps != reference_steps:
            raise AssertionError("cache on/off disagreed on recommended views")
        requests = n_sessions * n_steps
        hits = (after.hits - before.hits) if after and before else 0
        misses = (after.misses - before.misses) if after and before else 0
        lookups = hits + misses
        results.append(
            dict(
                result_cache=cache_on,
                sessions=n_sessions,
                steps_per_session=n_steps,
                requests=requests,
                wall_s=wall,
                rps=requests / max(wall, 1e-12),
                cache_hits=hits,
                cache_misses=misses,
                hit_rate=hits / lookups if lookups else 0.0,
                bytes_saved=(after.bytes_saved - before.bytes_saved)
                if after and before
                else 0,
            )
        )
    off_rps = float(results[0]["rps"])  # type: ignore[arg-type]
    for row in results:
        row["speedup"] = float(row["rps"]) / max(off_rps, 1e-12)  # type: ignore[arg-type]
        table.add(**row)
    if out_path:
        try:
            with open(out_path) as handle:
                existing_rows = int(json.load(handle).get("n_rows", 0))
        except (OSError, ValueError):
            existing_rows = 0
        if existing_rows > n_rows:
            root, ext = os.path.splitext(out_path)
            out_path = f"{root}.{current_scale()}{ext}"
        payload = {
            "bench": "service_throughput",
            "generated_unix": time.time(),
            "scale": current_scale(),
            "dataset": dataset,
            "n_rows": n_rows,
            "n_sessions": n_sessions,
            "n_steps": n_steps,
            "k": k,
            "concurrency": concurrency,
            "host_cores": os.cpu_count() or 1,
            "identical_topk": True,
            "rows": results,
        }
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
    return table


# --------------------------------------------------------------------------- #
# Load ramp — single process vs sharded multi-worker front-end
# --------------------------------------------------------------------------- #


def _load_levels(scale: str | None = None) -> tuple[int, ...]:
    return {"smoke": (1, 2, 4), "small": (1, 4, 8), "full": (2, 8, 16)}[
        scale or current_scale()
    ]


def _load_sessions(scale: str | None = None) -> int:
    return {"smoke": 6, "small": 12, "full": 24}[scale or current_scale()]


def _spread_datasets(n_workers: int) -> tuple[str, ...]:
    """Pick benchmark datasets whose ring owners cover every worker.

    The front-end places a built-in dataset's sessions by load and breaks
    ties by the ring, so this only decides where an idle fleet's first
    sessions start.  Walk a candidate list (heaviest first — the
    synthetic tables scale with ``SEEDB_SCALE`` and carry the largest
    view spaces) and keep the first dataset seen for each distinct
    worker; the ring is deterministic, so the choice is reproducible.
    """
    from repro.service.frontend import HashRing

    candidates = ("syn", "syn_star_100", "diab", "census", "bank", "movies")
    ring = HashRing(n_workers)
    chosen: list[str] = []
    covered: set[int] = set()
    for name in candidates:
        worker = ring.lookup(name)
        if worker not in covered:
            chosen.append(name)
            covered.add(worker)
        if len(covered) >= n_workers:
            break
    return tuple(chosen)


def _weighted_session_mix(
    costs: Mapping[str, float], total_sessions: int
) -> dict[str, int]:
    """Sessions per dataset, inversely proportional to per-request cost.

    Datasets differ by an order of magnitude in per-request execution
    cost, and each dataset is pinned to one front-end shard — unweighted
    round-robin would leave cheap shards idle while one shard carries the
    whole ramp.  Inverse-cost weighting (largest-remainder rounding, at
    least one session each) gives every shard comparable offered work, so
    the ramp measures scale-out rather than the skew of the dataset mix.
    """
    weights = {name: 1.0 / max(cost, 1e-9) for name, cost in costs.items()}
    scale = total_sessions / sum(weights.values())
    raw = {name: weight * scale for name, weight in weights.items()}
    counts = {name: max(1, int(raw[name])) for name in raw}
    while sum(counts.values()) < total_sessions:
        name = max(raw, key=lambda n: raw[n] - counts[n])
        counts[name] += 1
    while sum(counts.values()) > total_sessions:
        eligible = [n for n in counts if counts[n] > 1]
        if not eligible:
            break
        name = max(eligible, key=lambda n: counts[n] - raw[n])
        counts[name] -= 1
    return counts


def _interleaved_order(counts: Mapping[str, int]) -> list[str]:
    """Deficit-round-robin submission order for a weighted session mix.

    Spreads each dataset's sessions evenly through the list so that at
    any closed-loop concurrency the in-flight mix matches the overall
    mix (a sorted order would run the shards one after another).
    """
    remaining = dict(counts)
    credit = {name: 0.0 for name in counts}
    total = sum(counts.values())
    order: list[str] = []
    for _ in range(total):
        for name in credit:
            if remaining[name]:
                credit[name] += counts[name] / total
        name = max(
            (n for n in counts if remaining[n]), key=lambda n: (credit[n], n)
        )
        order.append(name)
        credit[name] -= 1.0
        remaining[name] -= 1
    return order


def _timed_drilldown(
    address: tuple[str, int], dataset: str, n_steps: int, k: int, seed: int
) -> list[float]:
    """Replay one drill-down session; return per-request latencies (s)."""
    from repro.data import registry as data_registry
    from repro.service.client import ServiceClient
    from repro.service.sessions import AnalystDrillDown

    with ServiceClient(*address) as client:
        spec = data_registry.spec(dataset)
        session = client.create_session(dataset=dataset)
        analyst = AnalystDrillDown(
            [(spec.split_column, spec.target_value)], k=k, n_steps=n_steps, seed=seed
        )
        request = analyst.first_request()
        latencies: list[float] = []
        while request is not None:
            started = time.perf_counter()
            response = client.recommend_raw(session.session_id, request)
            latencies.append(time.perf_counter() - started)
            request = analyst.next_request(response)
        return latencies


def _latency_percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted latency list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _fetch_routes(address: tuple[str, int]) -> dict[str, object]:
    """The server's per-route latency-histogram block (``/v1/stats``).

    Against the sharded front-end this is already merged across workers
    (:func:`repro.service.monitor.merge_route_payloads`).
    """
    from repro.service.client import ServiceClient

    with ServiceClient(*address) as client:
        routes = client.stats().get("routes")
        return dict(routes) if isinstance(routes, dict) else {}


def bench_load(
    n_workers: int = 2,
    n_steps: int = 3,
    k: int = 5,
    datasets: tuple[str, ...] | None = None,
    concurrency_levels: tuple[int, ...] | None = None,
    sessions_per_level: int | None = None,
    out_path: str | None = "BENCH_load.json",
) -> ResultTable:
    """Closed-loop load ramp: single-process service vs sharded front-end.

    Each topology serves the same workload — ``sessions_per_level``
    concurrent drill-down sessions over datasets that cover every
    front-end shard — at each closed-loop concurrency level (every
    client thread replays whole sessions back-to-back; no open-loop
    arrival process).  Per-request latencies give p50/p99 at each level;
    the saturation RPS of a topology is its best level.  Per-process
    CPU%/RSS comes from :class:`~repro.service.monitor.ProcessMonitor`
    (primed before each measured level).

    The result cache is OFF in both topologies: the ramp measures how far
    process sharding scales *execution*, not how well the cache absorbs
    repeats (``bench_service_throughput`` covers that).  The single
    topology runs one in-process ``SeeDBHTTPServer`` (GIL-bound threads);
    the sharded topology runs ``n_workers`` service processes behind the
    consistent-hashing front-end, which adds one proxy hop per request.

    Because datasets differ wildly in per-request cost and each dataset
    pins to one shard, the warm-up doubles as a calibration pass: both
    topologies then serve the *same* inverse-cost-weighted session mix
    (see :func:`_weighted_session_mix`), so every shard receives
    comparable offered work.

    When ``out_path`` is set the trajectory lands in ``BENCH_load.json``
    with the same scale-divert rule as the other committed baselines.
    """
    import json
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import RecommendationService, start_frontend, start_server
    from repro.service.monitor import ProcessMonitor

    levels = tuple(concurrency_levels or _load_levels())
    sessions_per_level = sessions_per_level or _load_sessions()
    datasets = tuple(datasets or _spread_datasets(n_workers))
    table = ResultTable(
        f"Load ramp over {', '.join(d.upper() for d in datasets)}: "
        f"single process vs {n_workers}-worker front-end "
        f"({sessions_per_level} sessions x {n_steps} steps per level, "
        f"cache off)",
        notes="closed-loop; saturation RPS = best level per topology; "
        "cpu/rss summed over that topology's processes",
    )
    all_rows: list[dict[str, object]] = []
    peak_samples: dict[str, list[dict[str, object]]] = {}
    session_order: list[str] = []
    costs_ms: dict[str, float] = {}

    def warm(address: tuple[str, int]) -> dict[str, float]:
        """One untimed session per dataset; returns mean request cost (s).

        Builds each shard's engine before the measured ramp and supplies
        the per-dataset calibration the weighted session mix is based on.
        """
        costs: dict[str, float] = {}
        for dataset in datasets:
            latencies = _timed_drilldown(address, dataset, n_steps, k, seed=1)
            costs[dataset] = sum(latencies) / max(len(latencies), 1)
        return costs

    def run_topology(
        name: str, workers: int, address: tuple[str, int], pids: list[int]
    ) -> None:
        monitor = ProcessMonitor(pids)
        samples: list = []
        for level in levels:
            monitor.sample()  # prime the CPU delta for this level
            latencies: list[float] = []
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=level) as pool:
                futures = [
                    pool.submit(_timed_drilldown, address, dataset, n_steps, k, 1)
                    for dataset in session_order
                ]
                for future in futures:
                    latencies.extend(future.result())
            wall = time.perf_counter() - started
            samples = monitor.sample()
            latencies.sort()
            all_rows.append(
                dict(
                    topology=name,
                    workers=workers,
                    concurrency=level,
                    sessions=len(session_order),
                    requests=len(latencies),
                    wall_s=wall,
                    rps=len(latencies) / max(wall, 1e-12),
                    p50_ms=1e3 * _latency_percentile(latencies, 0.50),
                    p99_ms=1e3 * _latency_percentile(latencies, 0.99),
                    cpu_percent=round(sum(s.cpu_percent for s in samples), 1),
                    rss_mib=round(
                        sum(s.rss_bytes for s in samples) / 2**20, 1
                    ),
                )
            )
        peak_samples[name] = [s.as_dict() for s in samples]

    # Topology 1: one process, one ThreadingHTTPServer (the PR-4 service).
    service = RecommendationService(datasets=datasets, result_cache=False)
    server, _ = start_server(service)
    try:
        address = server.server_address[:2]
        costs = warm(address)
        costs_ms = {name: round(1e3 * cost, 1) for name, cost in costs.items()}
        session_mix = _weighted_session_mix(costs, sessions_per_level)
        session_order = _interleaved_order(session_mix)
        run_topology("single", 1, address, [os.getpid()])
        route_latency = {"single": _fetch_routes(address)}
        n_rows = sum(
            service.engine(
                name, service.default_store, service.default_metric
            ).table.nrows
            for name in datasets
        )
    finally:
        server.graceful_shutdown(timeout=30)
        service.close()

    # Topology 2: n_workers service processes behind the hash-ring router,
    # serving the exact same weighted session mix.
    frontend, _ = start_frontend(
        n_workers=n_workers,
        service_kwargs=dict(datasets=datasets, result_cache=False),
    )
    shards = {
        name: frontend.worker_for_dataset(name).index for name in datasets
    }
    try:
        pids = [os.getpid()] + [w.pid for w in frontend.workers]
        warm(frontend.server_address[:2])
        run_topology("frontend", n_workers, frontend.server_address[:2], pids)
        route_latency["frontend"] = _fetch_routes(frontend.server_address[:2])
    finally:
        frontend.graceful_shutdown(timeout=30)

    saturation: dict[str, dict[str, object]] = {}
    for row in all_rows:
        table.add(**row)
        topology = str(row["topology"])
        best = saturation.get(topology)
        if best is None or float(row["rps"]) > float(best["rps"]):  # type: ignore[arg-type]
            saturation[topology] = {
                "rps": float(row["rps"]),  # type: ignore[arg-type]
                "concurrency": row["concurrency"],
                "p50_ms": row["p50_ms"],
                "p99_ms": row["p99_ms"],
            }
    speedup = float(saturation["frontend"]["rps"]) / max(  # type: ignore[arg-type]
        float(saturation["single"]["rps"]), 1e-12  # type: ignore[arg-type]
    )
    if out_path:
        try:
            with open(out_path) as handle:
                existing_rows = int(json.load(handle).get("n_rows", 0))
        except (OSError, ValueError):
            existing_rows = 0
        if existing_rows > n_rows:
            root, ext = os.path.splitext(out_path)
            out_path = f"{root}.{current_scale()}{ext}"
        payload = {
            "bench": "load",
            "generated_unix": time.time(),
            "scale": current_scale(),
            "datasets": list(datasets),
            "shards": shards,
            "session_mix": session_mix,
            "calibrated_cost_ms": costs_ms,
            "n_rows": n_rows,
            "n_steps": n_steps,
            "k": k,
            "n_workers": n_workers,
            "concurrency_levels": list(levels),
            "sessions_per_level": sessions_per_level,
            "host_cores": os.cpu_count() or 1,
            "saturation": saturation,
            "frontend_speedup": speedup,
            "process_samples": peak_samples,
            "route_latency": route_latency,
            "rows": all_rows,
        }
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
    return table


# --------------------------------------------------------------------------- #
# Cross-request coalescing — shared scans + single-flight under concurrency
# --------------------------------------------------------------------------- #


def _coalesce_sessions(scale: str | None = None) -> int:
    return {"smoke": 4, "small": 8, "full": 16}[scale or current_scale()]


def _traced_drilldown(
    address: tuple[str, int],
    dataset: str,
    n_steps: int,
    k: int,
    seed: int,
    barrier: "threading.Barrier | None" = None,
) -> tuple[list[dict[str, object]], list[float]]:
    """Replay one drill-down session, recording every request/response pair.

    Returns ``(trace, latencies)`` where each trace entry keeps the raw
    request payload (for the differential-oracle serial replay) and the
    response fields that must be bitwise identical across execution paths
    (target, k, and the ranked views with their utilities).  ``barrier``
    aligns the *first* request of every concurrent session so identical
    opening steps genuinely race into the coalescing window.
    """
    from repro.data import registry as data_registry
    from repro.service.client import ServiceClient
    from repro.service.sessions import AnalystDrillDown

    with ServiceClient(*address) as client:
        spec = data_registry.spec(dataset)
        session = client.create_session(dataset=dataset)
        analyst = AnalystDrillDown(
            [(spec.split_column, spec.target_value)],
            k=k,
            n_steps=n_steps,
            seed=seed,
        )
        request = analyst.first_request()
        if barrier is not None:
            barrier.wait(timeout=300)
        trace: list[dict[str, object]] = []
        latencies: list[float] = []
        while request is not None:
            started = time.perf_counter()
            response = client.recommend_raw(session.session_id, request)
            latencies.append(time.perf_counter() - started)
            trace.append(
                {
                    "request": request,
                    "target": response["target"],
                    "k": response["k"],
                    "views": response["views"],
                }
            )
            request = analyst.next_request(response)
        return trace, latencies


def bench_coalesce(
    dataset: str = "census",
    n_sessions: int | None = None,
    n_steps: int = 3,
    k: int = 5,
    max_wait_ms: float = 50.0,
    out_path: str | None = "BENCH_coalesce.json",
) -> ResultTable:
    """Cross-request coalescing: off vs union batching vs + single-flight.

    Three legs serve the *same* closed-loop concurrent workload —
    ``n_sessions`` analyst drill-down sessions over one dataset, each
    starting from the identical default-target step (the thundering-herd
    shape) and then diverging along seeded per-session drill-downs — on a
    fresh cache-off service per leg:

    * ``off`` — the direct path (gateway never constructed);
    * ``coalesce`` — union batching only (``singleflight=False``):
      concurrent requests co-batch into one shared scan per window, with
      identical queries deduplicated inside the union;
    * ``coalesce+singleflight`` — identical concurrent requests
      additionally collapse onto one in-flight execution.

    Executed work is read from the engines' lifetime ``executed``
    counters (each physical execution counted exactly once, however many
    requests shared it), so single-flight shares cannot inflate the
    numbers.  The bench *asserts* the acceptance criteria: every leg's
    per-request targets/top-k/utilities are bitwise identical, a serial
    replay of the coalesced leg's exact requests on an uncoalesced
    service (the differential oracle) reproduces them bitwise, and both
    coalescing legs execute strictly fewer queries, rows, and bytes than
    ``off`` at equal concurrency.
    """
    import json
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.config import CoalesceConfig
    from repro.service import RecommendationService, start_server

    n_sessions = n_sessions or _coalesce_sessions()
    table = ResultTable(
        f"Cross-request coalescing on {dataset.upper()}: {n_sessions} "
        f"concurrent sessions x {n_steps} steps (cache off)",
        notes="executed counters charge each physical execution once; "
        "identical results asserted bitwise across legs + serial oracle",
    )
    n_rows = 0

    def run_leg(
        name: str, coalesce: "CoalesceConfig | bool"
    ) -> dict[str, object]:
        nonlocal n_rows
        service = RecommendationService(
            datasets=(dataset,), result_cache=False, coalesce=coalesce
        )
        server, _ = start_server(service)
        try:
            address = server.server_address[:2]
            # Build the engine outside the measured window.
            service.engine(
                dataset, service.default_store, service.default_metric
            )
            n_rows = service.engine(
                dataset, service.default_store, service.default_metric
            ).table.nrows
            barrier = threading.Barrier(n_sessions)
            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=n_sessions) as pool:
                futures = [
                    pool.submit(
                        _traced_drilldown,
                        address, dataset, n_steps, k, seed + 1, barrier,
                    )
                    for seed in range(n_sessions)
                ]
                results = [future.result() for future in futures]
            wall = time.perf_counter() - started
            stats = service.stats()
            latencies = sorted(
                latency for _, session_latencies in results
                for latency in session_latencies
            )
            return {
                "name": name,
                "traces": [trace for trace, _ in results],
                "wall_s": wall,
                "requests": len(latencies),
                "rps": len(latencies) / max(wall, 1e-12),
                "p50_ms": 1e3 * _latency_percentile(latencies, 0.50),
                "p99_ms": 1e3 * _latency_percentile(latencies, 0.99),
                "executed": dict(stats["executed"]),  # type: ignore[arg-type]
                "coalesce": stats.get("coalesce"),
            }
        finally:
            server.graceful_shutdown(timeout=30)
            service.close()

    legs = [
        run_leg("off", False),
        run_leg(
            "coalesce",
            CoalesceConfig(
                enabled=True,
                max_batch_size=n_sessions,
                max_wait_ms=max_wait_ms,
                singleflight=False,
            ),
        ),
        run_leg(
            "coalesce+singleflight",
            CoalesceConfig(
                enabled=True,
                max_batch_size=n_sessions,
                max_wait_ms=max_wait_ms,
                singleflight=True,
            ),
        ),
    ]

    # Bitwise identity across legs: same targets, same top-k, same utilities
    # for every (session, step) — coalescing only moves the accounting.
    baseline = legs[0]
    for leg in legs[1:]:
        assert leg["traces"] == baseline["traces"], (
            f"leg {leg['name']!r} diverged from the uncoalesced results"
        )

    # Differential oracle: serially replay the coalesced leg's exact
    # requests on a fresh uncoalesced service and compare bitwise.
    oracle_service = RecommendationService(
        datasets=(dataset,), result_cache=False
    )
    oracle_server, _ = start_server(oracle_service)
    try:
        from repro.service.client import ServiceClient

        oracle_address = oracle_server.server_address[:2]
        for trace in legs[2]["traces"]:  # type: ignore[union-attr]
            with ServiceClient(*oracle_address) as client:
                session = client.create_session(dataset=dataset)
                for step in trace:  # type: ignore[union-attr]
                    response = client.recommend_raw(
                        session.session_id, step["request"]
                    )
                    observed = {
                        "request": step["request"],
                        "target": response["target"],
                        "k": response["k"],
                        "views": response["views"],
                    }
                    assert observed == step, (
                        "serial oracle diverged from coalesced results"
                    )
    finally:
        oracle_server.graceful_shutdown(timeout=30)
        oracle_service.close()

    # Strictly less physical work with coalescing on, at equal concurrency.
    reductions: dict[str, dict[str, float]] = {}
    off_executed = baseline["executed"]
    for leg in legs[1:]:
        executed = leg["executed"]
        for counter in ("queries_executed", "rows_scanned", "bytes_scanned"):
            assert executed[counter] < off_executed[counter], (  # type: ignore[index]
                f"leg {leg['name']!r}: {counter} not reduced "
                f"({executed[counter]} vs {off_executed[counter]})"  # type: ignore[index]
            )
        reductions[str(leg["name"])] = {
            counter: round(
                100.0 * (1.0 - executed[counter] / off_executed[counter]), 1  # type: ignore[index,operator]
            )
            for counter in ("queries_executed", "rows_scanned", "bytes_scanned")
        }

    for leg in legs:
        block = leg["coalesce"] or {}
        table.add(
            leg=leg["name"],
            requests=leg["requests"],
            wall_s=round(float(leg["wall_s"]), 3),  # type: ignore[arg-type]
            rps=round(float(leg["rps"]), 1),  # type: ignore[arg-type]
            p50_ms=round(float(leg["p50_ms"]), 1),  # type: ignore[arg-type]
            p99_ms=round(float(leg["p99_ms"]), 1),  # type: ignore[arg-type]
            queries=leg["executed"]["queries_executed"],  # type: ignore[index]
            rows_scanned=leg["executed"]["rows_scanned"],  # type: ignore[index]
            mib_scanned=round(
                leg["executed"]["bytes_scanned"] / 2**20, 1  # type: ignore[index,operator]
            ),
            batches=block.get("batches", 0),  # type: ignore[union-attr]
            coalesced=block.get("requests_coalesced", 0),  # type: ignore[union-attr]
            sf_hits=block.get("singleflight_hits", 0),  # type: ignore[union-attr]
            occ_mean=round(
                float(block.get("window_occupancy_mean", 0.0)), 2  # type: ignore[arg-type,union-attr]
            ),
        )

    if out_path:
        try:
            with open(out_path) as handle:
                existing_rows = int(json.load(handle).get("n_rows", 0))
        except (OSError, ValueError):
            existing_rows = 0
        if existing_rows > n_rows:
            root, ext = os.path.splitext(out_path)
            out_path = f"{root}.{current_scale()}{ext}"
        payload = {
            "bench": "coalesce",
            "generated_unix": time.time(),
            "scale": current_scale(),
            "dataset": dataset,
            "n_rows": n_rows,
            "n_sessions": n_sessions,
            "n_steps": n_steps,
            "k": k,
            "max_wait_ms": max_wait_ms,
            "host_cores": os.cpu_count() or 1,
            "bitwise_identical": True,
            "oracle_matches": True,
            "reductions_pct": reductions,
            "legs": {
                str(leg["name"]): {
                    "requests": leg["requests"],
                    "wall_s": leg["wall_s"],
                    "rps": leg["rps"],
                    "p50_ms": leg["p50_ms"],
                    "p99_ms": leg["p99_ms"],
                    "executed": leg["executed"],
                    "coalesce": leg["coalesce"],
                }
                for leg in legs
            },
        }
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2)
    return table


# --------------------------------------------------------------------------- #
# Chaos — worker kill under load: recovery time, error window, warm cache
# --------------------------------------------------------------------------- #


def _chaos_sessions(scale: str | None = None) -> int:
    return {"smoke": 4, "small": 8, "full": 16}[scale or current_scale()]


def _resilient_drilldown(
    address: tuple[str, int], dataset: str, n_steps: int, k: int, seed: int
) -> tuple[list[tuple[float, float]], int]:
    """One drill-down session through a *retrying* client.

    Returns ``(samples, failures)`` where each sample is
    ``(perf_counter at completion, latency seconds)`` — the completion
    stamps let the caller attribute requests to the fault window — and
    ``failures`` counts requests that errored even after retries (the
    bench's "non-retryable errors observed by clients" figure, which the
    acceptance criteria require to be zero).
    """
    from repro.data import registry as data_registry
    from repro.exceptions import ServiceError
    from repro.service.client import ServiceClient
    from repro.service.sessions import AnalystDrillDown

    samples: list[tuple[float, float]] = []
    failures = 0
    with ServiceClient(*address, retries=6, backoff=0.1) as client:
        spec = data_registry.spec(dataset)
        try:
            session = client.create_session(dataset=dataset)
        except (ServiceError, ConnectionError, OSError):
            return samples, 1
        analyst = AnalystDrillDown(
            [(spec.split_column, spec.target_value)], k=k, n_steps=n_steps, seed=seed
        )
        request = analyst.first_request()
        while request is not None:
            started = time.perf_counter()
            try:
                response = client.recommend_raw(
                    session.session_id, request, idempotent=True
                )
            except (ServiceError, ConnectionError, OSError):
                failures += 1
                break
            samples.append((time.perf_counter(), time.perf_counter() - started))
            request = analyst.next_request(response)
    return samples, failures


def bench_chaos(
    n_workers: int = 2,
    n_steps: int = 3,
    k: int = 5,
    dataset: str = "census",
    load_threads: int = 2,
    n_sessions: int | None = None,
    restart_backoff: float = 0.2,
    out_path: str | None = "BENCH_chaos.json",
) -> ResultTable:
    """Kill the busiest worker mid-load; measure what the clients saw.

    A supervised ``n_workers`` front-end serves closed-loop drill-down
    sessions over one dataset (pinned by the hash ring to one worker — the
    *victim*).  A seeded :mod:`repro.testing.faults` rule arms the victim
    to ``os._exit`` on an early load-phase recommend; the cross-process
    ledger caps it at one kill fleet-wide, so the respawned worker
    inherits the same spec but does not re-die.  Three phases land in the
    table:

    * **warm** — untimed-fault baseline: one session that also populates
      the shared L2 tier the respawned worker must inherit;
    * **chaos** — the measured load run during which the kill fires;
      retrying clients must finish every session with zero failures;
    * **recovered** — the warm session replayed after the slot is
      readmitted, pinned (by ring preference) to the *respawned* process.

    The JSON payload adds the recovery timeline (death → slot readmitted,
    measured by a 5 ms poller), the error window (requests completed and
    worst latency while the slot was down, plus front-end 5xx deltas), and
    warm-cache survival (the respawned worker's L2 hit count — its L1
    died with the old process, so every hit proves the file tier carried
    the state across the crash).
    """
    import json
    import tempfile
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.service import start_frontend
    from repro.service.frontend import HashRing
    from repro.service.monitor import ProcessMonitor
    from repro.testing import faults

    n_sessions = n_sessions or _chaos_sessions()
    n_rows = registry.spec(dataset).rows_by_scale[current_scale()]
    victim = HashRing(n_workers).lookup(dataset)
    ledger_path = os.path.join(
        tempfile.mkdtemp(prefix="seedb-chaos-"), "faults.state"
    )
    # Arm before boot: spawned workers inherit the spec via the environment.
    # The warm phase contributes 1 create + n_steps recommends + 1 stats
    # fan-out to the victim, so ``after`` clears it and the kill lands on an
    # early load-phase recommend.
    saved_env = {
        key: os.environ.get(key) for key in (faults.ENV_SPEC, faults.ENV_STATE)
    }
    os.environ[faults.ENV_SPEC] = (
        f"kill_worker:on=worker-{victim},route=recommend,"
        f"after={n_steps + 4},times=1"
    )
    os.environ[faults.ENV_STATE] = ledger_path

    table = ResultTable(
        f"Chaos: kill worker {victim}/{n_workers} mid-load over "
        f"{dataset.upper()} ({n_sessions} sessions x {n_steps} steps, "
        f"{load_threads} client threads)",
        notes="seeded kill_worker fault, ledger-capped at one firing; "
        "failures = client-visible errors after retries (must be 0)",
    )
    monitor = ProcessMonitor([os.getpid()])
    timeline: dict[str, float | int | None] = {
        "death": None,
        "readmitted": None,
        "generation": None,
    }
    stop_watch = threading.Event()

    frontend, _ = start_frontend(
        n_workers=n_workers,
        service_kwargs=dict(datasets=(dataset,)),
        restart_backoff=restart_backoff,
        supervisor_poll=0.05,
        on_worker_respawn=lambda handle: monitor.track(handle.pid),
    )

    def watch() -> None:
        """Poll the victim slot; stamp death and readmission times."""
        while not stop_watch.is_set():
            handle = frontend.workers[victim]
            if timeline["death"] is None and not handle.alive:
                timeline["death"] = time.perf_counter()
            if timeline["death"] is not None:
                if frontend.slot_up(victim) and handle.generation > 0:
                    timeline["readmitted"] = time.perf_counter()
                    timeline["generation"] = handle.generation
                    return
            time.sleep(0.005)

    try:
        for worker in frontend.workers:
            monitor.track(worker.pid)
        monitor.sample()  # prime CPU deltas
        address = frontend.server_address[:2]
        doomed_pid = frontend.workers[victim].pid

        # Phase 1: warm. Builds the victim's engine and seeds the shared L2.
        warm_started = time.perf_counter()
        warm_latencies = sorted(
            _timed_drilldown(address, dataset, n_steps, k, seed=1)
        )
        warm_wall = time.perf_counter() - warm_started
        pre_stats = frontend.aggregate_stats()

        # Phase 2: chaos. The kill fires inside this closed-loop run.
        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        chaos_started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=load_threads) as pool:
            futures = [
                pool.submit(
                    _resilient_drilldown, address, dataset, n_steps, k, seed
                )
                for seed in range(2, 2 + n_sessions)
            ]
            outcomes = [future.result() for future in futures]
        chaos_wall = time.perf_counter() - chaos_started
        chaos_samples = [s for samples, _ in outcomes for s in samples]
        chaos_failures = sum(failures for _, failures in outcomes)

        # Wait out the respawn (backoff + boot) before probing the slot.
        deadline = time.monotonic() + 120.0
        while timeline["readmitted"] is None and time.monotonic() < deadline:
            time.sleep(0.02)
        stop_watch.set()
        watcher.join(timeout=5)
        mid_stats = frontend.aggregate_stats()

        # Phase 3: recovered. The respawned slot carries no load, so this
        # session lands on it — a fresh process whose only cache state is
        # the L2 dir.
        recovered_worker = frontend.worker_for_dataset(dataset).index
        recovered_started = time.perf_counter()
        recovered_latencies = sorted(
            _timed_drilldown(address, dataset, n_steps, k, seed=1)
        )
        recovered_wall = time.perf_counter() - recovered_started
        post_stats = frontend.aggregate_stats()
        process_samples = [s.as_dict() for s in monitor.sample()]

        victim_row = next(
            w for w in post_stats["workers"] if w["worker"] == victim
        )
        victim_tiers = victim_row.get("cache_tiers", {})
        death, readmitted = timeline["death"], timeline["readmitted"]
        window = [
            s
            for s in chaos_samples
            if death is not None and s[0] >= death
            and (readmitted is None or s[0] <= readmitted)
        ]

        for phase, latencies, wall, failures in (
            ("warm", warm_latencies, warm_wall, 0),
            ("chaos", sorted(s[1] for s in chaos_samples), chaos_wall,
             chaos_failures),
            ("recovered", recovered_latencies, recovered_wall, 0),
        ):
            table.add(
                phase=phase,
                requests=len(latencies),
                failures=failures,
                wall_s=wall,
                p50_ms=1e3 * _latency_percentile(latencies, 0.50),
                p99_ms=1e3 * _latency_percentile(latencies, 0.99),
            )

        if out_path:
            try:
                with open(out_path) as handle:
                    existing_rows = int(json.load(handle).get("n_rows", 0))
            except (OSError, ValueError):
                existing_rows = 0
            if existing_rows > n_rows:
                root, ext = os.path.splitext(out_path)
                out_path = f"{root}.{current_scale()}{ext}"
            try:
                with open(ledger_path) as handle:
                    ledger_lines = handle.read().splitlines()
            except OSError:
                ledger_lines = []
            payload = {
                "bench": "chaos",
                "generated_unix": time.time(),
                "scale": current_scale(),
                "dataset": dataset,
                "n_rows": n_rows,
                "n_steps": n_steps,
                "k": k,
                "n_workers": n_workers,
                "n_sessions": n_sessions,
                "load_threads": load_threads,
                "host_cores": os.cpu_count() or 1,
                "fault_spec": os.environ[faults.ENV_SPEC],
                "ledger_firings": len(ledger_lines),
                "kill": {
                    "victim": victim,
                    "doomed_pid": doomed_pid,
                    "respawned_pid": frontend.workers[victim].pid,
                    "generation": timeline["generation"],
                    "restart_backoff_s": restart_backoff,
                },
                "recovery": {
                    "detected_to_readmitted_s": (
                        readmitted - death
                        if death is not None and readmitted is not None
                        else None
                    ),
                    "recovered_slot_serves_dataset": recovered_worker
                    == victim,
                },
                "error_window": {
                    "requests_completed": len(window),
                    "worst_latency_ms": 1e3 * max(
                        (s[1] for s in window), default=0.0
                    ),
                    "client_failures": chaos_failures,
                    "frontend_5xx": int(mid_stats["errors"])
                    - int(pre_stats["errors"]),
                    "sessions_resurrected": int(
                        mid_stats["sessions_resurrected"]
                    ),
                },
                "warm_cache": {
                    "respawned_l2_hits": int(victim_tiers.get("l2_hits", 0)),
                    "respawned_l1_hits": int(victim_tiers.get("l1_hits", 0)),
                },
                "process_samples": process_samples,
                "rows": list(table.rows),
            }
            with open(out_path, "w") as handle:
                json.dump(payload, handle, indent=2)
    finally:
        stop_watch.set()
        frontend.graceful_shutdown(timeout=30)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        faults.uninstall()
    return table


def bench_backends_compare(
    n_rows: int | None = None, strategy: str = "sharing"
) -> ResultTable:
    """Measured latency of the same SeeDB workload on each execution backend.

    Runs one engine invocation per registered in-tree backend over an
    identical SYN table and reports setup time (the sqlite backend pays a
    one-off materialization), engine wall seconds, and speedup relative to
    sqlite.  The runs double as a bench-scale differential check: every
    backend must select the same top-k or this raises.
    """
    from repro.config import EngineConfig

    n_rows = n_rows or _backend_rows()
    table = ResultTable(
        f"Execution backends: native vs sqlite on SYN, {n_rows:,} rows "
        f"({strategy.upper()})",
        notes="speedup relative to the sqlite backend; identical top-k enforced",
    )
    syn = synthetic.make_syn(n_rows=n_rows, n_dimensions=5, n_measures=3)
    target = eq(synthetic.SPLIT_COLUMN, synthetic.TARGET_VALUE)
    baseline_selected = None
    wall_by_backend: dict[str, float] = {}
    rows: list[dict[str, object]] = []
    for backend in ("sqlite", "native"):
        config = EngineConfig(store="col", backend=backend, use_binpacking=False)
        setup_started = time.perf_counter()
        with SeeDB.over_table(syn, store="col", config=config) as seedb:
            setup_seconds = time.perf_counter() - setup_started
            run = seedb.run_engine(target, k=10, strategy=strategy, pruner="none")
        if baseline_selected is None:
            baseline_selected = run.selected
        elif run.selected != baseline_selected:
            raise AssertionError(
                f"backend {backend!r} disagreed with baseline top-k"
            )
        wall_by_backend[backend] = run.wall_seconds
        rows.append(
            dict(
                backend=backend,
                setup_s=setup_seconds,
                run_wall_s=run.wall_seconds,
                queries=run.stats.queries_issued,
            )
        )
    for row in rows:
        row["speedup_vs_sqlite"] = wall_by_backend["sqlite"] / max(
            float(row["run_wall_s"]), 1e-12  # type: ignore[arg-type]
        )
        table.add(**row)
    return table
