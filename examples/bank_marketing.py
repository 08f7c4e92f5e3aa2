"""Bank marketing: pruning quality and the accuracy/utility-distance story.

Runs CI, MAB, and RANDOM pruning on the BANK surrogate (subscribed vs. all
customers) across several k, measuring the two §5.4 quality metrics against
the exact top-k.  Shows the paper's core claim: even when accuracy dips at a
near-tie boundary, utility distance stays near zero — the returned views are
essentially as interesting as the true ones.  It builds on the paper's tuned
config: on the serving default, COMB is one exact pass and never prunes.

Run:  python examples/bank_marketing.py
"""

from repro import SeeDB
from repro.core.recommender import tuned_config
from repro.core.result import accuracy, utility_distance
from repro.data import build_info


def main() -> None:
    table, spec = build_info("bank", scale="smoke", seed=3)
    seedb = SeeDB.over_table(table, store="col", config=tuned_config("col"))
    target = spec.target_predicate()

    truth = seedb.true_top_k(target, k=25)
    ranked = [k for k, _ in sorted(truth.utilities.items(), key=lambda kv: -kv[1])]
    print(f"dataset: {table}; {len(truth.utilities)} candidate views")
    print("true top-5:")
    for key in ranked[:5]:
        print(f"  {key[2]}({key[1]}) BY {key[0]}  U={truth.utilities[key]:.4f}")
    print()

    header = f"{'k':>3} {'pruner':>7} {'accuracy':>9} {'utility_dist':>13} {'phases':>7}"
    print(header)
    print("-" * len(header))
    for k in (1, 5, 10):
        for pruner in ("ci", "mab", "random"):
            run = seedb.run_engine(target, k=k, strategy="comb", pruner=pruner)
            acc = accuracy(run.selected, ranked[:k])
            dist = utility_distance(run.selected, ranked[:k], truth.utilities)
            print(
                f"{k:>3} {pruner:>7} {acc:>9.2f} {dist:>13.4f} {run.phases_executed:>7}"
            )
    print(
        "\nCI and MAB keep utility distance near zero even where accuracy"
        "\ndrops (near-tied views at the boundary); RANDOM shows what failure"
        "\nlooks like on both metrics."
    )


if __name__ == "__main__":
    main()
