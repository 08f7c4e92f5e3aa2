"""Quickstart: the paper's motivating example (Figure 1).

A journalist studies how marital status affects socio-economic indicators.
SeeDB compares unmarried adults (target) against the full census (reference)
and recommends the visualizations with the largest deviation — the strongest
being average capital gain by sex.

Run:  python examples/quickstart.py
"""

from repro import SeeDB
from repro.data import build_info
from repro.viz import export_recommendations, render_recommendation


def main() -> None:
    # 1. Load the census surrogate and its analyst query Q.
    table, spec = build_info("census", scale="smoke", seed=7)
    print(f"dataset: {table}")
    print(f"analyst query Q: WHERE {spec.target_predicate().to_sql()}\n")

    # 2. Stand up SeeDB middleware over the table (column store, EMD metric).
    seedb = SeeDB.over_table(table, store="col")

    # 3. Ask for the top-5 visualizations with the full optimized engine.
    result = seedb.recommend(
        target=spec.target_predicate(),
        k=5,
        strategy="comb",       # on this default engine: one exact pass
        pruner="ci",            # validated; prunes under tuned_config(store)
    )
    print(result.describe())
    print()

    # 4. Render the winner as an ASCII bar chart (the paper's Figure 1a).
    print(render_recommendation(result[0], width=36))
    print()

    # 5. Export everything as JSON chart specs for a real plotting stack.
    path = export_recommendations(result, "quickstart_recommendations.json")
    print(f"chart specs written to {path}")

    # 6. Peek at the SQL the middleware shipped to the DBMS.
    run = seedb.run_engine(spec.target_predicate(), k=5, strategy="sharing")
    print("\nexample generated SQL (first 2 queries):")
    for sql in run.sql[:2]:
        print(" ", sql)


if __name__ == "__main__":
    main()
