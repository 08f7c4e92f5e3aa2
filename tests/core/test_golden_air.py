"""The scoreboard's ``engine_resident`` answers, pinned bit for bit.

``golden_air_comb_ci.json`` was recorded at the commit before the phase
loop was optimised (charge-only spill, shared count pass, code-space
predicates, value-only estimates): for each of the workload's six AIR
targets over 300 000 rows it holds what ``comb`` + CI pruning at k=5
returned — ``selected``, every utility as a float hex string, a digest of
the distributions — and a digest of the ``ExecutionStats`` of every query
the run issued, spill charges included.  An optimisation of that loop may
change none of it.  Regenerate (only when a change is *meant* to move
results) with ``PYTHONPATH=src python tests/core/test_golden_air.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import SeeDB
from repro.core.recommender import tuned_config
from repro.data import registry
from repro.db.cost import CostModel
from repro.db.expressions import eq

GOLDEN = Path(__file__).with_name("golden_air_comb_ci.json")
#: ``benchmarks/scoreboard/workloads.py``: ENGINE_TARGET_DIMS and its row count.
TARGET_DIMS = ("carrier", "month", "dest_state", "day_of_week", "distance_group")
N_ROWS = 300_000
STATS_FIELDS = (
    "queries_issued",
    "agg_rows_processed",
    "groups_maintained",
    "spill_passes",
    "bytes_scanned_miss",
    "bytes_scanned_hit",
    "pages_hit",
    "pages_missed",
    "rows_scanned",
)


def _most_frequent(table, column: str) -> object:
    codes, categories = table.dictionary(column)
    return categories[int(np.argmax(np.bincount(codes)))].item()


def record(table) -> list[dict[str, object]]:
    """Run the six targets and reduce each run to its JSON record."""
    targets = [registry.spec("air").target_predicate()]
    targets += [eq(dim, _most_frequent(table, dim)) for dim in TARGET_DIMS]

    per_query: list[dict[str, int]] = []
    query_seconds = CostModel.query_seconds

    def spy(self, stats):  # the engine prices every query outcome exactly once
        per_query.append({name: getattr(stats, name) for name in STATS_FIELDS})
        return query_seconds(self, stats)

    records = []
    CostModel.query_seconds = spy
    try:
        with SeeDB.over_table(table, store="col", config=tuned_config("col")) as seedb:
            for target in targets:
                per_query.clear()
                run = seedb.run_engine(target, k=5, strategy="comb", pruner="ci")
                digest = hashlib.sha256()
                for key in sorted(run.distributions):
                    dists = run.distributions[key]
                    digest.update(repr((key, tuple(map(str, dists.keys)))).encode())
                    digest.update(np.asarray(dists.target, dtype=np.float64).tobytes())
                    digest.update(np.asarray(dists.reference, dtype=np.float64).tobytes())
                records.append(
                    {
                        "target": target.to_sql(),
                        "selected": [list(key) for key in run.selected],
                        "utilities": {
                            "|".join(key): float(value).hex()
                            for key, value in sorted(run.utilities.items())
                        },
                        "distributions_sha256": digest.hexdigest(),
                        "queries": len(per_query),
                        "spill_passes": sum(q["spill_passes"] for q in per_query),
                        "bytes_scanned_miss": sum(q["bytes_scanned_miss"] for q in per_query),
                        "query_stats_sha256": hashlib.sha256(
                            json.dumps(per_query).encode()
                        ).hexdigest(),
                        "modeled_latency": float(run.modeled_latency).hex(),
                    }
                )
    finally:
        CostModel.query_seconds = query_seconds
    return records


def test_six_air_targets_match_the_recorded_runs(air_300k):
    expected = json.loads(GOLDEN.read_text())
    got = record(air_300k)
    assert [r["target"] for r in got] == [r["target"] for r in expected]
    for want, have in zip(expected, got):
        assert have == want, want["target"]
    # The workload does exercise the charged spill (AIR's airport dimensions).
    assert all(r["spill_passes"] > 0 for r in got)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(registry.build("air", n_rows=N_ROWS)), indent=1) + "\n")
