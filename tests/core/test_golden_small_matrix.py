"""Everything the AIR golden does not reach, pinned bit for bit.

``golden_air_comb_ci.json`` covers comb + CI + emd + AVG over single
group-bys only.  ``golden_small_matrix.json`` was recorded at the commit
before view state became one table per (dimension, function): census and
bank at smoke scale over both stores × three sharing configs × {AVG, all
five functions (over three measures)} × six strategy/pruner pairs, with the metric, reference mode
and target rotating so every value of each meets every config.  Per leg it
holds digests of the utilities (float hex) and of the distributions, plus
``active_per_phase`` — all independent of ``PYTHONHASHSEED``; ``selected``
is checked against the run's own utilities under the view-order tie rule.
The eight ``row/split2`` legs with reference "all" that sharing or pruning
runs were recorded again when the reference side became table state: their
bin-packed reference queries became single-dimension fills, which moved
last bits of the reference distributions and nothing else.  The 32
``split2`` legs of ``comb`` and ``comb_early`` were recorded again when
those strategies became one exact pass without the rewrite (no phases, no
pruning); every other line stayed as it was.
Regenerate (only when a change is *meant* to move results) with
``PYTHONPATH=src python tests/core/test_golden_small_matrix.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import SeeDB
from repro.core.cache import query_fingerprint
from repro.core.recommender import tuned_config
from repro.data import build_info
from repro.db.catalog import TableMeta
from repro.db.expressions import eq
from repro.db.query import AggregateFunction

GOLDEN = Path(__file__).with_name("golden_small_matrix.json")
K = 5
DATASETS = ("census", "bank")
STORES = ("row", "col")
CONFIGS = {
    "tuned": {},
    "split2": {"combine_target_reference": False, "max_aggregates_per_query": 2},
    "maxgb3": {"use_binpacking": False, "max_group_bys_per_query": 3},
}
FUNCS = {"avg": (AggregateFunction.AVG,), "all5": tuple(AggregateFunction)}
PAIRS = (
    ("sharing", "none"),
    ("comb", "ci"),
    ("comb", "mab"),
    ("comb_early", "ci"),
    ("comb", "random"),
    ("no_opt", "none"),
)
REFERENCES = ("all", "complement", "query")
ALL_METRICS = ("emd", "euclidean", "js", "kl", "maxdiff")


def _most_frequent(table, column: str):
    codes, categories = table.dictionary(column)
    return eq(column, categories[int(np.argmax(np.bincount(codes)))].item())


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _distribution_chunks(run):
    for key in sorted(run.distributions):
        dists = run.distributions[key]
        yield repr((key, tuple(map(str, dists.keys)))).encode()
        yield np.asarray(dists.target, dtype=np.float64).tobytes()
        yield np.asarray(dists.reference, dtype=np.float64).tobytes()


def _check_selected(run, pruner: str) -> None:
    """``selected`` ranks by utility; exact ties keep candidate (view) order."""
    order = {key: i for i, key in enumerate(run.utilities)}
    ranked = sorted(order, key=lambda key: (-run.utilities[key], order[key]))
    if pruner == "random":  # k arbitrary accepted views, ranked the same way
        assert run.selected == [key for key in ranked if key in set(run.selected)]
    else:
        assert run.selected == ranked[:K]


def legs():
    """Run every leg: ``(name, pruner, run)`` in a fixed order."""
    combo = 0
    for dataset in DATASETS:
        table, spec = build_info(dataset, scale="smoke", seed=7)
        meta = TableMeta.of(table)
        dims = meta.dimensions
        targets = (spec.target_predicate(), _most_frequent(table, dims[0]))
        reference_predicate = _most_frequent(table, dims[1])
        for store in STORES:
            for config_name, overrides in CONFIGS.items():
                config = tuned_config(store).with_(**overrides)
                for funcs_name, funcs in FUNCS.items():
                    full = config_name == "tuned" and funcs_name == "avg"
                    metrics = ALL_METRICS if full else ("emd", "js")
                    # Five functions over three measures: 150-165 views, not 385.
                    measures = meta.measures[:3] if funcs_name == "all5" else None
                    for i, (strategy, pruner) in enumerate(PAIRS):
                        turn = i + combo
                        metric = metrics[turn % len(metrics)]
                        reference = REFERENCES[turn % len(REFERENCES)]
                        with SeeDB.over_table(
                            table, store=store, config=config, metric=metric, funcs=funcs
                        ) as seedb:
                            run = seedb.run_engine(
                                targets[(turn // 3) % 2],
                                k=K,
                                strategy=strategy,
                                pruner=pruner,
                                measures=measures,
                                reference=reference,
                                reference_predicate=(
                                    reference_predicate if reference == "query" else None
                                ),
                            )
                        name = "/".join(
                            (dataset, store, config_name, funcs_name, metric,
                             strategy, pruner, reference, f"target{(turn // 3) % 2}")
                        )
                        yield name, pruner, run
                    combo += 1


def record(name: str, run) -> dict[str, object]:
    """Reduce one run to its JSON record."""
    assert run.phases_executed == len(run.active_per_phase)
    return {
        "leg": name,
        "utilities_sha256": _sha256(
            f"{'|'.join(key)}={float(value).hex()};".encode()
            for key, value in sorted(run.utilities.items())
        ),
        "distributions_sha256": _sha256(_distribution_chunks(run)),
        "active_per_phase": run.active_per_phase,
    }


def test_every_leg_matches_the_recorded_run():
    expected = json.loads(GOLDEN.read_text())
    got = []
    for name, pruner, run in legs():
        _check_selected(run, pruner)
        got.append(record(name, run))
        # What the request's shared key memo returns for each recorded query
        # is the standalone fingerprint, character for character.
        memo: dict = {}
        for query in run.queries:
            assert query_fingerprint(query, memo=memo) == query_fingerprint(query), name
    assert [r["leg"] for r in got] == [r["leg"] for r in expected]
    for want, have in zip(expected, got):
        assert have == want, want["leg"]
    # Pruning and early return do happen at this scale.
    assert any(len(set(r["active_per_phase"])) > 1 for r in got)
    assert any(len(r["active_per_phase"]) < 10 for r in got if "/comb_early/" in r["leg"])


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(record(name, run)) for name, _, run in legs())
    GOLDEN.write_text(f"[\n{lines}\n]\n")
