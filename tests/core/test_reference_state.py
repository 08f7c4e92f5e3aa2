"""The reference side as engine-held table state, under the split path's oracle.

``golden_reference_state.json`` was recorded at the commit *before* the
engine kept any reference state, with ``combine_target_reference=False``
passed explicitly — that commit's split path, one target-free reference
query per request and dimension, is the oracle: a census/bank matrix at smoke
scale (col tuned; row without bin packing; AVG and all five functions) of
``sharing`` runs, k=5.  Per leg it holds ``selected``, a digest of the
utilities as float hex, a digest of the distributions and
``active_per_phase``.  Its ``comb`` and ``comb_early`` legs went when those
strategies became one exact pass without the rewrite: on the same ``SeeDB``
every strategy/pruner pair now answers with the ``sharing`` leg's bits, each
reading reference rows another strategy filled.

Recording it again at this commit would pin the engine to itself; the
``__main__`` block is there to be run from a checkout of that parent.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import SeeDB
from repro.core import engine as engine_module
from repro.core import recommender as recommender_module
from repro.core.recommender import serving_config, tuned_config
from repro.core.sharing import plan_queries
from repro.core.state import (
    HeldLayout,
    HeldTable,
    SidePartial,
    aggregate_columns,
    hold_reference_rows,
    reference_row,
)
from repro.core.view import AggregateView
from repro.data import build_info, registry
from repro.db.catalog import TableMeta
from repro.db.chunks import append_rows, open_table, write_table
from repro.db.expressions import And, Col, Comparison, Lit, eq, true
from repro.db.query import AggregateFunction
from repro.db.sql import generate_sql
from repro.db.table import Table
from repro.metrics.base import DistanceFunction
from repro.metrics.normalize import normalize_distribution
from repro.service import RecommendationService

GOLDEN = Path(__file__).with_name("golden_reference_state.json")
K = 5
#: ``benchmarks/scoreboard/workloads.py``: ENGINE_TARGET_DIMS and its row count.
AIR_TARGET_DIMS = ("carrier", "month", "dest_state", "day_of_week", "distance_group")
FUNCS = {"avg": (AggregateFunction.AVG,), "all5": tuple(AggregateFunction)}
PAIRS = (("sharing", "none"), ("comb", "ci"), ("comb", "mab"), ("comb_early", "ci"))


def split_config(store: str):
    """The oracle's config: the split path, single-dimension on both stores."""
    config = tuned_config(store).with_(combine_target_reference=False)
    return config.with_(use_binpacking=False) if store == "row" else config


def _most_frequent(table, column: str):
    codes, categories = table.dictionary(column)
    return eq(column, categories[int(np.argmax(np.bincount(codes)))].item())


def _record(leg: str, run) -> dict[str, object]:
    digest = hashlib.sha256()
    for key in sorted(run.distributions):
        dists = run.distributions[key]
        digest.update(repr((key, tuple(map(str, dists.keys)))).encode())
        digest.update(np.asarray(dists.target, dtype=np.float64).tobytes())
        digest.update(np.asarray(dists.reference, dtype=np.float64).tobytes())
    utilities = {
        "|".join(key): float(value).hex() for key, value in sorted(run.utilities.items())
    }
    return {
        "leg": leg,
        "selected": [list(key) for key in run.selected],
        "utilities": hashlib.sha256(json.dumps(utilities).encode()).hexdigest(),
        "distributions_sha256": digest.hexdigest(),
        "active_per_phase": run.active_per_phase,
    }


def groups(config_for):
    """``(leg, run(strategy, pruner))`` per group of the matrix, its ``SeeDB``
    open; ``config_for(store)`` is the config under test."""
    for dataset in ("census", "bank"):
        table, spec = build_info(dataset, scale="smoke", seed=7)
        meta = TableMeta.of(table)
        for store in ("col", "row"):
            for funcs_name, funcs in FUNCS.items():
                # Five functions over three measures: 150-165 views, not 385.
                measures = meta.measures[:3] if funcs_name == "all5" else None
                with SeeDB.over_table(
                    table, store=store, config=config_for(store), funcs=funcs
                ) as seedb:

                    def run(strategy, pruner):
                        return seedb.run_engine(
                            spec.target_predicate(), k=K, strategy=strategy, pruner=pruner,
                            measures=measures,
                        )

                    yield f"{dataset}/{store}/{funcs_name}/sharing/none/target0", run


def records(config_for) -> list[dict[str, object]]:
    """Run every leg."""
    return [_record(leg, run("sharing", "none")) for leg, run in groups(config_for)]


def test_the_default_matches_the_parents_split_path():
    """Col legs run the default config (``config=None``): held reference rows
    folded from table state equal per-request reference queries bit for bit.
    Without the rewrite every other strategy/pruner pair is one exact pass: on
    the same ``SeeDB`` it returns the ``sharing`` leg's bits."""
    expected = json.loads(GOLDEN.read_text())
    got = []
    for leg, run in groups(lambda store: None if store == "col" else split_config(store)):
        runs = [run(strategy, pruner) for strategy, pruner in PAIRS]
        got.append(_record(leg, runs[0]))
        assert [_bits(other) for other in runs[1:]] == [_bits(runs[0])] * 3, leg
        assert {other.pruner_name for other in runs} == {"none"}
    assert [r["leg"] for r in got] == [r["leg"] for r in expected]
    for want, have in zip(expected, got):
        assert have == want, want["leg"]


def test_comb_on_a_held_engine_is_exact(air_300k):
    """``engine_resident``'s six AIR targets: ``comb`` + CI on the default
    engine returns the true top-k, which phased pruning missed on one of them."""
    targets = [registry.spec("air").target_predicate()]
    targets += [_most_frequent(air_300k, dim) for dim in AIR_TARGET_DIMS]
    with SeeDB.over_table(air_300k, store="col") as seedb:
        for target in targets:
            run = seedb.run_engine(target, k=K, strategy="comb", pruner="ci")
            assert run.phases_executed == 1 and run.pruner_name == "none"
            assert run.selected == seedb.true_top_k(target, K).selected, target


# --------------------------------------------------------------------------- #
# the state itself: history, threads, identity, bound, who may not touch it
# --------------------------------------------------------------------------- #


def _bits(run) -> tuple:
    """Everything a request is answered with, down to the last bit."""
    return (
        run.selected,
        [(key, float(value).hex()) for key, value in run.utilities.items()],
        [
            (key, dists.keys, dists.target.tobytes(), dists.reference.tobytes())
            for key, dists in run.distributions.items()
        ],
        run.active_per_phase,
    )


@pytest.fixture(scope="module")
def census():
    return build_info("census", scale="smoke", seed=7)


def _asks(table, spec):
    """Requests differing in target, view subset, k, strategy and pruner.  Three
    targets have their target side held too — one category of a non-dimension
    column, of a dimension, and two clauses sharing the latter's cells; an ``Or``
    queries its own, over three view subsets."""
    meta = TableMeta.of(table)
    dims, measures = meta.dimensions, meta.measures
    a, c = spec.target_predicate(), _most_frequent(table, dims[3])
    b = c.and_(_most_frequent(table, dims[5]))
    either = a.or_(c)
    return [
        (a, None, None, 5, "comb", "ci"),
        (b, dims[:4], measures[:2], 3, "comb", "ci"),
        (c, dims[2:7], measures[1:], 4, "sharing", "none"),
        (b, None, measures[:1], 2, "comb", "mab"),
        (either, dims[5:], None, 3, "comb_early", "ci"),
        (b, None, None, 6, "sharing", "none"),
        (either, dims[:2], measures[2:], 2, "comb", "ci"),
        (either, dims[1:5], None, 5, "comb", "ci"),
    ]


def _run(seedb, ask):
    target, dimensions, measures, k, strategy, pruner = ask
    return seedb.run_engine(
        target, k, strategy=strategy, pruner=pruner, dimensions=dimensions, measures=measures
    )


def _fresh_answer(table, ask, **seedb_kwargs):
    with SeeDB.over_table(table, store="col", **seedb_kwargs) as fresh:
        return _bits(_run(fresh, ask))


def _charged(runs) -> dict[str, int]:
    """What ``runs`` say they executed, in ``executed_totals``' terms."""
    return {
        "queries_executed": sum(run.stats.queries_issued for run in runs),
        "rows_scanned": sum(run.stats.rows_scanned for run in runs),
        "bytes_scanned": sum(
            run.stats.bytes_scanned_miss + run.stats.bytes_scanned_hit for run in runs
        ),
    }


def _executed_since(engine, before: dict[str, int]) -> dict[str, int]:
    return {name: total - before[name] for name, total in engine.executed_totals.items()}


@pytest.mark.parametrize("seed", range(3))
def test_answers_do_not_depend_on_request_history(census, seed):
    """Any order, any view subsets: every request gets the bits a fresh engine
    gives it, and whatever subset fills built the state, its columns equal a
    full fill's."""
    table, spec = census
    asks = _asks(table, spec)
    order = random.Random(seed).sample(range(len(asks)), len(asks))
    funcs = tuple(AggregateFunction) if seed == 2 else (AggregateFunction.AVG,)
    with SeeDB.over_table(table, store="col", funcs=funcs) as seedb:
        answers, reused = {}, 0
        for i in order:
            run = _run(seedb, asks[i])
            answers[i] = _bits(run)
            reused += run.stats.reference_views_reused
        assert reused > 0
        for i, ask in enumerate(asks):
            assert answers[i] == _fresh_answer(table, ask, funcs=funcs), i

        with SeeDB.over_table(table, store="col", funcs=funcs) as full:
            for target in (asks[0][0], asks[1][0], asks[2][0]):
                full.run_engine(target, k=5, strategy="sharing", pruner="none")
            for group_by, columns in seedb.engine._reference.items():
                whole = full.engine._reference[group_by]
                assert {"__codes__", "__offsets__", "__group_count__"} < set(columns)
                assert set(columns) <= set(whole)
                for name, column in columns.items():
                    if name != "__q__":
                        assert column.tobytes() == whole[name].tobytes(), (group_by, name)
                # ``__q__`` stacks a row per column in fill order: compare by column.
                assert _q_rows(columns).items() <= _q_rows(whole).items(), group_by


def _q_rows(cell) -> dict[str, bytes]:
    """A reference cell's normalized row of each aggregate column, by column."""
    if "__q__" not in cell:
        return {}
    aliases = aggregate_columns(cell)
    assert len(aliases) == len(cell["__q__"])
    return {alias: row.tobytes() for alias, row in zip(aliases, cell["__q__"])}


def test_eight_threads_match_serial_and_fill_each_cell_once(census, monkeypatch):
    table, spec = census
    asks = _asks(table, spec)
    serial = [_fresh_answer(table, ask) for ask in asks]
    # The other state requests share — kept view spaces, plan skeletons and
    # held layouts — at a bound the eight restrictions overrun, so threads
    # evict and rebuild under each other.
    monkeypatch.setattr(engine_module, "_MAX_PLAN_SKELETONS", 2)
    monkeypatch.setattr(recommender_module, "_MAX_VIEW_SPACES", 2)
    with SeeDB.over_table(table, store="col") as seedb:
        filled: list[tuple] = []
        hold = seedb.engine._hold_reference

        snapshots: list[dict[str, int]] = []

        def spy(held, fill, result):
            filled.extend((fill.query.group_by, spec.alias) for spec in fill.query.aggregates)
            hold(held, fill, result)
            # A fill in flight holds the lock for its whole scan; what
            # ``GET /v1/stats`` reads must not wait for it (the lock is not
            # re-entrant: waiting here would never return).
            assert seedb.engine._reference_lock.locked()
            snapshots.append(seedb.engine.reference_state())

        seedb.engine._hold_reference = spy

        def worker(offset: int):
            mine = [(i + offset) % len(asks) for i in range(0, len(asks), 2)]
            return [(i, _run(seedb, asks[i])) for i in mine]

        before = dict(seedb.engine.executed_totals)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                rounds = list(pool.map(worker, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(rounds) == 8
        for answers in rounds:
            for i, run in answers:
                assert _bits(run) == serial[i], i
        # Conservation under any interleaving: the runs' stats sum to the
        # engine's lifetime executed counters, each fill charged once.
        assert _executed_since(seedb.engine, before) == _charged(
            [run for answers in rounds for _, run in answers]
        )
        assert len(filled) == len(set(filled)) > 0
        assert len(seedb._view_spaces[1]) == len(seedb.engine._planning[1]) == 2
        assert len(seedb.engine._layouts) == 2
        held_bytes = [snapshot["bytes"] for snapshot in snapshots]
        assert held_bytes == sorted(held_bytes) and 0 < held_bytes[0]
        assert seedb.engine.reference_state()["bytes"] == held_bytes[-1]
        # 40 views x (the reference side and three target column sets), each
        # filled once.
        assert len(filled) <= 40 * 4


def _count_layouts(monkeypatch) -> list[tuple]:
    """The view keys of every held layout the engine builds from now on."""
    built: list[tuple] = []

    class Counted(HeldLayout):
        def __init__(self, views, categories):
            built.append(tuple(view.key for view in views))
            super().__init__(views, categories)

    monkeypatch.setattr(engine_module, "HeldLayout", Counted)
    return built


def test_a_new_table_identity_drops_the_state(census, tmp_path, monkeypatch):
    """The held cells and the layouts built over them go together: each new
    identity builds its layout once, and answers as a fresh engine does."""
    table, spec = census
    target = spec.target_predicate()
    built = _count_layouts(monkeypatch)

    def run(seedb):
        return seedb.run_engine(target, k=5, strategy="comb", pruner="ci")

    with SeeDB.over_table(table.slice_rows(0, table.nrows), store="col") as seedb:
        cold, warm = run(seedb), run(seedb)
        assert cold.stats.reference_views_reused == 0 < warm.stats.reference_views_reused
        assert warm.stats.queries_issued < cold.stats.queries_issued
        assert len(built) == 1
        seedb.table.bump_version()
        again = run(seedb)
        assert again.stats.reference_views_reused == 0
        assert again.stats.queries_issued == cold.stats.queries_issued
        assert _bits(again) == _bits(cold) == _bits(warm) == _bits(run(seedb))
        assert len(built) == 2

    write_table(table.slice_rows(0, 2_500), tmp_path / "ds", chunk_rows=512)
    with SeeDB.over_table(open_table(tmp_path / "ds"), store="col") as seedb:
        run(seedb)
        tail = {
            column.name: table.materialize_range(column.name, 2_500, 3_000).tolist()
            for column in table.schema
        }
        append_rows(tmp_path / "ds", tail)
        assert seedb.table.refresh_from_disk()
        seedb.store.sync_layout()
        built.clear()
        refreshed = run(seedb)
        assert refreshed.stats.reference_views_reused == 0
        assert run(seedb).stats.reference_views_reused > 0
        assert len(built) == 1
        with SeeDB.over_table(open_table(tmp_path / "ds"), store="col") as fresh:
            assert _bits(refreshed) == _bits(run(fresh)) == _bits(run(seedb))


def test_a_layout_is_built_once_per_view_set(census, monkeypatch):
    """Repeated requests and targets on one view set share its layout; a
    ``dimensions=`` restriction gets its own, whose views answer with the full
    set's bits; past the bound the least recently used layout goes."""
    table, spec = census
    dimensions = TableMeta.of(table).dimensions
    restrictions = [dimensions[i : i + 3] for i in range(3)]
    # Held target cells, a target query (``Or``) and an empty target.
    targets = [*_held_targets(table)[:2], spec.target_predicate().or_(_held_targets(table)[0])]
    targets.append(eq(dimensions[0], "no-such-value"))
    fresh = [_fresh_answer(table, (target, None, None, K, "comb", "ci")) for target in targets]
    fresh_restricted = [
        _fresh_answer(table, (targets[1], restriction, None, K, "comb", "ci"))
        for restriction in restrictions
    ]
    built = _count_layouts(monkeypatch)
    with SeeDB.over_table(table, store="col") as seedb:
        full = {}
        for _ in range(2):
            for i, target in enumerate(targets):
                full[i] = run = seedb.run_engine(target, k=K, strategy="comb", pruner="ci")
                assert _bits(run) == fresh[i]
        assert built == [tuple(view.key for view in seedb.view_space())]
        for i, target in enumerate(targets):
            part = seedb.run_engine(
                target, k=K, strategy="comb", pruner="ci", dimensions=dimensions[2:5]
            )
            assert part.utilities and all(key[0] in dimensions[2:5] for key in part.utilities)
            for key, value in part.utilities.items():
                assert value.hex() == full[i].utilities[key].hex()
                want, got = full[i].distributions[key], part.distributions[key]
                assert got.keys == want.keys
                assert got.target.tobytes() == want.target.tobytes()
                assert got.reference.tobytes() == want.reference.tobytes()
        assert len(built) == 2 and set(built[1]) == set(part.utilities)

    monkeypatch.setattr(engine_module, "_MAX_PLAN_SKELETONS", 2)
    built.clear()
    with SeeDB.over_table(table, store="col") as seedb:
        for i in (0, 1, 2, 2):
            run = seedb.run_engine(
                targets[1], k=K, strategy="comb", pruner="ci", dimensions=restrictions[i]
            )
            assert _bits(run) == fresh_restricted[i]
        assert len(built) == 3 and len(seedb.engine._layouts) == 2


def test_rows_appended_under_a_run_are_not_held_as_the_whole_table(census, tmp_path):
    """An append lands after a run read the table and before it takes the held
    state's lock: that run answers over the rows it read and keeps nothing, and
    the next request folds cells of every row."""
    table, spec = census
    target = _most_frequent(table, TableMeta.of(table).dimensions[0])

    def run(seedb):
        return seedb.run_engine(target, k=5, strategy="sharing", pruner="none")

    write_table(table.slice_rows(0, 2_500), tmp_path / "ds", chunk_rows=512)
    with SeeDB.over_table(open_table(tmp_path / "ds"), store="col") as before:
        read = _bits(run(before))
    tail = {
        column.name: table.materialize_range(column.name, 2_500, 3_000).tolist()
        for column in table.schema
    }
    with SeeDB.over_table(open_table(tmp_path / "ds"), store="col") as seedb:
        held_state = seedb.engine._held_state

        def append_first(*args):
            del seedb.engine._held_state
            append_rows(tmp_path / "ds", tail)
            assert seedb.table.refresh_from_disk()
            seedb.store.sync_layout()
            return held_state(*args)

        seedb.engine._held_state = append_first
        raced = run(seedb)
        assert seedb.engine.reference_state()["bytes"] == 0
        assert _bits(raced) == read
        grown = run(seedb)
        assert grown.stats.reference_views_reused == 0
        with SeeDB.over_table(open_table(tmp_path / "ds"), store="col") as fresh:
            assert _bits(grown) == _bits(run(fresh))


def test_no_opt_and_the_other_reference_modes_keep_their_queries(census):
    """Fig. 9's shape — NO_OPT, SHARING, NO_OPT on one ``SeeDB`` — and the
    parent's plans for "complement" and "query"."""
    table, spec = census
    target = spec.target_predicate()
    with SeeDB.over_table(table, store="col") as seedb:
        n_views = len(seedb.view_space())

        def no_opt():
            run = seedb.run_engine(target, k=5, strategy="no_opt", pruner="none")
            assert run.stats.queries_issued == 2 * n_views
            assert run.stats.reference_views_reused == 0
            return seedb.engine.reference_state()

        assert no_opt() == dict.fromkeys(
            ("bytes", "views_reused", "target_bytes", "target_views_reused"), 0
        )
        seedb.run_engine(target, k=5, strategy="sharing", pruner="none")
        held = seedb.engine.reference_state()
        assert held["bytes"] > 0
        assert no_opt() == held

        reference = _most_frequent(table, seedb.meta.dimensions[1])
        for mode, predicate in (("complement", None), ("query", reference)):
            run = seedb.run_engine(
                target, k=5, strategy="sharing", pruner="none",
                reference=mode, reference_predicate=predicate,
            )
            plan = plan_queries(
                seedb.view_space().views, seedb.meta, seedb.config, target, mode, predicate
            )
            assert [route.side for p in plan.queries for route in p.routes[:1]] == [
                "target", "reference"
            ] * (len(plan) // 2)
            assert run.sql == [
                generate_sql(p.query.with_range(0, table.nrows)) for p in plan.queries
            ]
            assert run.stats.reference_views_reused == 0
        assert seedb.engine.reference_state() == held


# --------------------------------------------------------------------------- #
# held reference rows: each (d,) cell's reference side finalized and normalized
# once per table identity
# --------------------------------------------------------------------------- #


class _RowByRow(DistanceFunction):
    """Half the L1 distance, one row at a time: a metric that is not ``stacked``."""

    name = "row_by_row_l1"

    def compute(self, p, q):
        return 0.5 * float(np.abs(p - q).sum())


@pytest.fixture(scope="module")
def signed():
    """``d`` x ``x`` with ``d = "f"`` never beside ``x = "u"``; ``m`` signed, with
    zeros, and ``z`` zero on ``d = "a"`` and negative elsewhere."""
    rng = np.random.default_rng(5)
    n = 900
    x = rng.choice(["u", "v", "w"], n)
    d = np.where(x == "u", rng.choice(["a", "b", "c", "e"], n), rng.choice(list("abcef"), n))
    m = np.where(rng.random(n) < 0.25, 0.0, rng.normal(0.5, 4.0, n))
    z = np.where(d == "a", 0.0, -rng.random(n))
    return Table(
        "signed",
        {"d": d, "x": x, "m": m, "z": z},
        {"d": "dimension", "x": "dimension", "m": "measure", "z": "measure"},
    )


@pytest.mark.parametrize("metric", ["emd", _RowByRow()], ids=["stacked", "one_d"])
def test_held_reference_rows_equal_the_split_path(signed, metric):
    """Every function over signed measures with zeros, a target missing one of
    ``d``'s categories, a target on ``d`` itself, an empty held slice and a
    literal missing from the dictionary: a held run, cold and warm, answers with
    the bits of NO_OPT, whose reference side is a per-request partial."""
    funcs = tuple(AggregateFunction)
    targets = [
        eq("x", "u"),
        eq("d", "b"),
        And((eq("x", "u"), eq("d", "f"))),
        eq("x", "no-such-value"),
    ]
    with SeeDB.over_table(signed, store="col", funcs=funcs, metric=metric) as held, SeeDB.over_table(
        signed, store="col", funcs=funcs, metric=metric
    ) as oracle:
        for target in targets:
            want, want_states = _run_with_states(oracle, target, "no_opt", "none")
            assert all(rows for _, rows in want_states)
            for warm in (False, True):
                run, states = _run_with_states(held, target, "sharing", "none")
                assert (_bits(run), states) == (_bits(want), want_states), (target, warm)
                assert run.stats.queries_issued == 0 or not warm
        missing = held.run_engine(eq("x", "u"), k=K, strategy="sharing", pruner="none")
        dists = missing.distributions[("d", "m", "COUNT")]
        assert dists.target[dists.keys.index("f")] == 0.0 < dists.reference[dists.keys.index("f")]
        empty = held.run_engine(targets[-1], k=K, strategy="sharing", pruner="none")
        assert set(empty.utilities.values()) == {0.0}
        for dists in empty.distributions.values():
            assert dists.keys and (dists.target == 1.0 / len(dists.keys)).all()
            assert dists.reference.tobytes() == dists.target.tobytes()


def test_a_held_table_keeps_no_reference_partial(census):
    """A held run's layout tables fold the target only, one partial each;
    NO_OPT's state tables keep the per-request reference partial."""
    table, spec = census
    with SeeDB.over_table(table, store="col") as seedb:
        captured: dict = {}
        finalize = seedb.engine._finalize

        def spy(entry):
            captured[entry.k] = entry
            return finalize(entry)

        seedb.engine._finalize = spy
        seedb.run_engine(spec.target_predicate(), k=1, strategy="sharing", pruner="none")
        seedb.run_engine(spec.target_predicate(), k=2, strategy="no_opt", pruner="none")
    held, split = captured[1], captured[2]
    assert held.states == {} and list(held.targets) == held.layout.tables
    assert {type(partial) for partial in held.targets.values()} == {SidePartial}
    assert not any(hasattr(table, "reference") for table in held.targets)
    assert split.layout is None and split.targets == {}
    assert None not in {state.reference for state in split.states.values()}


def test_held_reference_rows_are_appended_once_per_column():
    """``__q__`` gains one ``reference_row`` per new aggregate column, in column
    order; filling a column again moves no row, and ``HeldTable.held`` finds
    each view's row by the same rule."""
    categories = np.array(["a", "b", "c"])
    low = AggregateFunction.MIN
    x, y = (AggregateView("d", measure, low) for measure in ("x", "y"))
    cell = {
        "__codes__": np.array([0, 2]),
        "__offsets__": np.array([0, 2]),
        "__group_count__": np.array([3.0, 1.0]),
        x.agg_alias: np.array([2.0, 5.0]),
    }
    funcs = {x.agg_alias: low, y.agg_alias: low}
    hold_reference_rows(cell, funcs, categories)
    cell[y.agg_alias] = np.array([-1.0, 4.0])
    hold_reference_rows(cell, funcs, categories)
    q = cell["__q__"].copy()
    cell[x.agg_alias] = cell[x.agg_alias].copy()  # filled again, same values
    hold_reference_rows(cell, funcs, categories)
    assert cell["__q__"].tobytes() == q.tobytes()
    assert aggregate_columns(cell) == [x.agg_alias, y.agg_alias]
    for i, view in enumerate((x, y)):
        slots, row = reference_row(
            low, 3, cell["__codes__"], cell[view.agg_alias], cell["__group_count__"]
        )
        assert slots.tolist() == cell["__slots__"].tolist() == [0, 2]
        assert row.tobytes() == q[i].tobytes()
    assert HeldTable([y, x], categories).held(cell)[2].tolist() == [1, 0]
    cell["z"] = np.array([1.0, 1.0])
    with pytest.raises(KeyError):  # a new column with no function is not guessed
        hold_reference_rows(cell, funcs, categories)


def test_the_held_bytes_count_the_held_distributions(census):
    """``reference_state()["bytes"]`` is the ``(d,)`` cells' columns plus, per
    dimension, the slots and keys of the categories present and one normalized
    row per aggregate."""
    table, spec = census
    funcs = (AggregateFunction.AVG, AggregateFunction.MIN)
    with SeeDB.over_table(table, store="col", funcs=funcs) as seedb:
        seedb.run_engine(spec.target_predicate(), k=K, strategy="sharing", pruner="none")
        held = seedb.engine._reference
        n_aliases = len(funcs) * len(seedb.meta.measures)
        columns = distributions = 0
        for dimension in seedb.meta.dimensions:
            cell = held[(dimension,)]
            aliases = aggregate_columns(cell)
            assert len(aliases) == n_aliases
            names = ["__codes__", "__offsets__", "__group_count__", *aliases]
            columns += sum(cell[name].nbytes for name in names)
            codes, categories = table.dictionary(dimension)
            present = np.bincount(codes, minlength=len(categories)) > 0
            distributions += (
                int(present.sum()) * (np.dtype(np.intp).itemsize + 8 * n_aliases)
                + categories[present].nbytes
            )
        assert distributions > 0
        assert seedb.engine.reference_state()["bytes"] == columns + distributions


# --------------------------------------------------------------------------- #
# held target cells: X = x [AND Y = y …] reads GROUP BY (X[, Y …], d) sliced
# at (x[, y …])
# --------------------------------------------------------------------------- #


def _filter_first(target):
    """The same rows behind a nested ``And``: always filter-first target queries."""
    return target.and_(true())


def _value(table, column: str, rank: int):
    """The ``rank``-th most frequent category of ``column``."""
    codes, categories = table.dictionary(column)
    return categories[np.argsort(-np.bincount(codes), kind="stable")[rank]].item()


def _reference_rows(engine, entry) -> dict:
    """``(slots, keys, q)`` of each row's reference side, per state table: a
    held layout table's rows of its ``(d,)`` cell, or the split path's
    per-request partial finalized, compacted to its present slots and
    normalized."""
    out: dict = {}
    if entry.held:
        for table in entry.layout.tables:
            cell = engine._reference[(table.dimension,)]
            slots, keys, index = table.held(cell)
            out[table] = [(slots.tobytes(), keys, cell["__q__"][i].tobytes()) for i in index]
        return out
    for state in dict.fromkeys(entry.states.values()):
        out[state] = []
        for row in state.rows.values():
            slots = np.flatnonzero(state.reference.counts[row] > 0)
            q = normalize_distribution(
                np.take(state.reference.values(np.array([row])), slots, axis=1)
            )
            out[state].append((slots.tobytes(), tuple(state.categories[slots]), q[0].tobytes()))
    return out


def _run_with_states(seedb, target, strategy, pruner, **kwargs):
    """``run_engine`` plus, per state table it finalized on — a held request's
    layout tables, or the split path's :class:`ViewState` s — the bytes of its
    target partial and each row's reference side (:func:`_reference_rows`)."""
    captured: list = []
    finalize = seedb.engine._finalize

    def spy(entry):
        captured.append(entry)
        return finalize(entry)

    seedb.engine._finalize = spy
    try:
        run = seedb.run_engine(target, k=K, strategy=strategy, pruner=pruner, **kwargs)
    finally:
        del seedb.engine._finalize
    (entry,) = captured
    references = _reference_rows(seedb.engine, entry)
    targets = entry.targets if entry.held else {state: state.target for state in references}
    states = [
        (
            tuple(
                array.tobytes()
                for array in (partial.sums, partial.counts, partial.extrema)
                if array is not None
            ),
            references[table],
        )
        for table, partial in targets.items()
    ]
    return run, states


def _conjunction(table, columns, ranks):
    """``columns[i] = `` its ``ranks[i]``-th most frequent category, ANDed."""
    clauses = [eq(column, _value(table, column, rank)) for column, rank in zip(columns, ranks)]
    return clauses[0] if len(clauses) == 1 else And(tuple(clauses))


def _held_targets(table):
    """One clause on a column that is no dimension, one on a dimension, two, and
    three out of column order: views on every target column among them."""
    relationship, sex = TableMeta.of(table).dimensions[3], TableMeta.of(table).dimensions[5]
    return [
        _conjunction(table, ["marital_status"], [1]),
        _conjunction(table, [relationship], [0]),
        _conjunction(table, [relationship, "marital_status"], [0, 1]),
        _conjunction(table, [sex, "marital_status", relationship], [1, 1, 2]),
    ]


@pytest.mark.parametrize("storage", ["resident", "memmap"])
@pytest.mark.parametrize("store", ["col", "row"])
def test_a_held_one_category_target_equals_the_filter_first_path(census, store, storage, tmp_path):
    """States and ``EngineRun`` of a conjunction of one-category clauses read
    from held cells, cold and warm, equal the filter-first path's bit for bit —
    one clause over a column that is no dimension and over a dimension (whose own
    views read ``(X,)``), two clauses and three.  The target partials are the
    split path's; each view's held reference slots, keys and ``q`` are what
    NO_OPT, whose reference side is a per-request partial, normalizes."""
    table, _ = census
    if storage == "memmap":
        write_table(table, tmp_path / "census", chunk_rows=512)
        table = open_table(tmp_path / "census")
    funcs = tuple(AggregateFunction)
    measures = TableMeta.of(table).measures[:2]
    config = None if store == "col" else split_config("row")
    with SeeDB.over_table(table, store=store, config=config, funcs=funcs) as held, SeeDB.over_table(
        table, store=store, config=config, funcs=funcs
    ) as oracle:
        for target in _held_targets(table):
            want = oracle.run_engine(
                _filter_first(target), k=K, strategy="comb", pruner="ci", measures=measures
            )
            assert want.stats.queries_issued > 0 == want.stats.target_views_reused
            split, want_states = _run_with_states(
                oracle, _filter_first(target), "no_opt", "none", measures=measures
            )
            assert _bits(split) == _bits(want)
            for warm in (False, True):
                run, states = _run_with_states(held, target, "comb", "ci", measures=measures)
                assert (_bits(run), states) == (_bits(want), want_states)
                assert (run.stats.queries_issued == 0) == warm
                assert run.stats.target_views_reused > 0 or not warm
        assert held.engine.reference_state()["target_bytes"] > 0
        assert oracle.engine.reference_state()["target_bytes"] == 0


def test_an_unseen_value_of_a_held_column_executes_no_query(census):
    """Holding a column set pays for every value combination of it: after one
    filled its cells, another nobody asked for — its clauses in the other order
    — is answered from them alone."""
    table, _ = census
    with SeeDB.over_table(table, store="col") as seedb, SeeDB.over_table(
        table, store="col"
    ) as oracle:
        for columns, (seen, unseen) in (
            (["marital_status"], (0, 1)),
            ([seedb.meta.dimensions[3]], (1, 0)),
            ([seedb.meta.dimensions[3], "marital_status"], (0, 1)),
        ):
            # Pruning nothing, the first combination fills every view's cells.
            seedb.run_engine(_conjunction(table, columns, [seen] * 2), k=K, pruner="none")
            target = _conjunction(table, columns[::-1], [unseen] * 2)
            run = seedb.run_engine(target, k=K, strategy="comb", pruner="ci")
            assert run.stats.queries_issued == run.stats.rows_scanned == 0
            assert run.stats.target_views_reused == sum(run.active_per_phase)
            assert _bits(run) == _bits(
                oracle.run_engine(_filter_first(target), k=K, strategy="comb", pruner="ci")
            )


def test_a_view_on_the_target_column_reads_the_reference_cell(census):
    """A view on a target column reads the cell of the target's other columns,
    narrowed to its own category: ``(X,)`` for one clause, ``(Y, X)`` for two."""
    table, _ = census
    column, other = TableMeta.of(table).dimensions[0], TableMeta.of(table).dimensions[5]
    values = {column: _value(table, column, 0), other: _value(table, other, 1)}
    with SeeDB.over_table(table, store="col") as seedb:
        for columns in ([column], [column, other]):
            target = _conjunction(table, columns, [0, 1])
            run = seedb.run_engine(target, k=K, strategy="sharing", pruner="none")
            held = seedb.engine._reference
            assert (column,) in held and all(len(set(key)) == len(key) for key in held)
            for key, dists in run.distributions.items():
                if key[0] in columns:
                    assert dict(zip(dists.keys, dists.target.tolist()))[values[key[0]]] == 1.0
                    assert dists.target.sum() == 1.0
            if len(columns) == 1:
                assert {key for key in held if len(key) == 2} == {
                    (column, d) for d in seedb.meta.dimensions if d != column
                }
        assert (other, column) in held and (column, other) in held


def _empty_combination(table):
    """``education = e AND occupation = o AND workclass = w`` for the first
    combination of categories with no row."""
    columns = ("education", "occupation", "workclass")
    composite = np.zeros(table.nrows, dtype=np.int64)
    for column in columns:
        composite = composite * len(table.categories(column)) + table.dictionary(column)[0]
    sizes = [len(table.categories(column)) for column in columns]
    counts = np.bincount(composite, minlength=np.prod(sizes))
    codes = np.unravel_index(np.flatnonzero(counts == 0)[0], sizes)
    return And(tuple(
        eq(column, table.categories(column)[code].item()) for column, code in zip(columns, codes)
    ))


def test_a_literal_missing_from_the_dictionary_reads_an_empty_target(census):
    """A literal missing from the dictionary holds nothing for the target, alone
    or beside another clause; categories that never occur together read an
    empty slice of the cells they fill."""
    table, _ = census
    missing = eq(TableMeta.of(table).dimensions[0], "no-such-value")
    legs = (
        (missing, False),
        (missing.and_(_held_targets(table)[0]), False),
        (_empty_combination(table), True),
    )
    for target, cells in legs:
        with SeeDB.over_table(table, store="col") as seedb, SeeDB.over_table(
            table, store="col"
        ) as oracle:
            n_dimensions = len(seedb.meta.dimensions)
            cold = seedb.run_engine(target, k=K, strategy="sharing", pruner="none")
            # The reference fills, one per dimension, and as many target cells.
            assert cold.stats.queries_issued == n_dimensions * (1 + cells)
            assert (seedb.engine.reference_state()["target_bytes"] > 0) == cells
            warm = seedb.run_engine(target, k=K, strategy="sharing", pruner="none")
            assert warm.stats.queries_issued == 0 and set(warm.utilities.values()) == {0.0}
            want = oracle.run_engine(_filter_first(target), k=K, strategy="sharing", pruner="none")
            assert _bits(cold) == _bits(warm) == _bits(want)


def test_other_targets_and_engines_keep_their_target_queries(census, monkeypatch):
    """A repeated column, a clause no dictionary codes, an ``Or``, cells past the
    dense grouping limit, another reference, an engine with the rewrite, a
    bin-packed plan: the second run still queries its target."""
    table, spec = census
    meta = TableMeta.of(table)
    one = eq(meta.dimensions[3], _value(table, meta.dimensions[3], 0))
    other = spec.target_predicate()
    positive = Comparison(">", Col(meta.measures[0]), Lit(0.0))
    limit = engine_module._DENSE_GROUP_LIMIT
    # |relationship| x |marital_status| = 12 groups, the smallest cell of the pair.
    legs = [
        (None, one.and_(one), "all", limit),
        (None, positive, "all", limit),
        (None, one.and_(positive), "all", limit),
        (None, one.or_(other), "all", limit),
        (None, one.and_(other), "all", 11),
        (None, one, "complement", limit),
        (tuned_config("col"), one, "all", limit),
        (serving_config("row"), one, "all", limit),
    ]
    for config, target, reference, dense_limit in legs:
        store = "row" if config is not None and config.store == "row" else "col"
        monkeypatch.setattr(engine_module, "_DENSE_GROUP_LIMIT", dense_limit)
        with SeeDB.over_table(table, store=store, config=config) as seedb:
            for _ in range(2):
                run = seedb.run_engine(
                    target, k=K, strategy="comb", pruner="ci", reference=reference
                )
            assert run.stats.queries_issued > 0 == run.stats.target_views_reused, target
            assert seedb.engine.reference_state()["target_bytes"] == 0


def test_two_values_of_one_column_share_one_fill_and_conserve(census):
    table, _ = census
    columns = [TableMeta.of(table).dimensions[3], "marital_status"]
    for width in (1, 2):
        with SeeDB.over_table(table, store="col") as seedb:
            views = seedb.view_space().views
            targets = [_conjunction(table, columns[:width], [rank] * 2) for rank in (0, 1)]
            filled: list[tuple] = []
            hold = seedb.engine._hold_reference

            def spy(held, fill, result):
                filled.extend((fill.query.group_by, spec.alias) for spec in fill.query.aggregates)
                hold(held, fill, result)

            seedb.engine._hold_reference = spy
            before = dict(seedb.engine.executed_totals)
            runs = [seedb.engine.run(views, t, K, "comb", "ci") for t in targets]
            executed = _executed_since(seedb.engine, before)
        assert len(filled) == len(set(filled))
        assert any(len(key) == width + 1 for key, _ in filled)
        assert executed == _charged(runs)
        # The first combination fills the cells; the second reads every one.
        assert runs[1].stats.target_views_reused == runs[1].active_per_phase[0]
        for run, target in zip(runs, targets):
            assert _bits(run) == _fresh_answer(table, (target, None, None, K, "comb", "ci"))


def test_an_append_drops_the_target_cells_with_the_reference_cells(census, tmp_path):
    """A service without a delta cache holds both sides; an append moves the
    table's identity, and the next request fills both again."""
    table, _ = census
    write_table(table.slice_rows(0, 2_500, name="census_live"), tmp_path / "live", chunk_rows=512)
    tail = {
        column.name: table.materialize_range(column.name, 2_500, 3_000).tolist()
        for column in table.schema
    }
    target = {"column": "marital_status", "value": _value(table, "marital_status", 0)}
    service = RecommendationService(data_dirs=(str(tmp_path / "live"),), delta_cache=False)
    try:
        session = service.create_session({"dataset": "census_live"})["session_id"]

        def recommend():
            return service.recommend(session, {"target": target, "k": K})["stats"]

        def held():
            return service.stats()["reference_state"]["census_live|col"]

        assert recommend()["target_views_reused"] == 0
        assert held()["target_bytes"] > 0 and recommend()["queries_issued"] == 0
        reused = held()["target_views_reused"]
        assert reused > 0
        service.append_dataset("census_live", {"rows": tail})
        refilled = recommend()
        assert refilled["queries_issued"] > 0 and refilled["delta_hits"] == 0
        assert refilled["reference_views_reused"] == refilled["target_views_reused"] == 0
        assert held()["target_bytes"] > 0 and held()["target_views_reused"] == reused
        assert recommend()["queries_issued"] == 0
    finally:
        service.close()
        registry.unregister_on_disk("census_live")


def test_the_byte_bound_evicts_whole_target_columns(census, monkeypatch):
    table, _ = census
    relationship, sex = TableMeta.of(table).dimensions[3], TableMeta.of(table).dimensions[5]
    # (target columns, the dimensions whose views read a held cell, the column
    # sets held after the run: a cell's key less its dimension).
    steps = [
        (["marital_status"], [], [("marital_status",)]),
        ([relationship], [relationship], [(relationship,)]),
        # Past the bound on its own, and kept whole: (relationship, sex) is
        # still held from the step before, a view on sex reads it.
        ([relationship, sex], [sex], [(relationship,), (relationship, sex), (sex,)]),
        (["marital_status"], [], [("marital_status",)]),
    ]
    with SeeDB.over_table(table, store="col") as seedb:
        target = _conjunction(table, steps[0][0], [0])
        seedb.run_engine(target, k=K, strategy="sharing", pruner="none")
        one_column = seedb.engine.reference_state()["target_bytes"]
    monkeypatch.setattr(engine_module, "_MAX_TARGET_BYTES", one_column)
    with SeeDB.over_table(table, store="col") as seedb, SeeDB.over_table(
        table, store="col"
    ) as oracle:
        for columns, reads, column_sets in steps:
            target = _conjunction(table, columns, [0, 0])
            run = seedb.run_engine(target, k=K, strategy="sharing", pruner="none")
            # Each new column set pushes the last ones out, whole: what is held
            # is the sets just read, and a set read again is filled again.
            assert run.stats.queries_issued > 0
            assert run.stats.target_views_reused == sum(
                view.dimension in reads for view in seedb.view_space()
            )
            assert sorted(seedb.engine._target_columns) == column_sets
            if len(columns) > 1:
                assert seedb.engine.reference_state()["target_bytes"] > one_column
            held = seedb.engine._reference
            assert sorted({key[:-1] for key in held if len(key) > 1}) == column_sets
            assert _bits(run) == _bits(
                oracle.run_engine(_filter_first(target), k=K, strategy="sharing", pruner="none")
            )


def test_the_sqlite_backend_fills_the_same_cells(census):
    table, _ = census
    for target in _held_targets(table):
        with SeeDB.over_table(
            table, store="col", config=serving_config("col").with_(backend="sqlite")
        ) as sqlite, SeeDB.over_table(table, store="col") as native:
            want = native.run_engine(target, k=K, strategy="comb", pruner="ci")
            for warm in (False, True):
                run = sqlite.run_engine(target, k=K, strategy="comb", pruner="ci")
                assert (run.stats.queries_issued == 0) == warm
                assert run.selected == want.selected
                for key, value in want.utilities.items():
                    assert run.utilities[key] == pytest.approx(value, rel=1e-9, abs=1e-12)


if __name__ == "__main__":
    recorded = records(split_config)
    GOLDEN.write_text(",\n".join(json.dumps(r) for r in recorded).join(("[\n", "\n]\n")))
