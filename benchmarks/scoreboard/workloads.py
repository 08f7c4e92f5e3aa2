"""The four scoreboard workloads: seeded request scripts and their oracles.

Each workload drives one tier of the system through its public API only
and keeps its own correctness gate.  The runner (``run.py``) owns timing:
a workload performs every operation through the ``op(kind, call)``
callable it is handed, which paces, times and — in a traced run — spans
the call.  Kinds are ``recommend``, ``append`` and ``create_session``.

A *pass* is the unit the timed region is made of: the smallest stretch of
the script after which every per-recommend count (queries, rows, bytes,
cache ratios) has the same mean, so a run may stop after any whole pass
without changing a count metric.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import threading
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import SeeDB, accuracy
from repro.data import registry
from repro.db import chunks
from repro.db.expressions import And, Expression, eq
from repro.service import (
    AnalystDrillDown,
    RecommendationService,
    ServiceClient,
    start_frontend,
    start_server,
)
from repro.service.api import RecommendResponse

Op = Callable[..., Any]  # op(kind, call, stratum="")

K = 5
DRILL_STEPS = 4
SERVICE_DATASETS = ("diab", "bank", "census")
#: Low-cardinality AIR dimensions whose most frequent value is a target on
#: ``engine_resident``.  The set is fixed and only the call order is seeded:
#: CI pruning makes both cost and accuracy depend on the target (0.4-1.0
#: accuracy across AIR's single-clause targets), so a seeded *choice* of
#: five targets would move ``topk_accuracy`` by several percent from seed
#: to seed and bury a real accuracy loss.
ENGINE_TARGET_DIMS = ("carrier", "month", "dest_state", "day_of_week", "distance_group")
APPEND_ROWS = 1_000
APPEND_BATCHES = 40


def _predicate(clauses: list[dict[str, object]]) -> Expression:
    parts = [eq(str(c["column"]), c["value"]) for c in clauses]
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _most_frequent(table: Any, column: str) -> object:
    codes, categories = table.dictionary(column)
    return categories[int(np.argmax(np.bincount(codes)))].item()


def _view_keys(views: list[dict[str, object]]) -> list[tuple[str, str, str]]:
    return [(str(v["dimension"]), str(v["measure"]), str(v["func"])) for v in views]


class Workload:
    """Base class: lifecycle, failure log, script digest."""

    name = ""
    n_threads = 1
    #: Passes after which the script repeats; the timed region ends on a
    #: multiple of it so that per-recommend counts do not depend on when.
    passes_per_cycle = 1
    #: Seconds one pass takes on the reference host, at full and at smoke
    #: size; a traced run turns --seconds into a fixed number of passes.
    pass_seconds = (1.0, 1.0)
    #: Set by a traced run: record the size of each response body.
    measure_response_bytes = False
    #: Logical bytes one appended batch carries (``live_append`` only).
    user_bytes_per_batch = 0

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.failures: list[str] = []
        self._failure_lock = threading.Lock()
        self.response_bytes: list[int] = []

    @property
    def nominal_pass_seconds(self) -> float:
        return self.pass_seconds[1 if self.smoke else 0]

    def fail(self, message: str) -> None:
        """Record an oracle or contract mismatch (counted as a failed op)."""
        with self._failure_lock:
            self.failures.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def rng(self, *parts: object) -> random.Random:
        """A generator keyed by the run seed and ``parts`` (hash-seed free)."""
        return random.Random(":".join(map(str, (self.name, self.seed, *parts))))

    def script_digest(self) -> str:
        """sha256 of the canonical JSON request script."""
        blob = json.dumps(self.script(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- the interface each workload fills in --------------------------- #

    def prepare(self) -> None:
        """Generate the inputs from the seed (not part of ``setup_s``)."""

    def setup(self, op: Op) -> None:
        """Bring the system up cold and warm it; part of ``setup_s``."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what :meth:`setup` started.  Idempotent."""

    def run_pass(self, thread: int, index: int, op: Op) -> None:
        """Perform pass ``index`` of load thread ``thread``."""
        raise NotImplementedError

    def verify(self) -> float:
        """Check the last responses against the oracle; return top-k accuracy."""
        raise NotImplementedError

    def script(self) -> object:
        """The JSON-able request script (byte-identical for one seed)."""
        raise NotImplementedError

    def worker_pids(self) -> list[int]:
        """Processes of the run other than this one."""
        return []

    def counters(self) -> dict[str, float]:
        """Cumulative counters readable only from outside the process."""
        return {}

    def probe_layers(self) -> dict[str, float]:
        """Direct per-layer probes of a traced run (untimed)."""
        return {}


# --------------------------------------------------------------------------- #
# engine_resident
# --------------------------------------------------------------------------- #


class EngineResident(Workload):
    name = "engine_resident"
    pass_seconds = (0.5, 0.18)

    def prepare(self) -> None:
        self.table = registry.build("air", n_rows=20_000 if self.smoke else 300_000)
        self.targets: list[Expression] = [registry.spec("air").target_predicate()]
        self.targets += [
            eq(dim, _most_frequent(self.table, dim)) for dim in ENGINE_TARGET_DIMS
        ]
        self.selected: dict[int, list[tuple[str, str, str]]] = {}
        self.seedb: SeeDB | None = None

    def _order(self, index: int) -> list[int]:
        return self.rng(index).sample(range(len(self.targets)), len(self.targets))

    def script(self) -> object:
        return {
            "targets": [repr(t) for t in self.targets],
            "passes": [self._order(i) for i in range(64)],
        }

    def setup(self, op: Op) -> None:
        # A fresh Table each time: dictionaries are cached per Table object,
        # and a repeated set-up has to pay for them again to be a sample.
        fresh = self.table.slice_rows(0, self.table.nrows)
        self.seedb = SeeDB.over_table(fresh, store="col")
        self.selected.clear()
        self.run_pass(0, 0, op)

    def teardown(self) -> None:
        if self.seedb is not None:
            self.seedb.close()
            self.seedb = None

    def run_pass(self, thread: int, index: int, op: Op) -> None:
        seedb = self.seedb
        assert seedb is not None
        for t in self._order(index):
            result = op(
                "recommend",
                lambda: seedb.recommend(self.targets[t], k=K, strategy="comb", pruner="ci"),
            )
            keys = [r.view.key for r in result.recommendations]
            self.expect(len(keys) == K, f"target {t}: {len(keys)} views, wanted {K}")
            first = self.selected.setdefault(t, keys)
            self.expect(keys == first, f"target {t}: top-k changed between calls")

    def verify(self) -> float:
        with SeeDB.over_table(self.table, store="col") as oracle:
            scores = [
                accuracy(self.selected[t], oracle.true_top_k(target, K).selected)
                for t, target in enumerate(self.targets)
            ]
        return sum(scores) / len(scores)


# --------------------------------------------------------------------------- #
# live_append
# --------------------------------------------------------------------------- #


class LiveAppend(Workload):
    name = "live_append"
    pass_seconds = (0.11, 0.06)
    dataset = "air_live"

    def prepare(self) -> None:
        n_rows = 20_000 if self.smoke else 300_000
        self.chunk_rows = 4_096 if self.smoke else 32_768
        self.base = registry.build("air", n_rows=n_rows).slice_rows(
            0, n_rows, name=self.dataset
        )
        self.spec = registry.spec("air")
        rng = self.rng("script")
        dims = [d for d in self.base.dimension_names() if d != self.spec.split_column]
        self.targets = []
        for dim in rng.sample(dims, 2):
            categories = self.base.categories(dim)
            value = categories[rng.randrange(len(categories))].item()
            self.targets.append([{"column": dim, "value": value}])
        names = [column.name for column in self.base.schema]
        self.offsets = [rng.randrange(n_rows - APPEND_ROWS) for _ in range(APPEND_BATCHES)]
        self.batches = [
            {
                "rows": {
                    name: self.base.materialize_range(name, lo, lo + APPEND_ROWS).tolist()
                    for name in names
                }
            }
            for lo in self.offsets
        ]
        #: Logical bytes one batch carries (32-bit codes for strings, values
        #: else): what the store writes for it is compared against this.
        self.user_bytes_per_batch = APPEND_ROWS * self.base.schema.row_byte_width()
        self.service: RecommendationService | None = None
        self.path = self.workdir / "air_live"

    def script(self) -> object:
        return {"targets": self.targets, "append_offsets": self.offsets}

    def setup(self, op: Op) -> None:
        chunks.write_table(
            self.base,
            self.path,
            chunk_rows=self.chunk_rows,
            split_column=self.spec.split_column,
            target_value=self.spec.target_value,
            other_value=self.spec.other_value,
        )
        self.service = RecommendationService(data_dirs=(str(self.path),))
        self.sessions = [
            op("create_session", lambda: self.service.create_session({"dataset": self.dataset}))[
                "session_id"
            ]
            for _ in self.targets
        ]
        self.n_rows = self.base.nrows
        self.last_views: list[list[dict[str, object]]] = [[], []]
        # The cold read: a full scan that fills the delta cache.
        for i in range(len(self.targets)):
            self._recommend(i, op, cold=True)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        registry.unregister_on_disk(self.dataset)
        shutil.rmtree(self.path, ignore_errors=True)

    def _recommend(self, i: int, op: Op, cold: bool = False) -> None:
        service = self.service
        assert service is not None
        response = op(
            "recommend",
            lambda: service.recommend(
                self.sessions[i], {"target": self.targets[i], "k": K, "strategy": "sharing"}
            ),
        )
        stats = response["stats"]
        self.last_views[i] = response["views"]
        self.expect(len(response["views"]) == K, f"session {i}: short view list")
        self.expect(
            response["data"]["n_rows"] == self.n_rows,
            f"session {i}: saw {response['data']['n_rows']} rows, store has {self.n_rows}",
        )
        if not cold:
            self.expect(
                stats["delta_hits"] == stats["queries_issued"] > 0,
                f"session {i}: {stats['delta_hits']} delta hits for "
                f"{stats['queries_issued']} queries",
            )
            self.expect(
                stats["rows_scanned"] == stats["queries_issued"] * APPEND_ROWS,
                f"session {i}: refresh scanned {stats['rows_scanned']} rows",
            )

    def run_pass(self, thread: int, index: int, op: Op) -> None:
        service = self.service
        assert service is not None
        batch = self.batches[index % APPEND_BATCHES]
        appended = op("append", lambda: service.append_dataset(self.dataset, batch))
        self.n_rows += APPEND_ROWS
        self.expect(
            appended["n_rows"] == self.n_rows and appended["appended"] == APPEND_ROWS,
            f"append reported {appended['n_rows']} rows, wanted {self.n_rows}",
        )
        for i in range(len(self.targets)):
            self._recommend(i, op)

    def verify(self) -> float:
        table = chunks.open_table(self.path)
        self.expect(table.nrows == self.n_rows, "reopened store has a different row count")
        scores = []
        with SeeDB.over_table(table, store="col") as oracle:
            for clauses, views in zip(self.targets, self.last_views):
                truth = oracle.true_top_k(_predicate(clauses), K).selected
                scores.append(accuracy(_view_keys(views), truth))
                self.expect(set(_view_keys(views)) == set(truth), "top-k differs from a fresh scan")
        return sum(scores) / len(scores)

    def probe_layers(self) -> dict[str, float]:
        assert self.service is not None and self.service.cache is not None
        return {"cache.bytes": float(self.service.cache.nbytes)}

    def counters(self) -> dict[str, float]:
        # Column files live under ``columns/``, the manifest beside it.
        files = (f for f in self.path.rglob("*") if f.is_file())
        return {"store.bytes": float(sum(f.stat().st_size for f in files))}


# --------------------------------------------------------------------------- #
# serve_warm / serve_fleet: drill-down sessions over HTTP
# --------------------------------------------------------------------------- #


class _SessionScript:
    """One analyst: dataset, behaviour seed, and the recorded exchange."""

    def __init__(self, dataset: str, analyst_seed: int) -> None:
        self.dataset = dataset
        self.analyst_seed = analyst_seed
        spec = registry.spec(dataset)
        self.base_target = [(spec.split_column, spec.target_value)]
        #: ``(request, ranked view keys)`` per step, fixed by the first replay.
        self.steps: list[tuple[dict[str, object], list[tuple[str, str, str]]]] = []


class _DrillDownWorkload(Workload):
    """Shared by the two HTTP workloads: scripts, replay, oracle."""

    sessions_per_dataset = 6
    require_cache_hits = False

    @property
    def passes_per_cycle(self) -> int:  # type: ignore[override]
        return self.sessions_per_dataset

    def prepare(self) -> None:
        self.scale = "smoke" if self.smoke else "small"
        rng = self.rng("analysts")
        self.scripts = {
            dataset: [
                _SessionScript(dataset, rng.randrange(1 << 30))
                for _ in range(self.sessions_per_dataset)
            ]
            for dataset in SERVICE_DATASETS
        }
        self.clients: list[ServiceClient] = []

    def script(self) -> object:
        return [
            {
                "dataset": s.dataset,
                "analyst_seed": s.analyst_seed,
                "requests": [request for request, _ in s.steps],
            }
            for dataset in SERVICE_DATASETS
            for s in self.scripts[dataset]
        ]

    def _datasets_for(self, thread: int) -> tuple[str, ...]:
        return SERVICE_DATASETS[thread:] + SERVICE_DATASETS[:thread]

    def run_pass(self, thread: int, index: int, op: Op) -> None:
        for dataset in self._datasets_for(thread):
            choices = self.scripts[dataset]
            self._replay(thread, choices[(index + thread) % len(choices)], op)

    def _replay(self, thread: int, script: _SessionScript, op: Op) -> None:
        """One analyst session: open it, then drill down ``DRILL_STEPS`` times.

        Closed loop: the next request is built from the previous response,
        as :class:`AnalystDrillDown` models.  The first replay of a script
        records the exchange; later ones must repeat it exactly.
        """
        client = self.clients[thread]
        info = op("create_session", lambda: client.create_session(dataset=script.dataset))
        analyst = AnalystDrillDown(
            script.base_target,
            k=K,
            n_steps=DRILL_STEPS,
            strategy="sharing",
            seed=script.analyst_seed,
        )
        recording = not script.steps
        request: dict[str, object] | None = analyst.first_request()
        step = 0
        while request is not None:
            payload = request
            raw = op(
                "recommend",
                lambda: client.recommend_raw(info.session_id, payload),
                script.dataset,
            )
            label = f"{script.dataset}/{script.analyst_seed} step {step}"
            try:
                typed = RecommendResponse.from_payload(raw)
            except (KeyError, TypeError, ValueError) as exc:
                self.fail(f"{label}: response is not the typed envelope: {exc!r}")
                return
            keys = _view_keys(raw["views"])
            self.expect(len(keys) == K and typed.step == step, f"{label}: malformed step")
            if recording:
                script.steps.append((request, keys))
            else:
                self.expect(
                    step < len(script.steps) and script.steps[step] == (request, keys),
                    f"{label}: exchange differs from the first replay",
                )
                if self.require_cache_hits:
                    self.expect(
                        raw["stats"]["queries_issued"] == 0
                        and raw["stats"]["cache_hit_rate"] == 1.0,
                        f"{label}: warm request executed "
                        f"{raw['stats']['queries_issued']} queries",
                    )
            if self.measure_response_bytes and thread == 0:
                self.response_bytes.append(len(json.dumps(raw)))
            request = analyst.next_request(raw)
            step += 1
        # With k=5 the top views soon all sit on an already constrained
        # dimension, so sessions end after 2-3 of the DRILL_STEPS allowed.
        self.expect(
            step == len(script.steps), f"{script.dataset}: session ended after {step} steps"
        )

    def _close_clients(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []

    def verify(self) -> float:
        """Every recorded step against a fresh in-process exact top-k."""
        scores = []
        for dataset in SERVICE_DATASETS:
            table = registry.build(dataset, scale=self.scale)
            with SeeDB.over_table(table, store="col") as oracle:
                seen: dict[str, list[tuple[str, str, str]]] = {}
                for script in self.scripts[dataset]:
                    for request, keys in script.steps:
                        clauses = request["target"]
                        cache_key = json.dumps(clauses, sort_keys=True)
                        if cache_key not in seen:
                            seen[cache_key] = oracle.true_top_k(_predicate(clauses), K).selected
                        truth = seen[cache_key]
                        scores.append(accuracy(keys, truth))
                        self.expect(
                            set(keys) == set(truth),
                            f"{dataset} {clauses}: top-k differs from the oracle",
                        )
        return sum(scores) / len(scores)


class ServeWarm(_DrillDownWorkload):
    name = "serve_warm"
    pass_seconds = (0.05, 0.06)
    require_cache_hits = True

    def setup(self, op: Op) -> None:
        self.service = RecommendationService(datasets=SERVICE_DATASETS, scale=self.scale)
        self.server, _ = start_server(self.service)
        self.clients = [ServiceClient(*self.server.server_address[:2])]
        for script in (s for d in SERVICE_DATASETS for s in self.scripts[d]):
            script.steps = []
            self._replay(0, script, op)

    def teardown(self) -> None:
        self._close_clients()
        server = getattr(self, "server", None)
        if server is not None:
            server.graceful_shutdown(timeout=5.0)
            self.server = None

    def probe_layers(self) -> dict[str, float]:
        assert self.service.cache is not None
        return {"cache.bytes": float(self.service.cache.nbytes)}


class ServeFleet(_DrillDownWorkload):
    name = "serve_fleet"
    pass_seconds = (0.45, 0.2)
    n_threads = 2
    #: Two analysts per dataset, not six: a cycle of the script is then 14
    #: cold requests per thread, about a second, which keeps the end of the
    #: timed region close to --seconds.
    sessions_per_dataset = 2

    def setup(self, op: Op) -> None:
        self.frontend, _ = start_frontend(
            n_workers=2,
            service_kwargs={
                "datasets": SERVICE_DATASETS,
                "scale": self.scale,
                "result_cache": False,
            },
        )
        address = self.frontend.server_address[:2]
        self.clients = [ServiceClient(*address) for _ in range(self.n_threads)]
        for script in (s for d in SERVICE_DATASETS for s in self.scripts[d]):
            script.steps = []
            self._replay(0, script, op)

    def teardown(self) -> None:
        self._close_clients()
        frontend = getattr(self, "frontend", None)
        if frontend is not None:
            frontend.graceful_shutdown(timeout=5.0)
            self.frontend = None
            # spawn() started a resource-tracker helper process; it would
            # only notice our exit afterwards.  Stop and reap it now so no
            # process of this run outlives it (3.11 API, absent elsewhere).
            stop = getattr(resource_tracker._resource_tracker, "_stop", None)
            if stop is not None:
                stop()

    def worker_pids(self) -> list[int]:
        return [worker.pid for worker in self.frontend.workers]

    def counters(self) -> dict[str, float]:
        stats = self.clients[0].stats()
        counters = {f"executed.{k}": float(v) for k, v in stats.get("executed", {}).items()}
        for worker in stats["workers"]:
            counters[f"worker.{worker['worker']}.requests"] = float(worker.get("requests", 0))
        return counters

    def probe_layers(self) -> dict[str, float]:
        """The proxy hop: one warm request through the front end and direct.

        The same request is sent alternately to the front end and straight
        to the worker that owns the dataset; the difference of the medians
        is what the hop costs.
        """
        script = self.scripts["census"][0]
        request = script.steps[0][0]
        worker = self.frontend.worker_for_dataset("census")
        via, direct = [], []
        with ServiceClient("127.0.0.1", worker.port) as straight:
            front = self.clients[0]
            front_id = front.create_session(dataset="census").session_id
            direct_id = straight.create_session(dataset="census").session_id
            for _ in range(8 if self.smoke else 24):
                for client, session, sink in (
                    (front, front_id, via),
                    (straight, direct_id, direct),
                ):
                    started = time.perf_counter()
                    client.recommend_raw(session, request)
                    sink.append(time.perf_counter() - started)
        return {
            "frontend.hop_overhead_ms": (float(np.median(via)) - float(np.median(direct))) * 1e3
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (EngineResident, LiveAppend, ServeWarm, ServeFleet)
}

