"""The API fuzz leg: every route-table row, malformed bodies, both HTTP tiers.

Each row of :data:`repro.service.api.ROUTES` is sent no body, ``[]``,
``"x"``, invalid JSON, an unknown ``{id}``, and — drawn with a fixed seed —
JSON values of the wrong type for each field of the row's request
dataclass, on the single-process server and on a two-worker front end;
nested values and ``null`` go into a target clause's value and into each
appended cell, in the columnar and the row-object form.  Every answer must
be the row's typed success or the one error envelope with a catalogued code:
never a 500, never a body that is not JSON.  An appended cell of the wrong
type is rejected, and whatever is not a success leaves the store's rows and
categories as they were.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import threading

import numpy as np
import pytest

from repro.data import registry
from repro.db.chunks import open_table, write_table
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.service import RecommendationService, ServiceClient, start_server
from repro.service.api import (
    ROUTES,
    AppendResponse,
    DatasetInfo,
    ErrorCode,
    RecommendResponse,
    SessionInfo,
)
from repro.service.frontend import FrontendServer

SEED = 7
#: Wrong-typed JSON values, by the kind of value a request field declares.
WRONG = {
    "str": [5, -1, 1.5, True, [], ["x"], {}, {"a": 1}],
    "int": ["5", 1.5, True, None, [], {}],
    "collection": ["x", 5, 1.5, True],
}
#: The right container with the wrong contents, sent for every collection.
NESTED = [[5], {"region": 5}]
#: Nested JSON and ``null``, sent as a target clause's value and as each appended cell.
DEEP = [[["n"]], {"a": 1}, None]
#: One valid appended row.
ROW = {"region": "n", "sales": 1.5, "segment": "t"}
#: A valid body per row that reads one; the fuzz breaks one field at a time.
BASES = {
    "create_session": {"dataset": "census"},
    "recommend": {"k": 1},
    "register_dataset": {"path": "/no/such/store"},
    "append_dataset": {"rows": {"region": ["n"], "sales": [1.5], "segment": ["t"]}},
}
#: How a success of each row parses (the rest must be a JSON object).
TYPED = {
    "create_session": SessionInfo.from_payload,
    "recommend": RecommendResponse.from_payload,
    "append_dataset": AppendResponse.from_payload,
    "describe_datasets": lambda body: [DatasetInfo.from_payload(r) for r in body["datasets"]],
}


class _ThreadWorker:
    """A worker handle over an in-process server: no worker process to spawn.

    The front end over these is stopped with ``shutdown()``, never
    ``graceful_shutdown()`` (which would SIGTERM ``pid``).
    """

    alive, exitcode, generation, in_flight, sessions_pinned = True, None, 0, 0, 0

    def __init__(self, index, server):
        self.index, self.port, self.pid = index, server.server_address[1], os.getpid()


def _chunk_store(path):
    rng = np.random.default_rng(0)
    n = 200
    table = Table(
        "fuzz",
        {
            "region": rng.choice(["n", "s", "e"], n),
            "sales": rng.gamma(2.0, 10.0, n),
            "segment": rng.choice(["t", "r"], n),
        },
        roles={
            "region": ColumnRole.DIMENSION,
            "sales": ColumnRole.MEASURE,
            "segment": ColumnRole.OTHER,
        },
    )
    write_table(table, path, chunk_rows=64, split_column="segment", target_value="t")
    return path


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return _chunk_store(tmp_path_factory.mktemp("fuzz") / "fuzz")


def _contents(store):
    """The store's row count and its dictionary columns' categories."""
    table = open_table(store)
    return table.nrows, [table.categories(name).tolist() for name in ("region", "segment")]


@pytest.fixture(scope="module")
def tiers(store):
    kwargs = dict(datasets=("census",), scale="smoke", data_dirs=(str(store),))
    solo, _ = start_server(RecommendationService(**kwargs))
    workers = [start_server(RecommendationService(**kwargs))[0] for _ in range(2)]
    front = FrontendServer(
        ("127.0.0.1", 0), [_ThreadWorker(i, w) for i, w in enumerate(workers)]
    )
    threading.Thread(target=front.serve_forever, args=(0.02,), daemon=True).start()
    yield {"server": solo.server_address[:2], "front end": front.server_address[:2]}
    front.shutdown()
    front.server_close()
    for server in (solo, *workers):
        server.graceful_shutdown(timeout=5)
    registry.unregister_on_disk("fuzz")


def _kind(annotation):
    head = str(annotation).split("|")[0].strip()
    return "collection" if head.startswith(("Sequence", "Mapping")) else head


def _cases(route, ids, rng):
    """``(case, path, raw body, accepted)`` for one row: ``accepted`` says
    whether the body must succeed (``None``: either answer will do)."""
    path = route.path(ids.get(route.template.split("/")[1]))
    cases = [
        ("no body", path, None),
        ("[]", path, b"[]"),
        ('"x"', path, b'"x"'),
        ("invalid JSON", path, b"{not json"),
    ]
    if "{id}" in route.template:
        cases.append(("unknown id", route.path("no-such-id"), None))
    if route.request is not None:
        for field in dataclasses.fields(route.request):
            kind = _kind(field.type)
            for value in rng.sample(WRONG[kind], 2) + (NESTED if kind == "collection" else []):
                body = {**BASES[route.name], field.name: value}
                cases.append((f"{field.name}={value!r}", path, json.dumps(body).encode()))
    cases = [(*case, None) for case in cases]
    for value in DEEP:
        if route.name == "recommend":
            body = {"target": [{"column": "region", "value": value}], "k": 1}
            cases.append((f"clause value {value!r}", path, json.dumps(body).encode(), False))
        if route.name == "append_dataset":
            for column in ROW:
                # Only a float column takes null: NaN, as CSV's empty cell.
                accepted = column == "sales" and value is None
                for form, rows in (
                    ("columnar", {name: [value if name == column else cell] for name, cell in ROW.items()}),
                    ("row objects", [{**ROW, column: value}]),
                ):
                    body = json.dumps({"rows": rows}).encode()
                    cases.append((f"{form} {column}={value!r}", path, body, accepted))
    return cases


def _exchange(address, method, path, body):
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        conn.close()


def _problem(route, status, content_type, raw):
    """What is wrong with one answer, or None."""
    if content_type != "application/json":
        return f"Content-Type {content_type!r}"
    try:
        body = json.loads(raw)
    except ValueError:
        return f"body is not JSON: {raw[:80]!r}"
    if status < 400:
        if status != route.status:
            return f"success status {status}, the row says {route.status}"
        try:
            TYPED.get(route.name, dict)(body)
        except (KeyError, TypeError, ValueError) as exc:
            return f"success does not parse: {exc!r}"
        return None
    error = body.get("error") if isinstance(body, dict) else None
    if status == 500 or not isinstance(error, dict) or error.get("code") not in ErrorCode.ALL:
        return f"not a typed envelope: {body}"
    return None


@pytest.mark.parametrize("tier", ["server", "front end"])
def test_every_answer_is_typed_success_or_the_envelope(tiers, store, tier):
    address = tiers[tier]
    with ServiceClient(*address) as client:
        ids = {
            "sessions": client.create_session(dataset="census").session_id,
            "datasets": "fuzz",
        }
    rng = random.Random(SEED)
    failures = []
    contents = _contents(store)
    for route in ROUTES:
        for case, path, body, accepted in _cases(route, ids, rng):
            status, content_type, raw = _exchange(address, route.method, path, body)
            problem = _problem(route, status, content_type, raw)
            succeeded = problem is None and status < 400
            if problem is None and accepted is not None and succeeded != accepted:
                problem = "accepted" if succeeded else f"rejected: {raw[:120]!r}"
            if succeeded:
                contents = _contents(store)
            elif _contents(store) != contents:
                problem = (problem or "") + " and changed the store"
            if problem:
                failures.append(f"{route.label} [{case}] -> {status}: {problem}")
    assert not failures, "\n".join(failures)
