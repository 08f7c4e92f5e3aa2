"""A growing dataset served live: appends without a cache blowaway.

Builds a small on-disk chunk store, serves it through the recommendation
service, and interleaves an analyst session with three ``POST
/v1/datasets/<id>/append`` batches.  The first two bring only known
categories, which the store encodes by lookup in the stored dictionaries
(``columns_rewritten`` 0); the third brings an unseen ``region``, which
takes the union path and rewrites that one dictionary column
(``columns_rewritten`` 1).  After every append the session's next
recommendation reports the dataset grew (``data.changed``), and the
engine stats prove the refresh was **delta-maintained**: every view
query carried its cached partial state forward (``delta_hits``) and
scanned only the appended rows (``rows_scanned``), instead of recomputing
the full table — end to end over HTTP, through both encode paths.

Run:  PYTHONPATH=src python examples/append_session.py

Exits non-zero if any request fails, an append rewrites a different
number of columns than its categories call for, a refresh rescans base
rows, the repeat request after an append is not served warm from the
result cache, or the result cache still holds entries of a superseded
table version after the appends (CI runs this as the append smoke check).
"""

import sys
import tempfile

import numpy as np

from repro.db.chunks import write_table
from repro.db.table import Table
from repro.db.types import ColumnRole
from repro.service import RecommendationService, start_server
from repro.service.api import AppendRequest
from repro.service.client import ServiceClient

BASE_ROWS = 400
REGIONS = ["north", "south", "east", "west"]


def make_store(root: str) -> str:
    """Write a 400-row toy sales chunk store; returns its directory."""
    rng = np.random.default_rng(0)
    table = Table(
        "sales",
        {
            "region": rng.choice(REGIONS, BASE_ROWS),
            "flavor": rng.choice(["a", "b", "c"], BASE_ROWS),
            "sales": rng.gamma(2.0, 10.0, BASE_ROWS),
            "segment": rng.choice(["t", "r"], BASE_ROWS),
        },
        roles={
            "region": ColumnRole.DIMENSION,
            "flavor": ColumnRole.DIMENSION,
            "sales": ColumnRole.MEASURE,
            "segment": ColumnRole.OTHER,
        },
    )
    path = f"{root}/sales"
    write_table(
        table, path, chunk_rows=64,
        split_column="segment", target_value="t", other_value="r",
    )
    return path


def batch(n: int, seed: int, region: str) -> dict[str, list]:
    """A columnar batch of n new rows, all in one region."""
    rng = np.random.default_rng(seed)
    return {
        "region": [region] * n,
        "flavor": list(rng.choice(["a", "b", "c"], n)),
        "sales": [float(x) for x in rng.gamma(3.0, 14.0, n)],
        "segment": list(rng.choice(["t", "r"], n)),
    }


def recommend(client: ServiceClient, session_id: str) -> dict:
    """One raw recommend step (k=3)."""
    return client.recommend_raw(session_id, {"k": 3})


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="seedb_append_demo_") as root:
        path = make_store(root)
        service = RecommendationService(
            datasets=(), scale="smoke", data_dirs=(path,)
        )
        server, _ = start_server(service)
        host, port = server.server_address[:2]
        print(f"service listening on http://{host}:{port}")
        try:
            with ServiceClient(host, port) as client:
                session = client.create_session(dataset="sales")
                print(f"session {session.session_id} over sales "
                      f"({session.n_rows} rows)")

                cold = recommend(client, session.session_id)
                assert cold["data"] == {
                    "n_rows": BASE_ROWS, "new_rows": 0, "changed": False,
                }
                print(f"  cold run: {cold['stats']['queries_issued']} queries, "
                      f"{cold['stats']['rows_scanned']:,} rows scanned")

                total = BASE_ROWS
                steps = ((40, "north"), (80, "north"), (30, "central"))
                for step, (n_new, region) in enumerate(steps, start=1):
                    response = client.append(
                        "sales", AppendRequest(rows=batch(n_new, step, region))
                    )
                    total += n_new
                    assert response.n_rows == total and response.appended == n_new
                    assert response.engines_refreshed >= 1
                    # Known categories encode by lookup and leave every
                    # dictionary as it is; an unseen region re-sorts one.
                    rewritten = int(region not in REGIONS)
                    if response.columns_rewritten != rewritten:
                        raise SystemExit(
                            f"append #{step}: {response.columns_rewritten} "
                            f"columns rewritten, expected {rewritten}"
                        )
                    print(f"\nappend #{step}: +{n_new} {region!r} rows -> {total} "
                          f"(digest {response.digest[:12]}..., "
                          f"{response.engines_refreshed} engine(s) refreshed, "
                          f"{rewritten} column(s) rewritten)")

                    refresh = recommend(client, session.session_id)
                    data, stats = refresh["data"], refresh["stats"]
                    assert data == {
                        "n_rows": total, "new_rows": n_new, "changed": True,
                    }
                    # The fix under demonstration: the refresh run merged
                    # cached partial states and scanned ONLY the new rows.
                    if stats["delta_hits"] != stats["queries_issued"] or (
                        stats["queries_issued"] == 0
                    ):
                        raise SystemExit(
                            f"append #{step}: refresh missed the delta cache "
                            f"({stats['delta_hits']}/{stats['queries_issued']})"
                        )
                    if stats["rows_scanned"] != stats["queries_issued"] * n_new:
                        raise SystemExit(
                            f"append #{step}: refresh rescanned base rows "
                            f"({stats['rows_scanned']:,} scanned for a "
                            f"{n_new}-row delta)"
                        )
                    print(f"  refresh: dataset grew by {data['new_rows']}, "
                          f"{stats['queries_issued']} queries all delta-hits, "
                          f"{stats['rows_scanned']:,} rows scanned "
                          f"(= queries x {n_new} new rows)")

                    warm = recommend(client, session.session_id)
                    if warm["stats"]["queries_issued"] != 0 or (
                        warm["stats"]["cache_hits"] == 0
                    ):
                        raise SystemExit(
                            f"append #{step}: repeat request went cold "
                            f"(queries={warm['stats']['queries_issued']})"
                        )
                    print(f"  repeat: 0 queries, "
                          f"{warm['stats']['cache_hits']} result-cache hits")

                # Each version puts one entry per query of the request; the
                # refresh dropped the superseded versions' entries.
                entries = client.stats()["cache"]["entries"]
                if entries > stats["queries_issued"]:
                    raise SystemExit(
                        f"result cache holds {entries} entries after the appends, "
                        f"more than one table version's {stats['queries_issued']}"
                    )
                print(f"\nresult cache: {entries} entries, one table version's worth")

                delta = service.stats()["delta_cache"]
                print(f"\ndelta-state cache: {delta['hits']} hits / "
                      f"{delta['misses']} misses over {delta['entries']} "
                      f"retained partial states")
                if delta["hits"] == 0:
                    raise SystemExit("delta-state cache never hit")
        finally:
            server.shutdown()
            server.server_close()
            service.close()
    print("appends were delta-maintained: new chunks only, the current version stayed warm")


if __name__ == "__main__":
    sys.exit(main())
