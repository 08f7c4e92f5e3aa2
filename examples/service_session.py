"""A live recommendation-service session: the paper's analyst, served over HTTP.

Starts the SeeDB recommendation service in-process, replays a three-step
drill-down session over the census dataset (the Figure 1 journalist: start
from unmarried adults, drill into whatever deviates most) through the
typed :class:`~repro.service.client.ServiceClient` against the versioned
``/v1`` API, and prints the per-step recommendations plus the
cross-session cache hit-rate — the same session replayed immediately
afterwards is served entirely from memory, and a third replay reads the
view scores the cached results kept on their first hit.  A last session
asks the first step under the KL metric: the engine is the dataset's, not
the metric's, so it runs on the same engine and reads the same cached
results.

Run:  PYTHONPATH=src python examples/service_session.py

Exits non-zero if any request fails, a replayed session does not hit the
cache, the third replay's views and utilities differ from the cold pass's,
no view score was reused, the KL step issued a query or ``/v1/stats``
lists more than one engine (CI runs this as the service smoke check).
"""

import sys

from repro.service import AnalystDrillDown, RecommendationService, start_server
from repro.service.client import ServiceClient


def run_session(client: ServiceClient, label: str) -> tuple[int, int, list]:
    """Replay the three-step census drill-down; returns total hits/misses
    and each step's ranked ``(view, utility)`` pairs."""
    session = client.create_session(dataset="census")
    print(f"\n{label}: session {session.session_id} over census "
          f"({session.n_rows:,} rows)")
    analyst = AnalystDrillDown(
        [("marital_status", "Unmarried")], k=5, n_steps=3, seed=1
    )
    request = analyst.first_request()
    hits = misses = 0
    ranked = []
    while request is not None:
        response = client.recommend_raw(session.session_id, request)
        ranked.append(
            [
                ((v["func"], v["measure"], v["dimension"]), v["utility"])
                for v in response["views"]
            ]
        )
        stats = response["stats"]
        hits += stats["cache_hits"]
        misses += stats["cache_misses"]
        where = " AND ".join(
            f"{c['column']} = {c['value']!r}" for c in response["target"]
        )
        top = response["views"][0]
        print(f"  step {response['step'] + 1}: WHERE {where}")
        print(
            f"    top view: {top['func']}({top['measure']}) BY {top['dimension']} "
            f"(U={top['utility']:.4f}, drill group: {top['top_group']!r}) "
            f"[hits={stats['cache_hits']} misses={stats['cache_misses']} "
            f"wall={stats['wall_seconds'] * 1000:.1f}ms]"
        )
        request = analyst.next_request(response)
    return hits, misses, ranked


def main() -> None:
    # 1. Boot the real HTTP service in-process (ephemeral port).
    service = RecommendationService(datasets=("census",))
    server, _ = start_server(service)
    host, port = server.server_address[:2]
    print(f"service listening on http://{host}:{port}")
    try:
        with ServiceClient(host, port) as client:
            # 2. A first analyst explores: every view query is a cache miss.
            first_hits, first_misses, cold = run_session(client, "analyst #1 (cold)")

            # 3. A second analyst retraces the same steps: served from memory.
            # Each cached result is scored on this, its first hit, and keeps
            # the view scores it yields.
            second_hits, second_misses, _ = run_session(client, "analyst #2 (replay)")

            # 4. A third analyst reads those scores: no routing, no scoring.
            third_hits, third_misses, memoized = run_session(
                client, "analyst #3 (scores reused)"
            )

            # 5. An analyst on another metric: the same engine, the same results.
            kl = client.create_session(dataset="census", metric="kl")
            first_request = AnalystDrillDown(
                [("marital_status", "Unmarried")], k=5, n_steps=1
            ).first_request()
            kl_stats = client.recommend_raw(kl.session_id, first_request)["stats"]
            print(
                f"\nanalyst #4 (kl): session {kl.session_id}, first step issued "
                f"{kl_stats['queries_issued']} queries [hits={kl_stats['cache_hits']}]"
            )

            # 6. The service-wide picture.
            stats = client.stats()
            cache = stats["cache"]
            print(
                f"\nservice: {stats['sessions']} sessions, {stats['requests']} "
                f"requests; cache hit-rate {cache['hit_rate']:.0%} "
                f"({cache['hits']} hits / {cache['misses']} misses, "
                f"{cache['bytes_saved'] / 1e6:.1f} MB of scanning avoided, "
                f"{cache['scores_reused']} view scores reused)"
            )
        for label, hits, misses in (
            ("replayed", second_hits, second_misses),
            ("third", third_hits, third_misses),
        ):
            if first_hits != 0 or misses != 0 or hits == 0:
                raise SystemExit(
                    f"expected the {label} session to be served entirely from the "
                    f"cache (got hits={hits}, misses={misses})"
                )
        if memoized != cold:
            raise SystemExit("the third session's views or utilities differ from the cold pass")
        if cache["scores_reused"] <= 0:
            raise SystemExit("no view score was reused from a cached result")
        if kl_stats["queries_issued"] != 0 or len(stats["engines_loaded"]) != 1:
            raise SystemExit(
                f"expected the kl session to issue no query on the one census engine "
                f"(got {kl_stats['queries_issued']} queries, engines "
                f"{stats['engines_loaded']})"
            )
        print(
            "replayed sessions were served entirely from the cross-session cache; "
            "the third read its view scores from it, equal to the cold pass; the kl "
            "session ran on the same engine and issued no query"
        )
    finally:
        server.shutdown()
        server.server_close()
        service.close()


if __name__ == "__main__":
    sys.exit(main())
